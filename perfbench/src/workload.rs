//! The three workloads: their deployments and one transaction each.
//!
//! Every client is a closed loop over one database session. Writes only
//! touch keys the client owns (`key % CLIENTS == client`), so two clients
//! never contend for a row and no run has expected aborts; a write
//! conflict is still counted if one occurs.

use crate::trace::Tracer;
use socrates::SocratesConfig;
use socrates_cdb::schema::{T_ACCOUNTS, T_CONFIG, T_HISTORY, T_ITEMS, T_ORDERS, T_SMALL};
use socrates_common::latency::DeviceProfile;
use socrates_common::rng::Rng;
use socrates_common::Error;
use socrates_engine::{Database, TxnHandle, Value};
use std::collections::BTreeMap;

/// Closed-loop clients per workload: one per vCPU of the 2-vCPU host the
/// bounds were set on.
pub const CLIENTS: usize = 2;

/// CDB scale factor: 3 000 accounts and orders, 6 000 items. The whole
/// database fits in the one page-server partition created at launch.
pub const SCALE_FACTOR: u64 = 3000;

/// Rows a range transaction reads (CDB's range class).
const RANGE_ROWS: i64 = 100;

/// Payload bytes an account or order update writes (CDB's default).
const UPDATE_PAYLOAD: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CommitLite,
    ColdRead,
    CdbMixed,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "commit_lite" => Some(Kind::CommitLite),
            "cold_read" => Some(Kind::ColdRead),
            "cdb_mixed" => Some(Kind::CdbMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CommitLite => "commit_lite",
            Kind::ColdRead => "cold_read",
            Kind::CdbMixed => "cdb_mixed",
        }
    }

    /// The deployment: `SocratesConfig::realistic(seed)` on the
    /// DirectDrive landing zone, with this workload's cache sizes. Returns
    /// the config and every override applied to `realistic`.
    pub fn config(self, seed: u64) -> (SocratesConfig, Vec<String>) {
        let dd = DeviceProfile::direct_drive();
        let mut overrides = vec![format!("lz_profile={}", dd.name)];
        let mut config = SocratesConfig::realistic(seed).with_lz_profile(dd);
        let cache = match self {
            // The default caches hold the whole database.
            Kind::CommitLite => None,
            Kind::ColdRead => Some((32, 0)),
            // Table 3's shape: memory and RBPEX together hold a third of it.
            Kind::CdbMixed => Some((32, 96)),
        };
        if let Some((mem, rbpex)) = cache {
            config = config.with_cache(mem, rbpex);
            overrides.push(format!("mem_cache_pages={mem}"));
            overrides.push(format!("rbpex_pages={rbpex}"));
        }
        (config, overrides)
    }

    /// Whether clients run against the secondary rather than the primary.
    pub fn on_secondary(self) -> bool {
        self == Kind::ColdRead
    }
}

/// Why a transaction did not commit.
pub enum TxnError {
    /// A write conflict aborted it; the workload tolerates these.
    Conflict,
    /// Anything else, including a wrong answer: the output check fails.
    Failed(String),
}

impl From<Error> for TxnError {
    fn from(e: Error) -> TxnError {
        match e {
            Error::WriteConflict(_) => TxnError::Conflict,
            e => TxnError::Failed(e.to_string()),
        }
    }
}

/// One client's generator and the state its output checks need.
pub struct Client {
    kind: Kind,
    id: usize,
    rng: Rng,
    seq: i64,
    /// `cdb_mixed`'s remaining transaction classes; see [`Client::next_class`].
    deck: Vec<usize>,
    /// An account balance written by the open transaction.
    pending: Option<(i64, i64)>,
    /// The last acknowledged balance written to each account key.
    pub acked: BTreeMap<i64, i64>,
}

impl Client {
    pub fn new(kind: Kind, id: usize, seed: u64) -> Client {
        let rng = Rng::new(seed ^ ((id as u64 + 1) << 48));
        Client { kind, id, rng, seq: 0, deck: Vec::new(), pending: None, acked: BTreeMap::new() }
    }

    /// Run one transaction, begin to acknowledged commit. Returns whether
    /// it wrote.
    pub fn run_txn(&mut self, db: &Database, tr: &mut Tracer) -> Result<bool, TxnError> {
        self.seq += 1;
        let h = tr.call("begin", || db.begin());
        let body = match self.kind {
            Kind::CommitLite => self.update_lite(db, &h, tr).map(|()| true),
            Kind::ColdRead => {
                let key = self.rng.gen_range(SCALE_FACTOR) as i64;
                get_checked(db, &h, tr, T_ACCOUNTS, key).map(|()| false)
            }
            Kind::CdbMixed => self.cdb_default(db, &h, tr),
        };
        match body {
            Ok(wrote) => {
                tr.call("commit", || db.commit(h))?;
                if let Some((key, balance)) = self.pending.take() {
                    self.acked.insert(key, balance);
                }
                Ok(wrote)
            }
            Err(e) => {
                db.abort(h);
                self.pending = None;
                Err(e)
            }
        }
    }

    /// The next CDB Default class: 57 point, 28 range, 2 hot, 8 UpdateLite,
    /// 1 bulk update and 4 history inserts in every 100, in seeded order.
    /// The weights copy `socrates_cdb::workload::CdbMix::Default`, which
    /// does not expose them; a change there must be made here too.
    /// Dealing from a deck rather than drawing each class independently
    /// keeps the 1% bulk updates, which sit at the latency p99, at exactly
    /// 1% of every run.
    fn next_class(&mut self) -> usize {
        if self.deck.is_empty() {
            for (class, n) in [57, 28, 2, 8, 1, 4].into_iter().enumerate() {
                self.deck.extend(std::iter::repeat_n(class, n));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("deck refilled above")
    }

    /// CDB's key locality: 10% of draws go to a hot 2% of the domain.
    fn pick_key(&mut self, domain: u64) -> i64 {
        let hot = (domain / 50).max(1);
        let span = if self.rng.gen_bool(0.1) { hot } else { domain };
        self.rng.gen_range(span) as i64
    }

    /// A key of `domain` this client owns, with CDB's locality.
    fn own_key(&mut self, domain: u64) -> i64 {
        self.pick_key(domain / CLIENTS as u64) * CLIENTS as i64 + self.id as i64
    }

    fn payload(&mut self, n: usize) -> Value {
        let mut b = vec![0u8; n];
        self.rng.fill_bytes(&mut b);
        Value::Bytes(b)
    }

    /// CDB UpdateLite: rewrite one account's balance and payload.
    fn update_lite(
        &mut self,
        db: &Database,
        h: &TxnHandle,
        tr: &mut Tracer,
    ) -> Result<(), TxnError> {
        let key = self.own_key(SCALE_FACTOR);
        let balance = self.seq;
        let row = vec![Value::Int(key), Value::Int(balance), self.payload(UPDATE_PAYLOAD)];
        if !tr.call("update", || db.update(h, T_ACCOUNTS, &row))? {
            return Err(TxnError::Failed(format!("{T_ACCOUNTS} key {key} missing on update")));
        }
        self.pending = Some((key, balance));
        Ok(())
    }

    /// One transaction of the CDB Default mix. The classes follow
    /// `socrates_cdb::workload::CdbWorkload::execute_one`, copied because
    /// that call hides each `Database` call's result and time, which the
    /// output checks and spans need.
    fn cdb_default(
        &mut self,
        db: &Database,
        h: &TxnHandle,
        tr: &mut Tracer,
    ) -> Result<bool, TxnError> {
        match self.next_class() {
            0 => {
                let key = self.pick_key(SCALE_FACTOR);
                get_checked(db, h, tr, T_ACCOUNTS, key)?;
                Ok(false)
            }
            1 => {
                let lo = self.pick_key(SCALE_FACTOR - RANGE_ROWS as u64);
                let (from, to) = ([Value::Int(lo)], [Value::Int(lo + RANGE_ROWS)]);
                let rows = tr.call("scan_range", || {
                    db.scan_range(h, T_ITEMS, &from, &to, RANGE_ROWS as usize)
                })?;
                let keys_match = rows
                    .iter()
                    .enumerate()
                    .all(|(i, r)| r.first() == Some(&Value::Int(lo + i as i64)));
                if rows.len() != RANGE_ROWS as usize || !keys_match {
                    return Err(TxnError::Failed(format!(
                        "{T_ITEMS} range from {lo}: {} rows, keys in order: {keys_match}",
                        rows.len()
                    )));
                }
                Ok(false)
            }
            2 => {
                let config_key = self.rng.gen_range(64) as i64;
                get_checked(db, h, tr, T_CONFIG, config_key)?;
                let small_key = self.rng.gen_range(32) as i64;
                get_checked(db, h, tr, T_SMALL, small_key)?;
                Ok(false)
            }
            3 => self.update_lite(db, h, tr).map(|()| true),
            4 => {
                for _ in 0..16 {
                    let row =
                        vec![Value::Int(self.own_key(SCALE_FACTOR)), self.payload(UPDATE_PAYLOAD)];
                    tr.call("upsert", || db.upsert(h, T_ORDERS, &row))?;
                }
                Ok(true)
            }
            _ => {
                let id = ((self.id as i64 + 1) << 40) | self.seq;
                let row = [Value::Int(id), self.payload(80)];
                tr.call("insert", || db.insert(h, T_HISTORY, &row))?;
                Ok(true)
            }
        }
    }
}

/// Point read that fails unless it returns the row for `key`.
fn get_checked(
    db: &Database,
    h: &TxnHandle,
    tr: &mut Tracer,
    table: &str,
    key: i64,
) -> Result<(), TxnError> {
    match tr.call("get", || db.get(h, table, &[Value::Int(key)]))? {
        Some(row) if row.first() == Some(&Value::Int(key)) => Ok(()),
        Some(row) => {
            Err(TxnError::Failed(format!("{table} key {key} returned key {:?}", row.first())))
        }
        None => Err(TxnError::Failed(format!("{table} key {key} not found"))),
    }
}

/// Read back every acknowledged balance from `db`.
pub fn verify_acked(db: &Database, acked: &BTreeMap<i64, i64>) -> Result<(), String> {
    let h = db.begin();
    for (&key, &balance) in acked {
        let row =
            db.get(&h, T_ACCOUNTS, &[Value::Int(key)]).map_err(|e| format!("key {key}: {e}"))?;
        let got = row.as_ref().and_then(|r| r.get(1));
        if got != Some(&Value::Int(balance)) {
            db.abort(h);
            return Err(format!("key {key}: balance {got:?}, last acknowledged {balance}"));
        }
    }
    db.commit(h).map_err(|e| format!("read-back commit: {e}"))
}
