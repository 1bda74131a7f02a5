//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <commit_lite|cold_read|cdb_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Launches a deployment, loads CDB, drives a closed loop of [`CLIENTS`]
//! sessions for `--seconds`, checks the outputs, and prints one metric a
//! line followed by a JSON summary as the last line. With `--trace 0` the
//! summary holds the end-to-end metrics. With `--trace 1` it holds the
//! per-layer metrics, taken from outside the program: spans around the
//! benchmark's own `Database` calls, deltas of the counters the tiers
//! register in the `MetricsHub`, and per-thread CPU grouped by thread
//! name. The traced window alternates untraced and traced segments so the
//! tracing overhead is measured in the same run. Traced runs also write
//! their spans and hub snapshots under `target/perfbench/`. All set-ups
//! but the window's are timed in child processes of this program, which
//! get the internal `--setup-rep <n>` flag.
//!
//! Exits 2 on bad arguments and 1 when a run fails or an output check
//! fails.

mod cpu;
mod trace;
mod workload;

use cpu::{ThreadCpu, LAYER_NAMES};
use socrates::Socrates;
use socrates_cdb::schema::{load_cdb, CdbScale};
use socrates_common::obs::MetricValue;
use socrates_engine::Database;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::{durations_us, Span, Tracer};
use workload::{Client, Kind, TxnError, CLIENTS, SCALE_FACTOR};

/// Deployments set up per run; `setup_s` is the median. All but the one
/// the window uses are set up in child processes, so every set-up starts
/// in a process that holds no other deployment.
const SETUPS: usize = 11;
/// Closed-loop time before the window opens, so caches fill.
const WARMUP: Duration = Duration::from_secs(2);
/// Equal slices of an untraced window.
const SLICES: usize = 20;
/// Host steal, as a share of host CPU time, above which an untraced slice
/// is left out of the end-to-end metrics.
const STEAL_LIMIT_PCT: f64 = 2.0;
/// Fewest slices the end-to-end metrics pool: when fewer stay within the
/// steal limit, the ones with the least steal.
const MIN_SLICES: usize = 10;
/// Segments of a traced window: untraced and traced, alternating.
const TRACED_SEGMENTS: usize = 4;
/// Gauge sampling period inside traced segments.
const GAUGE_PERIOD: Duration = Duration::from_millis(100);
/// Largest share of process CPU the thread groups may leave unexplained.
const CPU_TOLERANCE_PCT: f64 = 5.0;
/// Bound on any wait for log apply.
const APPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Row padding of the CDB load.
const PADDING: usize = 64;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: time set-up number `n`, print it, exit.
    setup_rep: Option<u64>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut setup_rep) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value.parse::<u64>().ok().filter(|s| (1..=3600).contains(s)).ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--setup-rep" => setup_rep = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_rep,
    })
}

/// The hub flattened to `tier.index.metric → value`. A histogram `h`
/// appears as `h.count`, `h.p50` and `h.p99`.
type HubView = BTreeMap<String, f64>;

fn hub_view(sys: &Socrates) -> HubView {
    let mut view = HubView::new();
    for s in sys.hub().snapshot().samples {
        let name = s.full_name();
        match s.value {
            MetricValue::Counter(c) => {
                view.insert(name, c as f64);
            }
            MetricValue::Gauge(g) => {
                view.insert(name, g as f64);
            }
            MetricValue::Histogram(h) => {
                view.insert(format!("{name}.count"), h.count as f64);
                view.insert(format!("{name}.p50"), h.p50_us as f64);
                view.insert(format!("{name}.p99"), h.p99_us as f64);
            }
        }
    }
    view
}

/// Values of `metric` on every node of `tier`.
fn tier_values<'a>(
    view: &'a HubView,
    tier: &'a str,
    metric: &'a str,
) -> impl Iterator<Item = f64> + 'a {
    view.iter().filter_map(move |(name, v)| {
        let index =
            name.strip_prefix(tier)?.strip_prefix('.')?.strip_suffix(metric)?.strip_suffix('.')?;
        index.bytes().all(|b| b.is_ascii_digit()).then_some(*v)
    })
}

fn tier_sum(view: &HubView, tier: &str, metric: &str) -> f64 {
    tier_values(view, tier, metric).sum()
}

fn tier_max(view: &HubView, tier: &str, metric: &str) -> f64 {
    tier_values(view, tier, metric).fold(0.0, f64::max)
}

/// What is read at each window edge.
struct Edge {
    at: Instant,
    proc_us: u64,
    /// Host `(steal, total)` CPU ticks.
    host: (u64, u64),
    threads: ThreadCpu,
    hub: HubView,
}

fn take_edge(sys: &Socrates, traced: bool) -> Result<Edge, String> {
    let (threads, hub) = if traced {
        (ThreadCpu::read()?, hub_view(sys))
    } else {
        (ThreadCpu::default(), HubView::new())
    };
    Ok(Edge {
        at: Instant::now(),
        proc_us: cpu::process_us()?,
        host: cpu::host_ticks()?,
        threads,
        hub,
    })
}

/// One client's tallies for one segment.
#[derive(Clone, Default)]
struct Tally {
    attempted: u64,
    committed: u64,
    failed: u64,
    conflicts: u64,
    write_attempts: u64,
    latency_ns: Vec<u64>,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.failed += other.failed;
        self.conflicts += other.conflicts;
        self.write_attempts += other.write_attempts;
        self.latency_ns.extend_from_slice(&other.latency_ns);
    }
}

struct ClientResult {
    tallies: Vec<Tally>,
    spans: Vec<Span>,
    acked: BTreeMap<i64, i64>,
    errors: Vec<String>,
}

/// Whether segment `s` of the window records spans: the even ones of a
/// traced run.
fn traced_segment(args: &Args, s: usize) -> bool {
    args.trace && s > 0 && s.is_multiple_of(2)
}

fn run_client(
    args: &Args,
    id: usize,
    db: &Database,
    segment: &AtomicUsize,
    segments: usize,
    epoch: Instant,
) -> ClientResult {
    let mut client = Client::new(args.kind, id, args.seed);
    let mut tr = Tracer::new(epoch);
    // Index 0 is the warm-up; 1..=segments the window.
    let mut tallies = vec![Tally::default(); segments + 1];
    let mut errors = Vec::new();
    for n in 0u64.. {
        // ordering: relaxed — the segment index publishes no other data
        let s = segment.load(Ordering::Relaxed);
        if s > segments {
            break;
        }
        tr.on = traced_segment(args, s);
        tr.txn = ((id as u64 + 1) << 40) | n;
        let t0 = Instant::now();
        let result = client.run_txn(db, &mut tr);
        let latency = t0.elapsed();
        let tally = &mut tallies[s];
        tally.attempted += 1;
        match result {
            Ok(wrote) => {
                if tr.on {
                    tr.record("txn", t0);
                }
                tally.committed += 1;
                tally.write_attempts += wrote as u64;
                tally.latency_ns.push(latency.as_nanos() as u64);
            }
            Err(TxnError::Conflict) => {
                tally.failed += 1;
                tally.conflicts += 1;
                tally.write_attempts += 1;
            }
            Err(TxnError::Failed(msg)) => {
                tally.failed += 1;
                // The first few say what went wrong; any one fails the run.
                if errors.len() < 10 {
                    errors.push(format!("client {id}: {msg}"));
                }
            }
        }
    }
    ClientResult { tallies, spans: tr.spans, acked: client.acked, errors }
}

/// Stage times of one deployment's set-up.
struct SetupTimes {
    launch_s: f64,
    load_s: f64,
    apply_wait_s: f64,
    l0_after_load: f64,
    db_pages: u64,
}

impl SetupTimes {
    fn total_s(&self) -> f64 {
        self.launch_s + self.load_s + self.apply_wait_s
    }

    /// The line a child process prints; [`SetupTimes::from_line`] reads it.
    fn to_line(&self) -> String {
        format!(
            "setup-times {} {} {} {} {}",
            self.launch_s, self.load_s, self.apply_wait_s, self.l0_after_load, self.db_pages
        )
    }

    fn from_line(line: &str) -> Option<SetupTimes> {
        let f: Vec<&str> = line.strip_prefix("setup-times ")?.split(' ').collect();
        let num = |i: usize| f.get(i)?.parse::<f64>().ok();
        Some(SetupTimes {
            launch_s: num(0)?,
            load_s: num(1)?,
            apply_wait_s: num(2)?,
            l0_after_load: num(3)?,
            db_pages: f.get(4)?.parse().ok()?,
        })
    }
}

/// Time set-up number `rep` in a child process of this program and wait
/// for it to exit. The child exits without tearing its deployment down.
fn set_up_in_child(args: &Args, rep: u64, tr: &mut Tracer) -> Result<SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    tr.txn = rep;
    let t0 = Instant::now();
    let out = std::process::Command::new(exe)
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--setup-rep", &rep.to_string()])
        .output()
        .map_err(|e| format!("set-up {rep} in a child process: {e}"))?;
    tr.record("setup", t0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(SetupTimes::from_line) {
        Some(times) if out.status.success() => Ok(times),
        _ => Err(format!(
            "set-up {rep} in a child process: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Launch, load CDB, and wait until every page server and secondary has
/// applied the loaded log.
fn set_up(
    kind: Kind,
    seed: u64,
    rep: u64,
    tr: &mut Tracer,
) -> Result<(Socrates, SetupTimes), String> {
    let fail = |stage: &str, e: socrates_common::Error| format!("setup {stage}: {e}");
    tr.txn = rep;
    let t0 = Instant::now();
    let sys = Socrates::launch(kind.config(seed).0).map_err(|e| fail("launch", e))?;
    tr.record("setup.launch", t0);
    let t1 = Instant::now();
    let primary = sys.primary().map_err(|e| fail("load", e))?;
    load_cdb(primary.db(), CdbScale { scale_factor: SCALE_FACTOR, padding: PADDING }, seed)
        .map_err(|e| fail("load", e))?;
    tr.record("setup.load", t1);
    let t2 = Instant::now();
    let lsn = primary.pipeline().hardened_lsn();
    sys.fabric().wait_applied(lsn, APPLY_TIMEOUT).map_err(|e| fail("apply", e))?;
    for i in 0..sys.secondary_count() {
        let secondary = sys.secondary(i).map_err(|e| fail("apply", e))?;
        secondary.wait_applied(lsn, APPLY_TIMEOUT).map_err(|e| fail("apply", e))?;
    }
    tr.record("setup.apply_wait", t2);
    tr.record("setup", t0);
    let times = SetupTimes {
        launch_s: (t1 - t0).as_secs_f64(),
        load_s: (t2 - t1).as_secs_f64(),
        apply_wait_s: t2.elapsed().as_secs_f64(),
        l0_after_load: tier_sum(&hub_view(&sys), "pageserver", "layer_l0_count"),
        db_pages: primary.io().next_page_id(),
    };
    Ok((sys, times))
}

/// The slices an untraced window's end-to-end metrics pool, given each
/// slice's host steal in percent. Steal on a shared VM slows whatever
/// slice it lands in and comes in bursts. Kept are every slice within
/// [`STEAL_LIMIT_PCT`], and never fewer than [`MIN_SLICES`]: the ones with
/// the least steal. Which slices count is set by the host's steal counter,
/// never by what the program measured in them.
fn kept_slices(steal_pct: &[(usize, f64)]) -> Vec<usize> {
    let mut ranked = steal_pct.to_vec();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let within = ranked.iter().filter(|(_, p)| *p <= STEAL_LIMIT_PCT).count();
    ranked.truncate(within.max(MIN_SLICES));
    ranked.into_iter().map(|(s, _)| s).collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted `v`; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The HEAD commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let kind = args.kind;
    let epoch = Instant::now();
    let mut setup_tr = Tracer::new(epoch);
    setup_tr.on = args.trace;

    let mut setups = Vec::with_capacity(SETUPS);
    for rep in 1..SETUPS as u64 {
        setups.push(set_up_in_child(args, rep, &mut setup_tr)?);
    }
    let (sys, first) = set_up(kind, args.seed, 0, &mut setup_tr)?;
    let (primary, secondary);
    let db = if kind.on_secondary() {
        secondary = sys.secondary(0).map_err(|e| e.to_string())?;
        secondary.db()
    } else {
        primary = sys.primary().map_err(|e| e.to_string())?;
        primary.db()
    };
    let (mut report, traced, hub_tsv) = drive(args, &sys, db, epoch)?;
    let config = &sys.fabric().config;
    report.notes.insert(
        0,
        format!(
            "meta git_sha={} nproc={} clients={CLIENTS} lz_profile={} overrides=[{}] \
             db_pages_loaded={} mem_cache_pages={} rbpex_pages={}",
            git_sha(),
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
            config.lz_profile.name,
            kind.config(args.seed).1.join(","),
            first.db_pages,
            config.mem_cache_pages,
            config.rbpex_pages,
        ),
    );
    drop(sys);
    setups.push(first);
    report.notes.push(format!(
        "set-ups (s): {:?}",
        setups.iter().map(|t| (t.total_s() * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    let med = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    let mut m = |name: &str, value: f64, unit: &'static str| {
        report.metrics.push((name.to_string(), value, unit))
    };
    if !args.trace {
        m("setup_s", med(SetupTimes::total_s), "s");
        return Ok(report);
    }
    m("setup.load_s", med(|t| t.load_s), "s");
    m("setup.apply_wait_s", med(|t| t.apply_wait_s), "s");
    m("pageserver.l0_after_load", med(|t| t.l0_after_load), "count");

    let mut spans = setup_tr.spans;
    spans.extend(traced);
    let dir = std::path::Path::new("target/perfbench");
    let stem = format!("{}-seed{}", kind.name(), args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("spans-{stem}.tsv")), trace::to_tsv(&spans)))
        .and_then(|()| std::fs::write(dir.join(format!("hub-{stem}.tsv")), hub_tsv))
        .map_err(|e| format!("writing trace files: {e}"))?;
    Ok(report)
}

/// Run the closed loop against `db`, then check outputs and compute the
/// window's metrics. Returns them with the traced spans and the hub
/// snapshots at the window edges.
fn drive(
    args: &Args,
    sys: &Socrates,
    db: &Database,
    epoch: Instant,
) -> Result<(Report, Vec<Span>, String), String> {
    let kind = args.kind;
    let segments = if args.trace { TRACED_SEGMENTS } else { SLICES };
    let seg_len = Duration::from_secs_f64(args.seconds as f64 / segments as f64);
    let primary = sys.primary().map_err(|e| e.to_string())?;
    let segment = AtomicUsize::new(0);
    let mut l0_max = 0.0f64;
    let mut lag_max = 0.0f64;

    let (edges, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let segment = &segment;
                std::thread::Builder::new()
                    .name(format!("client-{id}"))
                    .spawn_scoped(scope, move || run_client(args, id, db, segment, segments, epoch))
                    .expect("spawn client thread")
            })
            .collect();
        let edges = (|| -> Result<Vec<Edge>, String> {
            std::thread::sleep(WARMUP);
            if args.trace {
                // Window-only percentiles for the two hub histograms the
                // per-layer metrics read. Hedging, the only other reader of
                // the route histogram, is inactive with one partition replica.
                primary.pipeline().metrics().harden_latency.reset();
                for pid in sys.fabric().partition_ids() {
                    if let Some(p) = sys.fabric().partition(pid) {
                        p.route.latency_histogram().reset();
                    }
                }
            }
            let mut edges = vec![take_edge(sys, args.trace)?];
            for s in 1..=segments {
                // ordering: relaxed — the segment index publishes no other data
                segment.store(s, Ordering::Relaxed);
                let start = Instant::now();
                if traced_segment(args, s) {
                    while start.elapsed() < seg_len {
                        std::thread::sleep(
                            GAUGE_PERIOD.min(seg_len.saturating_sub(start.elapsed())),
                        );
                        let view = hub_view(sys);
                        l0_max = l0_max.max(tier_max(&view, "pageserver", "layer_l0_count"));
                        lag_max = lag_max.max(tier_max(&view, "secondary", "apply_lag_bytes"));
                    }
                } else {
                    std::thread::sleep(seg_len);
                }
                edges.push(take_edge(sys, args.trace)?);
            }
            Ok(edges)
        })();
        // ordering: relaxed — the segment index publishes no other data
        segment.store(segments + 1, Ordering::Relaxed);
        let results: Vec<ClientResult> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (edges, results)
    });
    let edges = edges?;

    let mut errors: Vec<String> = results.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    let mut tallies = vec![Tally::default(); segments + 1];
    for r in &results {
        for (s, t) in r.tallies.iter().enumerate() {
            tallies[s].add(t);
        }
    }
    if kind == Kind::CommitLite {
        let acked: BTreeMap<i64, i64> = results.iter().flat_map(|r| r.acked.clone()).collect();
        let mut check = workload::verify_acked(primary.db(), &acked)
            .map_err(|e| format!("primary read-back: {e}"));
        if check.is_ok() {
            let lsn = primary.pipeline().hardened_lsn();
            let secondary = sys.secondary(0).map_err(|e| e.to_string())?;
            check = secondary
                .wait_applied(lsn, APPLY_TIMEOUT)
                .map_err(|e| e.to_string())
                .and_then(|()| workload::verify_acked(secondary.db(), &acked))
                .map_err(|e| format!("secondary read-back: {e}"));
        }
        if let Err(e) = check {
            errors.push(e);
        }
    }

    let window: Vec<usize> = (1..=segments).collect();
    let mut total = Tally::default();
    for &s in &window {
        total.add(&tallies[s]);
    }
    let secs = |segs: &[usize]| {
        segs.iter().map(|&s| (edges[s].at - edges[s - 1].at).as_secs_f64()).sum::<f64>()
    };
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    let mut hub_tsv = String::from("edge\tmetric\tvalue\n");
    let mut notes = Vec::new();

    if !args.trace {
        let steal_pct: Vec<(usize, f64)> = window
            .iter()
            .map(|&s| {
                let (a, b) = (edges[s - 1].host, edges[s].host);
                (s, ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64) * 100.0)
            })
            .collect();
        let kept = kept_slices(&steal_pct);
        let mut pooled = Tally::default();
        for &s in &kept {
            pooled.add(&tallies[s]);
        }
        let proc_us: f64 =
            kept.iter().map(|&s| (edges[s].proc_us - edges[s - 1].proc_us) as f64).sum();
        let latency_us = sorted(pooled.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
        metrics.push(("throughput_tps".into(), pooled.committed as f64 / secs(&kept), "txn/s"));
        metrics.push(("latency_p50_us".into(), quantile(&latency_us, 0.50), "us"));
        metrics.push(("latency_p99_us".into(), quantile(&latency_us, 0.99), "us"));
        metrics.push(("cpu_us_per_txn".into(), ratio(proc_us, pooled.committed as f64), "us"));
        notes.push(format!(
            "slices kept {} of {SLICES} (steal limit {STEAL_LIMIT_PCT}%); steal % per slice {:?}",
            kept.len(),
            steal_pct.iter().map(|&(_, p)| (p * 10.0).round() / 10.0).collect::<Vec<_>>()
        ));
        notes.push(format!(
            "kept slices {:.1} txn/s; whole window {:.1} txn/s, {:.1} cpu us/txn",
            pooled.committed as f64 / secs(&kept),
            total.committed as f64 / secs(&window),
            ratio((edges[segments].proc_us - edges[0].proc_us) as f64, total.committed as f64),
        ));
        notes.push(format!(
            "latency samples={} (p99 has {} beyond it)",
            latency_us.len(),
            latency_us.len() / 100
        ));
    } else {
        let (on, off): (Vec<usize>, Vec<usize>) =
            window.iter().partition(|&&s| traced_segment(args, s));
        let sum =
            |segs: &[usize], f: &dyn Fn(usize) -> f64| segs.iter().map(|&s| f(s)).sum::<f64>();
        let committed = |segs: &[usize]| sum(segs, &|s| tallies[s].committed as f64);
        let delta = |tier: &str, metric: &str| {
            sum(&on, &|s| {
                tier_sum(&edges[s].hub, tier, metric) - tier_sum(&edges[s - 1].hub, tier, metric)
            })
        };
        let txns = committed(&on);
        let tps_on = txns / secs(&on);
        let tps_off = committed(&off) / secs(&off);

        // Thread CPU by layer over the traced segments.
        let mut layer_us: BTreeMap<&str, f64> = BTreeMap::new();
        for &s in &on {
            for (layer, ns) in edges[s - 1].threads.layer_delta(&edges[s].threads)? {
                *layer_us.entry(layer).or_default() += ns as f64 / 1e3;
            }
        }
        let proc_us = sum(&on, &|s| (edges[s].proc_us - edges[s - 1].proc_us) as f64);
        let unattributed_pct = ratio(proc_us - layer_us.values().sum::<f64>(), proc_us) * 100.0;
        if unattributed_pct.abs() > CPU_TOLERANCE_PCT {
            errors.push(format!(
                "thread CPU groups leave {unattributed_pct:.1}% of process CPU unexplained (limit {CPU_TOLERANCE_PCT}%)"
            ));
        }

        let traced: Vec<Span> = results.iter().flat_map(|r| r.spans.iter().cloned()).collect();
        let span_q = |names: &[&str], q: f64| quantile(&sorted(durations_us(&traced, names)), q);
        let reads = ["get", "scan_range"];
        let writes = ["update", "upsert", "insert"];
        let on_tally = on.iter().fold(Tally::default(), |mut t, &s| {
            t.add(&tallies[s]);
            t
        });
        let last = &edges[segments].hub;
        let pages = delta("pageserver", "pages_served") + delta("pageserver", "range_pages_served");
        let xlog_reads =
            ["served_from_memory", "served_from_ssd", "served_from_lz", "served_from_lt"]
                .iter()
                .map(|m| delta("xlog", m))
                .sum::<f64>();
        let sched_calls =
            delta("primary", "sched_single_calls") + delta("primary", "sched_range_calls");
        let page_lookups =
            delta("primary", "data_page_hits") + delta("primary", "data_page_misses");

        let mut m = |name: &str, value: f64, unit: &'static str| {
            metrics.push((name.to_string(), value, unit))
        };
        m("engine.commit_us.p50", span_q(&["commit"], 0.50), "us");
        m("engine.commit_us.p99", span_q(&["commit"], 0.99), "us");
        m("engine.read_us.p50", span_q(&reads, 0.50), "us");
        m("engine.read_us.p99", span_q(&reads, 0.99), "us");
        m("engine.write_us.p50", span_q(&writes, 0.50), "us");
        m(
            "engine.abort_pct",
            ratio(on_tally.conflicts as f64, on_tally.write_attempts as f64) * 100.0,
            "%",
        );
        m("wal.harden_us.p50", tier_max(last, "primary", "harden_latency_us.p50"), "us");
        m("wal.harden_us.p99", tier_max(last, "primary", "harden_latency_us.p99"), "us");
        m(
            "wal.commits_per_block",
            ratio(
                delta("primary", "commit_latency_us.count"),
                delta("primary", "log_blocks_hardened"),
            ),
            "ratio",
        );
        m(
            "wal.log_bytes_per_commit",
            ratio(
                delta("primary", "log_bytes_hardened"),
                delta("primary", "commit_latency_us.count"),
            ),
            "bytes",
        );
        m(
            "xlog.gap_fill_pct",
            ratio(delta("xlog", "gaps_filled_from_lz"), delta("xlog", "blocks_offered")) * 100.0,
            "%",
        );
        m(
            "xlog.served_from_memory_pct",
            ratio(delta("xlog", "served_from_memory"), xlog_reads) * 100.0,
            "%",
        );
        m("pageserver.getpage_per_txn", ratio(pages, txns), "count");
        m(
            "pageserver.xstore_fallback_pct",
            ratio(delta("pageserver", "xstore_fallback_reads"), pages) * 100.0,
            "%",
        );
        m(
            "pageserver.apply_wait_pct",
            ratio(delta("pageserver", "get_page_waits"), pages) * 100.0,
            "%",
        );
        m(
            "pageserver.apply_busy_us_per_txn",
            ratio(delta("pageserver", "apply_busy_us"), txns),
            "us",
        );
        m("pageserver.l0_count.max", l0_max, "count");
        m("pageserver.compactions", delta("pageserver", "compactions_run"), "count");
        m("rbio.route_us.p50", tier_max(last, "pageserver", "route_latency_us.p50"), "us");
        m("rbio.route_us.p99", tier_max(last, "pageserver", "route_latency_us.p99"), "us");
        m(
            "rbio.hedge_fired_pct",
            ratio(
                delta("pageserver", "hedge_fired"),
                delta("pageserver", "route_latency_us.count"),
            ) * 100.0,
            "%",
        );
        m(
            "rbio.hedge_won_pct",
            ratio(delta("pageserver", "hedge_won"), delta("pageserver", "hedge_fired")) * 100.0,
            "%",
        );
        m("storage.hit_pct", ratio(delta("primary", "data_page_hits"), page_lookups) * 100.0, "%");
        m(
            "storage.sched_pages_per_call",
            ratio(
                delta("primary", "sched_single_calls") + delta("primary", "sched_range_pages"),
                sched_calls,
            ),
            "count",
        );
        m(
            "storage.sched_join_pct",
            ratio(delta("primary", "sched_joined"), delta("primary", "sched_submitted")) * 100.0,
            "%",
        );
        m(
            "storage.prefetch_drop_pct",
            ratio(
                delta("primary", "sched_prefetch_dropped"),
                delta("primary", "sched_prefetch_hints"),
            ) * 100.0,
            "%",
        );
        m("core.secondary_lag_bytes.max", lag_max, "bytes");
        for layer in LAYER_NAMES {
            m(&format!("{layer}.cpu_us_per_txn"), ratio(layer_us[layer], txns), "us");
        }
        m("cpu.process_us_per_txn", ratio(proc_us, txns), "us");
        m("cpu.unattributed_pct", unattributed_pct, "%");
        m("trace.throughput_tps", tps_on, "txn/s");
        m("trace.overhead_pct", ratio(tps_off - tps_on, tps_off) * 100.0, "%");

        for (i, e) in edges.iter().enumerate() {
            for (name, v) in &e.hub {
                let _ = writeln!(hub_tsv, "{i}\t{name}\t{v}");
            }
        }
        spans = traced;
        notes.push(format!(
            "traced segments: {} txns at {tps_on:.1} txn/s, untraced {tps_off:.1} txn/s",
            txns
        ));
    }

    for e in errors.iter().take(10) {
        notes.push(format!("CHECK FAILED: {e}"));
    }
    let report = Report {
        correct: errors.is_empty(),
        attempted: total.attempted,
        failed: total.failed,
        metrics,
        notes,
    };
    Ok((report, spans, hub_tsv))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <commit_lite|cold_read|cdb_mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Some(rep) = args.setup_rep {
        // A child process of `set_up_in_child`. It exits with its
        // deployment still up: the exit ends every thread in one step.
        match set_up(args.kind, args.seed, rep, &mut Tracer::new(Instant::now())) {
            Ok((_sys, times)) => {
                println!("{}", times.to_line());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for n in &report.notes {
        println!("{n}");
    }
    let mut json = String::new();
    for (name, value, unit) in &report.metrics {
        println!("metric {name:<34} {value:>14.3} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.correct, report.attempted, report.failed
    );
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_kept_by_steal_alone() {
        let quiet: Vec<(usize, f64)> = (1..=SLICES).map(|s| (s, 0.5)).collect();
        assert_eq!(kept_slices(&quiet).len(), SLICES);
        // Slices 1..=12 within the limit: all of them, and only them.
        let some: Vec<(usize, f64)> =
            (1..=SLICES).map(|s| (s, if s <= 12 { 1.0 } else { 9.0 })).collect();
        let mut kept = kept_slices(&some);
        kept.sort();
        assert_eq!(kept, (1..=12).collect::<Vec<_>>());
        // Every slice over the limit: the MIN_SLICES with the least steal.
        let busy: Vec<(usize, f64)> = (1..=SLICES).map(|s| (s, 30.0 - s as f64)).collect();
        let mut kept = kept_slices(&busy);
        kept.sort();
        assert_eq!(kept, (SLICES - MIN_SLICES + 1..=SLICES).collect::<Vec<_>>());
    }

    #[test]
    fn setup_times_survive_the_child_process_line() {
        let t = SetupTimes {
            launch_s: 0.0125,
            load_s: 0.21,
            apply_wait_s: 0.003,
            l0_after_load: 6.0,
            db_pages: 300,
        };
        let back = SetupTimes::from_line(&t.to_line()).expect("parses");
        assert_eq!(back.total_s(), t.total_s());
        assert_eq!((back.l0_after_load, back.db_pages), (6.0, 300));
        assert!(SetupTimes::from_line("setup-times 1 2").is_none());
    }
}
