//! Spans recorded by the benchmark around its own calls into the
//! program. Each transaction has one id; its root span is `txn` and every
//! `Database` call inside it is a child. Spans stay in memory until the
//! run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `txn` and `setup` spans are roots; a `setup.*`
/// span is a child of its `setup` span and any other span a child of its
/// transaction's `txn` span.
#[derive(Clone, Debug)]
pub struct Span {
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-client span recorder; records nothing while off.
pub struct Tracer {
    epoch: Instant,
    pub on: bool,
    pub txn: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, on: false, txn: 0, spans: Vec::new() }
    }

    /// Run `f`, recording a span named `name` around it when on.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0);
        out
    }

    /// Record a span from `t0` to now under the current transaction.
    pub fn record(&mut self, name: &'static str, t0: Instant) {
        let start_ns = t0.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { txn: self.txn, name, start_ns, dur_ns });
    }
}

/// Durations in µs of the spans whose name is in `names`.
pub fn durations_us(spans: &[Span], names: &[&str]) -> Vec<f64> {
    spans.iter().filter(|s| names.contains(&s.name)).map(|s| s.dur_ns as f64 / 1e3).collect()
}

/// Tab-separated `txn parent name start_ns dur_ns`, one span a line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("txn\tparent\tname\tstart_ns\tdur_ns\n");
    for s in spans {
        let parent = match s.name {
            "txn" | "setup" => "-",
            n if n.starts_with("setup.") => "setup",
            _ => "txn",
        };
        let _ = writeln!(out, "{}\t{parent}\t{}\t{}\t{}", s.txn, s.name, s.start_ns, s.dur_ns);
    }
    out
}
