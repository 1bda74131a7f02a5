//! Measured CPU time from procfs. The whole process's comes from
//! `/proc/self/stat` as utime + stime in clock ticks. Each live thread's
//! name comes from `/proc/self/task/<tid>/stat` and its on-CPU time from
//! the `schedstat` beside it, in nanoseconds: `stat` rounds each thread
//! to 10 ms ticks, which over a few seconds and ~25 mostly idle threads
//! would be several percent of the total. Threads are grouped into layers
//! by the name their spawner gave them.

use std::collections::BTreeMap;

/// Microseconds per clock tick. Linux fixes `USER_HZ` at 100 for the
/// `/proc` interfaces whatever the kernel's internal tick rate.
const TICK_US: u64 = 10_000;

/// Thread-name prefix → layer. Names are as the kernel reports them,
/// truncated to 15 bytes (`secondary[0]-apply` reads `secondary[0]-ap`).
const LAYERS: &[(&str, &str)] = &[
    ("client-", "engine"),
    ("lz-replica-", "wal"),
    ("wal-acceptor-", "wal"),
    ("xlog-feed-pump", "xlog"),
    ("xlog-destager", "xlog"),
    ("ps-", "pageserver"),
    ("rbio-worker-", "rbio"),
    ("rbio-hedge", "rbio"),
    ("io-sched-", "storage"),
    ("secondary[", "core"),
    ("lsn-lag-watcher", "core"),
    ("perfbench", "bench"),
];

/// Every layer name [`ThreadCpu::layer_delta`] can report, in output order.
pub const LAYER_NAMES: &[&str] =
    &["engine", "wal", "xlog", "pageserver", "rbio", "storage", "core", "bench"];

/// The layer a thread belongs to, or `None` for a name no layer claims.
pub fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS.iter().find(|(prefix, _)| name.starts_with(prefix)).map(|(_, layer)| *layer)
}

/// `(name, utime + stime)` from the text of a `stat` file. The name is
/// parenthesised and may itself contain spaces or parentheses, so the
/// numeric fields are counted from the last `)`.
fn parse_stat(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat.get(open + 1..close)?.to_string();
    // After the name come fields 3 (state) onwards; utime and stime are
    // fields 14 and 15.
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, utime + stime))
}

/// CPU µs the whole process has used, including threads that exited.
pub fn process_us() -> Result<u64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat(&stat)
        .map(|(_, t)| t * TICK_US)
        .ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

/// The host's CPU time so far, summed over its CPUs in clock ticks, from
/// the first line of `/proc/stat`: `(steal, total)`. Steal is time a
/// virtual CPU was ready to run while the hypervisor ran something else,
/// which the host sets and the program does not.
pub fn host_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let bad = || "unparseable /proc/stat".to_string();
    let line = stat.lines().next().filter(|l| l.starts_with("cpu ")).ok_or_else(bad)?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| bad())?;
    if ticks.len() < 8 {
        return Err(bad());
    }
    Ok((ticks[7], ticks.iter().sum()))
}

/// Per-thread on-CPU nanoseconds at one instant, keyed by thread id.
#[derive(Clone, Debug, Default)]
pub struct ThreadCpu {
    by_tid: BTreeMap<u64, (String, u64)>,
}

impl ThreadCpu {
    /// Read every live thread. A thread that exits between the directory
    /// listing and the read of its `stat` is skipped.
    pub fn read() -> Result<ThreadCpu, String> {
        let mut by_tid = BTreeMap::new();
        let dir =
            std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
                continue;
            };
            let read = |file: &str| std::fs::read_to_string(entry.path().join(file)).ok();
            let (Some(stat), Some(schedstat)) = (read("stat"), read("schedstat")) else { continue };
            let bad = || format!("unparseable stat or schedstat of thread {tid}");
            let (name, _) = parse_stat(&stat).ok_or_else(bad)?;
            let ns =
                schedstat.split_whitespace().next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
            by_tid.insert(tid, (name, ns));
        }
        Ok(ThreadCpu { by_tid })
    }

    /// Nanoseconds each layer's threads ran between `self` and `later`. A
    /// thread born in between counts from zero. A thread that ended in
    /// between is absent from `later`, so its time is left out; callers
    /// compare the sum with the process total to bound that loss.
    ///
    /// A thread whose name maps to no layer is an error: its time would
    /// otherwise vanish from every layer.
    pub fn layer_delta(&self, later: &ThreadCpu) -> Result<BTreeMap<&'static str, u64>, String> {
        let mut out: BTreeMap<&'static str, u64> = LAYER_NAMES.iter().map(|l| (*l, 0)).collect();
        for (tid, (name, ticks)) in &later.by_tid {
            let layer = layer_of(name)
                .ok_or_else(|| format!("thread {tid} named {name:?} maps to no layer"))?;
            let before = match self.by_tid.get(tid) {
                Some((old_name, old)) if old_name == name => *old,
                _ => 0,
            };
            *out.entry(layer).or_default() += ticks.saturating_sub(before);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_counts_fields_from_the_last_paren() {
        let stat = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 1 0";
        assert_eq!(parse_stat(stat), Some(("a (b) c".to_string(), 150)));
    }

    #[test]
    fn every_runtime_thread_name_maps_to_a_layer() {
        for name in [
            "client-1",
            "lz-replica-2",
            "xlog-destager",
            "ps-0-0-apply",
            "rbio-worker-3",
            "io-sched-0",
            "secondary[0]-ap",
            "lsn-lag-watcher",
            "perfbench",
        ] {
            assert!(layer_of(name).is_some(), "{name}");
        }
        assert_eq!(layer_of("mystery"), None);
    }
}
