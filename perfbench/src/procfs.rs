//! Whole-process counters and the machine fingerprint, read from
//! `/proc`.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times (USER_HZ,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of the process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU seconds of the whole process, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / USER_HZ,
        _ => 0.0,
    }
}

/// Voluntary plus involuntary context switches of the main thread, which
/// is the coordinator: the kernel keeps these per thread, and the
/// library's worker threads exit between calls.
pub fn ctx_switches() -> u64 {
    status_field("voluntary_ctxt_switches").unwrap_or(0)
        + status_field("nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(model name, has AVX2, has AVX-512F)` from `/proc/cpuinfo`.
pub fn cpu_info() -> (String, bool, bool) {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    (
        field("model name").unwrap_or_else(|| "unknown".into()),
        has("avx2"),
        has("avx512f"),
    )
}
