//! Host diagnostics: they explain a slow run, they are not metrics.

use std::hint::black_box;
use std::time::Instant;

/// Time of a fixed, allocation-free integer kernel owned by the benchmark,
/// in ms. It does the same work on every call, so a change in it between
/// runs is the host (frequency, contention), not the program.
pub fn cpu_kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
    for _ in 0..black_box(20_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Cumulative steal ticks of all CPUs from `/proc/stat` (`None` where the
/// file or the field is missing).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
