//! What the benchmark records about the host and the build.

use std::process::Command;

/// Peak resident set (`VmHWM`) of this process, in MB (10^6 bytes); 0
/// when `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Reset the peak resident set to the current one, so that `VmHWM` covers
/// only what runs afterwards. Best effort: a kernel without
/// `clear_refs` keeps the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version` of the toolchain on `PATH`, or `unknown`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether this binary was built with integer overflow checks (the
/// release profile sets `overflow-checks = true`, as the workspace does):
/// probed by overflowing a `u8` that the compiler cannot see through.
pub fn overflow_checks() -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let overflowed =
        std::panic::catch_unwind(|| std::hint::black_box(u8::MAX) + std::hint::black_box(1u8))
            .is_err();
    std::panic::set_hook(hook);
    overflowed
}

/// CPU seconds (user + system, every thread, live or exited) this process
/// has run, from `/proc/self/stat`; 0 when `/proc` is unavailable. Unlike
/// wall time it excludes time the hypervisor stole from the VM's CPUs.
pub fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15; the command name (field 2) may
    // hold spaces, so count from the `)` that closes it.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let ticks = tick() + tick();
    // `/proc` reports in USER_HZ, which Linux fixes at 100 per second.
    ticks as f64 / 100.0
}

/// Run `f`, returning its result with the wall and CPU seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = cpu_seconds();
    let wall = std::time::Instant::now();
    let out = f();
    (out, wall.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// Cumulative `(steal, total)` ticks over every CPU of the machine, from
/// the first line of `/proc/stat`; `(0, 0)` when unavailable. Steal is time
/// the hypervisor ran something else while this VM's CPU wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    crate::stats::ratio(
        100.0 * after.0.saturating_sub(before.0) as f64,
        total as f64,
    )
}
