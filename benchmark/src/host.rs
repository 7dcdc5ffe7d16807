//! What the benchmark reads from the host: process CPU time, peak resident
//! memory, and the fingerprint recorded next to every result.

use std::fs;

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/<pid>/stat`, fixed at
/// 100 on Linux whatever the kernel's own tick rate.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time this process (all its threads) has used so far, in
/// nanoseconds, from `/proc/self/stat`. Resolution is one tick (10 ms).
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    ((utime + stime) as f64 * (1e9 / TICKS_PER_SECOND)) as u64
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

fn status_kb(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `nproc`, CPU model and kernel release of the host a result came from.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

pub fn fingerprint() -> Fingerprint {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == "model name").then(|| value.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        kernel,
    }
}
