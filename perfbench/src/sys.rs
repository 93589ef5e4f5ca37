//! Process resource readings from `/proc`, std only.

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` is
/// fixed at 100 by the Linux ABI on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// User plus system CPU seconds of the whole process so far, including
/// threads that have already exited (10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // the command name may contain spaces; the fixed fields follow its ')'
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, so 11 and 12
    // after the state field that starts `rest`
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric tick count") };
    (ticks(11) + ticks(12)) / USER_HZ
}
