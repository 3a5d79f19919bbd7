//! Process CPU time and peak memory from `/proc/self`, and the host
//! record printed with every result.

use std::process::Command;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// the next [`peak_rss_bytes`] covers only what runs after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set size since start or the last
/// [`reset_peak_rss`], in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status")
        * 1024
}

/// The first line a command prints, or `"unknown"` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and run identity recorded with every result, as one JSON
/// object. The commit is read from the repository this benchmark was
/// built in, and is `"unknown"` in a checkout without git metadata.
pub fn host_json(workload: &str, seed: u64, input_bytes: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    format!(
        "{{\"nproc\": {nproc}, \"commit\": \"{}\", \"rustc\": \"{}\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"input_bytes\": {input_bytes}}}",
        command_line("git", &["--git-dir", git_dir, "rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}
