//! What the benchmark reads from the host: process CPU time, peak RSS,
//! parallelism, and the provenance stamped on every report.

use serde_json::Value;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI Rust targets; std exposes no `sysconf`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Widest thread budget the benchmark uses, so numbers from hosts with
/// many cores stay comparable and the run keeps to the driver's cap.
const MAX_BUDGET: usize = 4;

/// CPU seconds (user + system, all threads) this process has used so far;
/// 0 when `/proc` is unreadable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields 14 and 15
    // (utime, stime) are counted from after its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) / CLOCK_TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`), in MB; `None` when
/// `/proc` is unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The "machine parallelism" thread budget: `min(nproc, 4)`.
pub fn tmax() -> usize {
    nproc().min(MAX_BUDGET)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Provenance of a report: the commit measured (HEAD itself, plus whether
/// the tree was dirty), the host's parallelism and the compiler.
pub fn provenance() -> Value {
    let git_rev = command_line("git", &["rev-parse", "HEAD"])
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let git_dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    Value::Object(vec![
        ("git_rev".into(), Value::String(git_rev)),
        (
            "git_dirty".into(),
            git_dirty.map_or(Value::Null, Value::Bool),
        ),
        ("rustc".into(), Value::String(rustc)),
        ("host.nproc".into(), Value::UInt(nproc() as u64)),
        ("host.tmax".into(), Value::UInt(tmax() as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // burn a little CPU so the counter is certainly past zero ticks
        let mut acc = 0u64;
        for i in 0..80_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        assert!(process_cpu_s() >= 0.0);
        let rss = peak_rss_mb().expect("/proc/self/status is readable on Linux");
        assert!(rss > 0.5 && rss < 1e6, "peak RSS {rss} MB");
        assert!(tmax() >= 1 && tmax() <= nproc().max(1));
    }
}
