//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! skiptrain-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     the driver's JSON result (end-to-end metrics with --trace 0,
//!     per-layer metrics with --trace 1)
//! skiptrain-benchmark [--seed N] [--seconds S] [--check] [--out FILE]
//!     every workload, each in a child process of its own, both passes
//!     (--check: 2 repeats, end-to-end pass only); prints every
//!     metric and exits non-zero on any failed check
//! skiptrain-benchmark --write-workloads
//!     regenerates benchmark/workloads/*.json for the pinned seed
//! ```
//!
//! Run from the repository root (`benchmark/run.sh` does); `--bench-dir`
//! names the benchmark's directory when that is not `./benchmark`.

mod alloc;
mod host;
mod marks;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod timed;
mod traced;
mod workloads;

use metrics::{result_line, Metrics, Report, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Repeats under `--check`: a smoke with the checks on.
const CHECK_REPEATS: usize = 2;
/// Measured seconds per run when `--seconds` is not given (the value
/// `BENCHMARK.json` declares as `run_seconds`).
const DEFAULT_SECONDS: f64 = 26.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: Option<PathBuf>,
    write_workloads: bool,
    bench_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check] \
         [--out FILE] [--write-workloads] [--bench-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: workloads::PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        out: None,
        write_workloads: false,
        bench_dir: PathBuf::from("benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--check" => args.check = true,
            "--out" => args.out = Some(PathBuf::from(value())),
            "--write-workloads" => args.write_workloads = true,
            "--bench-dir" => args.bench_dir = PathBuf::from(value()),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    args
}

fn print_metrics(metrics: &Metrics, declared: &[(&str, &str)]) {
    for &(name, unit) in declared {
        if let Some(value) = metrics.get(name) {
            println!("  {name} = {value} {unit}");
        }
    }
}

/// One workload in this process; prints the driver's result line last.
fn run_workload(args: &Args, name: &str) -> ExitCode {
    let Some(workload) = workloads::generate(name, args.seed) else {
        usage(&format!(
            "unknown workload '{name}' (known: {})",
            workloads::NAMES.join(", ")
        ));
    };
    let out_dir = args.bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    println!("provenance {}", compact(&host::provenance()));
    let (report, declared) = if args.trace {
        let report = traced::run(&workload, args.seed, args.seconds, &out_dir);
        (report, PER_LAYER)
    } else {
        let length = if args.check {
            timed::Length::Repeats(CHECK_REPEATS)
        } else {
            timed::Length::Seconds(args.seconds)
        };
        (
            timed::run(&workload, args.seed, length, &out_dir),
            END_TO_END,
        )
    };
    let Report {
        metrics,
        attempted,
        failed,
        failures,
    } = report;
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }
    print_metrics(&metrics, declared);
    let correct = failures.is_empty() && failed == 0;
    match metrics.to_json(declared) {
        Ok(json) => {
            println!("{}", result_line(correct, attempted, failed, json));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: no result: {e}");
            ExitCode::from(2)
        }
    }
}

fn compact(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| panic!("JSON values serialize: {e:?}"))
}

/// Runs this binary on one workload as a child process (so `peak_rss_mb`
/// is that workload's alone), echoing its output; returns the parsed
/// result line.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--bench-dir")
        .arg(&args.bench_dir)
        .stdout(Stdio::piped());
    if args.check {
        command.arg("--check");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let mut last = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("{name}: wait failed: {e}"))?;
    let parsed = serde_json::parse_value(&last).map_err(|_| {
        format!(
            "{name} (trace {}) printed no result; {status}",
            u8::from(trace)
        )
    })?;
    if !status.success() {
        println!("{name} (trace {}): {status}", u8::from(trace));
    }
    Ok(parsed)
}

/// Every workload, both passes; one summary; non-zero on any failure.
fn run_all(args: &Args) -> ExitCode {
    let mut report = Vec::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let mut entry = Vec::new();
        // `--check` is the quick smoke: the end-to-end pass only.
        let passes: &[(&str, bool)] = if args.check {
            &[("end_to_end", false)]
        } else {
            &[("end_to_end", false), ("per_layer", true)]
        };
        for &(key, trace) in passes {
            match run_child(args, name, trace) {
                Ok(result) => {
                    ok &= result.get("correct").and_then(Value::as_bool) == Some(true);
                    entry.push((key.to_string(), result));
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    ok = false;
                }
            }
        }
        report.push((name.to_string(), Value::Object(entry)));
    }

    println!("\n== summary (seed {}) ==", args.seed);
    for (name, entry) in &report {
        for (key, _) in entry.as_object().into_iter().flatten() {
            let result = entry.get(key).unwrap_or(&Value::Null);
            println!(
                "{name} [{key}]: correct {}  attempted {}  failed {}",
                result.get("correct").map_or("?".into(), compact),
                result.get("attempted").map_or("?".into(), compact),
                result.get("failed").map_or("?".into(), compact),
            );
            let metrics = result.get("metrics").and_then(Value::as_object);
            for (metric, m) in metrics.into_iter().flatten() {
                println!(
                    "  {metric} = {} {}",
                    m.get("value").map_or("?".into(), compact),
                    m.get("unit").and_then(Value::as_str).unwrap_or("?"),
                );
            }
        }
    }
    if let Some(path) = &args.out {
        let full = Value::Object(vec![
            ("provenance".into(), host::provenance()),
            ("seed".into(), Value::UInt(args.seed)),
            (
                "mode".into(),
                Value::String(if args.check { "check" } else { "full" }.into()),
            ),
            ("seconds".into(), Value::Float(args.seconds)),
            ("workloads".into(), Value::Object(report)),
        ]);
        let text = serde_json::to_string_pretty(&full)
            .unwrap_or_else(|e| panic!("JSON values serialize: {e:?}"));
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("error: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{}", if ok { "ALL CHECKS PASSED" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workloads_dir(bench_dir: &Path) -> PathBuf {
    bench_dir.join("workloads")
}

fn main() -> ExitCode {
    let args = parse_args();
    let dir = workloads_dir(&args.bench_dir);
    if args.write_workloads {
        return match workloads::write_committed(&dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", dir.display());
                ExitCode::from(2)
            }
        };
    }
    // The program under test receives only generated inputs, and they must
    // be the ones committed for everyone to read.
    if let Err(e) = workloads::verify_committed(&dir) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_all(&args),
    }
}
