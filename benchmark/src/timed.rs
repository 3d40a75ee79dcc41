//! `--trace 0`: the end-to-end metrics of one workload.
//!
//! Set-up is timed several times (and again before every repeat); then
//! the whole deterministic run is repeated at one thread for `--seconds`,
//! with nothing attached but the time marks of [`crate::marks`].
//! `rounds_per_s_t1` is rounds over the wall with every segment of the run
//! at the fastest any repeat showed it; the whole repeats — fastest,
//! median, quartiles, each one — are printed beside it, and each repeat
//! doubles as a determinism check. One untimed pass at machine parallelism
//! closes the run: it must reproduce the one-thread result. Timings at
//! machine parallelism are per-layer metrics (`rounds_per_s_tmax`,
//! `rayon.par_speedup`): with as many threads as the shared host gives
//! CPUs they read the neighbours, not the program.

use crate::host;
use crate::marks::{MarkCtx, SegmentMinima};
use crate::metrics::{Metrics, Report};
use crate::run::{prepare, run_once, Prepared, Watch};
use crate::stats;
use crate::workloads::{Workload, MIN_REPEATS};
use std::path::Path;
use std::time::Instant;

/// Times the public set-up calls are repeated before measuring starts;
/// they are timed once more before every measured repeat, so the samples
/// span the whole run and not only whatever phase the host started in.
const SETUP_REPEATS: usize = 25;
/// A repeat this much slower than the fastest one is labelled disturbed.
const DISTURBED_FACTOR: f64 = 1.15;

/// How long to measure.
#[derive(Clone, Copy)]
pub enum Length {
    /// Keep starting repeats while the next one fits.
    Seconds(f64),
    /// Exactly this many repeats (`--check` uses 2).
    Repeats(usize),
}

/// One measured repeat.
struct Repeat {
    wall_s: f64,
    cpu_s: f64,
    rounds: u64,
}

fn describe(label: &str, unit: &str, values: &[f64], best: f64) {
    let (q1, q3) = stats::quartiles(values);
    println!(
        "  {label}: best {best:.6} {unit}  median {:.6}  q1 {q1:.6}  q3 {q3:.6}  K {}",
        stats::median(values),
        values.len()
    );
}

/// Measures workload `workload` end to end.
pub fn run(workload: &Workload, seed: u64, length: Length, out_dir: &Path) -> Report {
    let tmax = host::tmax();
    let mut failures: Vec<String> = Vec::new();

    // The public set-up calls, repeated; the last product is kept.
    let mut setup_walls = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        let product = prepare(workload);
        setup_walls.push(started.elapsed().as_secs_f64());
        match product {
            Ok(p) => prepared = Some(p),
            Err(e) => failures.push(format!("set-up failed: {e}")),
        }
    }
    let Some(mut prepared) = prepared else {
        return Report::aborted(failures);
    };

    let (mut attempted, mut failed) = (0u64, 0u64);
    // (digest, accuracy, energy) of the first pass; every later one must
    // reproduce it.
    let mut reference: Option<(u64, f64, f64)> = None;

    let measuring = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut minima = SegmentMinima::default();
    let mut last_repeat_s = 0.0f64;
    loop {
        let k = repeats.len();
        let done = match length {
            Length::Repeats(wanted) => k >= wanted,
            Length::Seconds(s) => {
                k >= MIN_REPEATS && measuring.elapsed().as_secs_f64() + last_repeat_s > s
            }
        };
        if done {
            break;
        }
        let repeat_started = Instant::now();
        match prepare(workload) {
            Ok(fresh) => {
                setup_walls.push(repeat_started.elapsed().as_secs_f64());
                prepared = fresh;
            }
            Err(e) => failures.push(format!("set-up failed: {e}")),
        }
        let watch = Watch::Marks(MarkCtx::start());
        let outcome = run_once(workload, &prepared, seed, 1, out_dir, watch);
        minima.absorb(&outcome.segments_ns);
        attempted += outcome.attempted;
        let mut op_failed = outcome.failed;
        for f in &outcome.failures {
            failures.push(format!("repeat {k}: {f}"));
        }
        let first =
            *reference.get_or_insert((outcome.digest, outcome.accuracy_pct, outcome.energy_wh));
        if outcome.digest != first.0 {
            failures.push(format!(
                "repeat {k}: sim_digest {:016x} differs from the first repeat's {:016x}",
                outcome.digest, first.0
            ));
            op_failed = outcome.attempted;
        }
        failed += op_failed;
        repeats.push(Repeat {
            wall_s: outcome.wall_s,
            cpu_s: outcome.cpu_s,
            rounds: outcome.rounds,
        });
        last_repeat_s = repeat_started.elapsed().as_secs_f64();
    }

    let reference = reference.unwrap_or_default();
    let mut metrics = Metrics::default();
    println!("workload {}  seed {seed}  host.tmax {tmax}", workload.name);
    let setup_s = stats::min(&setup_walls);
    describe("setup_s", "s", &setup_walls, setup_s);
    metrics.set("setup_s", setup_s);

    let rates: Vec<f64> = repeats.iter().map(|r| r.rounds as f64 / r.wall_s).collect();
    describe(
        "rounds_per_s_t1",
        "1/s, whole repeats",
        &rates,
        stats::max(&rates),
    );
    let fastest_wall = stats::min(&repeats.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    for (k, r) in repeats.iter().enumerate() {
        println!(
            "    repeat {k}: wall {:.4} s  cpu {:.2} s  {:.3} 1/s{}",
            r.wall_s,
            r.cpu_s,
            r.rounds as f64 / r.wall_s,
            if r.wall_s > fastest_wall * DISTURBED_FACTOR {
                "  [disturbed]"
            } else {
                ""
            }
        );
    }
    // Every repeat ran the same rounds, or its digest check failed.
    let rounds = repeats.first().map_or(0, |r| r.rounds) as f64;
    let undisturbed_wall = match minima.undisturbed_wall_s() {
        Some(wall_s) => {
            println!(
                "    wall with each of {} segments at its fastest: {wall_s:.4} s \
                 (fastest whole repeat {fastest_wall:.4} s)",
                minima.segments()
            );
            wall_s
        }
        None => {
            println!(
                "    repeats differ in their segments: taken from the fastest whole repeat instead"
            );
            fastest_wall
        }
    };
    metrics.set("rounds_per_s_t1", rounds / undisturbed_wall);
    metrics.set("sim_accuracy_pct", reference.1);
    metrics.set("sim_energy_wh", reference.2);
    let floor_note = if seed == crate::workloads::PINNED_SEED {
        "enforced"
    } else {
        "reported only: not the pinned seed"
    };
    println!(
        "  sim_accuracy_pct {:.4} %  (floor {:.2}, {floor_note})",
        reference.1, workload.accuracy_floor_pct
    );
    println!("  sim_energy_wh {:.6} Wh", reference.2);
    println!("  sim_digest {:016x}", reference.0);
    match host::peak_rss_mb() {
        Some(mb) => {
            println!("  peak_rss_mb {mb:.3} MB");
            metrics.set("peak_rss_mb", mb);
        }
        None => failures.push("cannot read VmHWM from /proc/self/status".into()),
    }

    // The result may not depend on the thread budget: one pass at machine
    // parallelism, after the peak was read — how much memory its worker
    // threads touch depends on how they happen to overlap.
    let wide = run_once(workload, &prepared, seed, tmax, out_dir, Watch::Off);
    attempted += wide.attempted;
    failed += wide.failed;
    failures.extend(wide.failures.iter().map(|f| format!("t{tmax} pass: {f}")));
    if wide.digest != reference.0 {
        failures.push(format!(
            "t{tmax} pass: sim_digest {:016x} differs from {:016x} at 1 thread",
            wide.digest, reference.0
        ));
        failed += wide.attempted - wide.failed;
    }
    Report {
        metrics,
        attempted: attempted.max(1),
        failed,
        failures,
    }
}
