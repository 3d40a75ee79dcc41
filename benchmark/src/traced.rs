//! `--trace 1`: the per-layer metrics of one workload.
//!
//! Per thread budget, an untraced reference pass and a traced pass run
//! back to back (t1 ref, t1 traced, tmax ref, tmax traced), up to three
//! times while `--seconds` allows; the traced pass must reproduce the
//! reference result, and the difference of their walls is the tracing
//! overhead.
//! Layer probes then replay each layer at the workload's shapes. All
//! spans are written to `out/trace_<workload>.json`.

use crate::host;
use crate::metrics::{Metrics, Report};
use crate::probes::{sgd_step_flops, Prober, Shape};
use crate::run::{energy_wh, prepare, run_once, Outcome, TraceCtx, TraceSink, Watch};
use crate::spans::{self, next_id, thread_index, Clock, Span};
use crate::stats;
use crate::workloads::Workload;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One traced pass: its `run` span and everything under it.
struct TracedPass {
    run_id: u64,
    wall_s: f64,
    /// Wall of a second campaign run against the completed journal.
    resume_s: Option<f64>,
    spans: Vec<Span>,
}

impl TracedPass {
    /// Spans named `name` anywhere under this pass's `run` span.
    fn named(&self, name: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }
}

fn span_at(
    clock: &Clock,
    name: &'static str,
    parent: Option<u64>,
    id: u64,
    start_ns: u64,
    budget: usize,
) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns,
        end_ns: clock.now_ns(),
        budget,
        thread: thread_index(),
        tag: 0,
        alloc_bytes: 0,
    }
}

/// Set-up + one run under a `run` span with the span observer attached.
fn traced_pass(
    workload: &Workload,
    seed: u64,
    budget: usize,
    out_dir: &Path,
    clock: Clock,
    reference: &Outcome,
    failures: &mut Vec<String>,
) -> (Option<TracedPass>, u64, u64) {
    let run_id = next_id();
    let run_start = clock.now_ns();
    let setup_id = next_id();
    let prepared = match prepare(workload) {
        Ok(p) => p,
        Err(e) => {
            failures.push(format!("traced t{budget}: set-up failed: {e}"));
            return (None, 1, 1);
        }
    };
    let setup_span = span_at(
        &clock,
        "setup.data",
        Some(run_id),
        setup_id,
        run_start,
        budget,
    );
    let sink = Arc::new(Mutex::new(TraceSink::default()));
    let ctx = TraceCtx {
        clock,
        sink: Arc::clone(&sink),
        run_id,
    };
    let outcome = run_once(
        workload,
        &prepared,
        seed,
        budget,
        out_dir,
        Watch::Spans(ctx),
    );
    let run_span = span_at(&clock, "run", None, run_id, run_start, budget);
    let sink = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));

    let mut broken = outcome.failures.len();
    for f in &outcome.failures {
        failures.push(format!("traced t{budget}: {f}"));
    }
    if outcome.digest != reference.digest {
        failures.push(format!(
            "traced t{budget}: sim_digest {:016x} differs from the untraced pass's {:016x}",
            outcome.digest, reference.digest
        ));
        broken += 1;
    }
    // The observer's last cumulative_wh must be the ledger's final total.
    for &(cell, seen_wh) in &sink.cumulative_wh {
        let ledger_wh = outcome.results.get(cell).map(energy_wh);
        if ledger_wh != Some(seen_wh) {
            failures.push(format!(
                "traced t{budget}: cell {cell}: last RoundReport.cumulative_wh {seen_wh} is not \
                 the result's training + comm Wh {ledger_wh:?}"
            ));
            broken += 1;
        }
    }
    if sink.cumulative_wh.len() != workload.configs.len() {
        failures.push(format!(
            "traced t{budget}: {} observers reported, {} cells ran",
            sink.cumulative_wh.len(),
            workload.configs.len()
        ));
        broken += 1;
    }
    let mut spans = sink.spans;
    spans.push(setup_span);
    spans.push(run_span);
    // Children + self time must add up to the parent: every span inside
    // its parent, and no sibling overlap where cells run one at a time.
    if let Err(e) = spans::check_nesting(&spans, !workload.campaign || budget == 1) {
        failures.push(format!("traced t{budget}: {e}"));
        broken += 1;
    }
    let failed = if broken > 0 {
        outcome.attempted
    } else {
        outcome.failed
    };
    let pass = TracedPass {
        run_id,
        wall_s: outcome.wall_s,
        resume_s: outcome.resume_s,
        spans,
    };
    (Some(pass), outcome.attempted, failed)
}

/// The item with the smallest wall; `items` must not be empty.
fn fastest<T>(items: &[T], wall_s: impl Fn(&T) -> f64) -> &T {
    items
        .iter()
        .min_by(|a, b| wall_s(a).total_cmp(&wall_s(b)))
        .unwrap_or_else(|| panic!("every budget ran at least one pass"))
}

/// Span-derived metrics of the fastest traced pass at each budget.
fn span_metrics(workload: &Workload, passes: [&TracedPass; 2], tmax: usize, metrics: &mut Metrics) {
    let names = [
        (
            "engine.round_ms_p50_t1",
            "engine.round_ms_p95_t1",
            "engine.alloc_bytes_per_round_t1",
        ),
        (
            "engine.round_ms_p50_tmax",
            "engine.round_ms_p95_tmax",
            "engine.alloc_bytes_per_round_tmax",
        ),
    ];
    for (pass, (p50, p95, alloc)) in passes.iter().zip(names) {
        let rounds = pass.named("round");
        let ms: Vec<f64> = rounds.iter().map(|s| s.ms()).collect();
        let tail = stats::tail_percentile(ms.len(), 95.0);
        metrics.set(p50, stats::median(&ms));
        metrics.set(p95, stats::percentile(&ms, tail));
        let allocs: Vec<f64> = rounds.iter().map(|s| s.alloc_bytes as f64).collect();
        metrics.set(alloc, stats::median(&allocs));
        println!(
            "  {p95}: percentile {tail:.1} of {} round spans (the highest with >= 10 samples beyond it, capped at 95)",
            ms.len()
        );
    }

    // Training share of round time at budget 1: what a round that trained
    // took beyond a sync-only round of this fleet — the median sync-only
    // round of the run itself when it has any, else the all-SyncOnly probe
    // (on a battery fleet the probe's all-Train diet starves the nodes, so
    // the run's own rounds are the better baseline).
    let t1 = passes[0];
    let rounds = t1.named("round");
    let sync_only: Vec<f64> = rounds
        .iter()
        .filter(|s| s.tag == 0)
        .map(|s| s.ms())
        .collect();
    let sync_ms = if sync_only.is_empty() {
        metrics.get("engine.round_sync_ms_t1").unwrap_or(0.0)
    } else {
        stats::median(&sync_only)
    };
    let total_ms: f64 = rounds.iter().map(|s| s.ms()).sum();
    let train_ms: f64 = rounds
        .iter()
        .filter(|s| s.tag > 0)
        .map(|s| (s.ms() - sync_ms).max(0.0))
        .sum();
    metrics.set(
        "engine.train_share_pct",
        100.0 * train_ms / total_ms.max(1e-9),
    );
    let self_ns = spans::self_time_ns(&t1.spans, t1.run_id).unwrap_or(0);
    metrics.set("core.run_self_ms", self_ns as f64 / 1e6);

    // Cells: a single run is a campaign of one cell on one worker.
    let wide = passes[1];
    let cells = wide.named("cell");
    if cells.is_empty() {
        metrics.set("core.cell_s_p50", wide.wall_s);
        metrics.set("core.cell_imbalance", 1.0);
        metrics.set("core.campaign_idle_pct", 0.0);
    } else {
        let seconds: Vec<f64> = cells.iter().map(|s| s.ms() / 1e3).collect();
        metrics.set("core.cell_s_p50", stats::median(&seconds));
        let mut busy: Vec<(u64, f64)> = Vec::new();
        for cell in &cells {
            match busy.iter_mut().find(|(t, _)| *t == cell.thread) {
                Some(slot) => slot.1 += cell.ms() / 1e3,
                None => busy.push((cell.thread, cell.ms() / 1e3)),
            }
        }
        let workers = tmax.min(workload.configs.len()).max(busy.len());
        let total: f64 = busy.iter().map(|b| b.1).sum();
        let busiest = busy.iter().map(|b| b.1).fold(0.0, f64::max);
        metrics.set("core.cell_imbalance", busiest / (total / workers as f64));
        metrics.set(
            "core.campaign_idle_pct",
            100.0 * (1.0 - total / (workers as f64 * wide.wall_s)).max(0.0),
        );
    }
}

/// Exact counts of one pass's simulated results.
fn count_metrics(workload: &Workload, outcome: &Outcome, metrics: &mut Metrics) {
    let rounds = outcome.rounds.max(1) as f64;
    let sum = |f: &dyn Fn(&skiptrain_core::ExperimentResult) -> u64| -> f64 {
        outcome.results.iter().map(f).sum::<u64>() as f64
    };
    metrics.set(
        "engine.wire_bytes_per_round",
        sum(&|r| r.total_wire_bytes) / rounds,
    );
    // Events per round are one policy tick, one completion per present
    // node, one arrival per scheduled message and one eval tick, plus
    // churn; what is left after the fixed part is the messages the event
    // core scheduled (before battery gating and transport loss).
    let messages = sum(&|r| {
        let fixed = r.rounds as u64 * (r.nodes as u64 + 2) + r.events.joins + r.events.leaves;
        r.events.events.saturating_sub(fixed)
    });
    metrics.set("engine.msgs_per_round", messages / rounds);
    metrics.set("engine.train_node_rounds", sum(&|r| r.node_train_events));
    metrics.set("engine.late_msgs", sum(&|r| r.events.late_messages));
    metrics.set("engine.corrupted_msgs", sum(&|r| r.corrupted_messages));
    metrics.set(
        "energy.brownouts",
        sum(&|r| r.battery.as_ref().map_or(0, |b| b.brownouts)),
    );
    let flops: f64 = workload
        .configs
        .iter()
        .zip(&outcome.results)
        .map(|(cfg, r)| sgd_step_flops(cfg) * cfg.local_steps as f64 * r.node_train_events as f64)
        .sum();
    metrics.set("nn.flops_per_round", flops / rounds);
}

/// Measures workload `workload` layer by layer.
pub fn run(workload: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let clock = Clock::start();
    let tmax = host::tmax();
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let prepared = match prepare(workload) {
        Ok(p) => p,
        Err(e) => {
            failures.push(format!("set-up failed: {e}"));
            return Report::aborted(failures);
        }
    };

    // Reference and traced passes, budgets interleaved; further sets run
    // while under 40 % of the allotted seconds are spent.
    let mut references: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
    let mut traced: [Vec<TracedPass>; 2] = [Vec::new(), Vec::new()];
    let mut all_spans: Vec<Span> = Vec::new();
    for set in 0..3 {
        if set > 0 && started.elapsed().as_secs_f64() > 0.4 * seconds {
            break;
        }
        for (slot, budget) in [1, tmax].into_iter().enumerate() {
            let reference = run_once(workload, &prepared, seed, budget, out_dir, Watch::Off);
            attempted += reference.attempted;
            failed += reference.failed;
            for f in &reference.failures {
                failures.push(format!("untraced t{budget}: {f}"));
            }
            let (pass, ops, ops_failed) = traced_pass(
                workload,
                seed,
                budget,
                out_dir,
                clock,
                &reference,
                &mut failures,
            );
            attempted += ops;
            failed += ops_failed;
            println!(
                "  set {set} budget {budget}: untraced wall {:.4} s  cpu {:.2} s   traced wall {} s",
                reference.wall_s,
                reference.cpu_s,
                pass.as_ref()
                    .map_or("-".into(), |p| format!("{:.4}", p.wall_s)),
            );
            references[slot].push(reference);
            if let Some(pass) = pass {
                traced[slot].push(pass);
            }
        }
    }
    if traced.iter().any(Vec::is_empty) {
        failures.push("no traced pass completed".into());
        return Report::aborted(failures);
    }
    let first_digest = references[0][0].digest;
    if references
        .iter()
        .flatten()
        .any(|r| r.digest != first_digest)
    {
        failures.push("sim_digest differs between untraced passes or thread budgets".into());
        failed = attempted;
    }

    let ref_t1 = fastest(&references[0], |r| r.wall_s);
    let ref_tmax = fastest(&references[1], |r| r.wall_s);
    let traced_t1 = fastest(&traced[0], |p| p.wall_s);
    let traced_tmax = fastest(&traced[1], |p| p.wall_s);

    println!(
        "workload {}  seed {seed}  host.tmax {tmax}  (traced)",
        workload.name
    );
    println!("  sim_digest {first_digest:016x}");
    let untraced_s = ref_t1.wall_s + ref_tmax.wall_s;
    let traced_s = traced_t1.wall_s + traced_tmax.wall_s;
    metrics.set(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    metrics.set(
        "rounds_per_s_tmax",
        ref_tmax.rounds as f64 / ref_tmax.wall_s,
    );
    metrics.set("rayon.par_speedup", ref_t1.wall_s / ref_tmax.wall_s);
    metrics.set(
        "host.cpu_util_tmax",
        ref_tmax.cpu_s / (ref_tmax.wall_s * tmax as f64),
    );
    metrics.set(
        "core.journal_bytes_per_cell",
        ref_tmax.journal_bytes as f64 / ref_tmax.attempted.max(1) as f64,
    );
    count_metrics(workload, ref_t1, &mut metrics);

    // Layer probes at this workload's shapes (the first cell's, for the
    // campaign), then the span-derived metrics that lean on them.
    let cfg = &workload.configs[0];
    let data = cfg.data.build(cfg.nodes, cfg.seed);
    let shape = Shape::of(cfg, &data);
    Prober {
        clock,
        spans: &mut all_spans,
        metrics: &mut metrics,
        tmax,
        best: Vec::new(),
    }
    .run_all(&shape);
    span_metrics(workload, [traced_t1, traced_tmax], tmax, &mut metrics);
    let step_us = metrics.get("nn.sgd_step_us").unwrap_or(0.0);
    let train_ms = metrics.get("engine.round_train_ms_t1").unwrap_or(f64::NAN)
        - metrics.get("engine.round_sync_ms_t1").unwrap_or(0.0);
    metrics.set(
        "engine.train_round_explained_ratio",
        step_us * (cfg.nodes * cfg.local_steps) as f64 / (train_ms * 1e3),
    );
    // Resume cost comes from the traced campaign passes (0 for a single run).
    let resume_s = traced.iter().flatten().filter_map(|p| p.resume_s);
    metrics.set(
        "core.resume_ms",
        resume_s.reduce(f64::min).unwrap_or(0.0) * 1e3,
    );

    for pass in traced.into_iter().flatten() {
        all_spans.extend(pass.spans);
    }
    let trace_path = out_dir.join(format!("trace_{}.json", workload.name));
    let text = serde_json::to_string(&spans::to_json(workload.name, &all_spans))
        .unwrap_or_else(|e| panic!("spans serialize: {e:?}"));
    match std::fs::write(&trace_path, text) {
        Ok(()) => println!(
            "  {} spans written to {}",
            all_spans.len(),
            trace_path.display()
        ),
        Err(e) => failures.push(format!("cannot write {}: {e}", trace_path.display())),
    }
    Report {
        metrics,
        attempted: attempted.max(1),
        failed,
        failures,
    }
}
