//! One pass of a workload through the public API, traced or not, and the
//! correctness checks every pass must satisfy.

use crate::alloc::allocated_bytes;
use crate::marks::MarkCtx;
use crate::spans::{next_id, thread_index, Clock, Span};
use crate::workloads::{Workload, PINNED_SEED};
use skiptrain_core::{
    run_with_observers, BatterySpec, Campaign, DataBundle, Experiment, ExperimentConfig,
    ExperimentResult, TopologySpec,
};
use skiptrain_engine::observer::{EvalReport, RoundCtx, RoundObserver, RoundReport};
use skiptrain_engine::Simulation;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What the public set-up calls produce: what a user holds before round 0.
pub enum Prepared {
    /// A validated experiment and its generated data bundle.
    Single {
        /// The validated experiment.
        experiment: Box<Experiment>,
        /// Its data bundle.
        data: DataBundle,
    },
    /// Validated campaign cells; the campaign builds its bundles itself.
    Campaign {
        /// The validated cell configurations, in input order.
        configs: Vec<ExperimentConfig>,
    },
}

/// Key under which a campaign shares one data bundle between cells.
fn bundle_key(cfg: &ExperimentConfig) -> String {
    format!("{:?}|{}|{}", cfg.data, cfg.nodes, cfg.seed)
}

/// The public set-up calls a user pays before round 0:
/// `Experiment::from_config` + `build_data`, for a campaign once per
/// distinct data bundle (those bundles are only built to be timed — the
/// campaign rebuilds them inside its own wall).
pub fn prepare(workload: &Workload) -> Result<Prepared, String> {
    let validate = |cfg: &ExperimentConfig| {
        Experiment::from_config(cfg.clone()).map_err(|e| format!("{}: {e}", cfg.name))
    };
    if !workload.campaign {
        let experiment = validate(&workload.configs[0])?;
        let data = experiment.build_data();
        return Ok(Prepared::Single {
            experiment: Box::new(experiment),
            data,
        });
    }
    let mut seen: Vec<String> = Vec::new();
    let mut configs = Vec::with_capacity(workload.configs.len());
    for cfg in &workload.configs {
        let experiment = validate(cfg)?;
        let key = bundle_key(cfg);
        if !seen.contains(&key) {
            std::hint::black_box(experiment.build_data());
            seen.push(key);
        }
        configs.push(experiment.into_config());
    }
    Ok(Prepared::Campaign { configs })
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the serialized result(s) of one pass, for comparing repeats,
/// thread budgets and — by eye — commits.
pub fn digest(results: &[ExperimentResult]) -> u64 {
    let text = serde_json::to_string(results)
        .unwrap_or_else(|e| panic!("experiment results always serialize: {e:?}"));
    fnv1a(text.as_bytes())
}

/// What one pass produced.
pub struct Outcome {
    /// Wall seconds of the pass (the timed public call only).
    pub wall_s: f64,
    /// Process CPU seconds spent during the pass.
    pub cpu_s: f64,
    /// Simulated rounds executed, summed over cells.
    pub rounds: u64,
    /// Final mean test accuracy in percent (campaign: mean over cells).
    pub accuracy_pct: f64,
    /// Training + communication energy in Wh (campaign: sum over cells).
    pub energy_wh: f64,
    /// [`digest`] of the completed results.
    pub digest: u64,
    /// Operations attempted: 1 for a single run, one per campaign cell.
    pub attempted: u64,
    /// Operations that failed (run error, cell failure, or a failed check).
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The completed results, in input order.
    pub results: Vec<ExperimentResult>,
    /// Campaign journal size after the pass, bytes (0 for a single run).
    pub journal_bytes: u64,
    /// Wall seconds of a second `run_resilient` on the completed journal
    /// (traced campaign passes only).
    pub resume_s: Option<f64>,
    /// Durations of the segments between the time marks of a
    /// [`Watch::Marks`] pass, in order (empty otherwise).
    pub segments_ns: Vec<u64>,
}

/// Shared by every traced observer of one pass.
#[derive(Default)]
pub struct TraceSink {
    /// Completed spans.
    pub spans: Vec<Span>,
    /// `(cell index, last RoundReport.cumulative_wh seen)`.
    pub cumulative_wh: Vec<(usize, f64)>,
}

/// Handle to a [`TraceSink`] shared between a pass and its observers.
pub type SharedSink = Arc<Mutex<TraceSink>>;

/// What a pass attaches to the run through the public observer API.
#[derive(Clone)]
pub enum Watch {
    /// Nothing: the reference the traced pass is compared with.
    Off,
    /// Time marks only: the timed pass.
    Marks(MarkCtx),
    /// Spans: the traced pass.
    Spans(TraceCtx),
}

impl Watch {
    /// Nanoseconds on the marks' clock (0 when no marks are taken).
    fn now_ns(&self) -> u64 {
        match self {
            Watch::Marks(ctx) => ctx.now_ns(),
            _ => 0,
        }
    }

    /// The observer of cell `cell` (`None` for a single run) of `cfg`.
    fn observer(
        &self,
        cfg: &ExperimentConfig,
        budget: usize,
        cell: Option<usize>,
    ) -> Option<Box<dyn RoundObserver>> {
        match self {
            Watch::Off => None,
            Watch::Marks(ctx) => Some(Box::new(ctx.observer(cfg.rounds))),
            Watch::Spans(ctx) => Some(Box::new(SpanObserver::new(ctx, budget, cell))),
        }
    }
}

/// Where a traced pass hangs its spans.
#[derive(Clone)]
pub struct TraceCtx {
    /// The process clock.
    pub clock: Clock,
    /// Where finished spans go.
    pub sink: SharedSink,
    /// The enclosing `run` span.
    pub run_id: u64,
}

/// Benchmark-side [`RoundObserver`]: records `setup.sim` (construction →
/// first round start), one `round` span per round tagged with the trained
/// node count and the bytes allocated meanwhile, `eval` (round end →
/// `on_eval`) and `finalize` (last event → drop). Under a campaign it also
/// records the enclosing `cell` span. Spans are kept locally and handed
/// to the sink on drop, so worker threads do not contend while timed.
struct SpanObserver {
    clock: Clock,
    sink: SharedSink,
    budget: usize,
    /// Parent of this observer's spans: the `run` span, or its own `cell`.
    parent: u64,
    /// `Some((cell span id, run span id, cell index))` under a campaign.
    cell: Option<(u64, u64, usize)>,
    created_ns: u64,
    last_event_ns: u64,
    round_start_ns: u64,
    round_start_alloc: u64,
    seen_round: bool,
    cumulative_wh: f64,
    spans: Vec<Span>,
}

impl SpanObserver {
    fn new(ctx: &TraceCtx, budget: usize, cell_index: Option<usize>) -> Self {
        let now = ctx.clock.now_ns();
        let cell = cell_index.map(|index| (next_id(), ctx.run_id, index));
        Self {
            clock: ctx.clock,
            sink: Arc::clone(&ctx.sink),
            budget,
            parent: cell.map_or(ctx.run_id, |(id, _, _)| id),
            cell,
            created_ns: now,
            last_event_ns: now,
            round_start_ns: now,
            round_start_alloc: 0,
            seen_round: false,
            cumulative_wh: 0.0,
            // room for the longest workload's rounds and evals, so the
            // timed loop never regrows it
            spans: Vec::with_capacity(4096),
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, tag: u64, alloc_bytes: u64) {
        self.spans.push(Span {
            id: next_id(),
            parent: Some(self.parent),
            name,
            start_ns,
            end_ns,
            budget: self.budget,
            thread: thread_index(),
            tag,
            alloc_bytes,
        });
    }
}

impl RoundObserver for SpanObserver {
    fn on_round_start(&mut self, _sim: &Simulation, _ctx: &RoundCtx<'_>) {
        let now = self.clock.now_ns();
        if !self.seen_round {
            self.seen_round = true;
            self.push("setup.sim", self.created_ns, now, 0, 0);
        }
        self.round_start_ns = now;
        self.round_start_alloc = allocated_bytes();
    }

    fn on_round_end(&mut self, _sim: &mut Simulation, report: &RoundReport<'_>) -> ControlFlow<()> {
        let alloc = allocated_bytes().saturating_sub(self.round_start_alloc);
        let now = self.clock.now_ns();
        self.push(
            "round",
            self.round_start_ns,
            now,
            report.trained_nodes as u64,
            alloc,
        );
        self.last_event_ns = now;
        self.cumulative_wh = report.cumulative_wh;
        ControlFlow::Continue(())
    }

    fn on_eval(&mut self, _sim: &mut Simulation, _report: &EvalReport<'_>) -> ControlFlow<()> {
        let now = self.clock.now_ns();
        self.push("eval", self.last_event_ns, now, 0, 0);
        self.last_event_ns = now;
        ControlFlow::Continue(())
    }
}

impl Drop for SpanObserver {
    fn drop(&mut self) {
        let now = self.clock.now_ns();
        self.push("finalize", self.last_event_ns, now, 0, 0);
        if let Some((id, run_id, index)) = self.cell {
            self.spans.push(Span {
                id,
                parent: Some(run_id),
                name: "cell",
                start_ns: self.created_ns,
                end_ns: now,
                budget: self.budget,
                thread: thread_index(),
                tag: index as u64,
                alloc_bytes: 0,
            });
        }
        // A poisoned sink only means another cell panicked; the spans
        // already pushed are intact plain data.
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.spans.append(&mut self.spans);
        let index = self.cell.map_or(0, |(_, _, index)| index);
        sink.cumulative_wh.push((index, self.cumulative_wh));
    }
}

/// Scratch journal path for one campaign pass, inside the benchmark's
/// ignored `out/` directory.
fn journal_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("journal_{}.jsonl", std::process::id()))
}

/// Runs the workload once under `budget` threads with `watch` attached and
/// evaluates every per-pass check.
pub fn run_once(
    workload: &Workload,
    prepared: &Prepared,
    seed: u64,
    budget: usize,
    out_dir: &Path,
    watch: Watch,
) -> Outcome {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(budget)
        .build()
        .unwrap_or_else(|never| match never {});
    let mut failures = Vec::new();
    let mut journal_bytes = 0;
    let mut resume_s = None;
    let cpu_before = crate::host::process_cpu_s();
    // The timed wall on the marks' clock: where the first segment starts
    // and the last one ends.
    let mut marked_ns = (0u64, 0u64);
    let (wall_s, results, attempted, mut failed) = match prepared {
        Prepared::Single { experiment, data } => {
            let cfg = experiment.config();
            marked_ns.0 = watch.now_ns();
            let started = Instant::now();
            let outcome = pool.install(|| {
                // dropped when the run returns, still inside the timed wall
                let mut observer = watch.observer(cfg, budget, None);
                match observer.as_deref_mut() {
                    None => run_with_observers(cfg, data, &mut []),
                    Some(observer) => run_with_observers(cfg, data, &mut [observer]),
                }
            });
            let wall_s = started.elapsed().as_secs_f64();
            marked_ns.1 = watch.now_ns();
            match outcome {
                Ok(result) => (wall_s, vec![result], 1, 0),
                Err(e) => {
                    failures.push(format!("run failed: {e}"));
                    (wall_s, Vec::new(), 1, 1)
                }
            }
        }
        Prepared::Campaign { configs } => {
            let journal = journal_path(out_dir);
            let _ = std::fs::remove_file(&journal);
            let build = |configs: Vec<ExperimentConfig>| {
                let campaign = Campaign::from_configs(configs)
                    .threads(budget)
                    .with_checkpoint(&journal);
                match &watch {
                    Watch::Off => campaign,
                    watch => {
                        let watch = watch.clone();
                        campaign.observe_with(move |index, cfg| {
                            Vec::from_iter(watch.observer(cfg, budget, Some(index)))
                        })
                    }
                }
            };
            let campaign = build(configs.clone());
            marked_ns.0 = watch.now_ns();
            let started = Instant::now();
            let outcome = pool.install(|| campaign.run_resilient());
            let wall_s = started.elapsed().as_secs_f64();
            marked_ns.1 = watch.now_ns();
            journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
            let cells = configs.len() as u64;
            let pass = match outcome {
                Ok(report) => {
                    for failure in &report.failures {
                        failures.push(format!("cell failed: {failure}"));
                    }
                    if !report.is_complete() {
                        failures.push("campaign report is not complete".into());
                    }
                    let failed = report.failures.len() as u64;
                    let results = report.results.into_iter().flatten().collect();
                    (wall_s, results, cells, failed)
                }
                Err(e) => {
                    failures.push(format!("campaign could not run: {e}"));
                    (wall_s, Vec::new(), cells, cells)
                }
            };
            if matches!(watch, Watch::Spans(_)) && failures.is_empty() {
                // Resume cost: the same campaign against its completed
                // journal restores every cell and runs none.
                let again = Campaign::from_configs(configs.clone())
                    .threads(budget)
                    .with_checkpoint(&journal);
                let started = Instant::now();
                let restored = again.run_resilient();
                resume_s = Some(started.elapsed().as_secs_f64());
                if !matches!(&restored, Ok(r) if r.restored == configs.len()) {
                    failures.push("resume did not restore every cell from the journal".into());
                }
            }
            let _ = std::fs::remove_file(&journal);
            pass
        }
    };
    let segments_ns = match watch {
        Watch::Marks(ctx) => ctx.into_segments_ns(marked_ns.0, marked_ns.1),
        _ => Vec::new(),
    };
    let cpu_s = crate::host::process_cpu_s() - cpu_before;

    let checks_before = failures.len();
    check_results(workload, seed, &results, &mut failures);
    if failures.len() > checks_before {
        // A failed whole-pass check fails every operation of the pass.
        failed = attempted;
    }
    let cells = results.len().max(1) as f64;
    Outcome {
        wall_s,
        cpu_s,
        rounds: results.iter().map(|r| r.rounds as u64).sum(),
        accuracy_pct: results
            .iter()
            .map(ExperimentResult::final_test_accuracy_pct)
            .sum::<f64>()
            / cells,
        energy_wh: results.iter().map(energy_wh).sum(),
        digest: digest(&results),
        attempted,
        failed,
        failures,
        results,
        journal_bytes,
        resume_s,
        segments_ns,
    }
}

/// Training + communication Wh of one result, as the ledger summed them.
pub fn energy_wh(result: &ExperimentResult) -> f64 {
    result.total_training_wh + result.total_comm_wh
}

/// Initial fleet charge (Wh) a battery spec starts a run with.
fn initial_charge_wh(spec: &BatterySpec, nodes: usize) -> f64 {
    spec.node_capacities(nodes).iter().sum::<f64>() * spec.initial_fraction
}

/// Per-pass checks on the simulated results: battery conservation, the
/// paper's energy halving on the campaign's 6-regular pairs, and the
/// accuracy floor (enforced at the pinned seed only, so a claim can be
/// re-checked on an unseen seed without a stale floor rejecting it).
fn check_results(
    workload: &Workload,
    seed: u64,
    results: &[ExperimentResult],
    failures: &mut Vec<String>,
) {
    if results.len() != workload.configs.len() {
        return; // already reported as failed cells / failed run
    }
    for (cfg, result) in workload.configs.iter().zip(results) {
        if let (Some(spec), Some(b)) = (&cfg.battery, &result.battery) {
            let initial = initial_charge_wh(spec, cfg.nodes);
            let expected = initial + b.harvested_wh - b.wasted_wh - b.drained_wh;
            let scale = initial + b.harvested_wh;
            if (expected - b.final_charge_wh).abs() > 1e-9 * scale {
                failures.push(format!(
                    "{}: battery conservation broken: initial {initial} + harvested {} - wasted \
                     {} - drained {} = {expected}, final charge {}",
                    cfg.name, b.harvested_wh, b.wasted_wh, b.drained_wh, b.final_charge_wh
                ));
            }
        }
    }
    if workload.campaign {
        for (pair_cfg, pair) in workload.configs.chunks(2).zip(results.chunks(2)) {
            if pair_cfg[0].topology != (TopologySpec::Regular { degree: 6 }) || pair.len() < 2 {
                continue;
            }
            let ratio = pair[0].total_training_wh / pair[1].total_training_wh;
            if !(1.9..=2.1).contains(&ratio) {
                failures.push(format!(
                    "{} / {}: training-Wh ratio {ratio:.3} outside [1.9, 2.1]",
                    pair_cfg[0].name, pair_cfg[1].name
                ));
            }
        }
    }
    if seed == PINNED_SEED {
        let accuracy = results
            .iter()
            .map(ExperimentResult::final_test_accuracy_pct)
            .sum::<f64>()
            / results.len() as f64;
        if accuracy < workload.accuracy_floor_pct {
            failures.push(format!(
                "sim_accuracy_pct {accuracy:.2} is below the floor {:.2}",
                workload.accuracy_floor_pct
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn result_digest_is_stable_and_sensitive() {
        let mut cfg =
            skiptrain_core::presets::cifar_config(skiptrain_core::presets::Scale::Quick, 7);
        cfg.nodes = 8;
        cfg.rounds = 3;
        cfg.eval_max_samples = 40;
        let experiment = Experiment::from_config(cfg).expect("valid");
        let data = experiment.build_data();
        let a = run_with_observers(experiment.config(), &data, &mut []).expect("runs");
        let b = run_with_observers(experiment.config(), &data, &mut []).expect("runs");
        assert_eq!(
            digest(std::slice::from_ref(&a)),
            digest(std::slice::from_ref(&b))
        );
        let mut c = b;
        c.total_comm_wh += 1e-9;
        assert_ne!(digest(&[a]), digest(&[c]));
    }

    #[test]
    fn checks_fire_on_broken_results() {
        use crate::workloads::generate;
        // A miniature of adaptive_fleet: same closed loop, 12 nodes, 6 rounds.
        let mut workload = generate("adaptive_fleet", PINNED_SEED).expect("known workload");
        let cfg = &mut workload.configs[0];
        cfg.nodes = 12;
        cfg.rounds = 6;
        cfg.eval_max_samples = 40;
        let Prepared::Single { experiment, data } = prepare(&workload).expect("valid") else {
            panic!("adaptive_fleet is a single run");
        };
        let result = run_with_observers(experiment.config(), &data, &mut []).expect("runs");
        let check = |workload: &Workload, seed: u64, result: &ExperimentResult| {
            let mut failures = Vec::new();
            check_results(workload, seed, std::slice::from_ref(result), &mut failures);
            failures
        };

        // six rounds learn nothing: the floor trips at the pinned seed only
        assert!(check(&workload, PINNED_SEED, &result)[0].contains("below the floor"));
        assert_eq!(
            check(&workload, PINNED_SEED + 1, &result),
            Vec::<String>::new()
        );
        workload.accuracy_floor_pct = 0.0;
        assert_eq!(check(&workload, PINNED_SEED, &result), Vec::<String>::new());

        // a joule that went missing from the battery books is caught
        let mut leaky = result.clone();
        leaky.battery.as_mut().expect("battery run").drained_wh *= 1.0 + 1e-6;
        assert!(check(&workload, PINNED_SEED, &leaky)[0].contains("battery conservation"));
    }
}
