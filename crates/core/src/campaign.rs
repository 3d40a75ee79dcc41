//! Parallel, fault-tolerant multi-run experiment execution.
//!
//! The paper's evaluation is inherently *many runs over shared data*: the
//! §4.3 grid alone is |Γ|² full experiments on one dataset, and every
//! figure compares several algorithms on identical bundles. A [`Campaign`]
//! executes N validated configurations with:
//!
//! * **data deduplication** — bundles are keyed by
//!   `(DataSpec, nodes, seed)` and materialized once behind `Arc`, so a
//!   16-cell sweep synthesizes its dataset a single time and shares it
//!   zero-copy across runs;
//! * **run-level parallelism** — independent runs execute on worker
//!   threads (each run's internal node loop stays sequential on its
//!   worker, which is the right grain for multi-run workloads);
//! * **deterministic results in input order** — every run is
//!   self-contained and seeded, so the output is identical to serial
//!   execution, cell for cell;
//! * **observability** — an optional observer factory hooks
//!   [`RoundObserver`]s into every run, and `on_result` / `on_failure`
//!   callbacks stream completions and terminal failures as they happen.
//!
//! # All-or-nothing vs. resilient execution
//!
//! There is one cell loop, [`Campaign::run_resilient`]: it isolates every
//! cell behind `catch_unwind` and returns a [`CampaignReport`] where
//! cell-level trouble is *data*. [`Campaign::run`] is that loop with an
//! all-or-nothing ending — [`CampaignReport::into_results`], which turns
//! the lowest-index failed cell into [`CampaignRunError::Cell`] and
//! otherwise unwraps the results. Neither panics. In the report:
//!
//! * a failing cell becomes a typed [`CellFailure`] (index, config
//!   digest, attempt count, [`FailureCause`]) instead of taking its
//!   siblings down;
//! * a [`RetrySpec`] re-runs failed cells with the chain-derived
//!   [`retry_seed`] — attempt 1 is the configured seed, attempt *k* > 1
//!   is `derive_seed(seed ^ salt, k-1)` — so a retried cell is
//!   bit-identical to a fresh run configured with that seed;
//! * [`Campaign::with_checkpoint`] journals every completed cell to a
//!   crash-safe JSONL file (see [`crate::journal`]); re-running the same
//!   campaign against the journal restores completed cells without
//!   re-executing them, and the resumed campaign's results are
//!   bit-identical to an uninterrupted run.
//!
//! ```
//! use skiptrain_core::presets::{cifar_config, Scale};
//! use skiptrain_core::{Campaign, RetrySpec};
//!
//! let mut base = cifar_config(Scale::Quick, 1);
//! base.nodes = 10;
//! base.rounds = 4;
//! base.eval_max_samples = 50;
//! let campaign = Campaign::replicates(&base, 3).retry(RetrySpec::attempts(2));
//! assert_eq!(campaign.len(), 3);
//! ```

use crate::error::{CampaignError, RunError};
use crate::experiment::{DataBundle, DataSpec, ExperimentConfig, ExperimentResult};
use crate::journal::{config_digest, Journal, JournalError};
use crate::runner;
use skiptrain_engine::observer::RoundObserver;
use skiptrain_linalg::rng::derive_seed;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Factory producing per-run observers (run index, config → observers).
type ObserverFactory = dyn Fn(usize, &ExperimentConfig) -> Vec<Box<dyn RoundObserver>> + Sync;

/// Streaming completion callback (run index, result).
type ResultCallback = dyn Fn(usize, &ExperimentResult) + Sync;

/// Streaming failure callback (final, post-retry cell failures).
type FailureCallback = dyn Fn(&CellFailure) + Sync;

/// Retry policy for failed campaign cells under
/// [`Campaign::run_resilient`].
///
/// Attempt 1 runs the cell's configured seed; every further attempt
/// re-runs it with the chain-derived [`retry_seed`], so retried cells are
/// exactly as deterministic as fresh runs (pinned by a bit-equivalence
/// test) while still escaping seed-dependent failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySpec {
    /// Total attempts per cell, including the first (minimum 1).
    pub max_attempts: usize,
}

impl RetrySpec {
    /// `max_attempts` total attempts, each retry starting at once: a
    /// cell is a deterministic in-process computation, so waiting cannot
    /// change its outcome — only the reseed can.
    pub fn attempts(max_attempts: usize) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
        }
    }
}

impl Default for RetrySpec {
    /// No retries: one attempt.
    fn default() -> Self {
        Self { max_attempts: 1 }
    }
}

/// The seed a failed cell is re-run with on `attempt` (1-based; attempt 1
/// is the configured seed itself).
///
/// Chained off the cell's own seed with a dedicated salt, so the retry
/// stream never collides with any of the experiment's internal
/// `derive_seed` streams and a retried cell is bit-identical to a fresh
/// run configured with this seed directly.
pub fn retry_seed(base: u64, attempt: usize) -> u64 {
    if attempt <= 1 {
        base
    } else {
        derive_seed(base ^ 0x9E7A_D10C, attempt as u64 - 1)
    }
}

/// Why a campaign cell ultimately failed (after retries).
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The cell panicked; the payload's message, when it carried one.
    Panic(String),
    /// The engine reported a typed mid-run error.
    Engine(RunError),
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

/// One campaign cell that failed every attempt under
/// [`Campaign::run_resilient`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Cell index in the campaign's input order.
    pub index: usize,
    /// The cell's config name.
    pub name: String,
    /// [`config_digest`] of the cell's config (matches the checkpoint
    /// journal's manifest entry).
    pub config_digest: u64,
    /// Attempts made (`>= 1`).
    pub attempts: usize,
    /// The last attempt's failure.
    pub cause: FailureCause,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} (`{}`) failed after {} attempt(s): {}",
            self.index, self.name, self.attempts, self.cause
        )
    }
}

/// What a resilient campaign produced: per-cell results in input order
/// (`None` where the cell failed every attempt) plus the typed failures.
#[derive(Debug)]
pub struct CampaignReport {
    /// Results in input order; `None` marks a failed cell.
    pub results: Vec<Option<ExperimentResult>>,
    /// Every cell that failed all its attempts, in input order.
    pub failures: Vec<CellFailure>,
    /// Cells restored from the checkpoint journal instead of re-run.
    pub restored: usize,
}

impl CampaignReport {
    /// True when every cell has a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.results.iter().all(Option::is_some)
    }

    /// All or nothing: every result in input order, or the failed cell
    /// with the lowest index.
    pub fn into_results(self) -> Result<Vec<ExperimentResult>, CellFailure> {
        match self.failures.into_iter().min_by_key(|f| f.index) {
            Some(failure) => Err(failure),
            None => Ok(self.results.into_iter().flatten().collect()),
        }
    }
}

/// Why a campaign returned no results. [`Campaign::run_resilient`] fails
/// only when it cannot start (`Config`, `Journal`) and reports cell
/// failures *inside* the [`CampaignReport`]; the all-or-nothing
/// [`Campaign::run`] adds `Cell`.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRunError {
    /// A configuration failed validation.
    Config(CampaignError),
    /// The checkpoint journal could not be opened, resumed, or written.
    Journal(JournalError),
    /// A cell failed every attempt ([`Campaign::run`] only): the failed
    /// cell with the lowest index.
    Cell(CellFailure),
}

impl std::fmt::Display for CampaignRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignRunError::Config(e) => e.fmt(f),
            CampaignRunError::Journal(e) => e.fmt(f),
            CampaignRunError::Cell(e) => write!(f, "campaign {e}"),
        }
    }
}

impl std::error::Error for CampaignRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignRunError::Config(e) => Some(e),
            CampaignRunError::Journal(e) => Some(e),
            CampaignRunError::Cell(_) => None,
        }
    }
}

impl From<CampaignError> for CampaignRunError {
    fn from(e: CampaignError) -> Self {
        CampaignRunError::Config(e)
    }
}

impl From<JournalError> for CampaignRunError {
    fn from(e: JournalError) -> Self {
        CampaignRunError::Journal(e)
    }
}

impl From<CellFailure> for CampaignRunError {
    fn from(e: CellFailure) -> Self {
        CampaignRunError::Cell(e)
    }
}

/// A batch of experiment runs executed in parallel over shared data
/// (see the module docs).
#[derive(Default)]
pub struct Campaign {
    configs: Vec<ExperimentConfig>,
    threads: Option<usize>,
    observer_factory: Option<Box<ObserverFactory>>,
    on_result: Option<Box<ResultCallback>>,
    on_failure: Option<Box<FailureCallback>>,
    retry: RetrySpec,
    checkpoint: Option<PathBuf>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Self::default()
    }

    /// A campaign over an explicit list of configurations.
    pub fn from_configs(configs: Vec<ExperimentConfig>) -> Self {
        Self {
            configs,
            ..Self::default()
        }
    }

    /// A campaign of `n` seed-replicates of `base`: run `i` gets the
    /// deterministically derived seed `derive_seed(base.seed, i)` and a
    /// `name/rep{i}` label.
    pub fn replicates(base: &ExperimentConfig, n: usize) -> Self {
        let configs = (0..n)
            .map(|i| {
                let mut cfg = base.clone();
                cfg.seed = derive_seed(base.seed, i as u64);
                cfg.name = format!("{}/rep{i}", base.name);
                cfg
            })
            .collect();
        Self {
            configs,
            ..Self::default()
        }
    }

    /// Appends one run.
    pub fn push(mut self, config: ExperimentConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Caps the worker threads used for run-level parallelism
    /// (default: all available cores; `1` forces serial execution).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Installs a factory that builds [`RoundObserver`]s for every run.
    ///
    /// Observers are created per run and dropped when it finishes; to
    /// extract data from them, capture a shared sink (`Arc<Mutex<_>>`,
    /// channel, ...) in the observer at construction time.
    pub fn observe_with(
        mut self,
        factory: impl Fn(usize, &ExperimentConfig) -> Vec<Box<dyn RoundObserver>> + Sync + 'static,
    ) -> Self {
        self.observer_factory = Some(Box::new(factory));
        self
    }

    /// Installs a callback invoked as each run completes (from worker
    /// threads, in completion order).
    ///
    /// Under [`Campaign::run_resilient`] the callback fires for freshly
    /// computed cells only — cells restored from a checkpoint journal
    /// already streamed in the interrupted run and are not re-delivered.
    pub fn on_result(
        mut self,
        callback: impl Fn(usize, &ExperimentResult) + Sync + 'static,
    ) -> Self {
        self.on_result = Some(Box::new(callback));
        self
    }

    /// Installs a callback invoked as each cell *fails terminally* (all
    /// attempts exhausted) under [`Campaign::run_resilient`] — the
    /// failure-side counterpart of [`Campaign::on_result`] streaming.
    pub fn on_failure(mut self, callback: impl Fn(&CellFailure) + Sync + 'static) -> Self {
        self.on_failure = Some(Box::new(callback));
        self
    }

    /// Sets the retry policy for failed cells under
    /// [`Campaign::run_resilient`] (default: no retries).
    pub fn retry(mut self, retry: RetrySpec) -> Self {
        self.retry = retry;
        self
    }

    /// Enables checkpoint/resume through a JSONL journal at `path` for
    /// [`Campaign::run_resilient`]: every completed cell is appended
    /// crash-safely, and a re-run against an existing journal skips the
    /// cells it already holds (manifest-checked — see
    /// [`crate::journal`]).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when the campaign holds no runs.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configured runs, in input order.
    pub fn configs(&self) -> &[ExperimentConfig] {
        &self.configs
    }

    /// Validates every run up front (first failure wins, with its index).
    pub fn validate(&self) -> Result<(), CampaignError> {
        for (run, cfg) in self.configs.iter().enumerate() {
            cfg.validate().map_err(|source| CampaignError {
                run,
                name: cfg.name.clone(),
                source,
            })?;
        }
        Ok(())
    }

    /// Executes every run and returns results in input order, all or
    /// nothing: [`Campaign::run_resilient`] ending in
    /// [`CampaignReport::into_results`].
    ///
    /// The cells go through the resilient loop under the campaign's own
    /// [`RetrySpec`] and checkpoint (defaults: one attempt, no journal),
    /// so every sibling cell finishes and [`Campaign::on_failure`] fires
    /// for every failed cell before the lowest-index one comes back as
    /// [`CampaignRunError::Cell`]. Long or flaky sweeps should call
    /// [`Campaign::run_resilient`] and read the report instead.
    pub fn run(&self) -> Result<Vec<ExperimentResult>, CampaignRunError> {
        Ok(self.run_resilient()?.into_results()?)
    }

    /// Executes every run with per-cell failure isolation, seeded retry,
    /// and (when [`Campaign::with_checkpoint`] is set) journal-backed
    /// checkpoint/resume.
    ///
    /// Equal `(DataSpec, nodes, seed)` triples share one materialized
    /// [`DataBundle`]. Bundles are built lazily by the first run that needs
    /// them (so peak memory is bounded by the worker count, not the number
    /// of distinct bundles) and freed as soon as their last dependent run
    /// finishes.
    ///
    /// Each cell runs inside `catch_unwind`: a panicking or
    /// engine-failing cell becomes a typed [`CellFailure`] in the report
    /// instead of aborting its siblings. Failed cells are re-attempted
    /// per the [`RetrySpec`] with the chain-derived [`retry_seed`]
    /// (attempt 1 = configured seed; retried cells are bit-identical to
    /// fresh runs at the derived seed). Successes stream through
    /// [`Campaign::on_result`], terminal failures through
    /// [`Campaign::on_failure`]; results come back in input order with
    /// `None` holes where a cell failed every attempt.
    ///
    /// Returns an error only when the campaign cannot *start* (invalid
    /// config, unusable journal) or when the journal broke mid-run —
    /// cell-level trouble is data, not an error, and never
    /// [`CampaignRunError::Cell`].
    pub fn run_resilient(&self) -> Result<CampaignReport, CampaignRunError> {
        self.validate()?;
        let digests: Vec<u64> = self.configs.iter().map(config_digest).collect();

        let mut results: Vec<Option<ExperimentResult>> = Vec::new();
        results.resize_with(self.configs.len(), || None);
        let journal = match &self.checkpoint {
            Some(path) => {
                let (journal, restored) = Journal::open(path, &digests)?;
                results = restored;
                Some(journal)
            }
            None => None,
        };
        let restored = results.iter().filter(|r| r.is_some()).count();
        let pending: Vec<usize> = (0..self.configs.len())
            .filter(|&i| results[i].is_none())
            .collect();
        // Bundle slots count only the cells actually running this time;
        // restored cells never acquire, so counting them would leak the
        // bundle until process exit.
        let slots = self.bundle_slots_for(&pending);
        let journal_error: Mutex<Option<JournalError>> = Mutex::new(None);
        // one slot per pending cell, written in place by the cell's worker
        let mut outcomes: Vec<Option<Result<ExperimentResult, CellFailure>>> = Vec::new();
        outcomes.resize_with(pending.len(), || None);
        let cells = (&pending[..], &mut outcomes[..]);
        let execute_all = || {
            rayon::for_each(cells, |_, (&run, outcome)| {
                *outcome = Some(match self.execute_cell_with_retry(run, &slots) {
                    Ok((result, attempts)) => {
                        if let Some(journal) = &journal {
                            if let Err(e) = journal.record(run, digests[run], attempts, &result) {
                                let mut slot =
                                    journal_error.lock().unwrap_or_else(PoisonError::into_inner);
                                slot.get_or_insert(e);
                            }
                        }
                        if let Some(callback) = &self.on_result {
                            callback(run, &result);
                        }
                        Ok(result)
                    }
                    Err(failure) => {
                        if let Some(callback) = &self.on_failure {
                            callback(&failure);
                        }
                        Err(failure)
                    }
                });
            })
        };
        match self.threads {
            Some(threads) => rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap_or_else(|infallible| match infallible {})
                .install(execute_all),
            None => execute_all(),
        }

        if let Some(e) = journal_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(CampaignRunError::Journal(e));
        }

        let mut failures = Vec::new();
        for (&run, outcome) in pending.iter().zip(outcomes) {
            match outcome {
                Some(Ok(result)) => results[run] = Some(result),
                Some(Err(failure)) => failures.push(failure),
                // every slot is written: a cell's panic is caught in its retry loop
                None => {}
            }
        }
        failures.sort_by_key(|f| f.index);
        Ok(CampaignReport {
            results,
            failures,
            restored,
        })
    }

    /// Runs one cell under `catch_unwind`, retrying per the campaign's
    /// [`RetrySpec`]. Attempt 1 uses the shared bundle slot; retries run
    /// a reseeded config ([`retry_seed`]), whose data bundle is private
    /// by construction (the seed differs), exactly like a fresh run.
    fn execute_cell_with_retry(
        &self,
        run: usize,
        slots: &BTreeMap<String, BundleSlot>,
    ) -> Result<(ExperimentResult, usize), CellFailure> {
        let cfg = &self.configs[run];
        let mut attempt = 0;
        let cause = loop {
            attempt += 1;
            let outcome = if attempt == 1 {
                let slot = &slots[&data_key(&cfg.data, cfg.nodes, cfg.seed)];
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let bundle = slot.acquire(cfg);
                    self.execute_one(run, cfg, &bundle)
                }));
                // Balance the slot's use count even when the cell
                // panicked (possibly mid-build while holding the lock —
                // acquire/release recover the poison), so healthy
                // sibling cells still free the bundle on time.
                slot.release();
                outcome
            } else {
                let mut reseeded = cfg.clone();
                reseeded.seed = retry_seed(cfg.seed, attempt);
                catch_unwind(AssertUnwindSafe(|| {
                    let bundle = reseeded.data.build(reseeded.nodes, reseeded.seed);
                    self.execute_one(run, &reseeded, &bundle)
                }))
            };
            let cause = match outcome {
                Ok(Ok(result)) => return Ok((result, attempt)),
                Ok(Err(run_error)) => FailureCause::Engine(run_error),
                Err(payload) => FailureCause::Panic(panic_message(payload.as_ref())),
            };
            if attempt >= self.retry.max_attempts {
                break cause;
            }
        };
        Err(CellFailure {
            index: run,
            name: cfg.name.clone(),
            config_digest: config_digest(cfg),
            attempts: attempt,
            cause,
        })
    }

    fn execute_one(
        &self,
        run: usize,
        cfg: &ExperimentConfig,
        bundle: &DataBundle,
    ) -> Result<ExperimentResult, RunError> {
        let mut boxed = match &self.observer_factory {
            Some(factory) => factory(run, cfg),
            None => Vec::new(),
        };
        let mut refs: Vec<&mut dyn RoundObserver> = Vec::with_capacity(boxed.len());
        for observer in &mut boxed {
            refs.push(observer.as_mut());
        }
        runner::execute(cfg, bundle, &mut refs)
    }

    /// One lazy cache slot per distinct `(DataSpec, nodes, seed)` triple
    /// among `cells`, pre-counted with how many of them will use it
    /// (resumed campaigns only count the cells that actually run).
    fn bundle_slots_for(&self, cells: &[usize]) -> BTreeMap<String, BundleSlot> {
        let mut slots: BTreeMap<String, BundleSlot> = BTreeMap::new();
        for &run in cells {
            let cfg = &self.configs[run];
            slots
                .entry(data_key(&cfg.data, cfg.nodes, cfg.seed))
                .or_default()
                .expected_uses += 1;
        }
        slots
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A lazily materialized, use-counted data bundle shared by every run with
/// the same data key. The bundle is built under the slot lock by the first
/// run that needs it (runs on *other* keys proceed concurrently) and freed
/// once the last dependent run releases it, so campaign peak memory is
/// bounded by the bundles in active use, not by the number of distinct
/// keys.
#[derive(Default)]
struct BundleSlot {
    bundle: Mutex<Option<Arc<DataBundle>>>,
    expected_uses: usize,
    released: AtomicUsize,
}

impl BundleSlot {
    /// The shared bundle, materializing it on first use.
    ///
    /// A poisoned lock is recovered, not propagated: poisoning means a
    /// sibling cell panicked (isolated by `run_resilient`), and the slot
    /// state is a plain `Option` cache that is either intact or `None` —
    /// rebuilding it is always safe.
    fn acquire(&self, cfg: &ExperimentConfig) -> Arc<DataBundle> {
        let mut guard = self.bundle.lock().unwrap_or_else(PoisonError::into_inner);
        guard
            .get_or_insert_with(|| Arc::new(cfg.data.build(cfg.nodes, cfg.seed)))
            .clone()
    }

    /// Signals that one dependent run finished; the last release drops the
    /// cached bundle. Recovers a poisoned lock (see [`Self::acquire`]).
    fn release(&self) {
        if self.released.fetch_add(1, Ordering::AcqRel) + 1 == self.expected_uses {
            *self.bundle.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// Cache key for data deduplication. `DataSpec` holds floats, so the key is
/// its full `Debug` rendering (shortest-roundtrip float formatting makes
/// distinct values render distinctly) plus the node count and seed.
fn data_key(spec: &DataSpec, nodes: usize, seed: u64) -> String {
    format!("{spec:?}|n={nodes}|s={seed}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use crate::experiment::AlgorithmSpec;
    use crate::presets::{cifar_config, Scale};
    use crate::schedule::Schedule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn micro(seed: u64) -> ExperimentConfig {
        let mut cfg = cifar_config(Scale::Quick, seed);
        cfg.nodes = 8;
        cfg.rounds = 6;
        cfg.eval_every = 3;
        cfg.eval_max_samples = 80;
        cfg.data = DataSpec::CifarLike {
            feature_dim: 8,
            samples_per_node: 30,
            test_samples: 200,
            shards_per_node: 2,
            separation: 1.2,
            noise: 0.8,
            modes_per_class: 1,
        };
        cfg.hidden_dim = 8;
        cfg.local_steps = 2;
        cfg.topology = crate::experiment::TopologySpec::Regular { degree: 3 };
        cfg
    }

    /// [`micro`] as an async-gossip cell.
    fn micro_gossip(seed: u64) -> ExperimentConfig {
        let mut cfg = micro(seed);
        cfg.algorithm = AlgorithmSpec::AsyncGossip {
            activation_prob: 0.5,
        };
        cfg
    }

    #[test]
    fn results_come_back_in_input_order() {
        let configs: Vec<ExperimentConfig> = (0..4)
            .map(|i| {
                let mut cfg = micro(5);
                cfg.name = format!("run-{i}");
                cfg.algorithm = if i % 2 == 0 {
                    AlgorithmSpec::DPsgd
                } else {
                    AlgorithmSpec::SkipTrain(Schedule::new(2, 2))
                };
                cfg
            })
            .collect();
        let results = Campaign::from_configs(configs).run().unwrap();
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.name, format!("run-{i}"));
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let campaign = |threads: usize| {
            Campaign::from_configs(vec![micro(1), micro(2), micro(3)])
                .threads(threads)
                .run()
                .unwrap()
        };
        let serial = campaign(1);
        let parallel = campaign(4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                a.final_test.mean_accuracy.to_bits(),
                b.final_test.mean_accuracy.to_bits()
            );
            assert_eq!(a.final_mean_model, b.final_mean_model);
            assert_eq!(a.node_train_events, b.node_train_events);
        }
    }

    #[test]
    fn equal_data_specs_share_one_bundle() {
        // Two runs, same (data, nodes, seed) but different algorithms:
        // exactly one bundle slot, used twice.
        let mut a = micro(9);
        a.algorithm = AlgorithmSpec::DPsgd;
        let mut b = micro(9);
        b.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(2, 2));
        let campaign = Campaign::from_configs(vec![a, b]);
        let slots = campaign.bundle_slots_for(&[0, 1]);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots.values().next().unwrap().expected_uses, 2);
        // A changed seed produces a second slot.
        let campaign = Campaign::from_configs(vec![micro(9), micro(10)]);
        assert_eq!(campaign.bundle_slots_for(&[0, 1]).len(), 2);
    }

    #[test]
    fn bundle_slots_free_after_last_release() {
        let cfg = micro(21);
        let slot = BundleSlot {
            expected_uses: 2,
            ..BundleSlot::default()
        };
        let first = slot.acquire(&cfg);
        let second = slot.acquire(&cfg);
        assert!(
            Arc::ptr_eq(&first, &second),
            "same slot must share one bundle"
        );
        slot.release();
        assert!(
            slot.bundle.lock().unwrap().is_some(),
            "freed before last user"
        );
        slot.release();
        assert!(
            slot.bundle.lock().unwrap().is_none(),
            "not freed after last user"
        );
    }

    #[test]
    fn invalid_run_is_rejected_with_its_index() {
        let mut bad = micro(1);
        bad.rounds = 0;
        bad.name = "broken".into();
        let CampaignRunError::Config(err) = Campaign::from_configs(vec![micro(1), bad])
            .run()
            .unwrap_err()
        else {
            panic!("an invalid run is a config error");
        };
        assert_eq!(err.run, 1);
        assert_eq!(err.name, "broken");
        assert_eq!(err.source, ConfigError::ZeroRounds);
    }

    #[test]
    fn replicates_derive_distinct_deterministic_seeds() {
        let base = micro(7);
        let campaign = Campaign::replicates(&base, 3);
        let seeds: Vec<u64> = campaign.configs().iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], derive_seed(7, 0));
        assert_eq!(seeds[1], derive_seed(7, 1));
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2]);
        // Re-deriving gives the same seeds.
        let again: Vec<u64> = Campaign::replicates(&base, 3)
            .configs()
            .iter()
            .map(|c| c.seed)
            .collect();
        assert_eq!(seeds, again);
    }

    #[test]
    fn on_result_streams_every_completion() {
        // The callback must be 'static, so move a counter behind an Arc.
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let c2 = std::sync::Arc::clone(&counter);
        let results = Campaign::from_configs(vec![micro(1), micro(2)])
            .on_result(move |_, _| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .run()
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    /// Unique temp path for journal-backed tests.
    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "skiptrain-campaign-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn result_bits(r: &ExperimentResult) -> (u32, Vec<u32>) {
        (
            r.final_test.mean_accuracy.to_bits(),
            r.final_mean_model.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn run_resilient_matches_strict_run_bitwise() {
        // `run` is this loop with an all-or-nothing ending, so the
        // reference is each cell run on its own, outside any campaign.
        let configs = vec![micro(11), micro(12), micro(13), micro_gossip(14)];
        let serial: Vec<ExperimentResult> = configs
            .iter()
            .map(|cfg| {
                crate::Experiment::from_config(cfg.clone())
                    .unwrap()
                    .run()
                    .unwrap()
            })
            .collect();
        let report = Campaign::from_configs(configs).run_resilient().unwrap();
        assert!(report.is_complete());
        assert_eq!(report.restored, 0);
        for (a, b) in serial.iter().zip(report.into_results().unwrap().iter()) {
            assert_eq!(result_bits(a), result_bits(b));
            assert_eq!(a.node_train_events, b.node_train_events);
        }
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        let mut doomed = micro(2);
        doomed.name = "doomed".into();
        let configs = vec![micro(1), doomed, micro(3)];
        let failures_seen = std::sync::Arc::new(AtomicUsize::new(0));
        let f2 = std::sync::Arc::clone(&failures_seen);
        let report = Campaign::from_configs(configs)
            .observe_with(|_, cfg| {
                if cfg.name == "doomed" {
                    panic!("injected cell fault");
                }
                Vec::new()
            })
            .on_failure(move |failure| {
                assert_eq!(failure.index, 1);
                f2.fetch_add(1, Ordering::SeqCst);
            })
            .run_resilient()
            .unwrap();
        assert!(!report.is_complete());
        assert!(report.results[0].is_some() && report.results[2].is_some());
        assert!(report.results[1].is_none());
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.index, 1);
        assert_eq!(failure.name, "doomed");
        assert_eq!(failure.attempts, 1);
        assert!(
            matches!(&failure.cause, FailureCause::Panic(msg) if msg.contains("injected cell fault")),
            "unexpected cause: {}",
            failure.cause
        );
        assert_eq!(failures_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn run_finishes_the_siblings_then_panics_on_the_lowest_failed_cell() {
        let completed = std::sync::Arc::new(AtomicUsize::new(0));
        let failed = std::sync::Arc::new(AtomicUsize::new(0));
        let (c2, f2) = (
            std::sync::Arc::clone(&completed),
            std::sync::Arc::clone(&failed),
        );
        let mut configs = vec![micro(1), micro(2), micro(3), micro(4)];
        configs[1].name = "doomed".into();
        configs[3].name = "doomed".into();
        let campaign = Campaign::from_configs(configs)
            .observe_with(|_, cfg| {
                if cfg.name == "doomed" {
                    panic!("injected cell fault");
                }
                Vec::new()
            })
            .on_result(move |_, _| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .on_failure(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
            });
        let Err(CampaignRunError::Cell(failure)) = campaign.run() else {
            panic!("a failed cell is `CampaignRunError::Cell`");
        };
        assert_eq!(failure.index, 1, "the lowest failed cell");
        assert_eq!(
            failure.cause,
            FailureCause::Panic("injected cell fault".into())
        );
        assert_eq!(
            CampaignRunError::Cell(failure).to_string(),
            "campaign cell #1 (`doomed`) failed after 1 attempt(s): panic: injected cell fault"
        );
        assert_eq!(completed.load(Ordering::SeqCst), 2);
        assert_eq!(failed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn retried_cell_is_bit_identical_to_fresh_run_at_derived_seed() {
        // A cell that panics on its configured seed and succeeds on the
        // retry seed must produce exactly the bits of a fresh run
        // configured with the derived seed directly — at every thread
        // count the campaign supports.
        let base = micro(41);
        let derived = retry_seed(base.seed, 2);
        let mut fresh_cfg = base.clone();
        fresh_cfg.seed = derived;
        let fresh = Campaign::from_configs(vec![fresh_cfg]).run().unwrap();

        let doomed_seed = base.seed;
        for threads in [1usize, 2, 7] {
            let report = Campaign::from_configs(vec![base.clone(), micro(42)])
                .threads(threads)
                .retry(RetrySpec::attempts(2))
                .observe_with(move |_, cfg| {
                    if cfg.seed == doomed_seed {
                        panic!("fails on the configured seed only");
                    }
                    Vec::new()
                })
                .run_resilient()
                .unwrap();
            assert!(report.is_complete(), "threads={threads}");
            let retried = report.results[0].as_ref().unwrap();
            assert_eq!(
                result_bits(retried),
                result_bits(&fresh[0]),
                "threads={threads}: retried cell must match fresh run at retry_seed"
            );
            assert_eq!(retried.node_train_events, fresh[0].node_train_events);
        }
    }

    #[test]
    fn retry_seed_chain_is_stable_and_collision_free() {
        assert_eq!(retry_seed(99, 1), 99, "attempt 1 is the configured seed");
        let s2 = retry_seed(99, 2);
        let s3 = retry_seed(99, 3);
        assert_ne!(s2, 99);
        assert_ne!(s2, s3);
        assert_eq!(s2, retry_seed(99, 2), "derivation must be pure");
    }

    #[test]
    fn exhausted_retries_report_the_last_cause() {
        let report = Campaign::from_configs(vec![micro(8)])
            .retry(RetrySpec::attempts(3))
            .observe_with(|_, _| panic!("always fails"))
            .run_resilient()
            .unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 3);
        assert!(matches!(
            &report.failures[0].cause,
            FailureCause::Panic(msg) if msg.contains("always fails")
        ));
    }

    #[test]
    fn checkpoint_journal_restores_completed_cells() {
        let path = temp_journal("restore");
        let _ = std::fs::remove_file(&path);
        let configs = vec![micro(61), micro(62), micro(63)];
        let first = Campaign::from_configs(configs.clone())
            .with_checkpoint(&path)
            .run_resilient()
            .unwrap();
        assert!(first.is_complete());
        assert_eq!(first.restored, 0);

        // Re-running against the full journal restores everything and
        // never re-executes (observer factory would panic).
        let resumed = Campaign::from_configs(configs)
            .with_checkpoint(&path)
            .observe_with(|_, _| panic!("restored cells must not re-run"))
            .run_resilient()
            .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.restored, 3);
        for (a, b) in first.results.iter().zip(resumed.results.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(result_bits(a), result_bits(b));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_interrupt_at_any_cell_is_bit_identical() {
        // Pinned resilience guarantee: interrupting a campaign after any
        // completed cell and resuming from its journal yields exactly the
        // bits of an uninterrupted run.
        let configs = vec![micro(71), micro(72), micro_gossip(73), micro(74)];
        let uninterrupted = Campaign::from_configs(configs.clone()).run().unwrap();

        let full_path = temp_journal("interrupt-full");
        let _ = std::fs::remove_file(&full_path);
        Campaign::from_configs(configs.clone())
            .with_checkpoint(&full_path)
            .run_resilient()
            .unwrap();
        let journal_text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = journal_text.lines().collect();
        assert_eq!(lines.len(), 1 + configs.len(), "manifest + one per cell");

        for interrupted_at in 0..=configs.len() {
            let path = temp_journal(&format!("interrupt-{interrupted_at}"));
            // Simulate a crash after `interrupted_at` cells: manifest plus
            // that many completed-cell records (plus a torn final line for
            // the mid-write cases).
            let mut partial: String = lines[..=interrupted_at].join("\n");
            partial.push('\n');
            if interrupted_at < configs.len() {
                let torn = &lines[interrupted_at + 1];
                partial.push_str(&torn[..torn.len() / 2]);
            }
            std::fs::write(&path, partial).unwrap();

            let report = Campaign::from_configs(configs.clone())
                .with_checkpoint(&path)
                .run_resilient()
                .unwrap();
            assert!(report.is_complete(), "interrupted_at={interrupted_at}");
            assert_eq!(report.restored, interrupted_at);
            for (a, b) in uninterrupted.iter().zip(report.results.iter()) {
                assert_eq!(
                    result_bits(a),
                    result_bits(b.as_ref().unwrap()),
                    "interrupted_at={interrupted_at}: resume must be bit-identical"
                );
            }
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&full_path);
    }

    #[test]
    fn mismatched_journal_is_a_typed_error() {
        let path = temp_journal("mismatch");
        let _ = std::fs::remove_file(&path);
        Campaign::from_configs(vec![micro(81)])
            .with_checkpoint(&path)
            .run_resilient()
            .unwrap();
        // A different campaign against the same journal must refuse.
        let err = Campaign::from_configs(vec![micro(82), micro(83)])
            .with_checkpoint(&path)
            .run_resilient()
            .unwrap_err();
        assert!(matches!(err, CampaignRunError::Journal(_)), "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_cells_are_not_journaled_and_rerun_on_resume() {
        let path = temp_journal("failed-rerun");
        let _ = std::fs::remove_file(&path);
        let mut flaky = micro(92);
        flaky.name = "flaky".into();
        let configs = vec![micro(91), flaky];
        let report = Campaign::from_configs(configs.clone())
            .with_checkpoint(&path)
            .observe_with(|_, cfg| {
                if cfg.name == "flaky" {
                    panic!("fails this pass");
                }
                Vec::new()
            })
            .run_resilient()
            .unwrap();
        assert_eq!(report.failures.len(), 1);
        // The next pass (fault fixed) restores the good cell and re-runs
        // only the failed one.
        let resumed = Campaign::from_configs(configs)
            .with_checkpoint(&path)
            .run_resilient()
            .unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.restored, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn engine_failure_cause_formats_with_round() {
        use skiptrain_engine::EngineError;
        let cause = FailureCause::Engine(RunError {
            round: 7,
            source: EngineError::MixingSizeMismatch {
                expected: 8,
                got: 4,
            },
        });
        let text = format!("{cause}");
        assert!(text.contains("engine error"), "got: {text}");
        assert!(text.contains("round 7"), "got: {text}");
    }

    #[test]
    fn observer_factory_hooks_into_every_run() {
        use skiptrain_engine::observer::{EvalReport, RoundObserver};
        use skiptrain_engine::Simulation;
        use std::ops::ControlFlow;

        struct CountEvals(std::sync::Arc<Mutex<Vec<usize>>>);
        impl RoundObserver for CountEvals {
            fn on_eval(
                &mut self,
                _sim: &mut Simulation,
                report: &EvalReport<'_>,
            ) -> ControlFlow<()> {
                self.0.lock().unwrap().push(report.round);
                ControlFlow::Continue(())
            }
        }

        let sink = std::sync::Arc::new(Mutex::new(Vec::new()));
        let s2 = std::sync::Arc::clone(&sink);
        let results = Campaign::from_configs(vec![micro(4)])
            .observe_with(move |_, _| vec![Box::new(CountEvals(std::sync::Arc::clone(&s2)))])
            .run()
            .unwrap();
        // rounds=6, eval_every=3 -> evals after rounds 3 and 6
        assert_eq!(results[0].test_curve.len(), 2);
        let mut rounds = sink.lock().unwrap().clone();
        rounds.sort_unstable();
        assert_eq!(rounds, vec![3, 6]);
    }
}
