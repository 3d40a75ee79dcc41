//! The observer-driven experiment runner, compiled onto the event core.
//!
//! One experiment = build per-node models and topology, loop rounds under a
//! [`RoundPolicy`](crate::policy::RoundPolicy), and notify
//! [`RoundObserver`]s at the hook points. Everything a result carries —
//! learning-curve recording, the mean-model curve, energy tallies — flows
//! through the same observer interface external callers use, so a figure
//! harness can add its own recording (or stop the run early) without
//! touching this loop.
//!
//! Both public drivers — this synchronous runner and the async pairwise
//! gossip in [`crate::asyncgossip`] — are *schedules compiled onto one
//! event-driven loop* ([`execute_on_events`]): each picks its round
//! semantics (barrier vs deadline), an action source, and how rounds mix
//! (the static/scheduled topology vs a fresh pairwise matching), and the
//! shared loop drives a [`skiptrain_engine::EventEngine`] per round. With
//! trivial timing (homogeneous compute, zero latency, no churn) the
//! engine's fast path makes the loop structure, seed derivations, and
//! evaluation cadence byte-compatible with the legacy lockstep driver: a
//! run with no extra observers produces an identical
//! [`ExperimentResult`], pinned by an equivalence test.

use crate::error::{ConfigError, RunError};
use crate::experiment::{
    BatterySummary, ChurnSpec, DataBundle, EventSummary, ExperimentConfig, ExperimentResult,
};
use skiptrain_engine::observer::{EvalReport, RoundCtx, RoundObserver, RoundReport};
use skiptrain_engine::{
    CurveObserver, EventEngine, MeanModelObserver, RoundAction, RoundSemantics, Simulation,
    SimulationConfig, BASE_TRAIN_TICKS,
};
use skiptrain_linalg::rng::derive_seed;
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_topology::matching::random_maximal_matching;
use skiptrain_topology::schedule::round_seed;
use skiptrain_topology::{Graph, MixingMatrix, ScheduledTopology};
use std::sync::Arc;

/// Deadline slack for async-gossip ticks, in virtual ticks: a message may
/// trail the tick's slowest completion by a quarter of a nominal training
/// round before it is dropped as late. Zero-latency uniform-speed runs
/// never produce late edges under this slack, keeping the legacy async
/// results bit-compatible.
pub(crate) const GOSSIP_SLACK_TICKS: u64 = BASE_TRAIN_TICKS / 4;

/// The simulation a config builds, plus the round-loop companions both the
/// synchronous runner and the async-gossip loop need.
pub(crate) struct BuiltSimulation {
    /// The engine, fully configured (transport, codec, feedback, energy,
    /// and — when specified — the battery runtime).
    pub sim: Simulation,
    /// The bound topology schedule; `None` for the static fast path.
    pub schedule: Option<ScheduledTopology>,
    /// The base communication graph (async gossip matches over it).
    pub graph: Graph,
}

/// The shared round-loop prologue: per-node models, topology and mixing,
/// engine configuration (including the battery runtime lowered from
/// `cfg.battery`), and schedule binding. Factored out of the synchronous
/// runner and the async-gossip loop so battery gating and energy wiring
/// cannot diverge between the two paths. Assumes `cfg` is valid and
/// `data` matches it.
pub(crate) fn build_simulation(cfg: &ExperimentConfig, data: &DataBundle) -> BuiltSimulation {
    let kind = cfg.model_kind();
    let models: Vec<_> = (0..cfg.nodes)
        .map(|i| kind.build(derive_seed(cfg.seed, 0x4000 + i as u64)))
        .collect();

    let graph = cfg.topology.build(cfg.nodes, derive_seed(cfg.seed, 0x7090));
    let mixing = MixingMatrix::metropolis_hastings(&graph);

    // One merge point for the legacy flat codec fields and the
    // first-class `CompressionSpec`; the engine only ever sees the
    // effective spec.
    let compression = cfg.effective_compression();
    let sim_config = SimulationConfig {
        seed: cfg.seed,
        batch_size: cfg.batch_size,
        local_steps: cfg.local_steps,
        sgd: SgdConfig::plain(cfg.learning_rate),
        transport: cfg.transport,
        compression: compression.policy,
        consensus_gamma: compression.gamma,
        feedback_beta: compression.feedback_beta,
        feedback_replica_cap: Some(crate::experiment::effective_replica_cap(
            compression.feedback_replica_cap,
            &graph,
            &cfg.topology_schedule,
        )),
        training_energy_wh: cfg.energy.node_energies(cfg.nodes),
        comm_energy: match cfg.energy.comm_joules_per_byte {
            Some(j) => skiptrain_energy::comm::CommEnergyModel {
                tx_joules_per_byte: j,
                rx_joules_per_byte: j,
            },
            None => skiptrain_energy::comm::CommEnergyModel::paper_fit(),
        },
        nominal_params: Some(cfg.energy.workload.model_params),
        battery: cfg
            .battery
            .as_ref()
            .map(|spec| spec.build(cfg.nodes, cfg.seed, &cfg.energy.workload)),
    };
    // A non-static topology schedule regenerates (cached) doubly
    // stochastic mixing per round; the static default keeps the legacy
    // byte-compatible fast path through `run_round`.
    let schedule = cfg.topology_schedule.bind(&graph, cfg.seed);
    let sim = Simulation::with_shared_data(
        models,
        data.node_datasets.clone(),
        graph.clone(),
        mixing,
        sim_config,
    );
    BuiltSimulation {
        sim,
        schedule,
        graph,
    }
}

/// End-of-run battery totals, when the simulation was battery-gated.
pub(crate) fn battery_summary(sim: &Simulation) -> Option<BatterySummary> {
    sim.battery_state().map(|state| BatterySummary {
        harvested_wh: state.total_harvested_wh(),
        wasted_wh: state.total_wasted_wh(),
        drained_wh: state.total_drained_wh(),
        final_charge_wh: state.total_charge_wh(),
        node_participations: sim.battery_participations().unwrap_or(0),
        brownouts: sim.battery_brownouts().unwrap_or(0),
    })
}

/// Runs `cfg` on a pre-built bundle with caller-supplied observers, after
/// validating both.
///
/// This is the validated entry point used by
/// [`Experiment`](crate::Experiment) and [`Campaign`](crate::Campaign).
/// Configuration problems surface as [`ConfigError`]s before any work
/// starts; a mid-run engine failure (an internal scheduling bug) still
/// panics here with the typed [`RunError`]'s message — the resilient
/// campaign path ([`Campaign::run_resilient`](crate::Campaign::run_resilient))
/// is the API that converts those into typed cell failures instead.
pub fn run_with_observers(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    observers: &mut [&mut dyn RoundObserver],
) -> Result<ExperimentResult, ConfigError> {
    cfg.validate()?;
    if data.node_datasets.len() != cfg.nodes {
        return Err(ConfigError::ArityMismatch {
            what: "node datasets".into(),
            expected: cfg.nodes,
            got: data.node_datasets.len(),
        });
    }
    // lint:allow(no_panic, "legacy infallible contract: config was validated above, an engine failure here is a scheduling bug")
    Ok(execute(cfg, data, observers).unwrap_or_else(|e| panic!("{e}")))
}

/// The synchronous round loop: the configured policy decides actions and
/// every round runs under barrier semantics (the round waits for all
/// messages — timing realism stretches virtual time, never results).
/// Assumes `cfg` is valid and `data` matches it; a mid-run engine failure
/// is reported as a typed [`RunError`] naming the broken round.
pub(crate) fn execute(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    extra_observers: &mut [&mut dyn RoundObserver],
) -> Result<ExperimentResult, RunError> {
    let mut policy = cfg.build_policy();
    execute_on_events(
        cfg,
        data,
        extra_observers,
        cfg.name.clone(),
        cfg.algorithm.name().to_string(),
        RoundSemantics::Barrier,
        false,
        &mut |t, actions| policy.decide(t, actions),
    )
}

/// One schedule compiled onto the event core. Both drivers are thin
/// instances: the synchronous runner picks barrier semantics and the
/// static/scheduled topology mixing; async gossip picks deadline
/// semantics and a fresh random maximal matching per tick
/// (`pairwise_gossip`). The loop builds the fully configured simulation,
/// drives an [`EventEngine`] round by round (compute/latency/churn from
/// `cfg.timing` and `cfg.churn`), and records curves through the same
/// observers in both shapes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_on_events(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    extra_observers: &mut [&mut dyn RoundObserver],
    name: String,
    algorithm: String,
    semantics: RoundSemantics,
    pairwise_gossip: bool,
    decide: &mut dyn FnMut(usize, &mut [RoundAction]),
) -> Result<ExperimentResult, RunError> {
    let built = build_simulation(cfg, data);
    let mut sim = built.sim;
    let mut schedule = built.schedule;
    let graph_for_matching = built.graph;

    let mut engine = EventEngine::new(
        cfg.nodes,
        cfg.seed,
        cfg.timing.compute.clone(),
        cfg.timing.latency,
        cfg.churn.as_ref().map(ChurnSpec::build),
        semantics,
    );

    let mut actions = vec![RoundAction::SyncOnly; cfg.nodes];

    // Built-in observers reimplement the legacy driver's recording; they run
    // before caller observers so callers see a fully recorded state.
    let mut curve = CurveObserver::new();
    let mut mean_model = cfg
        .record_mean_model
        .then(|| MeanModelObserver::new(Arc::clone(&data.test), cfg.eval_max_samples));
    {
        let mut observers: Vec<&mut dyn RoundObserver> = Vec::new();
        observers.push(&mut curve);
        if let Some(mean) = mean_model.as_mut() {
            observers.push(mean);
        }
        for obs in extra_observers.iter_mut() {
            observers.push(&mut **obs);
        }

        let mut node_train_events = 0u64;
        let mut executed_rounds = 0usize;
        let mut prev_training_wh = 0.0f64;
        let mut prev_comm_wh = 0.0f64;

        for t in 0..cfg.rounds {
            decide(t, &mut actions);
            let trained_nodes = actions.iter().filter(|&&a| a == RoundAction::Train).count();
            node_train_events += trained_nodes as u64;

            {
                let ctx = RoundCtx {
                    round: t,
                    actions: &actions,
                };
                for obs in observers.iter_mut() {
                    obs.on_round_start(&sim, &ctx);
                }
            }

            // Sizes were validated with the config; a mismatch here would
            // be an internal scheduling bug, reported with the typed
            // engine error's diagnosis (and the round it broke on) so a
            // resilient campaign can fail this one cell and keep going.
            let round_outcome = if pairwise_gossip {
                // Per-tick matching seeds are chained over (schedule id,
                // round) like every other per-round stream; matchings
                // compose with a configured topology schedule by pairing
                // over the *scheduled* round graph.
                let matching_seed = round_seed(
                    cfg.seed ^ 0x3A7C,
                    crate::asyncgossip::GOSSIP_MATCHING_STREAM,
                    t,
                );
                let pairs = match schedule.as_mut() {
                    None => random_maximal_matching(&graph_for_matching, matching_seed),
                    Some(sched) => {
                        random_maximal_matching(&sched.graph_for_round(t), matching_seed)
                    }
                };
                let round_mixing = MixingMatrix::pairwise(cfg.nodes, &pairs);
                sim.try_run_round_event(&actions, Some(&round_mixing), &mut engine)
            } else {
                match schedule.as_mut() {
                    None => sim.try_run_round_event(&actions, None, &mut engine),
                    Some(sched) => {
                        let mixing = sched.mixing_for_round(t);
                        sim.try_run_round_event(&actions, Some(mixing), &mut engine)
                    }
                }
            };
            round_outcome.map_err(|source| RunError { round: t, source })?;
            executed_rounds = t + 1;

            let training_wh = sim.ledger().total_training_wh();
            let comm_wh = sim.ledger().total_comm_wh();
            let report = RoundReport {
                round: t,
                actions: &actions,
                trained_nodes,
                train_loss: sim.last_train_loss(),
                round_training_wh: training_wh - prev_training_wh,
                round_comm_wh: comm_wh - prev_comm_wh,
                cumulative_wh: training_wh + comm_wh,
            };
            prev_training_wh = training_wh;
            prev_comm_wh = comm_wh;

            let mut stop = false;
            for obs in observers.iter_mut() {
                if obs.on_round_end(&mut sim, &report).is_break() {
                    stop = true;
                }
            }

            let at_eval = (t + 1) % cfg.eval_every.max(1) == 0 || t + 1 == cfg.rounds || stop;
            if at_eval {
                let stats = sim.evaluate(&data.test, cfg.eval_max_samples);
                let eval = EvalReport {
                    round: t + 1,
                    stats: &stats,
                    total_wh: sim.ledger().total_wh(),
                    training_wh: sim.ledger().total_training_wh(),
                };
                for obs in observers.iter_mut() {
                    if obs.on_eval(&mut sim, &eval).is_break() {
                        stop = true;
                    }
                }
            }
            if stop {
                break;
            }
        }

        let final_test = sim.evaluate(&data.test, cfg.eval_max_samples);
        let final_val = sim.evaluate(&data.validation, cfg.eval_max_samples);
        let final_mean_model = sim.mean_params();
        let node_class_sets = data
            .node_datasets
            .iter()
            .map(|d| {
                d.class_histogram()
                    .iter()
                    .enumerate()
                    .filter(|&(_, c)| *c > 0)
                    .map(|(class, _)| class as u32)
                    .collect()
            })
            .collect();
        drop(observers);

        let stats = engine.stats();
        Ok(ExperimentResult {
            name,
            algorithm,
            nodes: cfg.nodes,
            rounds: executed_rounds,
            test_curve: curve.into_recorder().points().to_vec(),
            mean_model_curve: mean_model
                .map(MeanModelObserver::into_curve)
                .unwrap_or_default(),
            final_test,
            final_val_accuracy: final_val.mean_accuracy,
            total_training_wh: sim.ledger().total_training_wh(),
            total_comm_wh: sim.ledger().total_comm_wh(),
            node_train_events,
            final_mean_model,
            node_class_sets,
            battery: battery_summary(&sim),
            events: EventSummary {
                virtual_ticks: engine.now(),
                events: stats.events,
                late_messages: stats.late_messages,
                joins: stats.joins,
                leaves: stats.leaves,
            },
            corrupted_messages: sim.corrupted_frames(),
            total_wire_bytes: sim.ledger().total_tx_bytes(),
        })
    }
}
