//! The observer-driven experiment runner: the one round loop.
//!
//! One experiment = build per-node models and topology, loop rounds under a
//! [`RoundPolicy`](crate::policy::RoundPolicy), and notify
//! [`RoundObserver`]s at the hook points. Everything a result carries —
//! learning-curve recording, the mean-model curve, energy tallies — flows
//! through the same observer interface external callers use, so a figure
//! harness can add its own recording (or stop the run early) without
//! touching this loop.
//!
//! `execute` is the only function that drives a
//! [`skiptrain_engine::EventEngine`], and each of the three ways of running
//! a config ([`Experiment::run`](crate::Experiment::run),
//! [`run_with_observers`], a [`Campaign`](crate::Campaign) cell) ends in it. What a round waits for and how it
//! mixes are derived from `cfg.algorithm`, not passed in: the synchronous
//! algorithms run barrier rounds over the configured (static or scheduled)
//! topology; [`AlgorithmSpec::AsyncGossip`] runs deadline rounds
//! (`GOSSIP_SLACK_TICKS`) over a fresh random maximal matching per tick.
//! With trivial timing (homogeneous compute, zero latency, no churn) every
//! participation mask is all-true and a run is bit-identical to the
//! lockstep loop.

use crate::error::{ConfigError, RunError};
use crate::experiment::{
    AlgorithmSpec, BatterySummary, ChurnSpec, DataBundle, EventSummary, ExperimentConfig,
    ExperimentResult,
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
/// round before it is dropped as late (charged at the sender, folded to
/// self-weight at the receiver). Zero-latency uniform-speed runs never
/// produce late edges under this slack. A constant, not a setting.
const GOSSIP_SLACK_TICKS: u64 = BASE_TRAIN_TICKS / 4;

/// Schedule-id slot for the async-gossip matching stream in the chained
/// [`round_seed`] derivation (distinct from every
/// [`TopologySchedule`](skiptrain_topology::TopologySchedule) variant id,
/// so gossip matchings and a configured topology schedule never share a
/// stream).
const GOSSIP_MATCHING_STREAM: u64 = 16;

/// The round-loop prologue: per-node models, topology and mixing, engine
/// configuration (including the battery runtime lowered from
/// `cfg.battery`), and schedule binding. Returns the fully configured
/// simulation, the bound topology schedule (`None` for the static fast
/// path) and the base graph (async gossip matches over it). Assumes `cfg`
/// is valid and `data` matches it.
fn build_simulation(
    cfg: &ExperimentConfig,
    data: &DataBundle,
) -> (Simulation, Option<ScheduledTopology>, Graph) {
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
    // stochastic mixing per round; the static default passes no override.
    let schedule = cfg.topology_schedule.bind(&graph, cfg.seed);
    let sim = Simulation::with_shared_data(
        models,
        data.node_datasets.clone(),
        graph.clone(),
        mixing,
        sim_config,
    );
    (sim, schedule, graph)
}

/// End-of-run battery totals, when the simulation was battery-gated.
fn battery_summary(sim: &Simulation) -> Option<BatterySummary> {
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
/// The way to run one config on a shared bundle and/or with observers.
///
/// # Panics
/// A mid-run engine failure (an internal scheduling bug) panics with the
/// [`RunError`]'s message, which [`Experiment::run`](crate::Experiment::run)
/// and campaign cells return instead: `benchmark/src/run.rs:9` imports
/// this signature, so it is frozen until ROADMAP item 4.1.
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
    // lint:allow(no_panic, "documented '# Panics' contract pinned by benchmark/src/run.rs:9: the Result<_, ConfigError> signature has no slot for a RunError")
    Ok(execute(cfg, data, observers).unwrap_or_else(|e| panic!("{e}")))
}

/// The round loop. The configured policy decides each round's actions;
/// what a round waits for and how it mixes follow from `cfg.algorithm`
/// (see the module docs), compute/latency/churn from `cfg.timing` and
/// `cfg.churn`. A gossip tick that matches `m` pairs costs exactly `2m`
/// messages: the engine charges the edges of the round's mixing, not the
/// static topology. Assumes `cfg` is valid and `data` matches it; a
/// mid-run engine failure is reported as a typed [`RunError`] naming the
/// broken round.
pub(crate) fn execute(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    extra_observers: &mut [&mut dyn RoundObserver],
) -> Result<ExperimentResult, RunError> {
    let mut policy = cfg.build_policy();
    let (mut sim, mut schedule, graph) = build_simulation(cfg, data);
    let gossip = matches!(cfg.algorithm, AlgorithmSpec::AsyncGossip { .. });
    let semantics = if gossip {
        RoundSemantics::Deadline {
            slack_ticks: GOSSIP_SLACK_TICKS,
        }
    } else {
        RoundSemantics::Barrier
    };
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
        let mut last_eval = None;
        let mut prev_training_wh = 0.0f64;
        let mut prev_comm_wh = 0.0f64;

        for t in 0..cfg.rounds {
            policy.decide(t, &mut actions);

            {
                let ctx = RoundCtx {
                    round: t,
                    actions: &actions,
                };
                for obs in observers.iter_mut() {
                    obs.on_round_start(&sim, &ctx);
                }
            }

            let gossip_mixing;
            let mixing = if gossip {
                // Per-tick matching seeds are chained over (schedule id,
                // round) like every other per-round stream; matchings
                // compose with a configured topology schedule by pairing
                // over the *scheduled* round graph.
                let matching_seed = round_seed(cfg.seed ^ 0x3A7C, GOSSIP_MATCHING_STREAM, t);
                let pairs = match schedule.as_mut() {
                    None => random_maximal_matching(&graph, matching_seed),
                    Some(sched) => {
                        random_maximal_matching(&sched.graph_for_round(t), matching_seed)
                    }
                };
                gossip_mixing = MixingMatrix::pairwise(cfg.nodes, &pairs);
                Some(&gossip_mixing)
            } else {
                schedule.as_mut().map(|sched| sched.mixing_for_round(t))
            };
            // Sizes were validated with the config; a mismatch here would
            // be an internal scheduling bug, reported with the typed
            // engine error's diagnosis (and the round it broke on) so a
            // resilient campaign can fail this one cell and keep going.
            sim.try_run_round(&actions, mixing, Some(&mut engine))
                .map_err(|source| RunError { round: t, source })?;
            // what ran, not what `actions` requested: battery and churn
            // gating demote nodes after the policy has decided
            let trained_nodes = sim.last_trained_nodes();
            node_train_events += trained_nodes as u64;

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
                stop |= obs.on_round_end(&mut sim, &report).is_break();
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
                    stop |= obs.on_eval(&mut sim, &eval).is_break();
                }
                last_eval = Some(stats);
            }
            if stop {
                break;
            }
        }

        // already evaluated by the loop, unless an observer ran the fleet on
        let final_test = match last_eval {
            Some(stats) if stats.round == sim.round() => stats,
            _ => sim.evaluate(&data.test, cfg.eval_max_samples),
        };
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
            name: cfg.name.clone(),
            algorithm: cfg.algorithm.name().to_string(),
            nodes: cfg.nodes,
            rounds: sim.round(),
            test_curve: curve.into_points(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{cifar_config, Scale};
    use crate::schedule::Schedule;
    use crate::TopologyScheduleSpec;

    fn tiny() -> ExperimentConfig {
        let mut cfg = cifar_config(Scale::Quick, 5);
        cfg.nodes = 12;
        cfg.rounds = 24;
        cfg.eval_every = 12;
        cfg.eval_max_samples = 200;
        cfg.local_steps = 4;
        cfg
    }

    fn run_shared(cfg: &ExperimentConfig, data: &DataBundle) -> ExperimentResult {
        run_with_observers(cfg, data, &mut []).expect("valid config")
    }

    fn gossip(mut cfg: ExperimentConfig, activation_prob: f64) -> ExperimentConfig {
        cfg.algorithm = AlgorithmSpec::AsyncGossip { activation_prob };
        cfg
    }

    #[test]
    fn async_gossip_learns() {
        let cfg = gossip(tiny(), 0.5);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let result = run_shared(&cfg, &data);
        assert_eq!(result.algorithm, "async-gossip");
        assert!(
            result.final_test.mean_accuracy > 0.3,
            "async gossip failed to learn: {}",
            result.final_test.mean_accuracy
        );
    }

    #[test]
    fn activation_prob_controls_training_energy() {
        let cfg = tiny();
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let half = run_shared(&gossip(cfg.clone(), 0.5), &data);
        let quarter = run_shared(&gossip(cfg.clone(), 0.25), &data);
        let expected_half = 0.5 * (cfg.nodes * cfg.rounds) as f64;
        assert!(
            (half.node_train_events as f64 - expected_half).abs() < expected_half * 0.35,
            "q=0.5 trained {} of expected ~{expected_half}",
            half.node_train_events
        );
        assert!(quarter.node_train_events < half.node_train_events);
        assert!(quarter.total_training_wh < half.total_training_wh);
    }

    #[test]
    fn zero_activation_never_trains() {
        let cfg = gossip(tiny(), 0.0);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let result = run_shared(&cfg, &data);
        assert_eq!(result.node_train_events, 0);
        assert_eq!(result.total_training_wh, 0.0);
    }

    #[test]
    fn out_of_range_activation_is_a_typed_error_naming_the_campaign_cell() {
        for q in [-0.1, 1.5, f64::NAN] {
            let err = gossip(tiny(), q).validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidActivationProbability { value }
                    if value.to_bits() == q.to_bits()),
                "q = {q}: {err:?}"
            );
        }
        let data = tiny().data.build(12, 5);
        assert!(run_with_observers(&gossip(tiny(), 2.0), &data, &mut []).is_err());
        let campaign = crate::Campaign::new()
            .push(gossip(tiny(), 1.0))
            .push(gossip(tiny(), 1.01));
        let err = campaign.validate().unwrap_err();
        assert_eq!(err.run, 1);
        assert_eq!(
            err.source,
            ConfigError::InvalidActivationProbability { value: 1.01 }
        );
    }

    #[test]
    fn comm_energy_charges_matched_pairs_not_static_degree() {
        // The over-charging bug: every tick used to cost the full static
        // 6-regular degree (n·6 messages). A maximal matching fires at
        // most n/2 pairs = n messages per tick, so correct accounting is
        // bounded by 1/6 of the legacy figure.
        let cfg = gossip(tiny(), 0.5);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let r = run_shared(&cfg, &data);
        let comm = skiptrain_energy::comm::CommEnergyModel::paper_fit();
        let bytes =
            skiptrain_engine::ModelCodec::DenseF32.message_bytes(cfg.energy.workload.model_params);
        let legacy_degree_charge = (cfg.nodes * 6 * cfg.rounds) as f64
            * (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes));
        assert!(r.total_comm_wh > 0.0, "matched pairs must cost something");
        assert!(
            r.total_comm_wh <= legacy_degree_charge / 6.0 + 1e-12,
            "comm {} Wh exceeds the matching bound {} Wh",
            r.total_comm_wh,
            legacy_degree_charge / 6.0
        );
    }

    #[test]
    fn scheduled_offsets_shift_activation_phase_not_drop_partial_periods() {
        // Coordinated intermittent training over pairwise matchings (a
        // SkipTrain schedule on the `PairwiseMatching` topology schedule)
        // must execute exactly nodes · count_train_rounds training events
        // at *every* phase offset — a bug that dropped the first partial
        // period (e.g. skipping until the first full period boundary)
        // would undercount at nonzero offsets. rounds = 22 is deliberately
        // not a multiple of the (4, 4) period so partial periods matter.
        let mut cfg = tiny();
        cfg.rounds = 22;
        cfg.topology_schedule = TopologyScheduleSpec::PairwiseMatching;
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let run = |schedule: Schedule| {
            let mut cfg = cfg.clone();
            cfg.algorithm = AlgorithmSpec::SkipTrain(schedule);
            run_shared(&cfg, &data)
        };
        for offset in [0usize, 1, 4, 7] {
            let schedule = Schedule::new(4, 4).with_offset(offset);
            let r = run(schedule);
            let expected = cfg.nodes as u64 * schedule.count_train_rounds(cfg.rounds) as u64;
            assert_eq!(
                r.node_train_events, expected,
                "offset {offset}: scheduled activations must match the \
                 shifted schedule exactly"
            );
        }
        // sync-first (offset = Γ_train) and train-first disagree on the
        // partial window, proving the offset actually shifts the phase
        let train_first = run(Schedule::new(4, 4));
        let sync_first = run(Schedule::new(4, 4).with_offset(4));
        assert_ne!(train_first.node_train_events, sync_first.node_train_events);
    }

    #[test]
    fn async_gossip_composes_with_error_feedback() {
        // Per-round matchings exercise the lazy per-link replica
        // allocation: feedback must stay stable and deterministic when
        // every tick fires a different edge set.
        let mut cfg = gossip(tiny(), 0.5);
        cfg.codec = skiptrain_engine::ModelCodec::TopK { k: 256 };
        cfg.feedback_beta = Some(1.0);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let a = run_shared(&cfg, &data);
        assert!(
            a.final_mean_model.iter().all(|v| v.is_finite()),
            "feedback under per-round matchings must stay finite"
        );
        assert!(
            a.final_test.mean_accuracy > 0.25,
            "async gossip with top-k feedback failed to learn: {}",
            a.final_test.mean_accuracy
        );
        let b = run_shared(&cfg, &data);
        assert_eq!(
            a.final_test.mean_accuracy.to_bits(),
            b.final_test.mean_accuracy.to_bits()
        );
    }

    #[test]
    fn async_gossip_respects_the_topology_schedule() {
        // Under an aggressive edge-dropout schedule, each tick's matching
        // can only pair nodes over surviving edges, so communication
        // energy must fall strictly below the static-schedule run while
        // the result stays deterministic.
        let cfg = gossip(tiny(), 0.5);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let static_run = run_shared(&cfg, &data);

        let mut dropped_cfg = cfg.clone();
        dropped_cfg.topology_schedule = TopologyScheduleSpec::EdgeDropout { p: 0.8 };
        let dropped = run_shared(&dropped_cfg, &data);
        assert!(
            dropped.total_comm_wh < static_run.total_comm_wh,
            "dropping 80% of edges must shrink matchings: {} vs {}",
            dropped.total_comm_wh,
            static_run.total_comm_wh
        );
        assert!(dropped.total_comm_wh > 0.0, "some pairs must still fire");
        let again = run_shared(&dropped_cfg, &data);
        assert_eq!(
            dropped.final_test.mean_accuracy.to_bits(),
            again.final_test.mean_accuracy.to_bits()
        );
        assert_eq!(
            dropped.total_comm_wh.to_bits(),
            again.total_comm_wh.to_bits()
        );
    }

    #[test]
    fn async_gossip_is_deterministic() {
        let cfg = gossip(tiny(), 0.5);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let a = run_shared(&cfg, &data);
        let b = run_shared(&cfg, &data);
        assert_eq!(
            a.final_test.mean_accuracy.to_bits(),
            b.final_test.mean_accuracy.to_bits()
        );
        assert_eq!(a.node_train_events, b.node_train_events);
    }
}
