//! Asynchronous pairwise-gossip SkipTrain — the extension the paper leaves
//! as future work (§5.3).
//!
//! The synchronous algorithms require every node to act in lockstep each
//! round, which §5.3 calls "challenging to implement at scale". The
//! asynchronous variant drops the global barrier semantics:
//!
//! * each tick, every node independently decides to train with probability
//!   `q` (its energy knob — `q = 0.5` spends the same expected training
//!   energy as SkipTrain with Γ_train = Γ_sync);
//! * instead of the all-neighbor exchange, a random maximal matching of the
//!   topology "fires": matched pairs average their models (`W = ½` each),
//!   unmatched nodes keep theirs.
//!
//! Pairwise averaging with doubly stochastic pair matrices preserves the
//! network-average model and contracts disagreement in expectation, so
//! convergence follows the same intuition as the synchronous analysis —
//! just with slower mixing per tick (one partner instead of d neighbors).

use crate::experiment::{DataBundle, ExperimentConfig, ExperimentResult};
use crate::schedule::Schedule;
use rand::RngExt;
use skiptrain_engine::{RoundAction, RoundSemantics};
use skiptrain_linalg::rng::stream_rng;

/// Schedule-id slot for the async-gossip matching stream in the chained
/// [`round_seed`](skiptrain_topology::schedule::round_seed) derivation
/// (distinct from every [`TopologySchedule`] variant id, so gossip
/// matchings and a configured topology schedule never share a stream).
///
/// [`TopologySchedule`]: skiptrain_topology::TopologySchedule
pub(crate) const GOSSIP_MATCHING_STREAM: u64 = 16;

/// Runs the asynchronous pairwise-gossip variant on a pre-built data bundle.
///
/// `activation_prob` is the per-node, per-tick training probability `q`.
/// Communication happens over random maximal matchings of the configured
/// topology; communication energy is accounted per actual matched pair —
/// the engine charges one tx/rx event pair per firing edge of the round's
/// pairwise mixing matrix (`Simulation::try_run_round_with_mixing` derives the
/// effective edge set from the override, not the static topology), so a
/// tick that matches `m` pairs costs exactly `2m` messages. Earlier
/// versions charged the full static degree (`n·d` messages) every tick,
/// overstating async-gossip comm energy by orders of magnitude; the engine
/// pins a regression test against that.
pub fn run_async_gossip(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    activation_prob: f64,
) -> ExperimentResult {
    assert!(
        (0.0..=1.0).contains(&activation_prob),
        "activation probability in [0,1]"
    );
    let seed = cfg.seed;
    run_gossip_schedule(
        cfg,
        data,
        format!("{}/async-q{activation_prob}", cfg.name),
        &mut move |t, actions| {
            // independent per-node activation draws
            for (i, slot) in actions.iter_mut().enumerate() {
                let mut rng = stream_rng(seed ^ 0xA57C, (t as u64) << 24 | i as u64);
                *slot = if rng.random::<f64>() < activation_prob {
                    RoundAction::Train
                } else {
                    RoundAction::SyncOnly
                };
            }
        },
    )
}

/// Runs asynchronous pairwise gossip with *coordinated* intermittent
/// training: every node trains in tick `t` iff
/// [`Schedule::is_train_round`] says so (the SkipTrain schedule without
/// the synchronous all-neighbor barrier — gossip still happens over
/// random maximal matchings). [`Schedule::with_offset`] shifts the
/// activation *phase*: tick `t` behaves like tick `t + offset` of the
/// base schedule, and the first partial period executes shifted rather
/// than being dropped — pinned by a test counting training events against
/// [`Schedule::count_train_rounds`] and by a property test in the
/// schedule module.
pub fn run_async_gossip_scheduled(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    schedule: Schedule,
) -> ExperimentResult {
    run_gossip_schedule(
        cfg,
        data,
        format!(
            "{}/async-sched({},{})+{}",
            cfg.name, schedule.gamma_train, schedule.gamma_sync, schedule.phase_offset
        ),
        &mut move |t, actions| {
            let action = if schedule.is_train_round(t) {
                RoundAction::Train
            } else {
                RoundAction::SyncOnly
            };
            actions.fill(action);
        },
    )
}

/// The shared async-gossip entry: `decide` fills each tick's per-node
/// actions (i.i.d. draws or a coordinated schedule); everything else —
/// matchings, pairwise mixing, per-pair energy accounting, evaluation
/// cadence — is the *same* event-core loop the synchronous runner uses
/// ([`crate::runner::execute_on_events`]), instantiated with deadline
/// round semantics: a message trailing the tick's slowest completion by
/// more than [`GOSSIP_SLACK_TICKS`](crate::runner::GOSSIP_SLACK_TICKS)
/// is dropped as late (charged at the sender, folded to self-weight at
/// the receiver). Battery gating applies to async ticks exactly as to
/// synchronous rounds, and matchings compose with a configured topology
/// schedule by pairing over the scheduled round graph.
fn run_gossip_schedule(
    cfg: &ExperimentConfig,
    data: &DataBundle,
    name: String,
    decide: &mut dyn FnMut(usize, &mut [RoundAction]),
) -> ExperimentResult {
    crate::runner::execute_on_events(
        cfg,
        data,
        &mut [],
        name,
        "async-gossip".to_string(),
        RoundSemantics::Deadline {
            slack_ticks: crate::runner::GOSSIP_SLACK_TICKS,
        },
        true,
        decide,
    )
    // lint:allow(no_panic, "legacy infallible entry point; campaign cells use the typed-error executor")
    .unwrap_or_else(|e| panic!("async gossip {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{cifar_config, Scale};

    fn tiny() -> ExperimentConfig {
        let mut cfg = cifar_config(Scale::Quick, 5);
        cfg.nodes = 12;
        cfg.rounds = 24;
        cfg.eval_every = 12;
        cfg.eval_max_samples = 200;
        cfg.local_steps = 4;
        cfg
    }

    #[test]
    fn async_gossip_learns() {
        let cfg = tiny();
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let result = run_async_gossip(&cfg, &data, 0.5);
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
        let half = run_async_gossip(&cfg, &data, 0.5);
        let quarter = run_async_gossip(&cfg, &data, 0.25);
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
        let cfg = tiny();
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let result = run_async_gossip(&cfg, &data, 0.0);
        assert_eq!(result.node_train_events, 0);
        assert_eq!(result.total_training_wh, 0.0);
    }

    #[test]
    fn comm_energy_charges_matched_pairs_not_static_degree() {
        // The over-charging bug: every tick used to cost the full static
        // 6-regular degree (n·6 messages). A maximal matching fires at
        // most n/2 pairs = n messages per tick, so correct accounting is
        // bounded by 1/6 of the legacy figure.
        let cfg = tiny();
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let r = run_async_gossip(&cfg, &data, 0.5);
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
        // Issue-4 satellite: the scheduled async variant must execute
        // exactly nodes · count_train_rounds training events at *every*
        // phase offset — a bug that dropped the first partial period
        // (e.g. skipping until the first full period boundary) would
        // undercount at nonzero offsets. rounds = 22 is deliberately not
        // a multiple of the (4, 4) period so partial periods matter.
        let mut cfg = tiny();
        cfg.rounds = 22;
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        for offset in [0usize, 1, 4, 7] {
            let schedule = Schedule::new(4, 4).with_offset(offset);
            let r = run_async_gossip_scheduled(&cfg, &data, schedule);
            let expected = cfg.nodes as u64 * schedule.count_train_rounds(cfg.rounds) as u64;
            assert_eq!(
                r.node_train_events, expected,
                "offset {offset}: scheduled activations must match the \
                 shifted schedule exactly"
            );
        }
        // sync-first (offset = Γ_train) and train-first disagree on the
        // partial window, proving the offset actually shifts the phase
        let train_first = run_async_gossip_scheduled(&cfg, &data, Schedule::new(4, 4));
        let sync_first =
            run_async_gossip_scheduled(&cfg, &data, Schedule::new(4, 4).with_offset(4));
        assert_ne!(train_first.node_train_events, sync_first.node_train_events);
    }

    #[test]
    fn async_gossip_composes_with_error_feedback() {
        // Per-round matchings exercise the lazy per-link replica
        // allocation: feedback must stay stable and deterministic when
        // every tick fires a different edge set.
        let mut cfg = tiny();
        cfg.codec = skiptrain_engine::ModelCodec::TopK { k: 256 };
        cfg.feedback_beta = Some(1.0);
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let a = run_async_gossip(&cfg, &data, 0.5);
        assert!(
            a.final_mean_model.iter().all(|v| v.is_finite()),
            "feedback under per-round matchings must stay finite"
        );
        assert!(
            a.final_test.mean_accuracy > 0.25,
            "async gossip with top-k feedback failed to learn: {}",
            a.final_test.mean_accuracy
        );
        let b = run_async_gossip(&cfg, &data, 0.5);
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
        let cfg = tiny();
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let static_run = run_async_gossip(&cfg, &data, 0.5);

        let mut dropped_cfg = cfg.clone();
        dropped_cfg.topology_schedule = crate::TopologyScheduleSpec::EdgeDropout { p: 0.8 };
        let dropped = run_async_gossip(&dropped_cfg, &data, 0.5);
        assert!(
            dropped.total_comm_wh < static_run.total_comm_wh,
            "dropping 80% of edges must shrink matchings: {} vs {}",
            dropped.total_comm_wh,
            static_run.total_comm_wh
        );
        assert!(dropped.total_comm_wh > 0.0, "some pairs must still fire");
        let again = run_async_gossip(&dropped_cfg, &data, 0.5);
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
        let cfg = tiny();
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let a = run_async_gossip(&cfg, &data, 0.5);
        let b = run_async_gossip(&cfg, &data, 0.5);
        assert_eq!(
            a.final_test.mean_accuracy.to_bits(),
            b.final_test.mean_accuracy.to_bits()
        );
        assert_eq!(a.node_train_events, b.node_train_events);
    }
}
