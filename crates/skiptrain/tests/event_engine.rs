//! Event-driven engine invariants: the discrete-event core must reproduce
//! the legacy lockstep loop bit for bit at zero latency, stay deterministic
//! across worker-thread counts, keep energy-ledger totals conservation-exact
//! under churn, and make seeded-latency drops exactly reproducible.

mod common;

use common::{run, run_shared};
use skiptrain::data::synth::{MixtureSpec, MixtureTask};
use skiptrain::prelude::*;
use skiptrain::topology::regular::random_regular;

/// A small engine-level simulation (mixture task, MLP, 4-regular graph)
/// mirroring the engine crate's own test fixture.
fn tiny_sim(n: usize, seed: u64) -> Simulation {
    let spec = MixtureSpec {
        num_classes: 4,
        feature_dim: 6,
        modes_per_class: 1,
        separation: 1.6,
        noise: 0.5,
    };
    let task = MixtureTask::new(spec, 99);
    let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(60, 10 + i as u64)).collect();
    let models: Vec<Sequential> = (0..n)
        .map(|i| skiptrain::nn::zoo::mlp(&[6, 12, 4], seed + i as u64))
        .collect();
    let graph = random_regular(n, 4, seed);
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    Simulation::new(
        models,
        datasets,
        graph,
        mixing,
        SimulationConfig::minimal(seed, 8, 2, 0.1),
    )
}

/// A quick runner-level config matching the determinism suite's shape.
fn runner_config(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 12;
    cfg.rounds = 16;
    cfg.eval_every = 8;
    cfg.eval_max_samples = 200;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(2, 2));
    cfg
}

fn assert_params_bit_identical(a: &mut Simulation, b: &mut Simulation, ctx: &str) {
    for node in 0..a.len() {
        let (pa, pb) = (a.node_params(node), b.node_params(node));
        assert!(
            pa.iter().zip(pb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{ctx}: node {node} parameters diverged"
        );
    }
}

#[test]
fn event_path_at_zero_latency_is_bit_identical_to_lockstep() {
    let n = 8;
    let mut legacy = tiny_sim(n, 42);
    let mut event = tiny_sim(n, 42);
    let mut engine = EventEngine::lockstep(n, 42);
    for round in 0..6usize {
        // mixed Train/SyncOnly schedules must agree too, not just all-train
        let actions: Vec<RoundAction> = (0..n)
            .map(|i| {
                if (i + round) % 3 == 0 {
                    RoundAction::SyncOnly
                } else {
                    RoundAction::Train
                }
            })
            .collect();
        legacy.run_round(&actions);
        event
            .try_run_round(&actions, None, Some(&mut engine))
            .expect("event round failed");
        assert_params_bit_identical(&mut legacy, &mut event, &format!("round {round}"));
    }
    assert_eq!(
        legacy.ledger().total_wh().to_bits(),
        event.ledger().total_wh().to_bits(),
        "energy totals diverged between lockstep and event paths"
    );
    // at least one node trains every round, so virtual time advances by
    // exactly one nominal training span per round
    assert_eq!(engine.now(), 6 * BASE_TRAIN_TICKS);
    assert_eq!(
        event.ledger().round_end_ticks().len(),
        6,
        "event path must stamp every round boundary"
    );
    assert_eq!(engine.stats().late_messages, 0);
}

#[test]
fn barrier_semantics_stretch_time_but_never_results() {
    let n = 8;
    let mut legacy = tiny_sim(n, 7);
    let mut slow = tiny_sim(n, 7);
    let mut engine = EventEngine::new(
        n,
        7,
        ComputeProfile::StragglerTail {
            tail_prob: 0.3,
            tail_factor: 4.0,
        },
        LatencyModel::Seeded {
            mean_ticks: BASE_TRAIN_TICKS / 2,
            jitter: 0.5,
        },
        None,
        RoundSemantics::Barrier,
    );
    let actions = vec![RoundAction::Train; n];
    for _ in 0..6 {
        legacy.run_round(&actions);
        slow.try_run_round(&actions, None, Some(&mut engine))
            .expect("barrier round failed");
    }
    assert_params_bit_identical(&mut legacy, &mut slow, "barrier");
    assert_eq!(
        legacy.ledger().total_wh().to_bits(),
        slow.ledger().total_wh().to_bits()
    );
    // stragglers and latency stretch the virtual clock...
    assert!(
        engine.now() > 6 * BASE_TRAIN_TICKS,
        "stragglers must stretch virtual time: {}",
        engine.now()
    );
    // ...but a barrier never times a message out
    assert_eq!(engine.stats().late_messages, 0);
}

#[test]
fn sync_runner_timing_is_metadata_only() {
    let base = run(&runner_config(11));
    let mut cfg = runner_config(11);
    cfg.timing = TimingSpec {
        compute: ComputeProfile::StragglerTail {
            tail_prob: 0.25,
            tail_factor: 3.0,
        },
        latency: LatencyModel::Constant {
            ticks: BASE_TRAIN_TICKS / 3,
        },
    };
    let slow = run(&cfg);
    assert_eq!(
        base.final_test.mean_accuracy.to_bits(),
        slow.final_test.mean_accuracy.to_bits(),
        "barrier timing must not perturb results"
    );
    for (a, b) in base.test_curve.iter().zip(&slow.test_curve) {
        assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());
    }
    assert_eq!(
        base.total_training_wh.to_bits(),
        slow.total_training_wh.to_bits()
    );
    assert_eq!(base.total_comm_wh.to_bits(), slow.total_comm_wh.to_bits());
    assert!(
        slow.events.virtual_ticks > base.events.virtual_ticks,
        "stragglers and latency must stretch virtual time: {} vs {}",
        slow.events.virtual_ticks,
        base.events.virtual_ticks
    );
    assert_eq!(slow.events.late_messages, 0);
}

#[test]
fn event_runs_are_thread_count_invariant() {
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut cfg = runner_config(13);
            cfg.timing = TimingSpec {
                compute: ComputeProfile::StragglerTail {
                    tail_prob: 0.3,
                    tail_factor: 4.0,
                },
                latency: LatencyModel::Seeded {
                    mean_ticks: BASE_TRAIN_TICKS / 2,
                    jitter: 0.5,
                },
            };
            cfg.churn = Some(ChurnSpec {
                leave_prob: 0.05,
                rejoin_prob: 0.5,
            });
            cfg.algorithm = AlgorithmSpec::AsyncGossip {
                activation_prob: 0.6,
            };
            let data = cfg.data.build(cfg.nodes, cfg.seed);
            run_shared(&cfg, &data)
        })
    };
    let r1 = run(1);
    let r2 = run(2);
    let r7 = run(7);
    for other in [&r2, &r7] {
        assert_eq!(
            r1.final_test.mean_accuracy.to_bits(),
            other.final_test.mean_accuracy.to_bits(),
            "the event timeline leaked thread scheduling into results"
        );
        for (a, b) in r1.test_curve.iter().zip(&other.test_curve) {
            assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());
        }
        assert_eq!(r1.events, other.events);
    }
}

#[test]
fn full_churn_starves_the_fleet_without_charging_energy() {
    let mut cfg = runner_config(17);
    cfg.churn = Some(ChurnSpec {
        leave_prob: 1.0,
        rejoin_prob: 0.0,
    });
    // full batteries: whatever keeps the fleet out, it is not charge
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform { wh: 1.0 },
        initial_fraction: 1.0,
        harvest: HarvestProfile::None,
        harvest_jitter: 0.0,
        policy: BatteryPolicy::AlwaysOn,
        node_policies: None,
    });
    let r = run(&cfg);
    assert_eq!(
        r.total_training_wh, 0.0,
        "absent nodes must not accrue training energy"
    );
    assert_eq!(
        r.total_comm_wh, 0.0,
        "absent nodes must not accrue communication energy"
    );
    assert_eq!(
        r.node_train_events, 0,
        "absent nodes are asked to train but never do"
    );
    assert_eq!(r.events.leaves, cfg.nodes as u64, "every node leaves once");
    assert_eq!(r.events.joins, 0);
    assert_eq!(
        r.battery
            .expect("battery summary recorded")
            .node_participations,
        0,
        "a charged battery does not make an absent node a participant"
    );
}

#[test]
fn churned_ledger_totals_stay_conservation_exact() {
    let n = 10;
    let rounds = 8;
    let mut sim = tiny_sim(n, 23);
    let mut engine = EventEngine::new(
        n,
        23,
        ComputeProfile::Homogeneous,
        LatencyModel::Zero,
        Some(ChurnModel {
            leave_prob: 0.2,
            rejoin_prob: 0.5,
        }),
        RoundSemantics::Barrier,
    );
    let actions = vec![RoundAction::Train; n];
    for _ in 0..rounds {
        sim.try_run_round(&actions, None, Some(&mut engine))
            .expect("churned round failed");
    }
    let stats = engine.stats();
    assert!(stats.leaves > 0, "churn draws never fired");
    assert!(stats.joins > 0, "rejoin draws never fired");
    let ledger = sim.ledger();
    let node_sum: f64 = (0..n)
        .map(|i| ledger.node_training_wh(i) + ledger.node_comm_wh(i))
        .sum();
    let total = ledger.total_wh();
    assert!(
        (total - node_sum).abs() <= 1e-12 * (1.0 + total.abs()),
        "ledger total drifted from per-node sum: {total} vs {node_sum}"
    );
    let cumulative = *ledger.cumulative_by_round().last().unwrap();
    assert!(
        (total - cumulative).abs() <= 1e-12 * (1.0 + total.abs()),
        "cumulative-by-round lost energy: {total} vs {cumulative}"
    );
    assert_eq!(ledger.round_end_ticks().len(), rounds);
    // absences must strictly reduce spend vs the fully present fleet
    let mut full = tiny_sim(n, 23);
    for _ in 0..rounds {
        full.run_round(&actions);
    }
    assert!(
        total < full.ledger().total_wh(),
        "churned run should spend less energy than a fully present one"
    );
}

/// FNV-1a over a stream of bit patterns, byte by byte.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn async_gossip_is_pinned_bit_for_bit_under_every_schedule() {
    // Recorded before gossip took its matchings from the schedule's
    // in-place path: the matching seed, the scheduled round graph it is
    // drawn over and the pairwise mixing all stay where they were.
    let mut base = cifar_config(Scale::Quick, 42);
    base.nodes = 12;
    base.rounds = 12;
    base.eval_every = 4;
    base.eval_max_samples = 200;
    base.record_mean_model = true;
    base.algorithm = AlgorithmSpec::AsyncGossip {
        activation_prob: 0.5,
    };
    let with_schedule = |schedule: TopologyScheduleSpec| ExperimentConfig {
        topology_schedule: schedule,
        ..base.clone()
    };
    let mut late = base.clone();
    late.timing.latency = LatencyModel::Seeded {
        mean_ticks: BASE_TRAIN_TICKS / 4,
        jitter: 0.8,
    };
    // (cell, config, final accuracy bits, comm Wh bits, train events,
    // late messages, FNV-1a of the final mean model and both curves)
    let cells = [
        (
            "static",
            base.clone(),
            0x3e8f5c29,
            0x3f457a80c6af3c71,
            85,
            0,
            0x8c80364b9c22ddf2,
        ),
        (
            "edge-dropout",
            with_schedule(TopologyScheduleSpec::EdgeDropout { p: 0.5 }),
            0x3e733333,
            0x3f4100fb47f5652f,
            85,
            0,
            0x61fa12459548c9d3,
        ),
        (
            "pairwise-matching",
            with_schedule(TopologyScheduleSpec::PairwiseMatching),
            0x3e8147ae,
            0x3f43b04b60cb4cbd,
            85,
            0,
            0xe216fc7f584db043,
        ),
        (
            "cycle",
            with_schedule(TopologyScheduleSpec::Cycle(vec![
                random_regular(12, 4, 1),
                Graph::ring(12),
            ])),
            0x3e755555,
            0x3f42cb30add954e4,
            85,
            0,
            0x915716b6a69f1476,
        ),
        (
            "static + late edges",
            late,
            0x3e577777,
            0x3f41accf4e2adf13,
            85,
            51,
            0x8934feb8c478c882,
        ),
    ];
    let data = base.data.build(base.nodes, base.seed);
    for (name, cfg, accuracy, comm_wh, train_events, late_messages, digest) in cells {
        let r = run_shared(&cfg, &data);
        let curves = fnv1a(
            r.final_mean_model
                .iter()
                .map(|v| u64::from(v.to_bits()))
                .chain(r.test_curve.iter().flat_map(|p| {
                    [
                        p.round as u64,
                        u64::from(p.mean_accuracy.to_bits()),
                        u64::from(p.std_accuracy.to_bits()),
                        u64::from(p.mean_loss.to_bits()),
                        p.cumulative_energy_wh.to_bits(),
                        p.training_energy_wh.to_bits(),
                    ]
                }))
                .chain(
                    r.mean_model_curve
                        .iter()
                        .flat_map(|&(round, acc)| [round as u64, u64::from(acc.to_bits())]),
                ),
        );
        assert_eq!(r.final_test.mean_accuracy.to_bits(), accuracy, "{name}");
        assert_eq!(r.total_comm_wh.to_bits(), comm_wh, "{name}");
        assert_eq!(r.node_train_events, train_events, "{name}");
        assert_eq!(r.events.late_messages, late_messages, "{name}");
        assert_eq!(r.mean_model_curve.len(), 3, "{name}: one point per eval");
        assert_eq!(curves, digest, "{name}: models or curves moved");
    }
}

#[test]
fn seeded_latency_drops_are_reproducible() {
    let run = |latency: LatencyModel| {
        let mut cfg = runner_config(19);
        cfg.timing = TimingSpec {
            compute: ComputeProfile::Homogeneous,
            latency,
        };
        cfg.algorithm = AlgorithmSpec::AsyncGossip {
            activation_prob: 0.7,
        };
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        run_shared(&cfg, &data)
    };
    let jittered = LatencyModel::Seeded {
        mean_ticks: BASE_TRAIN_TICKS / 4,
        jitter: 0.9,
    };
    let a = run(jittered);
    let b = run(jittered);
    assert_eq!(
        a.final_test.mean_accuracy.to_bits(),
        b.final_test.mean_accuracy.to_bits(),
        "seeded latency must be exactly reproducible"
    );
    assert_eq!(a.events, b.events);
    assert!(
        a.events.late_messages > 0,
        "deadline semantics with jitter straddling the slack must drop messages"
    );
    // late edges fold their weight to self, so drops perturb the trajectory
    let zero = run(LatencyModel::Zero);
    assert_eq!(zero.events.late_messages, 0);
    assert_ne!(
        a.final_test.mean_accuracy.to_bits(),
        zero.final_test.mean_accuracy.to_bits(),
        "late drops should perturb results relative to instant delivery"
    );
}
