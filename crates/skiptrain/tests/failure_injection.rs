//! Failure-injection and edge-case behavior across crate boundaries.

mod common;

use common::run;
use skiptrain::prelude::*;
use skiptrain_data::synth::{MixtureSpec, MixtureTask};

#[test]
fn single_node_degenerates_to_local_sgd() {
    // A 1-node "network" with an identity mixing matrix: the engine must
    // run plain local SGD without panicking.
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 3,
            feature_dim: 6,
            modes_per_class: 1,
            separation: 2.0,
            noise: 0.4,
        },
        1,
    );
    let data = task.sample(80, 1);
    let test = task.sample(100, 2);
    let model = ModelKind::Mlp {
        dims: vec![6, 8, 3],
    }
    .build(5);
    let mut sim = Simulation::new(
        vec![model],
        vec![data],
        Graph::empty(1),
        MixingMatrix::identity(1),
        SimulationConfig::minimal(1, 8, 4, 0.2),
    );
    for _ in 0..20 {
        sim.run_round(&[RoundAction::Train]);
    }
    let stats = sim.evaluate(&test, usize::MAX);
    assert!(
        stats.mean_accuracy > 0.8,
        "lone node failed to learn: {}",
        stats.mean_accuracy
    );
}

#[test]
fn zero_budget_fleet_never_trains() {
    let mut cfg = cifar_config(Scale::Quick, 3);
    cfg.nodes = 8;
    cfg.rounds = 12;
    cfg.eval_every = 12;
    cfg.eval_max_samples = 100;
    // battery fraction so tiny every budget floors to zero
    cfg.energy = EnergySpec {
        workload: WorkloadSpec::cifar10(),
        battery_fraction: Some(1e-9),
        comm_joules_per_byte: None,
    };
    cfg.algorithm = AlgorithmSpec::Greedy;
    let result = run(&cfg);
    assert_eq!(
        result.node_train_events, 0,
        "zero-budget nodes must never train"
    );
    assert_eq!(result.total_training_wh, 0.0);
    // models still mix (sync every round) — accuracy stays at init level
    assert!(result.final_test.mean_accuracy < 0.3);
}

#[test]
fn exhausted_constrained_run_becomes_sync_only() {
    let mut cfg = cifar_config(Scale::Quick, 4);
    cfg.nodes = 8;
    cfg.rounds = 40;
    cfg.eval_every = 40;
    cfg.eval_max_samples = 100;
    // budgets so small they exhaust in the first period
    cfg.energy = EnergySpec {
        workload: WorkloadSpec::cifar10(),
        battery_fraction: Some(0.0002), // τ ≈ 0–1 rounds per device
        comm_joules_per_byte: None,
    };
    cfg.algorithm = AlgorithmSpec::SkipTrainConstrained(Schedule::new(4, 4));
    let budgets = cfg.energy.node_budgets(cfg.nodes);
    let result = run(&cfg);
    let cap: u64 = budgets.iter().map(|&b| b as u64).sum();
    assert!(result.node_train_events <= cap);
}

#[test]
fn disconnected_topology_blocks_global_consensus() {
    // Two disjoint rings: information cannot cross components, so node
    // accuracy stays bimodal (high std) even after many sync rounds.
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 4,
            feature_dim: 8,
            modes_per_class: 1,
            separation: 1.5,
            noise: 0.5,
        },
        9,
    );
    let n = 8;
    let mut graph = Graph::empty(n);
    for c in 0..2 {
        let base = c * 4;
        for i in 0..4 {
            let a = (base + i) as u32;
            let b = (base + (i + 1) % 4) as u32;
            if !graph.has_edge(a as usize, b as usize) {
                graph.add_edge(a, b);
            }
        }
    }
    assert!(!graph.is_connected());
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    // give component 0 only classes {0,1} and component 1 only {2,3}
    let full = task.sample(800, 1);
    let mut datasets = Vec::new();
    for i in 0..n {
        let wanted: Vec<usize> = (0..full.len())
            .filter(|&s| {
                let l = full.labels()[s] as usize;
                if i < 4 {
                    l < 2
                } else {
                    l >= 2
                }
            })
            .take(60)
            .collect();
        datasets.push(full.subset(&wanted));
    }
    let models: Vec<Sequential> = (0..n)
        .map(|i| {
            ModelKind::Mlp {
                dims: vec![8, 8, 4],
            }
            .build(50 + i as u64)
        })
        .collect();
    let mut sim = Simulation::new(
        models,
        datasets,
        graph,
        mixing,
        SimulationConfig::minimal(9, 8, 4, 0.2),
    );
    let test = task.sample(400, 2);
    for _ in 0..15 {
        sim.run_round(&vec![RoundAction::Train; n]);
    }
    for _ in 0..10 {
        sim.run_round(&vec![RoundAction::SyncOnly; n]);
    }
    let stats = sim.evaluate(&test, usize::MAX);
    // each component only ever saw half the classes → ≈50% ceiling
    assert!(
        stats.mean_accuracy < 0.75,
        "disconnected components cannot exceed their class ceiling: {}",
        stats.mean_accuracy
    );
    assert!(
        sim.disagreement() > 1e-6,
        "components should not reach global consensus"
    );
}

#[test]
fn corrupted_frame_is_rejected() {
    use skiptrain::engine::transport::{decode_frame_into, encode_message_with, DecodeError};
    use skiptrain::engine::{DecodeScratch, EncodeScratch};
    // the quantized codecs decode to a view of the frame's codes: a
    // flipped, truncated or length-lying frame must fail before it is built
    for codec in [
        ModelCodec::DenseF32,
        ModelCodec::QuantizedU8,
        ModelCodec::QuantizedU16,
    ] {
        let mut raw = Vec::new();
        let mut scratch = EncodeScratch::default();
        encode_message_with(codec, 3, 9, &[0.5, -1.5, 2.0], &mut raw, &mut scratch);
        let mut scratch = DecodeScratch::default();
        let mut flipped = raw.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let result = decode_frame_into(&flipped, &mut scratch);
        assert!(
            matches!(
                result,
                Err(DecodeError::BadChecksum) | Err(DecodeError::LengthMismatch)
            ),
            "{codec:?}: corruption slipped through: {result:?}"
        );
        for cut in [1, 4, raw.len() - 8] {
            let result = decode_frame_into(&raw[..raw.len() - cut], &mut scratch);
            assert!(
                matches!(
                    result,
                    Err(DecodeError::BadChecksum) | Err(DecodeError::Truncated)
                ),
                "{codec:?}: a frame cut by {cut} bytes decoded: {result:?}"
            );
        }
        // the header's count is not summed: a lie there passes the
        // checksum and must fail the length check
        let mut lying = raw.clone();
        lying[19] = 4;
        let result = decode_frame_into(&lying, &mut scratch);
        assert_eq!(result, Err(DecodeError::LengthMismatch), "{codec:?}");
    }
}
