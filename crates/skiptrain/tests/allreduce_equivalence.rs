//! All-reduce and mixing-algebra equivalences, driven through the engine:
//! uniform complete-graph mixing equals the exact global average; sync-only
//! rounds preserve the mean model; repeated gossip reaches consensus.

mod common;

use common::run;
use skiptrain::prelude::*;
use skiptrain_data::synth::{MixtureSpec, MixtureTask};
use skiptrain_topology::regular::random_regular;

fn build_sim(n: usize, graph: Graph, mixing: MixingMatrix, seed: u64) -> (Simulation, Dataset) {
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 4,
            feature_dim: 8,
            modes_per_class: 1,
            separation: 1.5,
            noise: 0.5,
        },
        seed,
    );
    let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(50, 10 + i as u64)).collect();
    let test = task.sample(200, 999);
    let models: Vec<Sequential> = (0..n)
        .map(|i| {
            ModelKind::Mlp {
                dims: vec![8, 10, 4],
            }
            .build(seed * 1000 + i as u64)
        })
        .collect();
    let config = SimulationConfig::minimal(seed, 8, 2, 0.1);
    (
        Simulation::new(models, datasets, graph, mixing, config),
        test,
    )
}

#[test]
fn complete_uniform_mixing_is_exact_averaging() {
    let n = 8;
    let (mut sim, _) = build_sim(n, Graph::complete(n), MixingMatrix::uniform_complete(n), 1);
    let mean_before = sim.mean_params();
    sim.run_round(&vec![RoundAction::SyncOnly; n]);
    // after one uniform sync round every node holds the exact average
    for i in 0..n {
        let p = sim.node_params(i);
        for (a, b) in p.iter().zip(&mean_before) {
            assert!((a - b).abs() < 1e-5, "node {i} not at the average");
        }
    }
    assert!(sim.disagreement() < 1e-12);
}

#[test]
fn sync_rounds_preserve_mean_under_mh_weights() {
    let n = 12;
    let graph = random_regular(n, 4, 3);
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    let (mut sim, _) = build_sim(n, graph, mixing, 3);
    // diversify first
    sim.run_round(&vec![RoundAction::Train; n]);
    let mean_before = sim.mean_params();
    for _ in 0..5 {
        sim.run_round(&vec![RoundAction::SyncOnly; n]);
    }
    let mean_after = sim.mean_params();
    let drift: f32 = mean_before
        .iter()
        .zip(&mean_after)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    assert!(
        drift < 1e-4,
        "doubly stochastic mixing drifted the mean by {drift}"
    );
}

#[test]
fn repeated_gossip_converges_to_consensus() {
    let n = 16;
    let graph = random_regular(n, 4, 5);
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    let (mut sim, _) = build_sim(n, graph, mixing, 5);
    sim.run_round(&vec![RoundAction::Train; n]);
    let d0 = sim.disagreement();
    assert!(d0 > 0.0);
    for _ in 0..60 {
        sim.run_round(&vec![RoundAction::SyncOnly; n]);
    }
    assert!(
        sim.disagreement() < d0 * 1e-4,
        "gossip failed to reach consensus: {} -> {}",
        d0,
        sim.disagreement()
    );
}

#[test]
fn mean_model_matches_allreduce_on_complete_graph() {
    // On the complete graph with uniform weights, one sync round makes each
    // node's model equal the mean model, so per-node accuracy = mean-model
    // accuracy.
    let n = 6;
    let (mut sim, test) = build_sim(n, Graph::complete(n), MixingMatrix::uniform_complete(n), 7);
    sim.run_round(&vec![RoundAction::Train; n]);
    sim.run_round(&vec![RoundAction::SyncOnly; n]);
    let stats = sim.evaluate(&test, usize::MAX);
    let mean_acc = sim.evaluate_mean_model(&test, usize::MAX);
    assert!((stats.mean_accuracy - mean_acc).abs() < 1e-6);
    assert!(stats.std_accuracy < 1e-9);
}

#[test]
fn per_round_mixing_override_preserves_mean_and_contracts() {
    use skiptrain::topology::matching::random_maximal_matching;
    let n = 12;
    let graph = random_regular(n, 4, 11);
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    let (mut sim, _) = build_sim(n, graph.clone(), mixing, 11);
    sim.run_round(&vec![RoundAction::Train; n]);
    let mean_before = sim.mean_params();
    let d_before = sim.disagreement();
    // 30 asynchronous pairwise ticks
    for t in 0..30u64 {
        let pairs = random_maximal_matching(&graph, t);
        let pairwise = MixingMatrix::metropolis_hastings(&Graph::from_edges(n, &pairs));
        sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&pairwise), None)
            .expect("matching-sized mixing and one action per node");
    }
    let drift: f32 = mean_before
        .iter()
        .zip(sim.mean_params())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    assert!(drift < 1e-4, "pairwise gossip drifted the mean by {drift}");
    assert!(
        sim.disagreement() < d_before * 0.1,
        "pairwise gossip failed to contract: {} -> {}",
        d_before,
        sim.disagreement()
    );
}

#[test]
fn dpsgd_on_complete_graph_beats_sparse_on_skewed_data() {
    // A denser topology mixes away label-skew bias faster — the Figure 1
    // motivation, checked end to end.
    let mut sparse_cfg = cifar_config(Scale::Quick, 21);
    sparse_cfg.nodes = 16;
    sparse_cfg.rounds = 24;
    sparse_cfg.eval_every = 24;
    sparse_cfg.eval_max_samples = 400;
    sparse_cfg.topology = TopologySpec::Ring;
    let mut complete_cfg = sparse_cfg.clone();
    complete_cfg.topology = TopologySpec::Complete;

    let sparse = run(&sparse_cfg);
    let complete = run(&complete_cfg);
    assert!(
        complete.final_test.mean_accuracy > sparse.final_test.mean_accuracy,
        "complete {} should beat ring {}",
        complete.final_test.mean_accuracy,
        sparse.final_test.mean_accuracy
    );
}
