//! Resident-memory pin: a fleet holds every node's model **twice** — the
//! two round buffers `params[i]` and `next[i]` — plus one gradient
//! workspace per block of nodes a worker trains, and nothing else that is
//! model-sized.
//!
//! Layers used to own a parameter and a gradient vector each, so a node's
//! model sat in four places (two round buffers, its layers' parameters,
//! its layers' gradients) and a 64-node fleet of the paper's model peaked
//! at 112.9 MB. The test builds a 16-node fleet of that model (the
//! Table-1-sized MLP of the `sync_wide64` workload, 128-640-10 = 88 970
//! parameters) through `Simulation::with_shared_data`, runs one all-`Train`
//! round and one evaluation at one thread, and reads the live heap through
//! the counting global allocator.

use skiptrain_bench::perf::{live_bytes, CountingAllocator};
use skiptrain_data::synth::{MixtureSpec, MixtureTask};
use skiptrain_engine::{RoundAction, Simulation, SimulationConfig};
use skiptrain_nn::zoo::ModelKind;
use skiptrain_topology::regular::random_regular;
use skiptrain_topology::MixingMatrix;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const NODES: usize = 16;
const BATCH: usize = 8;
/// Everything a node keeps that is not a model: its 32-sample dataset
/// (16 KB), its minibatch, and the activations and backward buffers of a
/// `BATCH`-row pass through 640 hidden units (3 × 20 KB) — under 128 KB
/// against the model's 356 KB. The evaluation below scores `BATCH` rows so
/// that it grows none of them.
const PER_NODE_ALLOWANCE: u64 = 128 * 1024;

#[test]
fn a_fleet_holds_two_model_vectors_per_node_and_one_workspace_per_block() {
    let kind = ModelKind::Mlp {
        dims: vec![128, 640, 10],
    };
    let spec = MixtureSpec {
        num_classes: 10,
        feature_dim: 128,
        modes_per_class: 1,
        separation: 1.5,
        noise: 0.6,
    };
    let before = live_bytes();

    let task = MixtureTask::new(spec, 3);
    let datasets = (0..NODES)
        .map(|i| Arc::new(task.sample(32, i as u64)))
        .collect();
    let test = task.sample(48, 1000);
    let models: Vec<_> = (0..NODES).map(|i| kind.build(50 + i as u64)).collect();
    let model_bytes = 4 * models[0].param_count() as u64;
    assert_eq!(model_bytes, 4 * 88_970);
    let graph = random_regular(NODES, 6, 5);
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    let config = SimulationConfig::minimal(5, BATCH, 1, 0.1);
    let mut sim = Simulation::with_shared_data(models, datasets, graph, mixing, config);

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder is infallible");
    let stats = one_thread.install(|| {
        sim.run_round(&[RoundAction::Train; NODES]);
        sim.evaluate(&test, BATCH)
    });
    assert_eq!(sim.last_trained_nodes(), NODES);
    assert_eq!(stats.per_node_accuracy.len(), NODES);

    // 2 n round buffers + the one block's workspace at one thread, and one
    // vector of headroom; at four vectors per node this reads ≈ 4 n.
    let resident = live_bytes() - before;
    let bound = (2 * NODES as u64 + 2) * model_bytes + NODES as u64 * PER_NODE_ALLOWANCE;
    assert!(
        resident <= bound,
        "fleet keeps {resident} B live = {:.1} model vectors for {NODES} nodes (bound {bound} B = {:.1})",
        resident as f64 / model_bytes as f64,
        bound as f64 / model_bytes as f64,
    );
    assert!(
        resident >= 2 * NODES as u64 * model_bytes,
        "the two round buffers alone are {} B, read {resident} B: the counter is off",
        2 * NODES as u64 * model_bytes
    );
}
