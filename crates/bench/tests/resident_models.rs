//! Resident-memory pin: a fleet holds every node's model **once** — its
//! round buffer `params[i]`, mixed in place by a dense round — and its
//! dataset, plus one replica (gradient, activations, backward buffer,
//! minibatch) and one aggregation stage per block of nodes a worker runs,
//! and nothing else that is model- or batch-sized.
//!
//! Layers used to own a parameter and a gradient vector each, and the
//! aggregation wrote into a second round buffer per node, so a node's model
//! sat in four places and a 64-node fleet of the paper's model peaked at
//! 112.9 MB; every node's replica also grew its own evaluation-batch
//! activations, and later its own training activations, backward buffer
//! and minibatch (45 KB a node here). The test builds a 16-node fleet of
//! that model (the Table-1-sized MLP of the `sync_wide64` workload,
//! 128-640-10 = 88 970 parameters) through `Simulation::with_shared_data`,
//! runs one all-`Train` round, one all-sync round and one evaluation of the
//! `sync_wide64` eval batch at one thread, and reads the live heap through
//! the counting global allocator. Scoring the mean model afterwards must
//! leave nothing behind.

use skiptrain_bench::perf::{live_bytes, CountingAllocator};
use skiptrain_data::synth::{MixtureSpec, MixtureTask};
use skiptrain_engine::{RoundAction, Simulation, SimulationConfig};
use skiptrain_linalg::ops::MIX_SUB_TILE;
use skiptrain_nn::zoo::ModelKind;
use skiptrain_topology::regular::random_regular;
use skiptrain_topology::MixingMatrix;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const NODES: usize = 16;
const BATCH: usize = 8;
/// The `sync_wide64` evaluation batch, 6× the training batch.
const EVAL_ROWS: usize = 6 * BATCH;
/// Everything a node keeps that is not its model: its 32-sample dataset
/// (16 KB) and its sampler, under 24 KB. A replica of its own would add a
/// `BATCH`-row pass's activations, backward buffer and minibatch (45 KB)
/// and its gradient (356 KB, one model) to every node that trained.
const PER_NODE_ALLOWANCE: u64 = 24 * 1024;

/// The one replica a one-thread fleet grows: its gradient (one model
/// vector), the activations of an `EVAL_ROWS`-row and of a `BATCH`-row
/// pass (650 floats a row), a `BATCH`-row backward buffer (640 floats a
/// row), and the minibatch and the evaluation rows (128 floats a row).
fn replica_allowance(model_bytes: u64) -> u64 {
    let floats = (EVAL_ROWS + BATCH) * (650 + 128) + BATCH * 640;
    model_bytes + 4 * floats as u64
}

#[test]
fn a_fleet_holds_one_model_vector_per_node_and_one_workspace_and_stage_per_block() {
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
    let test = task.sample(EVAL_ROWS, 1000);
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
        sim.run_round(&[RoundAction::SyncOnly; NODES]);
        sim.evaluate(&test, EVAL_ROWS)
    });
    assert_eq!(sim.last_trained_nodes(), 0);
    assert_eq!(stats.per_node_accuracy.len(), NODES);

    // n round buffers + the one block's replica at one thread; with a
    // second round buffer per node this reads ≈ 2 n, with a replica per
    // node ≈ 2 n too, with per-node batch buffers ≈ 2 vectors more.
    let resident = live_bytes() - before;
    let stage_bytes = 4 * (NODES * MIX_SUB_TILE) as u64;
    let bound = NODES as u64 * model_bytes
        + NODES as u64 * PER_NODE_ALLOWANCE
        + stage_bytes
        + replica_allowance(model_bytes);
    assert!(
        resident <= bound,
        "fleet keeps {resident} B live = {:.1} model vectors for {NODES} nodes (bound {bound} B = {:.1})",
        resident as f64 / model_bytes as f64,
        bound as f64 / model_bytes as f64,
    );
    assert!(
        resident >= NODES as u64 * model_bytes,
        "the round buffers alone are {} B, read {resident} B: the counter is off",
        NODES as u64 * model_bytes
    );

    // the mean model is scored through a lent copy that goes back after
    let held = live_bytes();
    let accuracy = one_thread.install(|| sim.evaluate_mean_model(&test, EVAL_ROWS));
    assert!((0.0..=1.0).contains(&accuracy));
    assert_eq!(
        live_bytes(),
        held,
        "scoring the mean model left bytes resident"
    );
}
