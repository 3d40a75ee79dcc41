//! Regression gate for the error-feedback replica leak under time-varying
//! topologies.
//!
//! The pre-cap `ErrorFeedbackState` allocated one model-sized replica per
//! distinct directed link and never evicted, so a schedule cycling
//! through many graphs grew memory without bound. These tests drive 200
//! scheduled rounds of the acceptance scenario (edge-dropout over a dense
//! base graph, top-k compression with error feedback) through the
//! counting global allocator and pin that
//!
//! * live replica count stays under the configured `nodes × cap` bound
//!   while an uncapped twin provably exceeds it, and
//! * the steady-state allocation proxy is flat: a late window of rounds
//!   allocates no more than an earlier one (evicted buffers are recycled,
//!   so churn is allocation-free; what remains is the constant per-round
//!   graph + mixing generation).

use skiptrain_bench::perf::{allocated_bytes, CountingAllocator};
use skiptrain_data::synth::{MixtureSpec, MixtureTask};
use skiptrain_engine::{CompressionPolicy, ModelCodec, RoundAction, Simulation, SimulationConfig};
use skiptrain_nn::zoo::ModelKind;
use skiptrain_topology::{Graph, MixingMatrix, ScheduledTopology, TopologySchedule};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const NODES: usize = 24;
const ROUNDS: usize = 200;

/// The allocation counter is process-wide and both tests allocate, so they
/// take turns: otherwise the twin's model-sized replicas land in one of
/// the windows the first test compares.
static COUNTER_WINDOW: Mutex<()> = Mutex::new(());

fn build_sim(cap: usize) -> (Simulation, ScheduledTopology) {
    let base = Graph::complete(NODES);
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 10,
            feature_dim: 32,
            modes_per_class: 2,
            separation: 1.0,
            noise: 0.9,
        },
        7,
    );
    let datasets = (0..NODES).map(|i| task.sample(40, i as u64)).collect();
    let models = (0..NODES)
        .map(|i| {
            ModelKind::Mlp {
                dims: vec![32, 24, 10],
            }
            .build(7 + i as u64)
        })
        .collect();
    let mixing = MixingMatrix::metropolis_hastings(&base);
    let mut config = SimulationConfig::minimal(7, 16, 2, 0.5);
    config.compression = CompressionPolicy::Uniform(ModelCodec::TopK { k: 64 });
    config.feedback_beta = Some(1.0);
    config.feedback_replica_cap = Some(cap);
    let sim = Simulation::new(models, datasets, base.clone(), mixing, config);
    let sched = ScheduledTopology::new(base, TopologySchedule::EdgeDropout { p: 0.7, seed: 11 });
    (sim, sched)
}

fn run_rounds(sim: &mut Simulation, sched: &mut ScheduledTopology, rounds: usize) {
    let actions = vec![RoundAction::SyncOnly; NODES];
    for _ in 0..rounds {
        let mixing = sched.mixing_for_round(sim.round());
        sim.try_run_round(&actions, Some(mixing), None)
            .expect("scheduled graph matches the fleet");
    }
}

#[test]
fn replica_memory_and_allocation_proxy_stay_bounded_across_200_scheduled_rounds() {
    let _turn = COUNTER_WINDOW
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let cap = 4;
    let (mut sim, mut sched) = build_sim(cap);

    // Warm into steady state: by round 100 the schedule has touched far
    // more distinct links than the cap retains.
    run_rounds(&mut sim, &mut sched, 100);
    let fb = sim.feedback().expect("feedback enabled");
    assert!(
        fb.total_evictions() > 0,
        "cycling a dense graph past a tight cap must evict"
    );

    let before_mid = allocated_bytes();
    run_rounds(&mut sim, &mut sched, 50);
    let window_a = allocated_bytes() - before_mid;
    let before_late = allocated_bytes();
    run_rounds(&mut sim, &mut sched, ROUNDS - 150);
    let window_b = allocated_bytes() - before_late;

    let fb = sim.feedback().expect("feedback enabled");
    assert!(
        fb.active_links() <= NODES * cap,
        "replica count {} exceeds the configured bound {}",
        fb.active_links(),
        NODES * cap
    );
    // Steady state is flat: the late window may not out-allocate the
    // earlier one beyond slack (both only pay the constant per-round
    // graph + MH generation; replica churn recycles buffers).
    assert!(
        window_b <= window_a + window_a / 4,
        "allocation proxy grew across scheduled rounds: {window_a} B then {window_b} B"
    );
    for i in 0..NODES {
        assert!(
            sim.node_params(i).iter().all(|v| v.is_finite()),
            "node {i} non-finite after 200 scheduled rounds"
        );
    }
}

#[test]
fn uncapped_twin_proves_the_cap_binds() {
    // The same 200-round schedule with an effectively unbounded cap
    // accumulates far more live replicas than the capped bound — the
    // memory the old grow-forever state would have kept.
    let _turn = COUNTER_WINDOW
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let (mut sim, mut sched) = build_sim(usize::MAX);
    run_rounds(&mut sim, &mut sched, ROUNDS);
    let fb = sim.feedback().expect("feedback enabled");
    assert_eq!(fb.total_evictions(), 0);
    assert!(
        fb.active_links() > NODES * 4,
        "uncapped run should exceed the capped bound: {} links",
        fb.active_links()
    );
    // a complete base graph eventually touches every directed link
    assert_eq!(fb.active_links(), NODES * (NODES - 1));
}
