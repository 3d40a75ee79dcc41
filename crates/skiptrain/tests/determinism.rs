//! Reproducibility: results are bit-identical across runs and across rayon
//! thread counts (all randomness lives in per-node derived streams).

mod common;

use common::run;
use skiptrain::prelude::*;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 12;
    cfg.rounds = 16;
    cfg.eval_every = 8;
    cfg.eval_max_samples = 200;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(2, 2));
    cfg
}

#[test]
fn identical_runs_are_bit_identical() {
    let a = run(&config(11));
    let b = run(&config(11));
    assert_eq!(
        a.final_test.mean_accuracy.to_bits(),
        b.final_test.mean_accuracy.to_bits()
    );
    assert_eq!(a.node_train_events, b.node_train_events);
    assert_eq!(a.total_training_wh.to_bits(), b.total_training_wh.to_bits());
    for (pa, pb) in a.test_curve.iter().zip(&b.test_curve) {
        assert_eq!(pa.mean_accuracy.to_bits(), pb.mean_accuracy.to_bits());
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(&config(11));
    let b = run(&config(12));
    assert_ne!(
        a.final_test.mean_accuracy.to_bits(),
        b.final_test.mean_accuracy.to_bits()
    );
}

#[test]
fn results_independent_of_thread_count() {
    let run_with_threads = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| run(&config(13)))
    };
    let single = run_with_threads(1);
    let multi = run_with_threads(8);
    assert_eq!(
        single.final_test.mean_accuracy.to_bits(),
        multi.final_test.mean_accuracy.to_bits(),
        "thread count changed the result"
    );
    assert_eq!(single.node_train_events, multi.node_train_events);
}

#[test]
fn training_blocks_that_do_not_divide_the_fleet_move_no_result() {
    // A worker trains one contiguous block of nodes in one gradient
    // workspace. 10 nodes are one block of 10 at budget 1, 5 + 5 at 2 and
    // 2 + 2 + 2 + 2 + 2 at 7 (two workers idle); SkipTrain-constrained
    // trains a different subset each training round, so blocks also start
    // and end on nodes that skip. Every round's models, the training-loss
    // curve's inputs and the energy must not see the blocking.
    let run_with_threads = |threads: usize| {
        let mut cfg = config(17);
        cfg.nodes = 10;
        cfg.eval_every = 4;
        cfg.energy = EnergySpec::cifar10_constrained().scaled_for_rounds(cfg.rounds, 1000);
        cfg.algorithm = AlgorithmSpec::SkipTrainConstrained(Schedule::new(3, 1));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| run(&cfg))
    };
    let single = run_with_threads(1);
    assert!(single.node_train_events > 10, "the runs must train");
    for threads in [2, 7] {
        let multi = run_with_threads(threads);
        assert_eq!(single.node_train_events, multi.node_train_events);
        assert!(
            single
                .final_mean_model
                .iter()
                .zip(&multi.final_mean_model)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{threads} threads moved a parameter"
        );
        assert_eq!(
            serde_json::to_string(&single.test_curve).unwrap(),
            serde_json::to_string(&multi.test_curve).unwrap(),
            "{threads} threads moved the curve"
        );
        assert_eq!(
            single.total_training_wh.to_bits(),
            multi.total_training_wh.to_bits()
        );
    }
}

#[test]
fn constrained_policy_is_deterministic_end_to_end() {
    let mut cfg = config(14);
    cfg.energy = EnergySpec::cifar10_constrained().scaled_for_rounds(cfg.rounds, 1000);
    cfg.algorithm = AlgorithmSpec::SkipTrainConstrained(Schedule::new(2, 2));
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.node_train_events, b.node_train_events);
    assert_eq!(
        a.final_test.mean_accuracy.to_bits(),
        b.final_test.mean_accuracy.to_bits()
    );
}

#[test]
fn evaluation_cadence_moves_no_result() {
    // Evaluation is read-only: how often a run is evaluated changes how
    // densely its curve is sampled, never its models or its energy. The
    // figure bins print the paper's tables from runs evaluated at the
    // figures' cadence on the strength of this.
    let mut often = config(15);
    often.eval_every = 2;
    let mut final_only = config(15);
    final_only.eval_every = usize::MAX;
    let (a, b) = (run(&often), run(&final_only));
    assert!(a.test_curve.len() > b.test_curve.len());
    assert_eq!(a.final_mean_model.len(), b.final_mean_model.len());
    assert!(
        a.final_mean_model
            .iter()
            .zip(&b.final_mean_model)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "evaluating more often moved a parameter"
    );
    assert_eq!(
        serde_json::to_string(&a.final_test).unwrap(),
        serde_json::to_string(&b.final_test).unwrap()
    );
    assert_eq!(a.total_training_wh.to_bits(), b.total_training_wh.to_bits());
}
