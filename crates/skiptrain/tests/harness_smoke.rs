//! Smoke tests for the figure/table regeneration machinery (the library
//! entry points the bench binaries wrap).

mod common;

use common::run;
use skiptrain::prelude::*;
use skiptrain_core::sweep::grid_search;

fn micro(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 10;
    cfg.rounds = 12;
    cfg.eval_every = 6;
    cfg.eval_max_samples = 150;
    cfg.data = DataSpec::CifarLike {
        feature_dim: 12,
        samples_per_node: 40,
        test_samples: 400,
        shards_per_node: 2,
        separation: 1.2,
        noise: 0.8,
        modes_per_class: 2,
    };
    cfg.hidden_dim = 12;
    cfg.local_steps = 4;
    cfg
}

#[test]
fn grid_search_covers_all_cells_and_picks_a_best() {
    let sweep = grid_search(&micro(1), &[1, 2]).unwrap();
    assert_eq!(sweep.cells.len(), 4);
    for gt in [1, 2] {
        for gs in [1, 2] {
            let cell = sweep.cell(gt, gs).expect("cell missing");
            assert!(cell.val_accuracy > 0.0 && cell.val_accuracy <= 1.0);
            assert!(cell.training_energy_wh > 0.0);
        }
    }
    let best = sweep.best().expect("a 2 × 2 grid has a best cell");
    assert!(sweep
        .cells
        .iter()
        .all(|c| c.val_accuracy <= best.val_accuracy));
}

#[test]
fn grid_energy_depends_only_on_train_fraction() {
    let sweep = grid_search(&micro(2), &[1, 2]).unwrap();
    // (1,1) and (2,2) both train half the rounds → identical energy
    let e11 = sweep.cell(1, 1).unwrap().training_energy_wh;
    let e22 = sweep.cell(2, 2).unwrap().training_energy_wh;
    assert!((e11 - e22).abs() < 1e-9, "{e11} vs {e22}");
    // (2,1) trains 2/3 of rounds → strictly more
    assert!(sweep.cell(2, 1).unwrap().training_energy_wh > e11);
}

#[test]
fn mean_model_curve_is_recorded_when_enabled() {
    let mut cfg = micro(3);
    cfg.record_mean_model = true;
    let result = run(&cfg);
    assert_eq!(result.mean_model_curve.len(), result.test_curve.len());
    // the averaged model never does *worse* than 10 points below the nodes
    for ((_, mean_acc), point) in result.mean_model_curve.iter().zip(&result.test_curve) {
        assert!(mean_acc + 0.10 >= point.mean_accuracy);
    }
}

#[test]
fn experiment_results_serialize_to_json() {
    let result = run(&micro(4));
    let json = serde_json::to_string(&result).expect("result must serialize");
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value["nodes"], 10);
    assert!(value["test_curve"].as_array().unwrap().len() >= 2);
}

#[test]
fn schedule_render_matches_policy_decisions() {
    // fig2 renders its T/S rows from the policy's decisions; they must
    // be the schedule's own train/sync pattern
    let schedule = Schedule::new(3, 2);
    let mut policy = SkipTrainPolicy::new(schedule);
    let mut actions = vec![RoundAction::SyncOnly; 2];
    for t in 0..15 {
        skiptrain::algorithms::RoundPolicy::decide(&mut policy, t, &mut actions);
        assert_eq!(
            actions[0] == RoundAction::Train,
            schedule.is_train_round(t),
            "round {t}"
        );
    }
}
