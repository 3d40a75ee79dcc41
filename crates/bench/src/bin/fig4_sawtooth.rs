//! Figure 4: the train/sync sawtooth — SkipTrain test accuracy evaluated
//! every 2 rounds near the end of training. Accuracy dips after training
//! batches (models biased toward local shards, std across nodes rises) and
//! recovers during synchronization batches (std falls).

use skiptrain_bench::{banner, render_table, run_cells, HarnessArgs};
use skiptrain_core::experiment::AlgorithmSpec;
use skiptrain_core::presets::cifar_config;
use skiptrain_core::Schedule;

fn main() {
    let args = HarnessArgs::parse();
    let schedule = Schedule::new(4, 4);
    let mut cfg = cifar_config(args.scale, args.seed);
    args.apply(&mut cfg);
    cfg.name = "fig4-sawtooth".into();
    cfg.algorithm = AlgorithmSpec::SkipTrain(schedule);
    cfg.eval_every = 2; // the paper evaluates every 2 rounds here

    banner(&format!(
        "Figure 4: SkipTrain accuracy every 2 rounds ({} nodes, {} rounds, Γ=(4,4))",
        cfg.nodes, cfg.rounds
    ));
    let result = &run_cells(vec![cfg])[0];

    // Show the final ~32 rounds (the paper shows rounds 970–1000).
    let window = 16usize;
    let points = &result.test_curve;
    let tail = &points[points.len().saturating_sub(window)..];
    let rows: Vec<Vec<String>> = tail
        .iter()
        .map(|p| {
            let phase = if schedule.is_train_round(p.round.saturating_sub(1)) {
                "train"
            } else {
                "sync"
            };
            vec![
                p.round.to_string(),
                phase.to_string(),
                format!("{:.1}", p.mean_accuracy * 100.0),
                format!("{:.2}", p.std_accuracy * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["round", "phase", "mean acc%", "std acc pp"], &rows)
    );

    // Quantify the sawtooth: average accuracy and std at points that follow
    // sync rounds vs points that follow train rounds.
    let (mut sync_acc, mut train_acc) = (Vec::new(), Vec::new());
    let (mut sync_std, mut train_std) = (Vec::new(), Vec::new());
    let start = points.len() / 2; // use the converged half
    for p in &points[start..] {
        if schedule.is_train_round(p.round.saturating_sub(1)) {
            train_acc.push(p.mean_accuracy);
            train_std.push(p.std_accuracy);
        } else {
            sync_acc.push(p.mean_accuracy);
            sync_std.push(p.std_accuracy);
        }
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    println!(
        "\nafter-sync:  acc {:.1}%  std {:.2} pp\nafter-train: acc {:.1}%  std {:.2} pp",
        mean(&sync_acc) * 100.0,
        mean(&sync_std) * 100.0,
        mean(&train_acc) * 100.0,
        mean(&train_std) * 100.0
    );
    println!(
        "paper shape: accuracy rises / std falls during sync rounds, opposite during training"
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig4_sawtooth",
        "result": result,
    }));
}
