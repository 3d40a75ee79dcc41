//! Figure 4: the train/sync sawtooth — SkipTrain test accuracy evaluated
//! every 2 rounds near the end of training. Accuracy dips after training
//! batches (models biased toward local shards, std across nodes rises) and
//! recovers during synchronization batches (std falls).

use skiptrain_bench::{
    banner, render_table, run_cells, sawtooth_config, sawtooth_split, HarnessArgs, SAWTOOTH,
};

fn main() {
    let args = HarnessArgs::parse();
    let cfg = sawtooth_config(&args);
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
            let phase = if SAWTOOTH.is_train_round(p.round.saturating_sub(1)) {
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

    let [(sync_acc, sync_std), (train_acc, train_std)] = sawtooth_split(result);
    println!(
        "\nafter-sync:  acc {:.1}%  std {:.2} pp\nafter-train: acc {:.1}%  std {:.2} pp",
        sync_acc * 100.0,
        sync_std * 100.0,
        train_acc * 100.0,
        train_std * 100.0
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig4_sawtooth",
        "result": result,
    }));
}
