//! Quickstart: compare D-PSGD against SkipTrain on a small synthetic
//! CIFAR-10-like task and print accuracy and energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use skiptrain::prelude::*;

fn main() {
    // A ready-made small configuration: 24 nodes, 2-shard non-IID data,
    // 6-regular topology, smartphone energy traces.
    let dpsgd = ExperimentConfig {
        name: "quickstart/d-psgd".into(),
        ..cifar_config(Scale::Quick, 42)
    };

    // SkipTrain replaces half the training rounds with synchronization
    // rounds (Γ_train = Γ_sync = 4, the paper's 6-regular optimum).
    let skiptrain = ExperimentConfig {
        name: "quickstart/skiptrain".into(),
        algorithm: AlgorithmSpec::SkipTrain(Schedule::new(4, 4)),
        ..dpsgd.clone()
    };

    // Both runs share one materialized dataset and execute in parallel.
    // The campaign validates every configuration up front — an invalid
    // setup or a failed cell comes back as a typed `CampaignRunError`.
    println!(
        "running D-PSGD and SkipTrain in parallel ({} nodes, {} rounds)...",
        dpsgd.nodes, dpsgd.rounds
    );
    let results = Campaign::new()
        .push(dpsgd)
        .push(skiptrain)
        .run()
        .expect("valid campaign, no failed cell");
    let (dpsgd, skiptrain) = (&results[0], &results[1]);

    println!("\n             {:>12} {:>12}", "D-PSGD", "SkipTrain");
    println!(
        "accuracy     {:>11.1}% {:>11.1}%",
        dpsgd.final_test.mean_accuracy * 100.0,
        skiptrain.final_test.mean_accuracy * 100.0
    );
    println!(
        "train energy {:>10.2}Wh {:>10.2}Wh",
        dpsgd.total_training_wh, skiptrain.total_training_wh
    );
    println!(
        "train events {:>12} {:>12}",
        dpsgd.node_train_events, skiptrain.node_train_events
    );
    println!(
        "\nSkipTrain used {:.0}% of D-PSGD's training energy.",
        skiptrain.total_training_wh / dpsgd.total_training_wh * 100.0
    );
}
