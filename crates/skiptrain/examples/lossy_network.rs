//! Lossy-network stress test: SkipTrain over a transport that serializes
//! every model exchange (checksummed frames) and drops messages with a
//! configurable probability. Dropped neighbors are renormalized into the
//! self-weight, so mixing stays doubly stochastic in expectation.
//!
//! All four drop rates run as one parallel campaign over a single shared
//! dataset.
//!
//! ```sh
//! cargo run --release --example lossy_network
//! ```

use skiptrain::prelude::*;

fn main() {
    let seed = 42u64;
    let mut base = cifar_config(Scale::Quick, seed);
    base.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(4, 4));
    base.rounds = 64;

    let drop_probs = [0.0, 0.1, 0.25, 0.5];
    let mut campaign = Campaign::new();
    for drop_prob in drop_probs {
        let mut cfg = base.clone();
        cfg.name = format!("lossy-{drop_prob}");
        cfg.transport = TransportKind::Serialized {
            drop_prob,
            corrupt_prob: 0.0,
        };
        campaign = campaign.push(cfg);
    }

    println!(
        "SkipTrain over a serialized, lossy transport ({} nodes):\n",
        base.nodes
    );
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "drop rate", "accuracy", "std", "comm energy Wh"
    );
    // an invalid drop rate or a failed cell comes back as a typed
    // `CampaignRunError`, not a panic inside the library
    let results = campaign.run().expect("valid campaign, no failed cell");
    for (drop_prob, result) in drop_probs.iter().zip(&results) {
        println!(
            "{:>10} {:>11.1}% {:>11.1}% {:>14.3}",
            format!("{:.0}%", drop_prob * 100.0),
            result.final_test.mean_accuracy * 100.0,
            result.final_test.std_accuracy * 100.0,
            result.total_comm_wh,
        );
    }

    println!(
        "\nreading: gossip averaging degrades gracefully — moderate loss slows\n\
         consensus (higher std across nodes) but learning still converges;\n\
         receive energy drops with the delivery rate."
    );
}
