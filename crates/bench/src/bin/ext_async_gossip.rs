//! §5.3 extension: asynchronous pairwise-gossip SkipTrain vs the paper's
//! synchronous algorithms at matched expected training energy.
//!
//! The async variant needs no global round barrier: nodes train with
//! probability q per tick and average pairwise over a random matching. This
//! harness compares it against synchronous SkipTrain (Γ = (4,4), same 50 %
//! training fraction at q = 0.5) and D-PSGD.

use skiptrain_bench::{banner, pct, render_table, run_cells, HarnessArgs};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{AlgorithmSpec, Schedule};

fn main() {
    let args = HarnessArgs::parse();
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.eval_every = 8;

    banner(&format!(
        "async pairwise gossip vs synchronous ({} nodes, {} rounds)",
        base.nodes, base.rounds
    ));

    // One campaign runs the four cells in parallel over one shared data
    // bundle.
    let mut labels = vec![
        "d-psgd (sync)".to_string(),
        "skiptrain (4,4) sync".to_string(),
    ];
    let cell = |algorithm: AlgorithmSpec| {
        let mut cfg = base.clone();
        cfg.algorithm = algorithm;
        cfg
    };
    let mut configs = vec![
        cell(AlgorithmSpec::DPsgd),
        cell(AlgorithmSpec::SkipTrain(Schedule::new(4, 4))),
    ];
    for q in [0.5f64, 0.25] {
        let mut cfg = cell(AlgorithmSpec::AsyncGossip { activation_prob: q });
        cfg.name = format!("{}/async-q{q}", base.name);
        labels.push(format!("async gossip q={q}"));
        configs.push(cfg);
    }
    let results = run_cells(configs);
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&results)
        .map(|(label, r)| summary_row(label, r))
        .collect();

    println!(
        "{}",
        render_table(
            &[
                "algorithm",
                "final acc%",
                "std",
                "train energy Wh",
                "train events"
            ],
            &rows
        )
    );
    println!(
        "\nreading: at q = 0.5 the async variant spends the same expected training\n\
         energy as SkipTrain(4,4) but mixes via one partner per tick instead of all\n\
         d neighbors, so consensus forms more slowly (higher std) — quantifying the\n\
         price of dropping the synchronization barrier that §5.3 discusses."
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "ext_async_gossip",
        "results": results,
    }));
}

fn summary_row(label: &str, r: &skiptrain_core::ExperimentResult) -> Vec<String> {
    vec![
        label.to_string(),
        pct(r.final_test.mean_accuracy),
        pct(r.final_test.std_accuracy),
        format!("{:.2}", r.total_training_wh),
        r.node_train_events.to_string(),
    ]
}
