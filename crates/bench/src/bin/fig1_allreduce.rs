//! Figure 1: D-PSGD node-model accuracy vs the hypothetical per-round
//! all-reduce (the accuracy of the global average of all models), on the
//! CIFAR-10-like task over a 6-regular topology.
//!
//! The paper reports an ≈10-percentage-point gap at 256 nodes; the gap
//! shrinks at reduced node counts because one gossip neighborhood then
//! covers a larger fraction of the network.

use skiptrain_bench::{banner, pct, render_table, run_cells, HarnessArgs};
use skiptrain_core::presets::cifar_config;

fn main() {
    let args = HarnessArgs::parse();
    let mut cfg = cifar_config(args.scale, args.seed);
    args.apply(&mut cfg);
    cfg.name = "fig1-allreduce".into();
    cfg.record_mean_model = true;

    banner(&format!(
        "Figure 1: D-PSGD vs all-reduce ({} nodes, {} rounds, 6-regular)",
        cfg.nodes, cfg.rounds
    ));
    let result = &run_cells(vec![cfg])[0];

    let rows: Vec<Vec<String>> = result
        .test_curve
        .iter()
        .zip(result.mean_model_curve.iter())
        .map(|(p, (r, all_reduce_acc))| {
            debug_assert_eq!(p.round, *r);
            vec![
                p.round.to_string(),
                pct(p.mean_accuracy),
                pct(*all_reduce_acc),
                format!("{:+.1}", (*all_reduce_acc - p.mean_accuracy) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["round", "d-psgd acc%", "all-reduce acc%", "gap pp"],
            &rows
        )
    );

    let final_gap = result
        .mean_model_curve
        .last()
        .map(|(_, a)| (a - result.final_test.mean_accuracy) * 100.0)
        .unwrap_or(0.0);
    println!(
        "final: d-psgd {}%  all-reduce {}%  gap {final_gap:+.1} pp (paper at 256 nodes: ≈ +10 pp)",
        pct(result.final_test.mean_accuracy),
        pct(result
            .mean_model_curve
            .last()
            .map(|(_, a)| *a)
            .unwrap_or(0.0)),
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig1_allreduce",
        "result": result,
    }));
}
