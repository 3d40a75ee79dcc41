//! Figure 5: SkipTrain vs D-PSGD test accuracy over rounds and over
//! consumed training energy, on both datasets and all three topology
//! degrees. Table 3 is these runs' end points; `paper_claims` sets them
//! against the paper.
//!
//! All 12 runs execute as one parallel campaign; runs over the same
//! dataset share one materialized bundle.

use skiptrain_bench::{banner, pct, render_table, run_cells, unconstrained_grid, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let all = run_cells(unconstrained_grid(&args));

    for pair in all.chunks(2) {
        let (d, cell) = (&pair[0], pair[0].name.trim_end_matches("-d-psgd"));
        banner(&format!("{cell} ({} nodes, {} rounds)", d.nodes, d.rounds));
        for result in pair {
            println!(
                "{:<22} final acc {:>5}%  (±{:>4})  train energy {:>9.2} Wh  train events {}",
                result.algorithm,
                pct(result.final_test.mean_accuracy),
                pct(result.final_test.std_accuracy),
                result.total_training_wh,
                result.node_train_events,
            );
        }

        // accuracy-vs-round / accuracy-vs-energy series (the two Figure-5 panels)
        let rows: Vec<Vec<String>> = pair[0]
            .test_curve
            .iter()
            .zip(pair[1].test_curve.iter())
            .map(|(d, s)| {
                vec![
                    d.round.to_string(),
                    pct(d.mean_accuracy),
                    format!("{:.2}", d.training_energy_wh),
                    pct(s.mean_accuracy),
                    format!("{:.2}", s.training_energy_wh),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "round",
                    "dpsgd acc%",
                    "dpsgd energy Wh",
                    "skiptrain acc%",
                    "skiptrain energy Wh",
                ],
                &rows
            )
        );
    }

    banner("summary: D-PSGD -> SkipTrain");
    for pair in all.chunks(2) {
        let (d, s) = (&pair[0], &pair[1]);
        println!(
            "{:<28} acc {:>5}% -> {:>5}%   energy {:>9.2} -> {:>9.2} Wh ({:.2}x)",
            s.name,
            pct(d.final_test.mean_accuracy),
            pct(s.final_test.mean_accuracy),
            d.total_training_wh,
            s.total_training_wh,
            d.total_training_wh / s.total_training_wh.max(1e-9),
        );
    }

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig5_performance",
        "results": all,
    }));
}
