//! Figure 6: the energy-constrained setting. SkipTrain-constrained vs
//! Greedy vs (non-energy-aware) D-PSGD on both datasets × three topologies,
//! accuracy against consumed training energy. D-PSGD is read at the energy
//! the constrained algorithms *spent*; Table 4 reads it at the budget they
//! were *allowed*, and `paper_claims` sets that table against the paper.
//!
//! Per §4.2, budgets τ_i derive from spending 10 % (CIFAR-10) / 50 %
//! (FEMNIST) of each device's battery; at reduced scales the battery
//! fraction is rescaled so τ/T_train matches the paper's ratio. The 18 runs
//! execute as one parallel campaign over two shared data bundles.

use skiptrain_bench::{
    banner, constrained_grid, dpsgd_at_wh, pct, render_table, run_cells, HarnessArgs,
};

fn main() {
    let args = HarnessArgs::parse();
    let (configs, _) = constrained_grid(&args);
    let all = run_cells(configs);

    for group in all.chunks(3) {
        let (d, cell) = (&group[0], group[0].name.trim_end_matches("-d-psgd"));
        banner(&format!(
            "{cell} constrained ({} nodes, {} rounds, τ scaled to the rounds)",
            d.nodes, d.rounds
        ));
        let rows: Vec<Vec<String>> = group
            .iter()
            .map(|result| {
                vec![
                    result.algorithm.clone(),
                    pct(result.final_test.mean_accuracy),
                    pct(result.final_test.std_accuracy),
                    format!("{:.2}", result.total_training_wh),
                    result.node_train_events.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "algorithm",
                    "final acc%",
                    "std",
                    "training energy Wh",
                    "train events"
                ],
                &rows
            )
        );
    }

    banner("summary: accuracy at matched training energy");
    for group in all.chunks(3) {
        let (d, g, s) = (&group[0], &group[1], &group[2]);
        let budget = s.total_training_wh.max(g.total_training_wh);
        let (matched_round, d_matched) = dpsgd_at_wh(d, budget);
        println!(
            "{:<34} d-psgd@{budget:>6.1}Wh(r{matched_round}) {:>5}%  greedy {:>5}%  skiptrain-c {:>5}%",
            s.name,
            pct(d_matched),
            pct(g.final_test.mean_accuracy),
            pct(s.final_test.mean_accuracy),
        );
    }

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig6_constrained",
        "results": all,
    }));
}
