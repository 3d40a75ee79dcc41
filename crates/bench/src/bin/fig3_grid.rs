//! Figure 3: the (Γ_train, Γ_sync) ∈ {1..4}² grid search — validation
//! accuracy heatmaps for the 6/8/10-regular topologies plus the energy
//! heatmap, with the paper's grids printed alongside.

use skiptrain_bench::paper::{
    FIG3_ENERGY_WH, FIG3_VAL_ACC_10REG, FIG3_VAL_ACC_6REG, FIG3_VAL_ACC_8REG,
};
use skiptrain_bench::{banner, exit_unusable, render_table, HarnessArgs};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::sweep::grid_search;
use skiptrain_core::{CampaignRunError, Schedule, TopologySpec};
use skiptrain_energy::device::fleet;
use skiptrain_energy::trace::round_energy_wh;

fn main() {
    let args = HarnessArgs::parse();
    let gammas = [1usize, 2, 3, 4];
    let mut summaries = Vec::new();

    for (degree, paper_grid) in [
        (6usize, FIG3_VAL_ACC_6REG),
        (8, FIG3_VAL_ACC_8REG),
        (10, FIG3_VAL_ACC_10REG),
    ] {
        let mut base = cifar_config(args.scale, args.seed);
        args.apply(&mut base);
        base.topology = TopologySpec::Regular { degree };
        banner(&format!(
            "Figure 3: {degree}-regular validation grid ({} nodes, {} rounds)",
            base.nodes, base.rounds
        ));
        let sweep = grid_search(&base, &gammas).unwrap_or_else(|e| match e {
            CampaignRunError::Cell(failure) => {
                eprintln!("FAILED {failure}");
                std::process::exit(1)
            }
            unusable => exit_unusable(unusable),
        });

        let mut rows = Vec::new();
        for &gs in &gammas {
            let mut row = vec![format!("Γsync={gs}")];
            for &gt in &gammas {
                let cell = sweep.cell(gt, gs).expect("cell exists");
                row.push(format!(
                    "{:.1} ({:.1})",
                    cell.val_accuracy * 100.0,
                    paper_grid[gs - 1][gt - 1]
                ));
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(
                &[
                    "measured (paper) %",
                    "Γtrain=1",
                    "Γtrain=2",
                    "Γtrain=3",
                    "Γtrain=4"
                ],
                &rows
            )
        );
        let best = sweep.best();
        println!(
            "best: Γtrain={} Γsync={} at {:.1}% val accuracy (paper best for {degree}-regular: {})",
            best.gamma_train,
            best.gamma_sync,
            best.val_accuracy * 100.0,
            match degree {
                6 => "(4,4) at 66.1%",
                8 => "(3,3) at 66.3%",
                _ => "(4,2) at 66.8%",
            }
        );
        summaries.push(serde_json::json!({
            "degree": degree,
            "cells": sweep.cells,
            "best": [best.gamma_train, best.gamma_sync],
        }));
    }

    // Energy heatmap: training energy depends only on T_train (§4.3), so it
    // is computed analytically for the paper's 256-node, 1000-round setting.
    banner("Figure 3 (right): energy heatmap, 256 nodes × 1000 rounds, Wh");
    let per_round: f64 = fleet(256)
        .iter()
        .map(|d| {
            round_energy_wh(
                &d.profile(),
                &skiptrain_energy::trace::WorkloadSpec::cifar10(),
            )
        })
        .sum();
    let mut rows = Vec::new();
    for &gs in &gammas {
        let mut row = vec![format!("Γsync={gs}")];
        for &gt in &gammas {
            let schedule = Schedule::new(gt, gs);
            let wh = schedule.count_train_rounds(1000) as f64 * per_round;
            row.push(format!("{:.0} ({:.0})", wh, FIG3_ENERGY_WH[gs - 1][gt - 1]));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "measured (paper) Wh",
                "Γtrain=1",
                "Γtrain=2",
                "Γtrain=3",
                "Γtrain=4"
            ],
            &rows
        )
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig3_grid",
        "grids": summaries,
    }));
}
