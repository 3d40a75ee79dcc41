//! Figure 3: the (Γ_train, Γ_sync) ∈ {1..4}² grid search — validation
//! accuracy heatmaps for the 6/8/10-regular topologies, with the paper's
//! grids printed alongside. The energy heatmap is schedule arithmetic;
//! `paper_claims` checks it cell by cell.

use skiptrain_bench::paper::{DEGREES, FIG3_VAL_ACC};
use skiptrain_bench::{banner, exit_unusable, render_table, HarnessArgs};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::sweep::grid_search;
use skiptrain_core::{CampaignRunError, Schedule, TopologySpec};

fn main() {
    let args = HarnessArgs::parse();
    let gammas = [1usize, 2, 3, 4];
    let mut summaries = Vec::new();

    for (degree, paper_grid) in DEGREES.into_iter().zip(&FIG3_VAL_ACC) {
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
        let best = sweep.best().expect("a 4 × 4 grid has cells");
        let tuned = Schedule::tuned_for_degree(degree);
        let (gt, gs) = (tuned.gamma_train, tuned.gamma_sync);
        let (paper_best, acc) = (paper_grid[gs - 1][gt - 1], best.val_accuracy * 100.0);
        println!(
            "best: Γtrain={} Γsync={} at {acc:.1}% val accuracy (paper best for {degree}-regular: \
             Γtrain={gt} Γsync={gs} at {paper_best:.1}%)",
            best.gamma_train, best.gamma_sync
        );
        summaries.push(serde_json::json!({
            "degree": degree,
            "cells": sweep.cells,
            "best": [best.gamma_train, best.gamma_sync],
        }));
    }

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig3_grid",
        "grids": summaries,
    }));
}
