//! Figure 6 and Table 4: the energy-constrained setting.
//! SkipTrain-constrained vs Greedy vs (non-energy-aware) D-PSGD on both
//! datasets × three topologies, accuracy against consumed training energy
//! — and, from the same 18 runs, the table of energy spent and final
//! accuracy per dataset × topology.
//!
//! D-PSGD is read at a matched energy level twice, and the two readings
//! differ on purpose: Figure 6's summary matches the energy the
//! constrained algorithms *spent*, Table 4 the budget they were *allowed*
//! (as the paper's table does).
//!
//! Per §4.2, budgets τ_i derive from spending 10 % (CIFAR-10) / 50 %
//! (FEMNIST) of each device's battery; at reduced scales the battery
//! fraction is rescaled so τ/T_train matches the paper's ratio. The 18 runs
//! execute as one parallel campaign over two shared data bundles.

use skiptrain_bench::paper::TABLE4;
use skiptrain_bench::{accuracy_at_energy, banner, pct, render_table, run_cells, HarnessArgs};
use skiptrain_core::presets::{cifar_config, femnist_config};
use skiptrain_core::{
    AlgorithmSpec, EnergySpec, ExperimentConfig, ExperimentResult, Schedule, TopologySpec,
};

fn main() {
    let args = HarnessArgs::parse();

    let mut configs: Vec<ExperimentConfig> = Vec::new();
    let mut cells = Vec::new();
    for dataset in ["cifar", "femnist"] {
        for degree in [6usize, 8, 10] {
            let (mut base, constrained_spec, paper_rounds) = match dataset {
                "cifar" => (
                    cifar_config(args.scale, args.seed),
                    EnergySpec::cifar10_constrained(),
                    1000,
                ),
                _ => (
                    femnist_config(args.scale, args.seed),
                    EnergySpec::femnist_constrained(),
                    3000,
                ),
            };
            args.apply(&mut base);
            base.topology = TopologySpec::Regular { degree };
            let schedule = Schedule::tuned_for_degree(degree);
            base.eval_every = schedule.period();
            let scaled = constrained_spec.scaled_for_rounds(base.rounds, paper_rounds);
            // The energy level the constrained algorithms are allowed
            // (paper Table 4): every node's budget τ_i at its round cost.
            let allowed_wh: f64 = scaled
                .node_budgets(base.nodes)
                .iter()
                .zip(scaled.node_energies(base.nodes))
                .map(|(&b, e)| b as f64 * e)
                .sum();
            cells.push((
                dataset,
                degree,
                base.nodes,
                base.rounds,
                paper_rounds,
                allowed_wh,
            ));

            for (algo, energy) in [
                // D-PSGD is not energy-aware: trains every round, unconstrained.
                (AlgorithmSpec::DPsgd, base.energy.clone()),
                (AlgorithmSpec::Greedy, scaled.clone()),
                (
                    AlgorithmSpec::SkipTrainConstrained(schedule),
                    scaled.clone(),
                ),
            ] {
                let mut cfg = base.clone();
                cfg.name = format!("{dataset}-{degree}reg-{}", algo.name());
                cfg.algorithm = algo;
                cfg.energy = energy;
                configs.push(cfg);
            }
        }
    }

    let all = run_cells(configs);
    // D-PSGD is not energy-aware: its accuracy is read off its curve at a
    // training-energy level matched to the constrained algorithms.
    let dpsgd_at = |r: &ExperimentResult, budget_wh: f64| {
        accuracy_at_energy(r, |p| p.training_energy_wh, budget_wh)
            .unwrap_or((0, r.test_curve[0].mean_accuracy))
    };

    for ((dataset, degree, nodes, rounds, paper_rounds, _), group) in
        cells.iter().zip(all.chunks(3))
    {
        banner(&format!(
            "{dataset} {degree}-regular constrained ({nodes} nodes, {rounds} rounds, \
             τ scaled ×{rounds}/{paper_rounds})"
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

    banner("summary (paper: SkipTrain-c > Greedy > D-PSGD at matched energy)");
    for group in all.chunks(3) {
        let (d, g, s) = (&group[0], &group[1], &group[2]);
        // matched to the energy the constrained algorithms spent
        let budget = s.total_training_wh.max(g.total_training_wh);
        let (matched_round, d_matched) = dpsgd_at(d, budget);
        println!(
            "{:<34} d-psgd@{budget:>6.1}Wh(r{matched_round}) {:>5}%  greedy {:>5}%  skiptrain-c {:>5}%  ({})",
            s.name,
            pct(d_matched),
            pct(g.final_test.mean_accuracy),
            pct(s.final_test.mean_accuracy),
            if s.final_test.mean_accuracy >= g.final_test.mean_accuracy
                && g.final_test.mean_accuracy >= d_matched
            {
                "paper ordering holds"
            } else {
                "ordering differs"
            }
        );
    }

    // Table 4 is read from the same results. `all` is ordered dataset →
    // degree → {D-PSGD, Greedy, SkipTrain-constrained}; a table row is
    // (dataset, algorithm) and its columns are the degrees.
    let mut rows = Vec::new();
    for (d, dataset) in ["CIFAR-10", "FEMNIST"].into_iter().enumerate() {
        for (a, algorithm) in [(2, "SkipTrain-constrained"), (1, "Greedy"), (0, "D-PSGD")] {
            let mut acc = Vec::new();
            let mut energy = Vec::new();
            for col in 0..3 {
                let r = &all[(d * 3 + col) * 3 + a];
                if algorithm == "D-PSGD" {
                    // matched to the budget the constrained algorithms
                    // were allowed
                    let budget = cells[d * 3 + col].5;
                    let (round, at_budget) = dpsgd_at(r, budget);
                    acc.push(format!("{} @r{round}", pct(at_budget)));
                    energy.push(format!("{budget:.1}"));
                } else {
                    acc.push(pct(r.final_test.mean_accuracy));
                    energy.push(format!("{:.1}", r.total_training_wh));
                }
            }
            let paper_row = TABLE4
                .iter()
                .find(|r| r.dataset == dataset && r.algorithm == algorithm)
                .expect("TABLE4 has a row per dataset and algorithm");
            rows.push(vec![
                algorithm.to_string(),
                dataset.to_string(),
                energy.join(" / "),
                paper_row.budget_wh.map(|wh| format!("{wh:.1}")).join(" / "),
                acc.join(" / "),
                paper_row.accuracy_pct.map(|a| a.to_string()).join(" / "),
            ]);
        }
    }

    banner("Table 4 (columns are 6-regular / 8-regular / 10-regular)");
    println!(
        "{}",
        render_table(
            &[
                "algorithm",
                "dataset",
                "measured Wh",
                "paper budget Wh",
                "measured acc%",
                "paper acc%",
            ],
            &rows
        )
    );
    println!(
        "shape checks: SkipTrain-constrained > Greedy > D-PSGD in accuracy on the\n\
         sharded dataset; ordering preserved but gaps smaller on FEMNIST.\n\
         note: D-PSGD reports unconstrained energy at simulation scale; the paper\n\
         caps all rows at comparable budgets."
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig6_constrained",
        "results": all,
    }));
}
