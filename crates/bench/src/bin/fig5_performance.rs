//! Figure 5 and Table 3: SkipTrain vs D-PSGD test accuracy over rounds and
//! over consumed training energy, on both datasets and all three topology
//! degrees — and, from the same 12 runs, the table of their end points:
//! training energy and final test accuracy per dataset × topology.
//!
//! Table 3 reports energy twice: measured at the simulated scale, and the
//! exact paper-scale value (256 nodes, Table-1 rounds) computed
//! analytically from the energy substrate — training energy depends only
//! on the schedule and the fleet, not on the learning dynamics.
//!
//! All 12 runs execute as one parallel campaign; runs over the same
//! dataset share one materialized bundle.

use skiptrain_bench::paper::TABLE3;
use skiptrain_bench::{banner, pct, render_table, run_cells, HarnessArgs};
use skiptrain_core::presets::{cifar_config, femnist_config};
use skiptrain_core::{AlgorithmSpec, ExperimentConfig, Schedule};

const DEGREES: [usize; 3] = [6, 8, 10];

fn main() {
    let args = HarnessArgs::parse();

    let mut configs: Vec<ExperimentConfig> = Vec::new();
    let mut cells = Vec::new();
    for dataset in ["cifar", "femnist"] {
        for degree in DEGREES {
            let mut base = match dataset {
                "cifar" => cifar_config(args.scale, args.seed),
                _ => femnist_config(args.scale, args.seed),
            };
            args.apply(&mut base);
            base.topology = skiptrain_core::TopologySpec::Regular { degree };
            let schedule = Schedule::tuned_for_degree(degree);
            base.eval_every = schedule.period();
            cells.push((
                dataset,
                degree,
                base.nodes,
                base.rounds,
                base.energy.clone(),
            ));
            for algo in [AlgorithmSpec::DPsgd, AlgorithmSpec::SkipTrain(schedule)] {
                let mut cfg = base.clone();
                cfg.name = format!("{dataset}-{degree}reg-{}", algo.name());
                cfg.algorithm = algo;
                configs.push(cfg);
            }
        }
    }

    let all = run_cells(configs);

    for ((dataset, degree, nodes, rounds, _), pair) in cells.iter().zip(all.chunks(2)) {
        banner(&format!(
            "{dataset} {degree}-regular ({nodes} nodes, {rounds} rounds)"
        ));
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

    banner("summary (paper: SkipTrain ≥ D-PSGD accuracy at ~half the energy)");
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

    // Table 3 is the end point of every curve above, so it is read from
    // the same results (evaluation is read-only: the cadence the panels
    // need moves no parameter). `all` is ordered dataset → degree →
    // {D-PSGD, SkipTrain}; a table row is (dataset, algorithm) and its
    // columns are the degrees.
    let mut rows = Vec::new();
    for (d, (dataset, paper_rounds)) in [("CIFAR-10", 1000usize), ("FEMNIST", 3000)]
        .into_iter()
        .enumerate()
    {
        // paper-scale energy: executed training rounds × what one round
        // costs the paper's 256-node fleet on this dataset's workload
        let fleet_round_wh: f64 = cells[d * 3].4.node_energies(256).iter().sum();
        for (a, algorithm) in [(1, "SkipTrain"), (0, "D-PSGD")] {
            let (mut measured_wh, mut paper_scale_wh, mut acc) =
                (Vec::new(), Vec::new(), Vec::new());
            for (col, degree) in DEGREES.into_iter().enumerate() {
                let r = &all[(d * 3 + col) * 2 + a];
                let schedule = match algorithm {
                    "SkipTrain" => Schedule::tuned_for_degree(degree),
                    _ => Schedule::dpsgd(),
                };
                let paper_wh = schedule.count_train_rounds(paper_rounds) as f64 * fleet_round_wh;
                measured_wh.push(format!("{:.1}", r.total_training_wh));
                paper_scale_wh.push(format!("{paper_wh:.1}"));
                acc.push(pct(r.final_test.mean_accuracy));
            }
            let paper_row = TABLE3
                .iter()
                .find(|r| r.dataset == dataset && r.algorithm == algorithm)
                .expect("TABLE3 has a row per dataset and algorithm");
            rows.push(vec![
                algorithm.to_string(),
                dataset.to_string(),
                measured_wh.join(" / "),
                paper_scale_wh.join(" / "),
                paper_row.energy_wh.map(|wh| format!("{wh:.2}")).join(" / "),
                acc.join(" / "),
                paper_row.accuracy_pct.map(|a| a.to_string()).join(" / "),
            ]);
        }
    }

    banner("Table 3 (columns are 6-regular / 8-regular / 10-regular)");
    println!(
        "{}",
        render_table(
            &[
                "algorithm",
                "dataset",
                "measured Wh",
                "256-node Wh",
                "paper Wh",
                "measured acc%",
                "paper acc%",
            ],
            &rows
        )
    );
    println!(
        "shape checks: SkipTrain energy = ½ D-PSGD (6/8-regular) and ⅔ (10-regular);\n\
         SkipTrain accuracy ≥ D-PSGD on the sharded dataset; accuracy grows with degree."
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "fig5_performance",
        "results": all,
    }));
}
