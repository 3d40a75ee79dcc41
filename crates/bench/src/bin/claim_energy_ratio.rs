//! §1 headline claim: on 256-node D-PSGD over CIFAR-10, training consumes
//! ≈1.51 kWh while sharing + aggregation consume ≈7 Wh — a >200× gap. This
//! harness recomputes both sides from the energy substrate.

use skiptrain_bench::paper::{CLAIM_COMM_WH, CLAIM_MIN_RATIO, CLAIM_TRAINING_KWH};
use skiptrain_bench::{banner, render_table, HarnessArgs};
use skiptrain_core::EnergySpec;
use skiptrain_energy::comm::CommEnergyModel;

fn main() {
    let args = HarnessArgs::parse();
    let nodes = 256usize;
    let rounds = 1000usize;
    let degree = 6usize;
    let energy = EnergySpec::cifar10();
    let workload = energy.workload;

    let train_per_round: f64 = energy.node_energies(nodes).iter().sum();
    let train_total = train_per_round * rounds as f64;

    let comm = CommEnergyModel::paper_fit();
    let comm_total: f64 = (0..rounds)
        .map(|_| comm.round_energy_wh(nodes, degree, workload.model_params))
        .sum();

    banner("§1 claim: training vs communication energy (256 nodes, 1000 rounds, 6-regular)");
    let rows = vec![
        vec![
            "training energy".to_string(),
            format!("{:.3} kWh", train_total / 1000.0),
            format!("{CLAIM_TRAINING_KWH} kWh"),
        ],
        vec![
            "communication + aggregation".to_string(),
            format!("{:.2} Wh", comm_total),
            format!("{CLAIM_COMM_WH} Wh"),
        ],
        vec![
            "ratio".to_string(),
            format!("{:.0}x", train_total / comm_total),
            format!(">{CLAIM_MIN_RATIO}x"),
        ],
    ];
    println!("{}", render_table(&["quantity", "derived", "paper"], &rows));

    assert!(
        train_total / comm_total > CLAIM_MIN_RATIO,
        "ratio claim failed"
    );
    println!("claim reproduced: training is >200x costlier than sharing+aggregation");

    args.maybe_write_json(&serde_json::json!({
        "experiment": "claim_energy_ratio",
        "training_wh": train_total,
        "comm_wh": comm_total,
        "ratio": train_total / comm_total,
    }));
}
