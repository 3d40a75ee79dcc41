//! Cross-crate energy accounting: simulation ledgers must match analytic
//! predictions from the energy substrate for every algorithm.

mod common;

use common::run;
use skiptrain::energy::comm::{model_message_bytes, CommEnergyModel};
use skiptrain::energy::device::fleet;
use skiptrain::energy::trace::round_energy_wh;
use skiptrain::prelude::*;

fn tiny(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 12;
    cfg.rounds = 24;
    cfg.eval_every = 24;
    cfg.eval_max_samples = 100;
    cfg
}

#[test]
fn dpsgd_training_energy_matches_closed_form() {
    let cfg = tiny(1);
    let result = run(&cfg);
    let per_round: f64 = fleet(cfg.nodes)
        .iter()
        .map(|d| round_energy_wh(&d.profile(), &cfg.energy.workload))
        .sum();
    let expected = per_round * cfg.rounds as f64;
    assert!(
        (result.total_training_wh - expected).abs() < 1e-9,
        "measured {} vs expected {expected}",
        result.total_training_wh
    );
}

#[test]
fn skiptrain_training_energy_matches_schedule_count() {
    let schedule = Schedule::new(3, 2);
    let mut cfg = tiny(2);
    cfg.algorithm = AlgorithmSpec::SkipTrain(schedule);
    let result = run(&cfg);
    let per_round: f64 = fleet(cfg.nodes)
        .iter()
        .map(|d| round_energy_wh(&d.profile(), &cfg.energy.workload))
        .sum();
    let expected = per_round * schedule.count_train_rounds(cfg.rounds) as f64;
    assert!(
        (result.total_training_wh - expected).abs() < 1e-9,
        "measured {} vs expected {expected}",
        result.total_training_wh
    );
}

#[test]
fn comm_energy_matches_topology_and_rounds() {
    let cfg = tiny(3);
    let result = run(&cfg);
    // 6-regular: every node sends and receives 6 messages per round.
    let comm = CommEnergyModel::paper_fit();
    let bytes = model_message_bytes(cfg.energy.workload.model_params);
    let per_round = (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes)) * 6.0 * cfg.nodes as f64;
    let expected = per_round * cfg.rounds as f64;
    assert!(
        (result.total_comm_wh - expected).abs() < 1e-9,
        "measured {} vs expected {expected}",
        result.total_comm_wh
    );
}

#[test]
fn comm_energy_is_schedule_independent() {
    // Sharing happens every round regardless of training: D-PSGD and
    // SkipTrain must report identical communication energy.
    let base = tiny(4);
    let dpsgd = run(&base);
    let skiptrain = run(&with_algorithm(
        base,
        AlgorithmSpec::SkipTrain(Schedule::new(4, 4)),
    ));
    assert!((dpsgd.total_comm_wh - skiptrain.total_comm_wh).abs() < 1e-12);
}

#[test]
fn training_dominates_communication() {
    // §1's asymmetry must hold in-simulation, not just analytically.
    let result = run(&tiny(5));
    assert!(
        result.total_training_wh > 100.0 * result.total_comm_wh,
        "training {} Wh vs comm {} Wh",
        result.total_training_wh,
        result.total_comm_wh
    );
}

#[test]
fn constrained_energy_never_exceeds_budget_energy() {
    let mut cfg = tiny(6);
    cfg.energy = EnergySpec::cifar10_constrained().scaled_for_rounds(cfg.rounds, 1000);
    cfg.algorithm = AlgorithmSpec::SkipTrainConstrained(Schedule::new(2, 2));
    let budgets = cfg.energy.node_budgets(cfg.nodes);
    let energies = cfg.energy.node_energies(cfg.nodes);
    let result = run(&cfg);
    let max_energy: f64 = budgets
        .iter()
        .zip(&energies)
        .map(|(&b, e)| b as f64 * e)
        .sum();
    assert!(
        result.total_training_wh <= max_energy + 1e-9,
        "spent {} Wh over budget {max_energy} Wh",
        result.total_training_wh
    );
}
