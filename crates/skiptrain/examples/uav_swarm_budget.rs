//! UAV-swarm scenario (the paper's §1 motivation): a fleet of
//! battery-limited drones collaboratively learns a classifier while each
//! drone has a hard cap on how many training rounds it can afford.
//!
//! Unlike the quickstart, this example drives the engine directly with a
//! custom [`ConstrainedPolicy`] and hand-assigned budgets, showing the
//! lower-level API: per-drone batteries, the Eq. 5 training probabilities,
//! and per-node energy accounting.
//!
//! ```sh
//! cargo run --release --example uav_swarm_budget
//! ```

use skiptrain::prelude::*;
use skiptrain_data::synth::{MixtureSpec, MixtureTask};
use skiptrain_topology::regular::random_regular;

fn main() {
    let n = 16usize;
    let rounds = 80usize;
    let seed = 7u64;

    // Each drone observes the same sensing task but only a couple of the
    // ten target classes (e.g. it patrols one area) — 2-shard style skew.
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 10,
            feature_dim: 24,
            modes_per_class: 2,
            separation: 1.0,
            noise: 0.8,
        },
        seed,
    );
    let pool = task.sample(n * 120, 1);
    let parts = skiptrain_data::partition::partition_indices(
        pool.labels(),
        pool.num_classes(),
        n,
        &Partition::Shards { shards_per_node: 2 },
        seed,
    );
    let datasets: Vec<_> = parts.iter().map(|idx| pool.subset(idx)).collect();
    let test = task.sample(1500, 2);

    // Swarm communication: a sparse 4-regular mesh.
    let graph = random_regular(n, 4, seed);
    let mixing = MixingMatrix::metropolis_hastings(&graph);

    // Drone batteries: half the swarm is fresh (can train 40 of the 40
    // training opportunities), half is depleted to varying degrees.
    let schedule = Schedule::new(4, 4);
    let budgets: Vec<u32> = (0..n).map(|i| 10 + 2 * i as u32).collect();

    // Per-round training energy per drone: 1.8 Wh of avionics+compute.
    let models: Vec<Sequential> = (0..n)
        .map(|i| {
            ModelKind::Mlp {
                dims: vec![24, 32, 10],
            }
            .build(seed + i as u64)
        })
        .collect();
    let mut config = SimulationConfig::minimal(seed, 16, 8, 0.5);
    config.training_energy_wh = vec![1.8; n];
    let mut sim = Simulation::new(models, datasets, graph, mixing, config);

    let mut policy = ConstrainedPolicy::new(schedule, budgets.clone(), rounds, seed);
    println!(
        "drone training probabilities (Eq. 5, T_train = {}):",
        schedule.t_train(rounds)
    );
    for i in 0..n {
        print!("  p{i}={:.2}", policy.probability(i));
    }
    println!("\n");

    let mut actions = vec![RoundAction::SyncOnly; n];
    for t in 0..rounds {
        skiptrain::algorithms::RoundPolicy::decide(&mut policy, t, &mut actions);
        sim.run_round(&actions);
        if (t + 1) % 16 == 0 {
            let stats = sim.evaluate(&test, 600);
            println!(
                "round {:>3}: swarm accuracy {:.1}% (±{:.1})   energy {:>6.1} Wh   exhausted {:>4.0}%",
                t + 1,
                stats.mean_accuracy * 100.0,
                stats.std_accuracy * 100.0,
                sim.ledger().total_wh(),
                policy.budget().exhausted_fraction() * 100.0,
            );
        }
    }

    println!("\nper-drone budget usage:");
    for (i, budget) in budgets.iter().enumerate() {
        println!(
            "  drone {i:>2}: budget {:>2} rounds, used {:>2}, training energy {:>5.1} Wh",
            budget,
            policy.budget().consumed(i),
            sim.ledger().node_training_wh(i),
        );
    }
    let total_budget: u64 = budgets.iter().map(|&b| b as u64).sum();
    println!(
        "\nswarm consumed {} of {} budgeted training rounds; no drone exceeded its battery.",
        policy.budget().total_consumed(),
        total_budget
    );
}
