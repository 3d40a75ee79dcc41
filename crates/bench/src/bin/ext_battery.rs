//! Battery extension: the accuracy-vs-harvested-energy frontier across
//! battery capacity, harvest profile, and participation policy.
//!
//! The paper treats energy as a budget to be *recorded*; this harness
//! closes the loop and lets per-node charge *control* participation. Every
//! cell runs the same D-PSGD experiment on a fleet whose batteries start
//! empty and recharge only from an energy-harvesting trace sized as a
//! trickle: the diurnal peak delivers less than the cheapest device's
//! training round, so no node can train off a single round's harvest — the
//! only way to train is to bank charge across rounds. The grid crosses
//!
//! * **capacity** — small (2× the most expensive round) vs large (4×),
//! * **harvest** — diurnal (solar day/night) vs constant at the same mean,
//! * **policy** — always-on, threshold, hysteresis, duty-cycle.
//!
//! Always-on browns out: it holds a sliver of harvest, attempts the round,
//! cannot afford it, and burns the sliver — so its harvested energy buys
//! nothing. Charge-aware policies bank the identical harvest into completed
//! rounds, which is the `acc / harvested Wh` column: accuracy per
//! watt-hour the environment actually delivered, at bit-identical
//! per-message accounting across cells.

use skiptrain_bench::{banner, pct, render_table, run_cells, HarnessArgs};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{BatteryCapacitySpec, BatterySpec, ExperimentConfig};
use skiptrain_energy::battery::BatteryPolicy;
use skiptrain_energy::trace::{fleet_round_duration_s, HarvestProfile};

fn main() {
    let args = HarnessArgs::parse();
    // D-PSGD (the paper's baseline) trains every round, so every round is
    // a participation decision: there are no sync-only rounds for an
    // always-on node to bank harvest through.
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.eval_every = base.rounds.min(8);

    // Size the harvest against the fleet: the diurnal *peak* per-round
    // energy stays below the cheapest node's training round, so banking is
    // the only route to participation.
    let costs = base.energy.node_energies(base.nodes);
    let min_cost = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let max_cost = costs.into_iter().fold(0.0f64, f64::max);
    let round_s = fleet_round_duration_s(base.nodes, &base.energy.workload);
    let peak_watts = 0.9 * min_cost * 3600.0 / round_s;

    let capacities: Vec<(&str, f64)> =
        vec![("small 2x", 2.0 * max_cost), ("large 4x", 4.0 * max_cost)];
    let harvests: Vec<(&str, HarvestProfile)> = vec![
        (
            "diurnal",
            HarvestProfile::Diurnal {
                peak_watts,
                period_rounds: 16.0,
            },
        ),
        (
            "constant",
            HarvestProfile::Constant {
                // same mean power as the diurnal trace (mean of the
                // half-rectified sine is peak/pi)
                watts: peak_watts / std::f64::consts::PI,
            },
        ),
    ];
    let policies: Vec<(&str, BatteryPolicy)> = vec![
        ("always-on", BatteryPolicy::AlwaysOn),
        (
            "threshold 0.6",
            BatteryPolicy::Threshold { min_fraction: 0.6 },
        ),
        (
            "hysteresis 0.2/0.6",
            BatteryPolicy::Hysteresis {
                suspend_fraction: 0.2,
                resume_fraction: 0.6,
            },
        ),
        (
            "duty-cycle 0.5",
            BatteryPolicy::DutyCycle {
                target_fraction: 0.5,
            },
        ),
    ];

    banner(&format!(
        "battery frontier: accuracy vs harvested energy ({} nodes, {} rounds, d-psgd)",
        base.nodes, base.rounds
    ));

    // One campaign runs every (capacity, harvest, policy) cell in parallel
    // over one shared data bundle.
    let mut configs = Vec::new();
    let mut labels = Vec::new();
    for (cap_label, wh) in &capacities {
        for (harv_label, profile) in &harvests {
            for (pol_label, policy) in &policies {
                labels.push((*cap_label, *harv_label, *pol_label));
                configs.push(cell(&base, *wh, profile.clone(), *policy));
            }
        }
    }
    let results = run_cells(configs);

    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&results)
        .map(|((cap, harv, pol), r)| {
            let b = r.battery.as_ref().expect("battery summary recorded");
            let denom = b.harvest_denominator_wh();
            let acc_per_wh = if denom > 0.0 {
                format!("{:.2}", r.final_test.mean_accuracy as f64 / denom)
            } else {
                "-".into()
            };
            let util = if b.harvested_wh > 0.0 {
                format!("{:.1}", 100.0 * r.total_training_wh / b.harvested_wh)
            } else {
                "-".into()
            };
            vec![
                cap.to_string(),
                harv.to_string(),
                pol.to_string(),
                pct(r.final_test.mean_accuracy),
                format!("{:.4}", b.harvested_wh),
                format!("{:.4}", r.total_training_wh),
                util,
                format!("{}", b.brownouts),
                acc_per_wh,
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "capacity",
                "harvest",
                "policy",
                "final acc%",
                "harvested Wh",
                "train Wh",
                "train/harv %",
                "brownouts",
                "acc / harv Wh",
            ],
            &rows
        )
    );
    println!(
        "\nreading: every cell shares the data, model, schedule, and harvest seed; only\n\
         the battery differs. Always-on burns its harvest in brown-outs (train Wh = 0,\n\
         brownouts > 0), so its accuracy stays at the untrained baseline. Threshold and\n\
         hysteresis bank the identical harvest into completed rounds — higher training\n\
         utilization and strictly more accuracy per harvested watt-hour. Fractional\n\
         gates scale with capacity: the large battery banks to a bigger absolute\n\
         charge before resuming, delaying first training and leaving more harvest\n\
         unspent at run end. The constant trace delivers the same mean energy\n\
         without the day/night famine, so hysteresis latches cleanly instead of\n\
         oscillating around dawn and dusk."
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "ext_battery",
        "min_round_cost_wh": min_cost,
        "max_round_cost_wh": max_cost,
        "peak_watts": peak_watts,
        "cells": labels
            .iter()
            .map(|(c, h, p)| format!("{c}/{h}/{p}"))
            .collect::<Vec<_>>(),
        "results": results,
    }));
}

/// One campaign cell: `base` with an empty-start battery of `capacity_wh`
/// recharged by `profile`, gated by `policy`.
fn cell(
    base: &ExperimentConfig,
    capacity_wh: f64,
    profile: HarvestProfile,
    policy: BatteryPolicy,
) -> ExperimentConfig {
    let mut cfg = base.clone();
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform { wh: capacity_wh },
        initial_fraction: 0.0,
        harvest: profile,
        harvest_jitter: 0.25,
        policy,
        node_policies: None,
    });
    cfg.name = format!("{}/battery/{}", base.name, policy.name());
    cfg
}
