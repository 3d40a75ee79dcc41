//! Closed-loop battery subsystem, end to end: harvest-driven participation
//! gating through the full experiment pipeline.
//!
//! The headline test pins the subsystem's reason to exist: on a diurnal
//! harvest trace too weak to sustain always-on training, a charge-aware
//! policy (threshold or hysteresis) banks harvest into completed training
//! rounds while the always-on baseline browns out every round — so the
//! policy reaches strictly higher accuracy per harvested watt-hour at
//! bit-identical harvest accounting.

mod common;

use common::{run, run_shared};
use skiptrain::energy::device::fleet;
use skiptrain::energy::trace::round_duration_s;
use skiptrain::prelude::*;

fn base_config(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 12;
    cfg.rounds = 48;
    cfg.eval_every = 16;
    cfg.eval_max_samples = 200;
    cfg
}

/// The fleet's per-round training-energy extremes and lockstep round
/// duration — the numbers `BatterySpec::build` sizes the harvest against.
fn fleet_round_numbers(cfg: &ExperimentConfig) -> (f64, f64, f64) {
    let costs = cfg.energy.node_energies(cfg.nodes);
    let min_cost = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let max_cost = costs.into_iter().fold(0.0f64, f64::max);
    let round_s = fleet(cfg.nodes)
        .iter()
        .map(|d| round_duration_s(&d.profile(), &cfg.energy.workload))
        .fold(0.0f64, f64::max);
    (min_cost, max_cost, round_s)
}

/// A diurnal harvest whose *peak* per-round energy stays below the
/// cheapest node's training round (so nobody can train off a single
/// round's harvest, even at midday) while still delivering enough energy
/// per period to bank a round — strong enough to save, far too weak to
/// train every round.
fn trickle_diurnal(cfg: &ExperimentConfig, period_rounds: f64) -> HarvestProfile {
    let (min_cost, _, round_s) = fleet_round_numbers(cfg);
    let peak_round_wh = 0.9 * min_cost;
    HarvestProfile::Diurnal {
        peak_watts: peak_round_wh * 3600.0 / round_s,
        period_rounds,
    }
}

fn starved_spec(cfg: &ExperimentConfig, policy: BatteryPolicy) -> BatterySpec {
    let (_, max_cost, _) = fleet_round_numbers(cfg);
    BatterySpec {
        // sized so 60 % charge affords even the most expensive node's
        // round (policies below gate at 0.6)
        capacity: BatteryCapacitySpec::Uniform { wh: 2.0 * max_cost },
        initial_fraction: 0.0, // every watt-hour must be harvested
        harvest: trickle_diurnal(cfg, 16.0),
        harvest_jitter: 0.25,
        policy,
        node_policies: None,
    }
}

#[test]
fn charge_aware_policies_beat_always_on_per_harvested_wh() {
    let cfg = base_config(21);
    let data = cfg.data.build(cfg.nodes, cfg.seed);

    let run = |policy: BatteryPolicy| {
        let mut c = cfg.clone();
        c.battery = Some(starved_spec(&cfg, policy));
        run_shared(&c, &data)
    };

    // Gating at 0.6 of a 2·max-cost capacity banks 1.2× the most
    // expensive node's round, so a resumed node always affords training.
    let always = run(BatteryPolicy::AlwaysOn);
    let threshold = run(BatteryPolicy::Threshold { min_fraction: 0.6 });
    let hysteresis = run(BatteryPolicy::Hysteresis {
        suspend_fraction: 0.2,
        resume_fraction: 0.6,
    });

    // Always-on cannot bank: each round it holds a sliver of harvest,
    // intends to train, cannot afford the round, and burns the sliver.
    let ab = always.battery.as_ref().expect("battery summary recorded");
    assert_eq!(
        always.total_training_wh, 0.0,
        "always-on must never complete a training round on this trickle"
    );
    assert!(
        ab.brownouts > 0,
        "always-on must brown out on an unaffordable trickle"
    );

    for (name, gated) in [("threshold", &threshold), ("hysteresis", &hysteresis)] {
        let gb = gated.battery.as_ref().expect("battery summary recorded");
        // identical trace, identical rounds: the harvest denominator must
        // be bit-identical — the comparison divides by the same energy
        assert_eq!(
            ab.harvested_wh.to_bits(),
            gb.harvested_wh.to_bits(),
            "{name}: harvest accounting diverged from always-on"
        );
        assert!(
            gated.total_training_wh > 0.0,
            "{name}: banking harvest must buy completed training rounds"
        );
        let always_per_wh = always.final_test.mean_accuracy as f64 / ab.harvested_wh;
        let gated_per_wh = gated.final_test.mean_accuracy as f64 / gb.harvested_wh;
        assert!(
            gated_per_wh > always_per_wh,
            "{name}: {gated_per_wh} acc/Wh must strictly beat always-on {always_per_wh}"
        );
        assert!(
            gated.final_test.mean_accuracy > always.final_test.mean_accuracy,
            "{name}: gated accuracy {} must beat always-on {}",
            gated.final_test.mean_accuracy,
            always.final_test.mean_accuracy
        );
    }
}

#[test]
fn battery_runs_are_deterministic_across_thread_counts() {
    let run_with_threads = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut cfg = base_config(22);
            cfg.rounds = 24;
            cfg.battery = Some(starved_spec(
                &cfg,
                BatteryPolicy::Hysteresis {
                    suspend_fraction: 0.1,
                    resume_fraction: 0.3,
                },
            ));
            run(&cfg)
        })
    };
    let one = run_with_threads(1);
    let two = run_with_threads(2);
    let seven = run_with_threads(7);
    for (label, other) in [("2 threads", &two), ("7 threads", &seven)] {
        assert_eq!(
            one.final_test.mean_accuracy.to_bits(),
            other.final_test.mean_accuracy.to_bits(),
            "{label} changed the result"
        );
        let a = one.battery.as_ref().unwrap();
        let b = other.battery.as_ref().unwrap();
        assert_eq!(
            a.harvested_wh.to_bits(),
            b.harvested_wh.to_bits(),
            "{label}"
        );
        assert_eq!(a.drained_wh.to_bits(), b.drained_wh.to_bits(), "{label}");
        assert_eq!(a.node_participations, b.node_participations, "{label}");
        assert_eq!(a.brownouts, b.brownouts, "{label}");
    }
}

#[test]
fn fully_gated_runs_charge_zero_energy() {
    // Pinned regression: nodes below threshold neither train nor fire
    // edges, so a fleet that starts empty with no harvest must account
    // exactly zero energy — comm included — across the whole run.
    let mut cfg = base_config(23);
    cfg.rounds = 12;
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform { wh: 1.0 },
        initial_fraction: 0.0,
        harvest: HarvestProfile::None,
        harvest_jitter: 0.0,
        policy: BatteryPolicy::Threshold { min_fraction: 0.2 },
        node_policies: None,
    });
    let result = run(&cfg);
    assert_eq!(result.total_training_wh, 0.0);
    assert_eq!(
        result.total_comm_wh, 0.0,
        "gated nodes must not be charged comm energy"
    );
    let summary = result.battery.expect("battery summary recorded");
    assert_eq!(summary.node_participations, 0);
    assert_eq!(summary.harvested_wh, 0.0);
    assert_eq!(summary.drained_wh, 0.0);
}

#[test]
fn battery_free_runs_report_no_summary_and_async_gossip_composes() {
    let mut cfg = base_config(24);
    cfg.rounds = 8;
    cfg.eval_every = 8;
    let data = cfg.data.build(cfg.nodes, cfg.seed);
    let plain = run_shared(&cfg, &data);
    assert!(plain.battery.is_none(), "no battery configured, no summary");

    // gating applies to pairwise ticks exactly as to synchronous rounds,
    // and it applies *before* the round is timed: a dead fleet behind
    // links slower than the gossip deadline sends nothing, so nothing is
    // late and no virtual time passes
    let mut gated = cfg.clone();
    gated.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform { wh: 1.0 },
        initial_fraction: 0.0,
        harvest: HarvestProfile::None,
        harvest_jitter: 0.0,
        policy: BatteryPolicy::Threshold { min_fraction: 0.2 },
        node_policies: None,
    });
    gated.timing.latency = LatencyModel::Constant { ticks: 300_000 };
    for algorithm in [
        AlgorithmSpec::AsyncGossip {
            activation_prob: 0.5,
        },
        AlgorithmSpec::DPsgd,
    ] {
        gated.algorithm = algorithm;
        let result = run_shared(&gated, &data);
        let label = &result.algorithm;
        assert_eq!(
            result.total_comm_wh, 0.0,
            "{label}: dead nodes cannot gossip"
        );
        assert_eq!(result.total_training_wh, 0.0, "{label}");
        assert_eq!(
            result.node_train_events, 0,
            "{label}: training the battery gated out is requested, not executed"
        );
        let summary = result.battery.expect("every path records the summary");
        assert_eq!(summary.node_participations, 0, "{label}");
        // per round: the policy tick, 12 zero-cost completions, the eval tick
        assert_eq!(
            result.events,
            EventSummary {
                virtual_ticks: 0,
                events: 112,
                late_messages: 0,
                joins: 0,
                leaves: 0,
            },
            "{label}: a gated fleet is timed as what it did, nothing"
        );
    }
}

#[test]
fn conservation_holds_through_the_full_pipeline() {
    // charge = initial + harvested − wasted − drained, summed over nodes
    let mut cfg = base_config(25);
    cfg.rounds = 24;
    cfg.battery = Some(starved_spec(
        &cfg,
        BatteryPolicy::Threshold { min_fraction: 0.3 },
    ));
    let result = run(&cfg);
    let s = result.battery.expect("battery summary recorded");
    // initial_fraction = 0 ⇒ initial charge 0
    let reconstructed = s.harvested_wh - s.wasted_wh - s.drained_wh;
    assert!(
        (s.final_charge_wh - reconstructed).abs() < 1e-9,
        "conservation violated: final {} vs reconstructed {}",
        s.final_charge_wh,
        reconstructed
    );
    assert!(s.final_charge_wh >= 0.0);
}
