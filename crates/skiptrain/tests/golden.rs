//! Golden digests: the simulator's bits, checked in.
//!
//! A small matrix of configurations (8–16 nodes, a few rounds each) covers
//! every algorithm, both transports, every codec family with error
//! feedback on and off, batteries on and off, a time-varying schedule and
//! churn. Each result is hashed as FNV-1a over its `serde_json` text — the
//! benchmark's `digest` — at 1, 2 and 7 threads, and every hash must equal
//! the one in `tests/golden/digests.json`.
//!
//! A change that moves a result fails here and prints every config's old
//! and new hash. Nothing regenerates the file: a new set of digests is a
//! hand edit, recorded old → new in CHANGES.md.

mod common;

use common::run;
use skiptrain::energy::device::fleet;
use skiptrain::energy::trace::round_duration_s;
use skiptrain::prelude::*;

/// The checked-in digests, one `[name, hash]` pair per config.
const DIGESTS: &str = include_str!("golden/digests.json");

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(result: &ExperimentResult) -> String {
    let text = serde_json::to_string(result).expect("results serialize");
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Quick-scale CIFAR-like task cut to 12 nodes and 8 rounds.
fn base(name: &str, seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.name = name.into();
    cfg.nodes = 12;
    cfg.rounds = 8;
    cfg.local_steps = 2;
    cfg.eval_every = 4;
    cfg.eval_max_samples = 100;
    cfg
}

fn lossy() -> TransportKind {
    TransportKind::Serialized {
        drop_prob: 0.1,
        corrupt_prob: 0.05,
    }
}

/// A battery fleet whose radio costs as much as a training round and whose
/// diurnal harvest replaces a third of that, gated at a quarter charge:
/// charge crosses the tiers of [`CompressionPolicy::deal_tiers`] and the
/// policy gates nodes in and out within a few rounds.
fn battery_fleet(cfg: &mut ExperimentConfig) {
    let max_cost = cfg
        .energy
        .node_energies(cfg.nodes)
        .into_iter()
        .fold(0.0f64, f64::max);
    let round_s = fleet(cfg.nodes)
        .iter()
        .map(|d| round_duration_s(&d.profile(), &cfg.energy.workload))
        .fold(0.0f64, f64::max);
    let u8_bytes = ModelCodec::QuantizedU8.message_bytes(cfg.energy.workload.model_params) as f64;
    cfg.energy.comm_joules_per_byte = Some(max_cost * 3600.0 / (2.0 * 6.0 * u8_bytes));
    let mean_harvest = 2.0 * max_cost / 3.0;
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform { wh: 4.0 * max_cost },
        initial_fraction: 0.6,
        harvest: HarvestProfile::Diurnal {
            peak_watts: std::f64::consts::PI * mean_harvest * 3600.0 / round_s,
            period_rounds: 4.0,
        },
        harvest_jitter: 0.25,
        policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
        node_policies: None,
    });
}

/// The matrix. Names are the keys of `digests.json`.
fn configs() -> Vec<ExperimentConfig> {
    let mut out = Vec::new();

    out.push(base("dpsgd", 1));

    let mut cfg = base("skiptrain", 2);
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 3));
    cfg.record_mean_model = true;
    out.push(cfg);

    for (name, algorithm) in [
        (
            "skiptrain-constrained",
            AlgorithmSpec::SkipTrainConstrained(Schedule::new(2, 2)),
        ),
        ("greedy", AlgorithmSpec::Greedy),
    ] {
        let mut cfg = base(name, 3);
        cfg.nodes = 10;
        cfg.energy = EnergySpec::cifar10_constrained().scaled_for_rounds(cfg.rounds, 1000);
        cfg.algorithm = algorithm;
        out.push(cfg);
    }

    let mut cfg = base("async-gossip", 4);
    cfg.nodes = 8;
    cfg.algorithm = AlgorithmSpec::AsyncGossip {
        activation_prob: 0.5,
    };
    cfg.timing.compute = ComputeProfile::StragglerTail {
        tail_prob: 0.2,
        tail_factor: 3.0,
    };
    cfg.timing.latency = LatencyModel::Seeded {
        mean_ticks: BASE_TRAIN_TICKS / 4,
        jitter: 0.5,
    };
    out.push(cfg);

    // every codec family, feedback off in memory and on over the lossy wire
    let k = base("", 0).model_kind().build(0).param_count() / 16;
    for (family, codec) in [
        ("dense", ModelCodec::DenseF32),
        ("u8", ModelCodec::QuantizedU8),
        ("u16", ModelCodec::QuantizedU16),
        ("top-k", ModelCodec::TopK { k }),
    ] {
        for (suffix, beta, transport) in [
            ("", None, TransportKind::Memory),
            ("+ef", Some(0.5), lossy()),
        ] {
            let mut cfg = base(&format!("{family}{suffix}"), 5);
            cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 1));
            cfg.transport = transport;
            cfg.compression = Some(CompressionSpec {
                policy: CompressionPolicy::Uniform(codec),
                feedback_beta: beta,
                ..CompressionSpec::default()
            });
            out.push(cfg);
        }
    }

    let mut cfg = base("battery-deal-dropout", 6);
    cfg.nodes = 16;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 2));
    cfg.topology_schedule = TopologyScheduleSpec::EdgeDropout { p: 0.3 };
    cfg.transport = lossy();
    battery_fleet(&mut cfg);
    cfg.compression = Some(CompressionSpec {
        policy: CompressionPolicy::deal_tiers(k),
        feedback_beta: Some(1.0),
        gamma: 0.5,
        ..CompressionSpec::default()
    });
    out.push(cfg);

    let mut cfg = base("churn-matching", 7);
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(2, 1));
    cfg.topology_schedule = TopologyScheduleSpec::PairwiseMatching;
    cfg.churn = Some(ChurnSpec {
        leave_prob: 0.15,
        rejoin_prob: 0.4,
    });
    out.push(cfg);

    // churn meets stateful policies: the gate asks every node's policy,
    // absent ones included, so latches and duty credit advance each round
    let mut cfg = base("churn-stateful-battery", 8);
    cfg.churn = Some(ChurnSpec {
        leave_prob: 0.2,
        rejoin_prob: 0.5,
    });
    battery_fleet(&mut cfg);
    if let Some(battery) = &mut cfg.battery {
        battery.node_policies = Some(
            (0..cfg.nodes)
                .map(|i| match i % 2 {
                    0 => BatteryPolicy::Hysteresis {
                        suspend_fraction: 0.3,
                        resume_fraction: 0.55,
                    },
                    _ => BatteryPolicy::DutyCycle {
                        target_fraction: 0.8,
                    },
                })
                .collect(),
        );
    }
    out.push(cfg);

    out
}

#[test]
fn every_config_reproduces_its_checked_in_digest_at_1_2_and_7_threads() {
    let golden: Vec<(String, String)> =
        serde_json::from_str(DIGESTS).expect("digests.json is a list of [name, hash] pairs");
    let mut lines = Vec::new();
    let mut ok = true;
    let configs = configs();
    for cfg in &configs {
        let old = golden
            .iter()
            .find(|(name, _)| *name == cfg.name)
            .map_or("(none)", |(_, hash)| hash.as_str());
        let new: Vec<String> = [1usize, 2, 7]
            .iter()
            .map(|&threads| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool")
                    .install(|| digest(&run(cfg)))
            })
            .collect();
        let same = new.iter().all(|hash| hash == old);
        ok &= same;
        lines.push(format!(
            "{} {:<24} old {old}  new {} (1, 2, 7 threads)",
            if same { "  " } else { "≠ " },
            cfg.name,
            new.join(" ")
        ));
    }
    ok &= golden.len() == configs.len();
    assert!(
        ok,
        "golden digests moved ({} checked in, {} configs):\n{}",
        golden.len(),
        configs.len(),
        lines.join("\n")
    );
}
