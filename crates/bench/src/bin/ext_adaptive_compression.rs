//! Adaptive-compression extension: the accuracy-per-harvested-watt-hour
//! frontier across per-link codec policies on a battery-gated fleet.
//!
//! DEAL-style energy-aware learning picks the message representation per
//! sender per round instead of fixing one global codec for the whole run.
//! This harness runs the same diurnal-harvest experiment — batteries start
//! partly charged, recharge from a day/night trace, and drain through
//! training and a deliberately expensive radio while an edge-dropout
//! schedule reshapes the topology every round — under every fixed uniform
//! codec and under the adaptive policies:
//!
//! * **uniform** — the legacy global codec (dense, u16, u8, top-k),
//! * **deal 4-tier** — the canonical DEAL decremental tier table: dense
//!   while comfortably charged, then u16 → u8 → top-k as the sender's
//!   battery drains past 75% / 50% / 25%,
//! * **energy-adaptive 2-tier** — the tuned table the pinned acceptance
//!   test uses: u8 above a charge gate, a tight top-k famine floor below,
//! * **rarity-adaptive** — a bigger top-k budget on links the dropout
//!   schedule fires rarely, so infrequent contacts carry more signal.
//!
//! Because the engine charges energy per effective edge from the codec the
//! policy actually resolved, the wire-byte and comm-energy columns reflect
//! the adaptive decisions exactly. The frontier claim: with the radio
//! priced so codec choice controls real battery spend, the tuned 2-tier
//! table beats every fixed codec on accuracy per harvested watt-hour at
//! fewer total wire bytes than the best of them, while the canonical
//! 4-tier table shows where dense/u16 rungs overpay.

use skiptrain_bench::{banner, pct, render_table, run_cells, sim_params, HarnessArgs};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{
    BatteryCapacitySpec, BatterySpec, CompressionPolicy, CompressionSpec, EnergyTier,
    ExperimentConfig, ModelCodec, TopologyScheduleSpec,
};
use skiptrain_energy::battery::BatteryPolicy;
use skiptrain_energy::trace::{fleet_round_duration_s, HarvestProfile};

fn main() {
    let args = HarnessArgs::parse();
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.eval_every = base.rounds.min(8);
    // Every round is a participation decision (D-PSGD trains each round),
    // and the dropout schedule makes link firing intermittent — the regime
    // where per-link, per-round codec choice has room to matter.
    base.topology_schedule = TopologyScheduleSpec::EdgeDropout { p: 0.3 };

    // Put the fleet in a comm-dominated regime: price the radio so one
    // u8-quality round costs several training rounds, and size the
    // harvest to replace only a fraction of that. Codec choice then
    // controls real battery spend — the regime where the tier table has
    // something to trade — and charge actually traverses dense → u16 →
    // u8 → top-k as batteries sag over the night and climb back by day.
    let costs = base.energy.node_energies(base.nodes);
    let max_cost = costs.into_iter().fold(0.0f64, f64::max);
    let round_s = fleet_round_duration_s(base.nodes, &base.energy.workload);
    let nominal = base.energy.workload.model_params;
    let degree = match base.topology {
        skiptrain_core::TopologySpec::Regular { degree } => degree as f64,
        _ => 6.0,
    };
    let eff_degree = degree * 0.7; // dropout p = 0.3
    let u8_bytes = ModelCodec::QuantizedU8.message_bytes(nominal) as f64;
    // One u8-tier round (tx + rx over the expected effective degree)
    // drains ~6x the costliest training round.
    const COMM_FACTOR: f64 = 6.0;
    let jpb = COMM_FACTOR * max_cost * 3600.0 / (2.0 * eff_degree * u8_bytes);
    base.energy.comm_joules_per_byte = Some(jpb);
    // Diurnal harvest whose per-round *mean* replaces a third of a
    // u8-tier round; capacity banks about two such rounds.
    let mean_harvest = (1.0 + COMM_FACTOR) * max_cost / 3.0;
    let peak_watts = std::f64::consts::PI * mean_harvest * 3600.0 / round_s;
    let battery = BatterySpec {
        capacity: BatteryCapacitySpec::Uniform {
            wh: 2.0 * (1.0 + COMM_FACTOR) * max_cost,
        },
        initial_fraction: 0.6,
        harvest: HarvestProfile::Diurnal {
            peak_watts,
            period_rounds: 16.0,
        },
        harvest_jitter: 0.25,
        policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
        node_policies: None,
    };
    base.battery = Some(battery);

    let sim_params = sim_params(&base);
    let floor_k = (sim_params / 64).max(1);
    let policies: Vec<(&str, CompressionPolicy)> = vec![
        (
            "dense f32",
            CompressionPolicy::Uniform(ModelCodec::DenseF32),
        ),
        (
            "quantized-u16",
            CompressionPolicy::Uniform(ModelCodec::QuantizedU16),
        ),
        (
            "quantized-u8",
            CompressionPolicy::Uniform(ModelCodec::QuantizedU8),
        ),
        (
            "top-k 6%",
            CompressionPolicy::Uniform(ModelCodec::TopK {
                k: (sim_params / 16).max(1),
            }),
        ),
        (
            "top-k 2%",
            CompressionPolicy::Uniform(ModelCodec::TopK { k: floor_k }),
        ),
        ("deal 4-tier", CompressionPolicy::deal_tiers(floor_k)),
        (
            // The tuned two-rung table from the pinned acceptance test:
            // u8 while the battery holds above the gate, a tight top-k
            // famine floor below it — no dense/u16 rungs to overpay on.
            "energy-adaptive 2-tier",
            CompressionPolicy::EnergyAdaptive {
                tiers: vec![
                    EnergyTier {
                        min_charge_fraction: 0.3,
                        codec: ModelCodec::QuantizedU8,
                    },
                    EnergyTier {
                        min_charge_fraction: 0.0,
                        codec: ModelCodec::TopK {
                            k: (sim_params / 256).max(1),
                        },
                    },
                ],
            },
        ),
        (
            "rarity-adaptive",
            CompressionPolicy::RarityAdaptive {
                base_k: floor_k,
                max_k: (sim_params / 8).max(1),
            },
        ),
    ];

    banner(&format!(
        "adaptive compression frontier: accuracy per harvested Wh ({} nodes, {} rounds, edge-dropout 0.3)",
        base.nodes, base.rounds
    ));

    // One campaign runs every policy cell in parallel over one shared data
    // bundle and one shared harvest seed: only codec selection differs.
    let results = run_cells(
        policies
            .iter()
            .map(|(label, policy)| cell(&base, label, policy.clone()))
            .collect(),
    );

    let rows: Vec<Vec<String>> = policies
        .iter()
        .zip(&results)
        .map(|((label, _), r)| {
            let b = r.battery.as_ref().expect("battery summary recorded");
            let denom = b.harvest_denominator_wh();
            let acc_per_wh = if denom > 0.0 {
                format!("{:.4}", r.final_test.mean_accuracy as f64 / denom)
            } else {
                "-".into()
            };
            vec![
                label.to_string(),
                pct(r.final_test.mean_accuracy),
                format!("{:.1}", r.total_wire_bytes as f64 / 1e6),
                format!("{:.4}", r.total_comm_wh),
                format!("{:.4}", b.harvested_wh),
                format!("{}", b.brownouts),
                acc_per_wh,
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "final acc%",
                "wire MB",
                "comm Wh",
                "harvested Wh",
                "brownouts",
                "acc / harv Wh",
            ],
            &rows
        )
    );
    println!(
        "\nreading: every cell shares the data, model, harvest trace, and dropout\n\
         schedule; only the per-link codec policy differs. Fixed dense and u16\n\
         pay fidelity the battery cannot afford, fixed top-k starves the mixing\n\
         every round, and the canonical 4-tier DEAL table recovers most of the\n\
         gap but still overpays on its dense/u16 rungs. The tuned 2-tier table\n\
         (u8 above the charge gate, a tight top-k floor below) beats every\n\
         fixed codec on accuracy per harvested watt-hour at fewer wire bytes\n\
         than the best fixed codec — the frontier the pinned acceptance test\n\
         locks in. Rarity-adaptive instead spends its byte budget where the\n\
         dropout schedule makes contact scarce."
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "ext_adaptive_compression",
        "sim_params": sim_params,
        "peak_watts": peak_watts,
        "policies": policies.iter().map(|(l, _)| l.to_string()).collect::<Vec<_>>(),
        "results": results,
    }));
}

/// One campaign cell: `base` under `policy`, labeled for the report.
fn cell(base: &ExperimentConfig, label: &str, policy: CompressionPolicy) -> ExperimentConfig {
    let mut cfg = base.clone();
    cfg.compression = Some(CompressionSpec {
        policy,
        // Error feedback in every cell: sparse messages refine dense
        // per-link replicas instead of zero-filling, so top-k tiers (and
        // the fixed top-k baselines) compete at their best.
        feedback_beta: Some(1.0),
        ..CompressionSpec::default()
    });
    cfg.name = format!("{}/{}", base.name, label);
    cfg
}
