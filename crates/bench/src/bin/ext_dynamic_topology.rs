//! Dynamic-topology extension: the accuracy-vs-communication-energy
//! frontier across time-varying topology schedules, read at a fixed
//! energy budget.
//!
//! The paper's intermittent-training results assume a static graph, but
//! its energy argument is strongest on dynamic fleets where links appear
//! and disappear (duty-cycled radios, mobility — the setting of
//! energy-harvesting decentralized FL). This harness runs the same
//! experiment under every [`TopologyScheduleSpec`]: the static baseline,
//! a cycle alternating a 6-regular graph with a sparse ring, per-round
//! edge dropout at two duty-cycle levels, and per-round pairwise
//! matchings. Because the engine charges energy per *effective* edge of
//! each scheduled round, sparser schedules genuinely spend less
//! communication energy per round; the `acc@budget` column reads every
//! curve at the same total-energy budget (the smallest final budget
//! across schedules), which is the comparison an energy-constrained
//! deployment cares about.
//!
//! Every schedule also runs a `+EF` twin — top-k compression with
//! per-link error feedback — exercising the capped replica state under
//! changing graphs (links that vanish and return re-seed cold once
//! evicted).

use skiptrain_bench::{
    accuracy_at_energy, banner, pct, render_table, run_cells, sim_params, HarnessArgs,
};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{AlgorithmSpec, ExperimentConfig, ModelCodec, Schedule, TopologyScheduleSpec};
use skiptrain_linalg::rng::derive_seed;
use skiptrain_topology::regular::random_regular;
use skiptrain_topology::Graph;

/// The β every feedback twin uses (full CHOCO-SGD error feedback).
const FEEDBACK_BETA: f32 = 1.0;

fn main() {
    let args = HarnessArgs::parse();
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(4, 4));
    base.eval_every = 8;

    let n = base.nodes;
    // The cycle alternates the paper's 6-regular graph with a sparse ring
    // (dense mixing every other round); seeds are chained so the cycle
    // graphs never share a stream with the base topology's.
    let cycle = vec![
        random_regular(n, 6, derive_seed(args.seed, 0xC1C1)),
        Graph::ring(n),
    ];
    let schedules: Vec<(&str, TopologyScheduleSpec)> = vec![
        ("static", TopologyScheduleSpec::Static),
        ("cycle 6-reg/ring", TopologyScheduleSpec::Cycle(cycle)),
        (
            "edge-drop 30%",
            TopologyScheduleSpec::EdgeDropout { p: 0.3 },
        ),
        (
            "edge-drop 60%",
            TopologyScheduleSpec::EdgeDropout { p: 0.6 },
        ),
        ("matching", TopologyScheduleSpec::PairwiseMatching),
    ];

    let sim_params = sim_params(&base);
    let topk = ModelCodec::TopK {
        k: (sim_params / 16).max(1),
    };

    banner(&format!(
        "dynamic-topology frontier: accuracy vs comm energy ({} nodes, {} rounds, skiptrain(4,4))",
        base.nodes, base.rounds
    ));

    // One campaign runs every (schedule, codec) cell in parallel over one
    // shared data bundle: dense cells first, then the top-k + error
    // feedback twin of every schedule.
    let mut configs = Vec::new();
    for codec in [None, Some(topk)] {
        for (label, spec) in &schedules {
            configs.push(cell(&base, label, spec.clone(), codec));
        }
    }
    let results = run_cells(configs);
    let (plain, with_ef) = results.split_at(schedules.len());

    // Fixed energy budget: the smallest final cumulative (training +
    // comm) energy across the dense runs — every curve is readable there.
    let budget_wh = plain
        .iter()
        .filter_map(|r| r.test_curve.last().map(|p| p.cumulative_energy_wh))
        .fold(f64::INFINITY, f64::min);

    let rows: Vec<Vec<String>> = schedules
        .iter()
        .zip(plain)
        .zip(with_ef)
        .map(|(((label, _), p), ef)| {
            vec![
                label.to_string(),
                pct(p.final_test.mean_accuracy),
                pct(ef.final_test.mean_accuracy),
                format!("{:.4}", p.total_comm_wh),
                format!("{:.4}", ef.total_comm_wh),
                accuracy_at_energy(p, |point| point.cumulative_energy_wh, budget_wh)
                    .map_or_else(|| "-".into(), |(_, acc)| pct(acc)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "schedule",
                "final acc%",
                "acc% topk+EF",
                "comm Wh",
                "comm Wh +EF",
                &format!("acc% @ {budget_wh:.2} Wh"),
            ],
            &rows
        )
    );
    println!(
        "\nreading: every schedule shares the training knobs; only the round graphs\n\
         differ. Sparser schedules (dropout, matchings) charge fewer effective edges\n\
         per round, so they sit lower on the comm-Wh axis and get further on a fixed\n\
         budget before the slower mixing catches up. The +EF columns re-run each\n\
         schedule under top-k ({:.0}% kept) with per-link error feedback: replica\n\
         state stays bounded by the per-receiver cap while links appear and vanish.",
        100.0 * (sim_params / 16).max(1) as f64 / sim_params as f64
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "ext_dynamic_topology",
        "sim_params": sim_params,
        "feedback_beta": FEEDBACK_BETA,
        "budget_wh": budget_wh,
        "schedules": schedules.iter().map(|(l, _)| l.to_string()).collect::<Vec<_>>(),
        "results": results,
    }));
}

/// One campaign cell: `base` under `spec`, optionally compressed with
/// error feedback, labeled for the report.
fn cell(
    base: &ExperimentConfig,
    label: &str,
    spec: TopologyScheduleSpec,
    codec: Option<ModelCodec>,
) -> ExperimentConfig {
    let mut cfg = base.clone();
    cfg.topology_schedule = spec;
    if let Some(codec) = codec {
        cfg.codec = codec;
        cfg.feedback_beta = Some(FEEDBACK_BETA);
    }
    let suffix = if codec.is_some() { "+topk-ef" } else { "" };
    cfg.name = format!("{}/{label}{suffix}", base.name);
    cfg
}
