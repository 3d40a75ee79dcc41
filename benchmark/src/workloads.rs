//! The four workloads: generated inputs, why each exists, and the
//! committed `workloads/<name>.json` snapshot of the seed-42 inputs.
//!
//! Everything the program under test receives is generated here from
//! `--seed`; the committed files exist so a change to an input shows up as
//! a diff, and the binary refuses to run when the seed-42 file on disk is
//! not what this module generates.

use serde_json::Value;
use skiptrain_core::presets::{cifar_config, femnist_config, Scale};
use skiptrain_core::{
    AlgorithmSpec, BatteryCapacitySpec, BatterySpec, CompressionPolicy, CompressionSpec, DataSpec,
    ExperimentConfig, ModelCodec, Schedule, TopologyScheduleSpec, TopologySpec, TransportKind,
};
use skiptrain_data::Partition;
use skiptrain_energy::battery::BatteryPolicy;
use skiptrain_energy::device::fleet;
use skiptrain_energy::trace::{round_duration_s, HarvestProfile};
use std::path::Path;

/// The seed the committed workload files and accuracy floors belong to.
pub const PINNED_SEED: u64 = 42;

/// Fewest measured repeats per thread budget, however short `--seconds`.
pub const MIN_REPEATS: usize = 3;

/// Workload names, in the order `BENCHMARK.json` declares them.
pub const NAMES: [&str; 4] = [
    "train_dpsgd",
    "sync_wide64",
    "adaptive_fleet",
    "campaign_fig5",
];

/// One benchmark workload: the generated experiment configuration(s) plus
/// the constants its checks use.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload exists (which layers it puts on the hot path).
    pub why: &'static str,
    /// One config for a single-run workload, the whole grid for a campaign.
    pub configs: Vec<ExperimentConfig>,
    /// True when `configs` run as one `Campaign`.
    pub campaign: bool,
    /// `sim_accuracy_pct` floor at [`PINNED_SEED`]: the measured value
    /// minus three points. Reported but not enforced on other seeds.
    pub accuracy_floor_pct: f64,
}

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "train_dpsgd" => train_dpsgd(seed),
        "sync_wide64" => sync_wide64(seed),
        "adaptive_fleet" => adaptive_fleet(seed),
        "campaign_fig5" => campaign_fig5(seed),
        _ => return None,
    })
}

/// The paper's baseline at medium scale: every node trains every round,
/// so `nn` + `linalg::gemm` dominate and share/aggregate is a sliver.
fn train_dpsgd(seed: u64) -> Workload {
    let mut cfg = cifar_config(Scale::Medium, seed);
    cfg.name = "train_dpsgd".into();
    cfg.rounds = 64;
    cfg.eval_every = 8;
    Workload {
        name: "train_dpsgd",
        why: "The paper's D-PSGD baseline (64 nodes, 6-regular, E = 20, batch 16, MLP 32-24-10, \
              64 rounds): nn + linalg::gemm do nearly all the work and share/aggregate almost \
              none, so a faster SGD step or GEMM kernel must show here and a faster aggregation \
              must not.",
        configs: vec![cfg],
        campaign: false,
        accuracy_floor_pct: 62.9,
    }
}

/// The paper's model size on a fleet a quarter of the paper's, dominated by
/// synchronisation rounds.
fn sync_wide64(seed: u64) -> Workload {
    let mut cfg = cifar_config(Scale::Medium, seed);
    cfg.name = "sync_wide64".into();
    // 64 nodes, not the paper's 256: at 256 the models alone are 182 MB
    // streamed from memory every round, and the neighbours' use of the
    // shared cache and memory bus moved the run by 15-23 % between runs of
    // the same code, next to the benchmark's 25 % bound; at 64 (46 MB)
    // the same runs, alternated with those, spread by half as much.
    cfg.nodes = 64;
    cfg.rounds = 96;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 7));
    cfg.topology = TopologySpec::Regular { degree: 6 };
    // 128·640 + 640 + 640·10 + 10 = 88 970 parameters, Table 1's 89 834
    // to within 1 %. Twelve training rounds cannot learn the presets'
    // sharded 4-mode task; on an IID, single-mode task at this separation
    // the twelve network-averaged steps reach 93-100 % (98 % at the median
    // seed): steady across seeds yet not saturated, so a broken aggregation
    // shows.
    cfg.data = DataSpec::CifarPartitioned {
        feature_dim: 128,
        samples_per_node: 32,
        test_samples: 400,
        partition: Partition::Iid,
        separation: 0.4,
        noise: 1.0,
        modes_per_class: 1,
    };
    cfg.hidden_dim = 640;
    cfg.batch_size = 8;
    cfg.local_steps = 1;
    cfg.learning_rate = 0.5;
    cfg.eval_every = cfg.rounds;
    cfg.eval_max_samples = 48;
    Workload {
        name: "sync_wide64",
        why: "The paper's model size on 64 nodes (6-regular, SkipTrain 1 train : 7 sync, MLP \
              128-640-10 = 88 970 params, dense in-memory transport, 96 rounds): rounds are \
              memory-bandwidth-bound in linalg::ops::weighted_sum_indexed_into (7 inputs x 356 \
              KB x 64 nodes per round) and training does little, the opposite of train_dpsgd.",
        configs: vec![cfg],
        campaign: false,
        accuracy_floor_pct: 94.8,
    }
}

/// The closed loop of the battery/compression/dynamic-topology extensions
/// on the tiny model: sub-millisecond rounds where per-op overhead rules.
fn adaptive_fleet(seed: u64) -> Workload {
    let mut cfg = cifar_config(Scale::Medium, seed);
    cfg.name = "adaptive_fleet".into();
    cfg.rounds = 2000;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 3));
    cfg.local_steps = 1;
    cfg.eval_every = 250;
    cfg.eval_max_samples = 400;
    cfg.topology_schedule = TopologyScheduleSpec::EdgeDropout { p: 0.3 };
    cfg.transport = TransportKind::Serialized {
        drop_prob: 0.05,
        corrupt_prob: 0.02,
    };

    // The regime of `ext_adaptive_compression`: the radio is priced so one
    // u8-quality round costs several training rounds and the diurnal
    // harvest replaces a third of that, so charge really traverses the
    // dense -> u16 -> u8 -> top-k tiers and the threshold policy gates
    // nodes in and out.
    const COMM_FACTOR: f64 = 6.0;
    let max_cost = cfg
        .energy
        .node_energies(cfg.nodes)
        .into_iter()
        .fold(0.0f64, f64::max);
    let round_s = fleet(cfg.nodes)
        .iter()
        .map(|d| round_duration_s(&d.profile(), &cfg.energy.workload))
        .fold(0.0f64, f64::max);
    let eff_degree = 6.0 * 0.7;
    let u8_bytes = ModelCodec::QuantizedU8.message_bytes(cfg.energy.workload.model_params) as f64;
    cfg.energy.comm_joules_per_byte =
        Some(COMM_FACTOR * max_cost * 3600.0 / (2.0 * eff_degree * u8_bytes));
    let mean_harvest = (1.0 + COMM_FACTOR) * max_cost / 3.0;
    cfg.battery = Some(BatterySpec {
        capacity: BatteryCapacitySpec::Uniform {
            wh: 2.0 * (1.0 + COMM_FACTOR) * max_cost,
        },
        initial_fraction: 0.6,
        harvest: HarvestProfile::Diurnal {
            peak_watts: std::f64::consts::PI * mean_harvest * 3600.0 / round_s,
            period_rounds: 16.0,
        },
        harvest_jitter: 0.25,
        policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
        node_policies: None,
    });
    let sim_params = cfg.model_kind().build(0).param_count();
    cfg.compression = Some(CompressionSpec {
        policy: CompressionPolicy::deal_tiers((sim_params / 64).max(1)),
        feedback_beta: Some(1.0),
        ..CompressionSpec::default()
    });
    Workload {
        name: "adaptive_fleet",
        why: "The closed loop of the extensions on the tiny model (64 nodes, edge-dropout \
              topology, lossy serialized transport, DEAL tiers + error feedback, diurnal-harvest \
              batteries with a threshold policy, SkipTrain 1:3, E = 1, 2000 rounds): \
              sub-millisecond rounds where topology::schedule, engine::transport codecs, \
              energy::{battery,ledger}, engine::events and per-op dispatch dominate and GEMM \
              does little. It uses share/aggregate the opposite way from sync_wide64 \
              (overhead-bound, heterogeneous, lossy vs bandwidth-bound, uniform, lossless).",
        configs: vec![cfg],
        campaign: false,
        accuracy_floor_pct: 67.3,
    }
}

/// The number a user feels: the 12-cell `fig5_performance --scale quick`
/// grid, run as one resilient, journaled campaign.
fn campaign_fig5(seed: u64) -> Workload {
    let mut configs = Vec::new();
    for dataset in ["cifar", "femnist"] {
        for degree in [6usize, 8, 10] {
            let mut base = match dataset {
                "cifar" => cifar_config(Scale::Quick, seed),
                _ => femnist_config(Scale::Quick, seed),
            };
            base.topology = TopologySpec::Regular { degree };
            let schedule = Schedule::tuned_for_degree(degree);
            base.eval_every = schedule.period();
            for algorithm in [AlgorithmSpec::DPsgd, AlgorithmSpec::SkipTrain(schedule)] {
                let mut cfg = base.clone();
                cfg.name = format!("{dataset}-{degree}reg-{}", algorithm.name());
                cfg.algorithm = algorithm;
                configs.push(cfg);
            }
        }
    }
    Workload {
        name: "campaign_fig5",
        why: "The 12-cell fig5_performance --scale quick grid (2 datasets x degrees 6/8/10 x \
              D-PSGD/SkipTrain tuned schedule) through Campaign::run_resilient with a \
              checkpoint journal: bundle build, per-cell evaluation, journal writes and \
              cell-level parallelism (12 cells over T workers, the slowest worker sets the \
              wall) do work no other workload has.",
        configs,
        campaign: true,
        accuracy_floor_pct: 48.3,
    }
}

impl Workload {
    /// The workload file's content: everything above, as JSON.
    pub fn to_json(&self, seed: u64) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.into())),
            ("why".into(), Value::String(self.why.into())),
            ("seed".into(), Value::UInt(seed)),
            ("campaign".into(), Value::Bool(self.campaign)),
            ("min_repeats".into(), Value::UInt(MIN_REPEATS as u64)),
            (
                "accuracy_floor_pct".into(),
                Value::Float(self.accuracy_floor_pct),
            ),
            (
                "configs".into(),
                Value::Array(self.configs.iter().map(serde_json::to_value).collect()),
            ),
        ])
    }

    /// The text `workloads/<name>.json` must hold for this workload.
    pub fn file_text(&self, seed: u64) -> String {
        let mut text = serde_json::to_string_pretty(&self.to_json(seed))
            .unwrap_or_else(|e| panic!("workload {} does not serialize: {e:?}", self.name));
        text.push('\n');
        text
    }
}

/// `(file name, content)` of every workload file at [`PINNED_SEED`].
fn pinned_files() -> impl Iterator<Item = (String, String)> {
    NAMES
        .iter()
        .filter_map(|name| generate(name, PINNED_SEED))
        .map(|w| (format!("{}.json", w.name), w.file_text(PINNED_SEED)))
}

/// Checks that the committed file of every workload is exactly what
/// [`generate`] produces at [`PINNED_SEED`], so the inputs a run uses and
/// the inputs a reader sees in the repository cannot drift apart.
pub fn verify_committed(dir: &Path) -> Result<(), String> {
    for (file, expected) in pinned_files() {
        let path = dir.join(file);
        let on_disk = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if on_disk != expected {
            return Err(format!(
                "{} differs from the inputs generated for seed {PINNED_SEED}; \
                 regenerate it with `benchmark/run.sh --write-workloads` and review the diff",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Rewrites every committed workload file from [`generate`]. `dir` must
/// exist: a mistyped `--bench-dir` should fail, not grow a new tree.
pub fn write_committed(dir: &Path) -> std::io::Result<()> {
    for (file, text) in pinned_files() {
        std::fs::write(dir.join(file), text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_files_are_the_generated_inputs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        verify_committed(&dir).expect("workloads/*.json are current");
    }

    #[test]
    fn seed_reaches_every_config_and_changes_the_inputs() {
        for name in NAMES {
            let pinned = generate(name, PINNED_SEED).expect("known workload");
            let other = generate(name, 7).expect("known workload");
            assert!(other.configs.iter().all(|cfg| cfg.seed == 7), "{name}");
            assert_ne!(pinned.file_text(PINNED_SEED), other.file_text(7), "{name}");
            assert_eq!(
                pinned.file_text(PINNED_SEED),
                generate(name, PINNED_SEED)
                    .expect("known workload")
                    .file_text(PINNED_SEED),
                "{name}: the same seed must give the same inputs"
            );
            assert_eq!(pinned.campaign, pinned.configs.len() > 1, "{name}");
        }
        assert!(generate("unknown", 1).is_none());
    }
}
