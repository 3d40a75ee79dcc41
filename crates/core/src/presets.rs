//! Experiment presets at three scales.
//!
//! `Paper` mirrors Table 1 (256 nodes, 1000/3000 rounds, batch 32/16, E =
//! 20/7); `Medium` and `Quick` shrink nodes, rounds and data so the full
//! figure suite regenerates on a laptop in minutes while preserving the
//! qualitative shapes. Every bench binary accepts `--scale`.

use crate::experiment::{
    AlgorithmSpec, DataSpec, EnergySpec, ExperimentConfig, TimingSpec, TopologyScheduleSpec,
    TopologySpec,
};
use serde::{Deserialize, Serialize};
use skiptrain_engine::{ModelCodec, TransportKind};

/// Simulation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds per experiment — CI and tests.
    Quick,
    /// A couple of minutes per experiment — default for the harness.
    Medium,
    /// The paper's full 256-node configuration — hours.
    Paper,
}

impl Scale {
    /// Parses `quick|medium|paper` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Node count at this scale (paper: 256).
    pub fn nodes(&self) -> usize {
        match self {
            Scale::Quick => 24,
            Scale::Medium => 64,
            Scale::Paper => 256,
        }
    }
}

/// The CIFAR-10-like experiment at a given scale (defaults: D-PSGD,
/// 6-regular topology).
pub fn cifar_config(scale: Scale, seed: u64) -> ExperimentConfig {
    // The regime below (E = 20 local steps, η = 0.8, a hard 4-mode mixture)
    // places the synthetic task where the paper's phenomenon lives: local
    // training drifts node models toward their 2-label shards faster than a
    // single gossip step can reconcile, so D-PSGD plateaus below the
    // all-reduced model (Figure 1) and SkipTrain's extra mixing wins
    // (Figure 5). η differs from Table 1's 0.1 because the task differs;
    // E, |ξ|, T and the node count follow Table 1 at `Paper` scale.
    let (rounds, dim, hidden, spn, test, batch, steps, eval_cap) = match scale {
        Scale::Quick => (64, 32, 24, 80, 800, 16, 10, 400),
        Scale::Medium => (160, 32, 24, 100, 2400, 16, 20, 1000),
        // Table 1: T = 1000, |ξ| = 32, E = 20; 50 000 CIFAR train samples
        // over 256 nodes ≈ 195 each; 10 000-sample test pool.
        Scale::Paper => (1000, 32, 24, 195, 10_000, 32, 20, 2500),
    };
    ExperimentConfig {
        name: format!("cifar-like/{scale:?}"),
        nodes: scale.nodes(),
        rounds,
        algorithm: AlgorithmSpec::DPsgd,
        topology: TopologySpec::Regular { degree: 6 },
        topology_schedule: TopologyScheduleSpec::default(),
        data: DataSpec::CifarLike {
            feature_dim: dim,
            samples_per_node: spn,
            test_samples: test,
            shards_per_node: 2,
            separation: 0.8,
            noise: 1.1,
            modes_per_class: 4,
        },
        hidden_dim: hidden,
        batch_size: batch,
        local_steps: steps,
        learning_rate: 0.8,
        seed,
        eval_every: 8,
        eval_max_samples: eval_cap,
        energy: EnergySpec::cifar10(),
        transport: TransportKind::Memory,
        codec: ModelCodec::DenseF32,
        feedback_beta: None,
        feedback_replica_cap: None,
        compression: None,
        record_mean_model: false,
        battery: None,
        timing: TimingSpec::default(),
        churn: None,
    }
}

/// The FEMNIST-like experiment at a given scale (defaults: D-PSGD,
/// 6-regular topology).
pub fn femnist_config(scale: Scale, seed: u64) -> ExperimentConfig {
    let (rounds, dim, hidden, spn, test, batch, steps, eval_cap) = match scale {
        Scale::Quick => (64, 32, 24, 90, 800, 16, 7, 400),
        Scale::Medium => (240, 32, 32, 140, 2400, 16, 7, 1000),
        // Table 1: T = 3000, |ξ| = 16, E = 7; FEMNIST top-256 writers have
        // hundreds of samples each; 40 832-sample test pool (2 × 20 416).
        Scale::Paper => (3000, 32, 32, 300, 40_832, 16, 7, 2500),
    };
    ExperimentConfig {
        name: format!("femnist-like/{scale:?}"),
        nodes: scale.nodes(),
        rounds,
        algorithm: AlgorithmSpec::DPsgd,
        topology: TopologySpec::Regular { degree: 6 },
        topology_schedule: TopologyScheduleSpec::default(),
        data: DataSpec::FemnistLike {
            feature_dim: dim,
            samples_per_node: spn,
            test_samples: test,
            style_strength: 0.6,
            separation: 0.95,
            noise: 1.05,
            modes_per_class: 3,
        },
        hidden_dim: hidden,
        batch_size: batch,
        local_steps: steps,
        learning_rate: 0.8,
        seed,
        eval_every: 8,
        eval_max_samples: eval_cap,
        energy: EnergySpec::femnist(),
        transport: TransportKind::Memory,
        codec: ModelCodec::DenseF32,
        feedback_beta: None,
        feedback_replica_cap: None,
        compression: None,
        record_mean_model: false,
        battery: None,
        timing: TimingSpec::default(),
        churn: None,
    }
}

/// Sets the config's algorithm and appends its name to the config's name,
/// returning the modified config.
pub fn with_algorithm(mut cfg: ExperimentConfig, algorithm: AlgorithmSpec) -> ExperimentConfig {
    cfg.name = format!("{}/{}", cfg.name, algorithm.name());
    cfg.algorithm = algorithm;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    #[test]
    fn paper_scale_matches_table1() {
        let cifar = cifar_config(Scale::Paper, 1);
        assert_eq!(cifar.nodes, 256);
        assert_eq!(cifar.rounds, 1000);
        assert_eq!(cifar.batch_size, 32);
        assert_eq!(cifar.local_steps, 20);
        // η intentionally differs from Table 1 (synthetic task regime);
        // the energy workload still carries Table 1's nominal values.
        assert_eq!(cifar.energy.workload.model_params, 89_834);

        let femnist = femnist_config(Scale::Paper, 1);
        assert_eq!(femnist.rounds, 3000);
        assert_eq!(femnist.batch_size, 16);
        assert_eq!(femnist.local_steps, 7);
        assert_eq!(femnist.energy.workload.model_params, 1_690_046);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn quick_configs_are_small() {
        let cfg = cifar_config(Scale::Quick, 1);
        assert!(cfg.nodes <= 32);
        assert!(cfg.rounds <= 64);
    }

    #[test]
    fn with_algorithm_renames() {
        let cfg = with_algorithm(
            cifar_config(Scale::Quick, 1),
            AlgorithmSpec::SkipTrain(Schedule::new(4, 4)),
        );
        assert!(cfg.name.contains("skiptrain"));
        assert_eq!(cfg.algorithm, AlgorithmSpec::SkipTrain(Schedule::new(4, 4)));
    }
}
