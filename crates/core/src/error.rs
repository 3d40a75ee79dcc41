//! Typed experiment-configuration errors.
//!
//! The legacy API validated configurations with scattered `assert!`s that
//! fired mid-run, after minutes of dataset synthesis. [`ConfigError`]
//! centralizes every invariant so
//! [`Experiment::from_config`](crate::Experiment::from_config) and campaigns
//! reject invalid configurations *before* any work starts, with a
//! diagnosable reason.

use serde::{Deserialize, Serialize};

/// Why an [`ExperimentConfig`](crate::ExperimentConfig) is invalid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConfigError {
    /// `nodes == 0`.
    ZeroNodes,
    /// `rounds == 0`.
    ZeroRounds,
    /// `batch_size == 0`.
    ZeroBatchSize,
    /// `local_steps == 0`.
    ZeroLocalSteps,
    /// `eval_max_samples == 0`: every evaluation would score no sample and
    /// report 0 % accuracy.
    ZeroEvalSamples,
    /// Learning rate is not a positive finite number.
    NonPositiveLearningRate,
    /// A budget-constrained algorithm was configured without
    /// `EnergySpec::battery_fraction`.
    MissingBatteryFraction {
        /// The algorithm that requires a battery budget.
        algorithm: String,
    },
    /// The battery fraction is outside `(0, 1]`.
    InvalidBatteryFraction,
    /// A battery spec's capacity (uniform Wh, or fleet fraction) is not a
    /// positive finite number.
    NonPositiveBatteryCapacity,
    /// A battery spec's initial charge fraction is outside `[0, 1]` (or
    /// not finite).
    InvalidBatteryInitialFraction,
    /// A battery policy fraction (threshold, or duty-cycle target) is
    /// outside `(0, 1]` (or not finite).
    InvalidBatteryPolicyFraction,
    /// A hysteresis battery policy's bands are inverted or degenerate
    /// (`suspend_fraction >= resume_fraction`), so the latch could never
    /// open — or a band is outside `[0, 1]`.
    InvertedHysteresisBands,
    /// A harvest profile is malformed: negative or non-finite watts, a
    /// non-positive diurnal period, or an empty piecewise trace.
    InvalidHarvestProfile,
    /// The harvest phase jitter is outside `[0, 1]` (or not finite).
    InvalidHarvestJitter,
    /// A regular topology's degree does not fit the node count
    /// (`degree >= nodes`).
    DegreeTooLarge {
        /// Configured degree.
        degree: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// A regular topology of degree 0 has no edges to gossip over.
    ZeroDegree,
    /// A ring topology needs at least 3 nodes.
    RingTooSmall {
        /// Configured node count.
        nodes: usize,
    },
    /// A `d`-regular graph needs `nodes * degree` even.
    OddDegreeProduct {
        /// Configured degree.
        degree: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// A top-k compression codec with `k == 0` would transmit no
    /// parameters at all.
    ZeroTopK,
    /// An edge-dropout topology schedule's drop probability is outside
    /// `[0, 1)` (or not finite) — `p = 1` would disconnect every round.
    InvalidEdgeDropout,
    /// A per-byte radio energy override that is zero, negative, or
    /// non-finite cannot price any message.
    InvalidCommJoulesPerByte,
    /// A cycling topology schedule with no graphs has no round topology
    /// to offer.
    EmptyTopologyCycle,
    /// A cycling topology schedule contains a graph whose node count
    /// differs from the experiment's.
    TopologyCycleSizeMismatch {
        /// Index of the offending graph in the cycle.
        index: usize,
        /// Node count the experiment requires.
        expected: usize,
        /// Node count the graph has.
        got: usize,
    },
    /// A cycling topology schedule contains a graph that fails
    /// [`Graph::validate`](skiptrain_topology::Graph::validate): not one
    /// sorted, in-range, loop-free, symmetric adjacency list per node.
    MalformedCycleGraph {
        /// Index of the offending graph in the cycle.
        index: usize,
    },
    /// The error-feedback replica cap is zero (no link could ever hold a
    /// replica).
    ZeroReplicaCap,
    /// The error-feedback residual retention factor is outside `(0, 1]`
    /// (or not finite).
    InvalidFeedbackBeta,
    /// A per-node compute profile's factor list does not match the node
    /// count.
    ComputeProfileArityMismatch {
        /// Node count the experiment requires.
        expected: usize,
        /// Factor count the profile provides.
        got: usize,
    },
    /// A compute-profile value is invalid: a non-finite or non-positive
    /// per-node speed factor, a straggler probability outside `[0, 1]`,
    /// or a straggler slowdown factor below 1.
    InvalidComputeProfile {
        /// The offending value.
        value: f64,
    },
    /// A seeded latency model's jitter is outside `[0, 1]` (or not
    /// finite).
    InvalidLatencyJitter {
        /// The offending jitter.
        value: f64,
    },
    /// A churn probability (leave or rejoin) is outside `[0, 1]` (or not
    /// finite).
    InvalidChurnRate {
        /// The offending probability.
        value: f64,
    },
    /// An async-gossip activation probability is outside `[0, 1]` (or
    /// NaN).
    InvalidActivationProbability {
        /// The offending probability.
        value: f64,
    },
    /// A battery spec's per-node policy list does not match the node
    /// count.
    BatteryPolicyArityMismatch {
        /// Node count the experiment requires.
        expected: usize,
        /// Policy count the spec provides.
        got: usize,
    },
    /// The dataset spec would generate no training samples per node.
    EmptyNodeData,
    /// The dataset spec would generate no evaluation samples.
    EmptyEvalData,
    /// The dataset spec has `feature_dim == 0`.
    ZeroFeatureDim,
    /// The dataset spec has `modes_per_class == 0`: a class needs at least
    /// one cluster to draw samples from.
    ZeroModesPerClass,
    /// A shards partition must deal each node between 1 and
    /// `samples_per_node` shards: the pool of `nodes · samples_per_node`
    /// samples is cut into `nodes · shards_per_node` non-empty shards.
    InvalidShardsPerNode {
        /// Configured shards per node.
        shards_per_node: usize,
        /// Configured training samples per node.
        samples_per_node: usize,
    },
    /// A Dirichlet partition's concentration α is not a positive finite
    /// number.
    InvalidDirichletAlpha {
        /// The offending concentration.
        value: f32,
    },
    /// A pre-built data bundle does not match the configuration.
    ArityMismatch {
        /// What disagreed (e.g. `"node datasets"`).
        what: String,
        /// Count the config requires.
        expected: usize,
        /// Count the bundle provides.
        got: usize,
    },
    /// A serialized transport's loss probabilities are invalid: each of
    /// `drop_prob` and `corrupt_prob` must lie in `[0, 1)` (and be
    /// finite), and their sum must stay below 1 so some messages can
    /// still arrive.
    InvalidTransportLoss {
        /// Configured per-message drop probability.
        drop_prob: f64,
        /// Configured per-message corruption probability.
        corrupt_prob: f64,
    },
    /// The consensus stepsize γ is outside `(0, 1]` (or not finite).
    InvalidConsensusGamma {
        /// The offending stepsize.
        value: f64,
    },
    /// An energy-adaptive tier table is malformed: empty, a threshold
    /// outside `[0, 1]` (or not finite), or thresholds not strictly
    /// descending (the resolver walks the table top-down).
    InvalidEnergyTiers,
    /// A rarity-adaptive policy's top-k bounds are invalid: `base_k`
    /// must be at least 1 and `max_k` at least `base_k`.
    InvalidRarityBounds {
        /// Configured budget for an always-on link.
        base_k: usize,
        /// Configured budget ceiling.
        max_k: usize,
    },
    /// A per-link codec table lists the same directed link twice.
    DuplicateLinkCodec {
        /// Sender node id of the duplicated link.
        src: u32,
        /// Receiver node id of the duplicated link.
        dst: u32,
    },
    /// A per-link codec table entry names an impossible directed link:
    /// an endpoint at or beyond the node count, or a self-loop.
    LinkCodecOutOfRange {
        /// Sender node id of the offending entry.
        src: u32,
        /// Receiver node id of the offending entry.
        dst: u32,
        /// Node count the experiment requires.
        nodes: usize,
    },
    /// A SkipTrain schedule with `gamma_train == 0` never trains (and,
    /// with `gamma_sync == 0` too, has no period at all). `Schedule::new`
    /// asserts this; a deserialised schedule does not go through `new`.
    ZeroGammaTrain,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "experiment needs at least one node"),
            ConfigError::ZeroRounds => write!(f, "experiment needs at least one round"),
            ConfigError::ZeroBatchSize => write!(f, "mini-batch size must be positive"),
            ConfigError::ZeroLocalSteps => {
                write!(f, "local SGD steps per training round must be positive")
            }
            ConfigError::ZeroEvalSamples => write!(
                f,
                "`eval_max_samples` must be at least 1: an evaluation over no \
                 samples reports 0 % accuracy"
            ),
            ConfigError::NonPositiveLearningRate => {
                write!(f, "learning rate must be a positive finite number")
            }
            ConfigError::MissingBatteryFraction { algorithm } => write!(
                f,
                "algorithm `{algorithm}` requires a battery fraction \
                 (set `EnergySpec::battery_fraction`)"
            ),
            ConfigError::InvalidBatteryFraction => {
                write!(f, "battery fraction must lie in (0, 1]")
            }
            ConfigError::NonPositiveBatteryCapacity => {
                write!(f, "battery capacity must be a positive finite number")
            }
            ConfigError::InvalidBatteryInitialFraction => {
                write!(f, "battery initial charge fraction must lie in [0, 1]")
            }
            ConfigError::InvalidBatteryPolicyFraction => write!(
                f,
                "battery policy fraction (threshold / duty-cycle target) must lie in (0, 1]"
            ),
            ConfigError::InvertedHysteresisBands => write!(
                f,
                "hysteresis bands must satisfy 0 <= suspend < resume <= 1"
            ),
            ConfigError::InvalidHarvestProfile => write!(
                f,
                "harvest profile needs finite non-negative watts, a positive \
                 diurnal period, and a non-empty piecewise trace"
            ),
            ConfigError::InvalidHarvestJitter => {
                write!(f, "harvest phase jitter must lie in [0, 1]")
            }
            ConfigError::DegreeTooLarge { degree, nodes } => write!(
                f,
                "a {degree}-regular topology needs more than {degree} nodes, got {nodes}"
            ),
            ConfigError::ZeroDegree => {
                write!(f, "a regular topology needs a degree of at least 1")
            }
            ConfigError::RingTooSmall { nodes } => {
                write!(f, "a ring topology needs at least 3 nodes, got {nodes}")
            }
            ConfigError::OddDegreeProduct { degree, nodes } => write!(
                f,
                "a {degree}-regular graph on {nodes} nodes does not exist \
                 (nodes x degree must be even)"
            ),
            ConfigError::ZeroTopK => {
                write!(f, "top-k compression needs k >= 1 kept parameters")
            }
            ConfigError::InvalidEdgeDropout => {
                write!(f, "edge-dropout probability must lie in [0, 1)")
            }
            ConfigError::InvalidCommJoulesPerByte => {
                write!(f, "comm energy override must be a finite positive J/byte")
            }
            ConfigError::EmptyTopologyCycle => {
                write!(f, "a cycling topology schedule needs at least one graph")
            }
            ConfigError::TopologyCycleSizeMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "cycle graph #{index} has {got} nodes, experiment has {expected}"
            ),
            ConfigError::MalformedCycleGraph { index } => write!(
                f,
                "cycle graph #{index} is not a simple undirected graph \
                 (one sorted, in-range, loop-free, symmetric list per node)"
            ),
            ConfigError::ZeroReplicaCap => {
                write!(f, "error-feedback replica cap must be at least 1")
            }
            ConfigError::InvalidFeedbackBeta => {
                write!(f, "compression feedback beta must lie in (0, 1]")
            }
            ConfigError::ComputeProfileArityMismatch { expected, got } => write!(
                f,
                "per-node compute profile has {got} speed factors, experiment has {expected} nodes"
            ),
            ConfigError::InvalidComputeProfile { value } => write!(
                f,
                "compute profile value {value} is invalid (speed factors must be \
                 positive and finite, straggler probability in [0, 1], slowdown >= 1)"
            ),
            ConfigError::InvalidLatencyJitter { value } => {
                write!(f, "latency jitter {value} must lie in [0, 1]")
            }
            ConfigError::InvalidChurnRate { value } => {
                write!(f, "churn probability {value} must lie in [0, 1]")
            }
            ConfigError::InvalidActivationProbability { value } => {
                write!(
                    f,
                    "async-gossip activation probability {value} must lie in [0, 1]"
                )
            }
            ConfigError::BatteryPolicyArityMismatch { expected, got } => write!(
                f,
                "per-node battery policy list has {got} policies, experiment has {expected} nodes"
            ),
            ConfigError::EmptyNodeData => {
                write!(f, "dataset spec generates zero training samples per node")
            }
            ConfigError::EmptyEvalData => {
                write!(f, "dataset spec generates zero evaluation samples")
            }
            ConfigError::ZeroFeatureDim => {
                write!(f, "dataset spec needs at least one feature dimension")
            }
            ConfigError::ZeroModesPerClass => {
                write!(f, "dataset spec needs at least one mode per class")
            }
            ConfigError::InvalidShardsPerNode {
                shards_per_node,
                samples_per_node,
            } => write!(
                f,
                "shards per node must lie in 1..={samples_per_node} \
                 (the samples per node), got {shards_per_node}"
            ),
            ConfigError::InvalidDirichletAlpha { value } => write!(
                f,
                "dirichlet concentration alpha {value} must be a positive finite number"
            ),
            ConfigError::ArityMismatch {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "data bundle mismatch: expected {expected} {what}, got {got}"
                )
            }
            ConfigError::InvalidTransportLoss {
                drop_prob,
                corrupt_prob,
            } => write!(
                f,
                "transport loss probabilities are invalid: drop {drop_prob} and \
                 corruption {corrupt_prob} must each lie in [0, 1) and sum below 1"
            ),
            ConfigError::InvalidConsensusGamma { value } => {
                write!(f, "consensus stepsize gamma {value} must lie in (0, 1]")
            }
            ConfigError::InvalidEnergyTiers => write!(
                f,
                "energy-adaptive tier table needs at least one tier with finite \
                 thresholds in [0, 1], sorted strictly descending"
            ),
            ConfigError::InvalidRarityBounds { base_k, max_k } => write!(
                f,
                "rarity-adaptive top-k bounds are invalid: base_k {base_k} must be \
                 at least 1 and max_k {max_k} at least base_k"
            ),
            ConfigError::DuplicateLinkCodec { src, dst } => write!(
                f,
                "per-link codec table lists directed link {src} -> {dst} twice"
            ),
            ConfigError::LinkCodecOutOfRange { src, dst, nodes } => write!(
                f,
                "per-link codec table entry {src} -> {dst} is impossible on \
                 {nodes} nodes (endpoints must be distinct and below the node count)"
            ),
            ConfigError::ZeroGammaTrain => write!(
                f,
                "schedule `gamma_train` must be at least 1: a schedule that never \
                 trains cannot learn"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A campaign-level failure: which run was invalid and why.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignError {
    /// Index of the offending run in the campaign's input order.
    pub run: usize,
    /// Name of the offending configuration.
    pub name: String,
    /// The underlying configuration error.
    pub source: ConfigError,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign run #{} (`{}`): {}",
            self.run, self.name, self.source
        )
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A round-execution failure surfaced from the engine mid-run: which
/// round broke and why.
///
/// [`Experiment::run`](crate::Experiment::run) returns it, and a campaign
/// cell that meets it is recorded as a typed
/// [`CellFailure`](crate::CellFailure) while its siblings keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Round index (0-based) at which execution failed.
    pub round: usize,
    /// The underlying engine error.
    pub source: skiptrain_engine::EngineError,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "round {}: {}", self.round, self.source)
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ConfigError::MissingBatteryFraction {
            algorithm: "greedy".into(),
        };
        assert!(e.to_string().contains("battery fraction"));
        assert!(e.to_string().contains("greedy"));
        let c = CampaignError {
            run: 3,
            name: "x".into(),
            source: ConfigError::ZeroRounds,
        };
        assert!(c.to_string().contains("#3"));
        assert!(c.to_string().contains("round"));
    }

    #[test]
    fn battery_errors_display_and_serialize() {
        for e in [
            ConfigError::NonPositiveBatteryCapacity,
            ConfigError::InvalidBatteryInitialFraction,
            ConfigError::InvalidBatteryPolicyFraction,
            ConfigError::InvertedHysteresisBands,
            ConfigError::InvalidHarvestProfile,
            ConfigError::InvalidHarvestJitter,
        ] {
            assert!(!e.to_string().is_empty());
            let json = serde_json::to_string(&e).unwrap();
            let back: ConfigError = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
        assert!(ConfigError::InvertedHysteresisBands
            .to_string()
            .contains("suspend < resume"));
    }

    #[test]
    fn event_errors_display_and_serialize() {
        for e in [
            ConfigError::ComputeProfileArityMismatch {
                expected: 16,
                got: 4,
            },
            ConfigError::InvalidComputeProfile { value: -0.5 },
            ConfigError::InvalidLatencyJitter { value: 1.5 },
            ConfigError::InvalidChurnRate { value: 2.0 },
            ConfigError::BatteryPolicyArityMismatch {
                expected: 16,
                got: 3,
            },
            ConfigError::InvalidActivationProbability { value: 1.5 },
            ConfigError::ZeroGammaTrain,
            ConfigError::ZeroEvalSamples,
        ] {
            assert!(!e.to_string().is_empty());
            let json = serde_json::to_string(&e).unwrap();
            let back: ConfigError = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
        assert!(ConfigError::InvalidLatencyJitter { value: 1.5 }
            .to_string()
            .contains("1.5"));
    }

    #[test]
    fn compression_errors_display_and_serialize() {
        for e in [
            ConfigError::InvalidConsensusGamma { value: 0.0 },
            ConfigError::InvalidEnergyTiers,
            ConfigError::InvalidRarityBounds {
                base_k: 0,
                max_k: 64,
            },
            ConfigError::DuplicateLinkCodec { src: 2, dst: 5 },
            ConfigError::LinkCodecOutOfRange {
                src: 9,
                dst: 9,
                nodes: 8,
            },
        ] {
            assert!(!e.to_string().is_empty());
            let json = serde_json::to_string(&e).unwrap();
            let back: ConfigError = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
        assert!(ConfigError::DuplicateLinkCodec { src: 2, dst: 5 }
            .to_string()
            .contains("2 -> 5"));
    }

    #[test]
    fn errors_serialize() {
        let e = ConfigError::DegreeTooLarge {
            degree: 8,
            nodes: 4,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: ConfigError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
