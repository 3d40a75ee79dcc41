//! SkipTrain: energy-aware decentralized learning with intermittent model
//! training.
//!
//! This crate implements the paper's contribution on top of the
//! `skiptrain-engine` substrate:
//!
//! * [`schedule`] — the coordinated Γ_train/Γ_sync round schedule (§3.1,
//!   Eq. 4),
//! * [`prob`] — energy-budget training probabilities (§3.2, Eq. 5),
//! * [`policy`] — the algorithms as round policies: D-PSGD, SkipTrain,
//!   SkipTrain-constrained, Greedy, async pairwise gossip,
//! * [`builder`] — [`Experiment`], a configuration validated into typed
//!   [`ConfigError`]s ([`Experiment::from_config`]) and the one way to run
//!   one config on its own data ([`Experiment::run`]),
//! * [`runner`] — the one observer-driven round loop, its round
//!   semantics derived from the algorithm
//!   ([`RoundObserver`](skiptrain_engine::RoundObserver) hooks for
//!   recording and early stopping),
//! * [`campaign`] — [`Campaign`], the parallel multi-run executor that
//!   deduplicates data bundles and returns results in input order, with
//!   fault-tolerant execution ([`Campaign::run_resilient`]: per-cell
//!   failure isolation, seeded retry, checkpoint/resume),
//! * [`journal`] — the crash-safe JSONL checkpoint journal behind
//!   [`Campaign::with_checkpoint`],
//! * [`sweep`] — the §4.3 (Γ_train, Γ_sync) grid search, run as a parallel
//!   campaign,
//! * [`presets`] — Table-1 configurations at paper/medium/quick scales.
//!
//! # Quick example
//!
//! Validate one experiment and assemble a small campaign on top of a preset:
//!
//! ```
//! use skiptrain_core::presets::{cifar_config, with_algorithm, Scale};
//! use skiptrain_core::{AlgorithmSpec, Campaign, Experiment, ExperimentConfig, Schedule};
//!
//! // A preset plus fields, validated into typed errors.
//! let experiment = Experiment::from_config(ExperimentConfig {
//!     name: "demo".into(),
//!     nodes: 16,
//!     rounds: 8,
//!     algorithm: AlgorithmSpec::SkipTrain(Schedule::new(4, 4)),
//!     ..cifar_config(Scale::Quick, 42)
//! })
//! .expect("valid config");
//! assert_eq!(experiment.config().algorithm.name(), "skiptrain");
//! // experiment.run() returns Result<ExperimentResult, RunError>.
//!
//! // A two-run campaign comparing algorithms on one shared dataset.
//! let base = cifar_config(Scale::Quick, 42);
//! let campaign = Campaign::new()
//!     .push(base.clone())
//!     .push(with_algorithm(base, AlgorithmSpec::SkipTrain(Schedule::new(4, 4))));
//! assert_eq!(campaign.len(), 2);
//! // campaign.run() executes both in parallel over one data bundle.
//! ```
//!
//! Invalid configurations are typed errors before any work starts instead
//! of panics mid-run:
//!
//! ```
//! use skiptrain_core::presets::{cifar_config, Scale};
//! use skiptrain_core::{AlgorithmSpec, ConfigError, Experiment, ExperimentConfig};
//!
//! let err = Experiment::from_config(ExperimentConfig {
//!     algorithm: AlgorithmSpec::Greedy, // needs a battery budget
//!     ..cifar_config(Scale::Quick, 42)
//! })
//! .unwrap_err();
//! assert!(matches!(err, ConfigError::MissingBatteryFraction { .. }));
//! ```

pub mod builder;
pub mod campaign;
pub mod error;
pub mod experiment;
pub mod fairness;
pub mod journal;
pub mod policy;
pub mod presets;
pub mod prob;
pub mod runner;
pub mod schedule;
pub mod sweep;

pub use builder::Experiment;
pub use campaign::{
    retry_seed, Campaign, CampaignReport, CampaignRunError, CellFailure, FailureCause, RetrySpec,
};
pub use error::{CampaignError, ConfigError, RunError};
pub use experiment::{
    AlgorithmSpec, BatteryCapacitySpec, BatterySpec, BatterySummary, ChurnSpec, CompressionSpec,
    DataBundle, DataSpec, EnergySpec, EventSummary, ExperimentConfig, ExperimentResult, TimingSpec,
    TopologyScheduleSpec, TopologySpec,
};
pub use journal::{config_digest, JournalError};
pub use policy::{
    AsyncGossipPolicy, ConstrainedPolicy, DPsgdPolicy, GreedyPolicy, RoundPolicy, SkipTrainPolicy,
};
pub use presets::{cifar_config, femnist_config, with_algorithm, Scale};
pub use runner::run_with_observers;
pub use schedule::Schedule;
pub use skiptrain_engine::{CompressionPolicy, EnergyTier, LinkCodec, ModelCodec, TransportKind};
pub use sweep::{grid_campaign, grid_search, SweepResult};
