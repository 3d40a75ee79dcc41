//! # SkipTrain — energy-aware decentralized learning
//!
//! A from-scratch Rust reproduction of *"Energy-Aware Decentralized Learning
//! with Intermittent Model Training"* (Dhasade et al., IPDPS 2024,
//! arXiv:2407.01283), including every substrate the paper depends on:
//! a decentralized-learning execution engine, a neural-network training
//! stack, synthetic non-IID datasets, communication topologies with
//! Metropolis–Hastings mixing, and smartphone energy traces.
//!
//! This facade crate re-exports the workspace so applications can depend on
//! a single crate:
//!
//! ```
//! use skiptrain::prelude::*;
//!
//! // A preset plus fields, validated up front; invalid configs are typed
//! // errors before any work starts, not mid-run panics.
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
//! // Multi-run comparisons execute in parallel over shared data bundles.
//! let campaign = Campaign::new().push(experiment.into_config());
//! assert_eq!(campaign.len(), 1);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the per-figure reproduction harness.

/// Dense linear algebra kernels.
pub use skiptrain_linalg as linalg;

/// Neural networks with manual backprop (PyTorch substitute).
pub use skiptrain_nn as nn;

/// Synthetic datasets and non-IID partitioners.
pub use skiptrain_data as data;

/// Communication graphs and mixing matrices.
pub use skiptrain_topology as topology;

/// Device profiles, energy traces, ledgers and budgets.
pub use skiptrain_energy as energy;

/// The synchronous round execution engine (DecentralizePy substitute).
pub use skiptrain_engine as engine;

/// The SkipTrain algorithms, policies and experiment driver.
pub use skiptrain_core as algorithms;

/// The most common imports for building experiments.
pub mod prelude {
    pub use skiptrain_core::experiment::{
        AlgorithmSpec, BatteryCapacitySpec, BatterySpec, BatterySummary, ChurnSpec,
        CompressionSpec, DataBundle, DataSpec, EnergySpec, EventSummary, ExperimentConfig,
        ExperimentResult, TimingSpec, TopologyScheduleSpec, TopologySpec,
    };
    pub use skiptrain_core::policy::{
        AsyncGossipPolicy, ConstrainedPolicy, DPsgdPolicy, GreedyPolicy, RoundPolicy,
        SkipTrainPolicy,
    };
    pub use skiptrain_core::presets::{cifar_config, femnist_config, with_algorithm, Scale};
    pub use skiptrain_core::{
        run_with_observers, Campaign, CampaignError, CampaignRunError, ConfigError, Experiment,
        RunError, Schedule,
    };
    pub use skiptrain_data::{Dataset, MinibatchSampler, Partition};
    pub use skiptrain_energy::{
        BatteryPolicy, BatterySetup, BatteryState, BudgetTracker, DeviceKind, EnergyLedger,
        HarvestProfile, HarvestTrace, WorkloadSpec,
    };
    pub use skiptrain_engine::observer::{EvalReport, RoundCtx, RoundObserver, RoundReport};
    pub use skiptrain_engine::{
        ChurnModel, CompressionPolicy, ComputeProfile, EnergyTier, EventEngine, EventStats,
        LatencyModel, LinkCodec, ModelCodec, RoundAction, RoundSemantics, Simulation,
        SimulationConfig, TransportKind, BASE_TRAIN_TICKS,
    };
    pub use skiptrain_nn::zoo::ModelKind;
    pub use skiptrain_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
    pub use skiptrain_topology::{Graph, MixingMatrix};
}
