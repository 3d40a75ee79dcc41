//! Fluent, validating construction of experiments.
//!
//! [`ExperimentBuilder`] assembles an
//! [`ExperimentConfig`](crate::ExperimentConfig) field by field from
//! sensible quick-scale defaults (or from an existing config), and
//! [`ExperimentBuilder::build`] validates every cross-field invariant into
//! a typed [`ConfigError`] instead of letting an `assert!` fire mid-run.
//! The output is an [`Experiment`]: a proof-of-validity wrapper whose run
//! methods cannot panic on configuration mistakes.
//!
//! ```
//! use skiptrain_core::{AlgorithmSpec, Experiment, Schedule, TopologySpec};
//!
//! let experiment = Experiment::builder()
//!     .name("quick-demo")
//!     .nodes(16)
//!     .rounds(24)
//!     .algorithm(AlgorithmSpec::SkipTrain(Schedule::new(4, 4)))
//!     .topology(TopologySpec::Regular { degree: 4 })
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(experiment.config().nodes, 16);
//! ```

use crate::error::ConfigError;
use crate::experiment::{
    AlgorithmSpec, BatterySpec, ChurnSpec, CompressionSpec, DataBundle, DataSpec, EnergySpec,
    ExperimentConfig, ExperimentResult, TimingSpec, TopologyScheduleSpec, TopologySpec,
};
use crate::runner;
use skiptrain_engine::observer::RoundObserver;
use skiptrain_engine::{CompressionPolicy, TransportKind};

/// Fluent builder for [`ExperimentConfig`] (see the module docs).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    config: ExperimentConfig,
}

impl Default for ExperimentBuilder {
    /// Quick-scale CIFAR-like defaults: 24 nodes, 64 rounds, D-PSGD on a
    /// 6-regular graph.
    fn default() -> Self {
        Self {
            config: crate::presets::cifar_config(crate::presets::Scale::Quick, 42),
        }
    }
}

macro_rules! setter {
    ($(#[$doc:meta] $name:ident: $ty:ty),* $(,)?) => {$(
        #[$doc]
        pub fn $name(mut self, $name: $ty) -> Self {
            self.config.$name = $name;
            self
        }
    )*};
}

impl ExperimentBuilder {
    /// Starts from the quick-scale defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration (e.g. a preset).
    pub fn from_config(config: ExperimentConfig) -> Self {
        Self { config }
    }

    /// Sets the report label.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    setter! {
        /// Sets the node count.
        nodes: usize,
        /// Sets the total round count `T`.
        rounds: usize,
        /// Sets the algorithm under test.
        algorithm: AlgorithmSpec,
        /// Sets the communication topology.
        topology: TopologySpec,
        /// Sets the dataset family and scale.
        data: DataSpec,
        /// Sets the hidden width of the per-node MLP (0 = softmax regression).
        hidden_dim: usize,
        /// Sets the mini-batch size.
        batch_size: usize,
        /// Sets the local SGD steps per training round.
        local_steps: usize,
        /// Sets the SGD learning rate.
        learning_rate: f32,
        /// Sets the master seed.
        seed: u64,
        /// Sets the evaluation cadence (every N rounds).
        eval_every: usize,
        /// Caps evaluation samples per eval point (`usize::MAX` = full set).
        eval_max_samples: usize,
        /// Sets the energy accounting / budget model.
        energy: EnergySpec,
        /// Sets the message transport.
        transport: TransportKind,
        /// Enables/disables the averaged-model curve of Figure 1.
        record_mean_model: bool,
    }

    /// Enables the closed-loop battery subsystem: per-node charge states
    /// drained by the energy ledger's actual spend, recharged by the
    /// spec's harvest profile, with a participation policy gating both
    /// training and gossip per round. Validation rejects non-positive
    /// capacities ([`ConfigError::NonPositiveBatteryCapacity`]), inverted
    /// hysteresis bands ([`ConfigError::InvertedHysteresisBands`]),
    /// out-of-range thresholds, malformed harvest profiles, and
    /// out-of-range phase jitter.
    pub fn battery(mut self, spec: BatterySpec) -> Self {
        self.config.battery = Some(spec);
        self
    }

    /// Sets the virtual-time realism knobs for the event-driven engine:
    /// a per-node compute profile (homogeneous / per-node speed factors /
    /// straggler tail) and a per-link latency model (zero / constant /
    /// seeded jitter). The default is trivial timing, which reproduces
    /// the legacy lockstep results bit for bit. Validation rejects
    /// mis-sized or non-positive per-node factors
    /// ([`ConfigError::ComputeProfileArityMismatch`],
    /// [`ConfigError::InvalidComputeProfile`]) and out-of-range latency
    /// jitter ([`ConfigError::InvalidLatencyJitter`]).
    pub fn timing(mut self, timing: TimingSpec) -> Self {
        self.config.timing = timing;
        self
    }

    /// Enables node churn: each round, present nodes leave with
    /// probability `leave_prob` and absent nodes rejoin with probability
    /// `rejoin_prob` (seeded, deterministic). Absent nodes freeze — no
    /// training, messages, or energy — and their mixing rows collapse to
    /// identity, so ledger conservation holds exactly. Validation rejects
    /// probabilities outside `[0, 1]`
    /// ([`ConfigError::InvalidChurnRate`]).
    pub fn churn(mut self, leave_prob: f64, rejoin_prob: f64) -> Self {
        self.config.churn = Some(ChurnSpec {
            leave_prob,
            rejoin_prob,
        });
        self
    }

    /// Sets the round→graph topology schedule (time-varying topologies).
    /// Non-static schedules regenerate doubly stochastic
    /// Metropolis–Hastings weights per scheduled round and charge energy
    /// only for the edges that fired. Validation rejects out-of-range
    /// dropout probabilities ([`ConfigError::InvalidEdgeDropout`]) and
    /// cycles that are empty or mis-sized for the node count
    /// ([`ConfigError::EmptyTopologyCycle`],
    /// [`ConfigError::TopologyCycleSizeMismatch`]).
    pub fn topology_schedule(mut self, schedule: TopologyScheduleSpec) -> Self {
        self.config.topology_schedule = schedule;
        self
    }

    /// Sets the per-directed-link codec selection policy. Uniform
    /// policies reproduce the legacy global codec bit for bit; adaptive
    /// policies ([`CompressionPolicy::PerLink`],
    /// [`CompressionPolicy::RarityAdaptive`],
    /// [`CompressionPolicy::EnergyAdaptive`]) resolve a codec per link
    /// per round and charge each link's ledger bytes from the codec it
    /// actually used. Keeps any previously configured γ and feedback
    /// settings.
    pub fn compression_policy(mut self, policy: CompressionPolicy) -> Self {
        let legacy = self.config.codec;
        self.config
            .compression
            .get_or_insert_with(|| CompressionSpec::uniform(legacy))
            .policy = policy;
        self
    }

    /// Replaces the whole compression subsystem spec: policy, consensus
    /// stepsize γ, and error-feedback settings in one value. Validation
    /// checks the spec's invariants (γ ∈ (0, 1], well-formed tier/link
    /// tables, nonzero top-k everywhere).
    pub fn compression_spec(mut self, spec: CompressionSpec) -> Self {
        self.config.compression = Some(spec);
        self
    }

    /// Sets the consensus stepsize γ ∈ (0, 1] applied after aggregation:
    /// `x^t = x^{t−½} + γ (Σ_j W_ji x_j^{t−½} − x^{t−½})`. The default
    /// `1.0` is the paper's plain mixing update; γ < 1 damps consensus,
    /// which keeps extreme sparsity stable. Validation rejects values
    /// outside `(0, 1]` with [`ConfigError::InvalidConsensusGamma`].
    pub fn consensus_gamma(mut self, gamma: f32) -> Self {
        let legacy = self.config.codec;
        self.config
            .compression
            .get_or_insert_with(|| CompressionSpec::uniform(legacy))
            .gamma = gamma;
        self
    }

    /// Caps the per-receiver error-feedback replica count (bounds
    /// feedback memory at `nodes × cap` model vectors under time-varying
    /// topologies; the stalest link is evicted and restarts cold). The
    /// unset default adapts to the base graph (`max(max degree, 16)`)
    /// and never evicts; an explicit cap below the in-degree trades
    /// residual memory for a hard bound — at the extreme, feedback
    /// degrades toward plain masked compression. Validation rejects
    /// `cap == 0` with [`ConfigError::ZeroReplicaCap`].
    pub fn feedback_replica_cap(mut self, cap: usize) -> Self {
        self.config.feedback_replica_cap = Some(cap);
        self
    }

    /// Validates and builds the raw configuration.
    pub fn build_config(self) -> Result<ExperimentConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validates and builds a runnable [`Experiment`].
    pub fn build(self) -> Result<Experiment, ConfigError> {
        Ok(Experiment {
            config: self.build_config()?,
        })
    }
}

/// A validated experiment: the only way to obtain one is through
/// validation, so its run methods never panic on configuration errors.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Starts a fluent builder with quick-scale defaults.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }

    /// Validates an existing configuration into an `Experiment`.
    pub fn from_config(config: ExperimentConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Unwraps the configuration (e.g. to hand to a [`Campaign`](crate::Campaign)).
    pub fn into_config(self) -> ExperimentConfig {
        self.config
    }

    /// Generates this experiment's data bundle.
    pub fn build_data(&self) -> DataBundle {
        self.config.data.build(self.config.nodes, self.config.seed)
    }

    /// Runs end to end: generates data, executes every round, returns the
    /// collected result.
    ///
    /// # Panics
    /// Panics if the engine fails mid-run (an internal scheduling bug);
    /// use [`Campaign::run_resilient`](crate::Campaign::run_resilient)
    /// for the fault-isolating path.
    pub fn run(&self) -> ExperimentResult {
        let data = self.build_data();
        // lint:allow(no_panic, "documented '# Panics' contract: run_resilient is the fault-isolating path")
        runner::execute(&self.config, &data, &mut []).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs on a pre-built bundle (campaigns and sweeps share bundles
    /// across runs).
    pub fn run_on(&self, data: &DataBundle) -> Result<ExperimentResult, ConfigError> {
        runner::run_with_observers(&self.config, data, &mut [])
    }

    /// Runs with caller-supplied observers hooked into the round loop.
    pub fn run_observed(
        &self,
        data: &DataBundle,
        observers: &mut [&mut dyn RoundObserver],
    ) -> Result<ExperimentResult, ConfigError> {
        runner::run_with_observers(&self.config, data, observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use skiptrain_engine::ModelCodec;

    /// Top-k (k = 64) on every link with error feedback at `beta`.
    fn top_k_feedback(beta: f32) -> CompressionSpec {
        CompressionSpec {
            feedback_beta: Some(beta),
            ..CompressionSpec::uniform(ModelCodec::TopK { k: 64 })
        }
    }

    #[test]
    fn builder_defaults_are_valid() {
        let experiment = Experiment::builder()
            .build()
            .expect("defaults must validate");
        assert!(experiment.config().nodes > 0);
    }

    #[test]
    fn constrained_without_battery_fraction_is_a_typed_error() {
        let err = Experiment::builder()
            .algorithm(AlgorithmSpec::SkipTrainConstrained(Schedule::new(4, 4)))
            .energy(EnergySpec::cifar10()) // no battery fraction
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::MissingBatteryFraction {
                algorithm: "skiptrain-constrained".into()
            }
        );
    }

    #[test]
    fn greedy_without_battery_fraction_is_a_typed_error() {
        let err = Experiment::builder()
            .algorithm(AlgorithmSpec::Greedy)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::MissingBatteryFraction { .. }));
    }

    #[test]
    fn zero_gamma_train_is_a_typed_error() {
        // through serde, as a config file arrives: `Schedule::new` asserts
        // Γ_train > 0 and deserialisation does not call it
        let mut energy = EnergySpec::cifar10();
        energy.battery_fraction = Some(0.5);
        for json in [
            r#"{"SkipTrain":{"gamma_train":0,"gamma_sync":0}}"#,
            r#"{"SkipTrainConstrained":{"gamma_train":0,"gamma_sync":4}}"#,
        ] {
            let algorithm: AlgorithmSpec = serde_json::from_str(json).unwrap();
            let builder = Experiment::builder()
                .algorithm(algorithm)
                .energy(energy.clone());
            // the policy constructors would panic on it: the typed-error
            // path must answer before reaching them, validated or not
            assert_eq!(
                builder.config.try_build_policy().err(),
                Some(ConfigError::ZeroGammaTrain),
                "{json}"
            );
            assert_eq!(
                builder.build().unwrap_err(),
                ConfigError::ZeroGammaTrain,
                "{json}"
            );
        }
    }

    #[test]
    fn zero_rounds_and_nodes_are_rejected() {
        assert_eq!(
            Experiment::builder().rounds(0).build().unwrap_err(),
            ConfigError::ZeroRounds
        );
        assert_eq!(
            Experiment::builder().nodes(0).build().unwrap_err(),
            ConfigError::ZeroNodes
        );
    }

    #[test]
    fn impossible_regular_topology_is_rejected() {
        let err = Experiment::builder()
            .nodes(6)
            .topology(TopologySpec::Regular { degree: 6 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::DegreeTooLarge {
                degree: 6,
                nodes: 6
            }
        );

        let err = Experiment::builder()
            .nodes(7)
            .topology(TopologySpec::Regular { degree: 3 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::OddDegreeProduct {
                degree: 3,
                nodes: 7
            }
        );
    }

    #[test]
    fn zero_top_k_compression_is_a_typed_error() {
        let err = Experiment::builder()
            .compression_policy(CompressionPolicy::Uniform(ModelCodec::TopK { k: 0 }))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroTopK);
        let top_k = CompressionPolicy::Uniform(ModelCodec::TopK { k: 64 });
        let ok = Experiment::builder()
            .compression_policy(top_k.clone())
            .build()
            .expect("positive k validates");
        assert_eq!(ok.config().effective_compression().policy, top_k);
    }

    #[test]
    fn out_of_range_feedback_beta_is_a_typed_error() {
        for bad in [0.0f32, -0.5, 1.5, f32::NAN, f32::INFINITY] {
            let err = Experiment::builder()
                .compression_spec(top_k_feedback(bad))
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::InvalidFeedbackBeta, "beta {bad}");
        }
        for good in [1.0f32, 0.5, 1e-3] {
            let ok = Experiment::builder()
                .compression_spec(top_k_feedback(good))
                .build()
                .expect("beta in (0,1] validates");
            assert_eq!(
                ok.config().effective_compression().feedback_beta,
                Some(good)
            );
        }
    }

    #[test]
    fn bad_topology_schedules_are_typed_errors() {
        use crate::experiment::TopologyScheduleSpec;
        use skiptrain_topology::Graph;

        for bad_p in [1.0f64, 1.5, -0.1, f64::NAN] {
            let err = Experiment::builder()
                .topology_schedule(TopologyScheduleSpec::EdgeDropout { p: bad_p })
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::InvalidEdgeDropout, "p = {bad_p}");
        }
        let err = Experiment::builder()
            .topology_schedule(TopologyScheduleSpec::Cycle(vec![]))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyTopologyCycle);

        let err = Experiment::builder()
            .nodes(16)
            .topology_schedule(TopologyScheduleSpec::Cycle(vec![
                Graph::ring(16),
                Graph::ring(12),
            ]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TopologyCycleSizeMismatch {
                index: 1,
                expected: 16,
                got: 12
            }
        );

        let ok = Experiment::builder()
            .nodes(16)
            .topology_schedule(TopologyScheduleSpec::EdgeDropout { p: 0.5 })
            .build()
            .expect("valid dropout schedule");
        assert_eq!(
            ok.config().topology_schedule,
            TopologyScheduleSpec::EdgeDropout { p: 0.5 }
        );
    }

    #[test]
    fn zero_replica_cap_is_a_typed_error() {
        let err = Experiment::builder()
            .compression_spec(top_k_feedback(1.0))
            .feedback_replica_cap(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroReplicaCap);
        let ok = Experiment::builder()
            .compression_spec(top_k_feedback(1.0))
            .feedback_replica_cap(4)
            .build()
            .expect("positive cap validates");
        assert_eq!(ok.config().feedback_replica_cap, Some(4));
    }

    #[test]
    fn default_replica_cap_adapts_to_the_base_graph_and_cycle() {
        use crate::experiment::{effective_replica_cap, TopologyScheduleSpec};
        use skiptrain_topology::Graph;
        let sched = TopologyScheduleSpec::Static;
        // dense graph: the default must cover the in-degree so an
        // unconfigured run never evicts (a sub-degree cap silently
        // degrades feedback toward plain masked compression)
        let dense = Graph::complete(40);
        assert_eq!(effective_replica_cap(None, &dense, &sched), 39);
        // sparse graph: floored at the engine default
        let sparse = Graph::ring(10);
        assert_eq!(
            effective_replica_cap(None, &sparse, &sched),
            skiptrain_engine::DEFAULT_REPLICA_CAP
        );
        // a cycle graph denser than the base must raise the default too
        let cycle = TopologyScheduleSpec::Cycle(vec![Graph::ring(40), Graph::complete(40)]);
        assert_eq!(effective_replica_cap(None, &sparse, &cycle), 39);
        // explicit settings are taken verbatim — the memory/accuracy
        // trade-off is the user's call
        assert_eq!(effective_replica_cap(Some(3), &dense, &sched), 3);
    }

    #[test]
    fn engine_default_cap_never_evicts_on_dense_static_graphs() {
        // Direct-engine users with an unset cap must keep full residual
        // memory on their own topology, even above DEFAULT_REPLICA_CAP
        // in-degrees — the adaptive default covers the graph.
        let mut cfg = crate::presets::cifar_config(crate::presets::Scale::Quick, 5);
        cfg.nodes = 20;
        cfg.rounds = 3;
        cfg.eval_max_samples = 50;
        cfg.topology = TopologySpec::Complete; // in-degree 19 > 16
        cfg.codec = ModelCodec::TopK { k: 32 };
        cfg.feedback_beta = Some(1.0);
        let result = cfg.run();
        assert_eq!(result.rounds, 3);
        assert!(result.final_mean_model.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn configs_without_schedule_fields_stay_loadable() {
        // serde-default bit-compatibility: a pre-schedule JSON config
        // (no `topology_schedule` / `feedback_replica_cap` keys) must
        // deserialize to the static schedule with the default cap.
        let base = crate::presets::cifar_config(crate::presets::Scale::Quick, 3);
        let mut json = serde_json::to_value(&base);
        match &mut json {
            serde_json::Value::Object(entries) => {
                let before = entries.len();
                entries.retain(|(k, _)| k != "topology_schedule" && k != "feedback_replica_cap");
                assert_eq!(
                    entries.len(),
                    before - 2,
                    "both fields must serialize by default"
                );
            }
            other => panic!("config must serialize to an object, got {other:?}"),
        }
        let legacy: crate::ExperimentConfig =
            serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert!(legacy.topology_schedule.is_static());
        assert_eq!(legacy.feedback_replica_cap, None);
        legacy.validate().expect("legacy config still validates");
    }

    #[test]
    fn configs_without_feedback_field_stay_loadable() {
        // serde-default bit-compatibility: a pre-feedback JSON config
        // (no `feedback_beta` key) must deserialize with feedback off and
        // produce the same validated config as before.
        let base = crate::presets::cifar_config(crate::presets::Scale::Quick, 3);
        let mut json = serde_json::to_value(&base);
        match &mut json {
            serde_json::Value::Object(entries) => {
                let before = entries.len();
                entries.retain(|(k, _)| k != "feedback_beta");
                assert_eq!(entries.len(), before - 1, "field must serialize by default");
            }
            other => panic!("config must serialize to an object, got {other:?}"),
        }
        let legacy: crate::ExperimentConfig =
            serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert_eq!(legacy.feedback_beta, None);
        legacy.validate().expect("legacy config still validates");
        assert_eq!(legacy.nodes, base.nodes);
    }

    #[test]
    fn bad_battery_specs_are_typed_errors() {
        use crate::experiment::{BatteryCapacitySpec, BatterySpec};
        use skiptrain_energy::battery::BatteryPolicy;
        use skiptrain_energy::trace::HarvestProfile;

        let valid = BatterySpec {
            capacity: BatteryCapacitySpec::Uniform { wh: 2.0 },
            initial_fraction: 0.5,
            harvest: HarvestProfile::Constant { watts: 1.0 },
            harvest_jitter: 0.0,
            policy: BatteryPolicy::Threshold { min_fraction: 0.2 },
            node_policies: None,
        };
        Experiment::builder()
            .battery(valid.clone())
            .build()
            .expect("valid battery spec must validate");

        for bad_wh in [0.0f64, -1.0, f64::NAN, f64::INFINITY] {
            let err = Experiment::builder()
                .battery(BatterySpec {
                    capacity: BatteryCapacitySpec::Uniform { wh: bad_wh },
                    ..valid.clone()
                })
                .build()
                .unwrap_err();
            assert_eq!(err, ConfigError::NonPositiveBatteryCapacity, "wh {bad_wh}");
        }
        let err = Experiment::builder()
            .battery(BatterySpec {
                capacity: BatteryCapacitySpec::Fleet { fraction: 1.5 },
                ..valid.clone()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveBatteryCapacity);

        for (suspend, resume) in [(0.5, 0.5), (0.6, 0.4), (-0.1, 0.5), (0.2, 1.1)] {
            let err = Experiment::builder()
                .battery(BatterySpec {
                    policy: BatteryPolicy::Hysteresis {
                        suspend_fraction: suspend,
                        resume_fraction: resume,
                    },
                    ..valid.clone()
                })
                .build()
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvertedHysteresisBands,
                "bands ({suspend}, {resume})"
            );
        }
        // ordered bands validate
        Experiment::builder()
            .battery(BatterySpec {
                policy: BatteryPolicy::Hysteresis {
                    suspend_fraction: 0.2,
                    resume_fraction: 0.4,
                },
                ..valid.clone()
            })
            .build()
            .expect("ordered hysteresis bands validate");

        let err = Experiment::builder()
            .battery(BatterySpec {
                policy: BatteryPolicy::Threshold { min_fraction: 0.0 },
                ..valid.clone()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBatteryPolicyFraction);

        let err = Experiment::builder()
            .battery(BatterySpec {
                initial_fraction: 1.5,
                ..valid.clone()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBatteryInitialFraction);

        let err = Experiment::builder()
            .battery(BatterySpec {
                harvest: HarvestProfile::Piecewise { watts: vec![] },
                ..valid.clone()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidHarvestProfile);

        let err = Experiment::builder()
            .battery(BatterySpec {
                harvest: HarvestProfile::Diurnal {
                    peak_watts: 1.0,
                    period_rounds: 0.0,
                },
                ..valid.clone()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidHarvestProfile);

        let err = Experiment::builder()
            .battery(BatterySpec {
                harvest_jitter: 2.0,
                ..valid
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidHarvestJitter);
    }

    #[test]
    fn configs_without_battery_field_stay_loadable() {
        // serde-default bit-compatibility: a pre-battery JSON config (no
        // `battery` key) must deserialize with the battery off.
        let base = crate::presets::cifar_config(crate::presets::Scale::Quick, 3);
        let mut json = serde_json::to_value(&base);
        match &mut json {
            serde_json::Value::Object(entries) => {
                let before = entries.len();
                entries.retain(|(k, _)| k != "battery");
                assert_eq!(entries.len(), before - 1, "field must serialize by default");
            }
            other => panic!("config must serialize to an object, got {other:?}"),
        }
        let legacy: crate::ExperimentConfig =
            serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert!(legacy.battery.is_none());
        legacy.validate().expect("legacy config still validates");
        assert_eq!(legacy.nodes, base.nodes);
    }

    #[test]
    fn bad_timing_and_churn_specs_are_typed_errors() {
        use skiptrain_engine::{ComputeProfile, LatencyModel};

        let err = Experiment::builder()
            .nodes(16)
            .timing(TimingSpec {
                compute: ComputeProfile::PerNode {
                    factors: vec![1.0; 4],
                },
                latency: LatencyModel::Zero,
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ComputeProfileArityMismatch {
                expected: 16,
                got: 4
            }
        );

        let err = Experiment::builder()
            .nodes(16)
            .timing(TimingSpec {
                compute: ComputeProfile::PerNode {
                    factors: vec![
                        1.0, -2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                        1.0,
                    ],
                },
                latency: LatencyModel::Zero,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidComputeProfile { value: -2.0 });

        let err = Experiment::builder()
            .timing(TimingSpec {
                compute: ComputeProfile::StragglerTail {
                    tail_prob: 1.5,
                    tail_factor: 4.0,
                },
                latency: LatencyModel::Zero,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidComputeProfile { value: 1.5 });

        let err = Experiment::builder()
            .timing(TimingSpec {
                compute: ComputeProfile::Homogeneous,
                latency: LatencyModel::Seeded {
                    mean_ticks: 1000,
                    jitter: 2.0,
                },
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidLatencyJitter { value: 2.0 });

        let err = Experiment::builder().churn(1.2, 0.5).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidChurnRate { value: 1.2 });
        let err = Experiment::builder().churn(0.1, -0.5).build().unwrap_err();
        assert_eq!(err, ConfigError::InvalidChurnRate { value: -0.5 });

        let ok = Experiment::builder()
            .timing(TimingSpec {
                compute: ComputeProfile::StragglerTail {
                    tail_prob: 0.2,
                    tail_factor: 4.0,
                },
                latency: LatencyModel::Constant { ticks: 500 },
            })
            .churn(0.05, 0.5)
            .build()
            .expect("valid timing and churn validate");
        assert_ne!(ok.config().timing, TimingSpec::default());
        assert_eq!(ok.config().churn.unwrap().leave_prob, 0.05);
    }

    #[test]
    fn mis_sized_per_node_battery_policies_are_a_typed_error() {
        use crate::experiment::{BatteryCapacitySpec, BatterySpec};
        use skiptrain_energy::battery::BatteryPolicy;
        use skiptrain_energy::trace::HarvestProfile;

        let spec = BatterySpec {
            capacity: BatteryCapacitySpec::Uniform { wh: 2.0 },
            initial_fraction: 0.5,
            harvest: HarvestProfile::Constant { watts: 1.0 },
            harvest_jitter: 0.0,
            policy: BatteryPolicy::AlwaysOn,
            node_policies: Some(vec![BatteryPolicy::AlwaysOn; 4]),
        };
        let err = Experiment::builder()
            .nodes(16)
            .battery(spec.clone())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BatteryPolicyArityMismatch {
                expected: 16,
                got: 4
            }
        );

        // each listed policy is validated like the fleet-wide one
        let mut bad_entry = spec.clone();
        bad_entry.node_policies = Some(
            std::iter::once(BatteryPolicy::Threshold { min_fraction: 2.0 })
                .chain(std::iter::repeat_n(BatteryPolicy::AlwaysOn, 15))
                .collect(),
        );
        let err = Experiment::builder()
            .nodes(16)
            .battery(bad_entry)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBatteryPolicyFraction);

        let mut ok = spec;
        ok.node_policies = Some(vec![BatteryPolicy::AlwaysOn; 16]);
        Experiment::builder()
            .nodes(16)
            .battery(ok)
            .build()
            .expect("matched per-node policy list validates");
    }

    #[test]
    fn configs_without_timing_or_churn_fields_stay_loadable() {
        // serde-default bit-compatibility: a pre-event JSON config (no
        // `timing` / `churn` keys) must deserialize to trivial timing and
        // no churn.
        let base = crate::presets::cifar_config(crate::presets::Scale::Quick, 3);
        let mut json = serde_json::to_value(&base);
        match &mut json {
            serde_json::Value::Object(entries) => {
                let before = entries.len();
                entries.retain(|(k, _)| k != "timing" && k != "churn");
                assert_eq!(
                    entries.len(),
                    before - 2,
                    "both fields must serialize by default"
                );
            }
            other => panic!("config must serialize to an object, got {other:?}"),
        }
        let legacy: crate::ExperimentConfig =
            serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert_eq!(legacy.timing, TimingSpec::default());
        assert!(legacy.churn.is_none());
        legacy.validate().expect("legacy config still validates");
    }

    #[test]
    fn compression_knob_reaches_the_config() {
        let quantized = CompressionPolicy::Uniform(ModelCodec::QuantizedU8);
        let experiment = Experiment::builder()
            .compression_policy(quantized.clone())
            .build()
            .unwrap();
        assert_eq!(
            experiment.config().effective_compression().policy,
            quantized
        );
    }

    #[test]
    fn builder_round_trips_an_existing_config() {
        let base = crate::presets::cifar_config(crate::presets::Scale::Quick, 7);
        let rebuilt = ExperimentBuilder::from_config(base.clone())
            .seed(9)
            .build_config()
            .unwrap();
        assert_eq!(rebuilt.nodes, base.nodes);
        assert_eq!(rebuilt.seed, 9);
    }

    #[test]
    fn run_on_reports_arity_mismatch() {
        let experiment = Experiment::builder().nodes(12).rounds(2).build().unwrap();
        let other = Experiment::builder().nodes(10).rounds(2).build().unwrap();
        let bundle = other.build_data();
        let err = experiment.run_on(&bundle).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::ArityMismatch {
                expected: 12,
                got: 10,
                ..
            }
        ));
    }
}
