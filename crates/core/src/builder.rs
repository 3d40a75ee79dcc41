//! Validated experiments: the one way to run one configuration.
//!
//! An [`ExperimentConfig`] is plain data — a preset
//! ([`cifar_config`](crate::presets::cifar_config),
//! [`femnist_config`](crate::presets::femnist_config)) plus public fields.
//! [`Experiment::from_config`] checks every cross-field invariant into a
//! typed [`ConfigError`] instead of letting an `assert!` fire mid-run, and
//! the [`Experiment`] it returns is the proof of validity
//! [`Experiment::run`] consumes.
//!
//! ```
//! use skiptrain_core::presets::{cifar_config, Scale};
//! use skiptrain_core::{AlgorithmSpec, Experiment, ExperimentConfig, Schedule, TopologySpec};
//!
//! let experiment = Experiment::from_config(ExperimentConfig {
//!     name: "quick-demo".into(),
//!     nodes: 16,
//!     rounds: 24,
//!     algorithm: AlgorithmSpec::SkipTrain(Schedule::new(4, 4)),
//!     topology: TopologySpec::Regular { degree: 4 },
//!     ..cifar_config(Scale::Quick, 42)
//! })
//! .expect("valid configuration");
//! assert_eq!(experiment.config().nodes, 16);
//! ```

use crate::error::{ConfigError, RunError};
use crate::experiment::{DataBundle, ExperimentConfig, ExperimentResult};
use crate::runner;

/// A validated experiment: the only way to obtain one is through
/// validation, so running it cannot fail on a configuration error.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Validates a configuration into an `Experiment`.
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

    /// Runs end to end on the experiment's own data: generates the bundle,
    /// executes every round, returns the collected result. A mid-run
    /// engine failure (an internal scheduling bug) is the typed
    /// [`RunError`] naming the round it broke on.
    ///
    /// To share one bundle across runs or to attach observers, call
    /// [`run_with_observers`](crate::run_with_observers); to run many
    /// configurations, build a [`Campaign`](crate::Campaign).
    pub fn run(&self) -> Result<ExperimentResult, RunError> {
        runner::execute(&self.config, &self.build_data(), &mut [])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{
        AlgorithmSpec, ChurnSpec, CompressionSpec, DataSpec, EnergySpec, TimingSpec, TopologySpec,
    };
    use crate::presets::{cifar_config, Scale};
    use crate::schedule::Schedule;
    use skiptrain_data::Partition;
    use skiptrain_engine::{CompressionPolicy, ModelCodec};

    /// The quick-scale preset every case below edits with struct-update
    /// syntax.
    fn base() -> ExperimentConfig {
        cifar_config(Scale::Quick, 42)
    }

    /// Top-k (k = 64) on every link with error feedback at `beta`.
    fn top_k_feedback(beta: f32) -> CompressionSpec {
        CompressionSpec {
            feedback_beta: Some(beta),
            ..CompressionSpec::uniform(ModelCodec::TopK { k: 64 })
        }
    }

    #[test]
    fn constrained_without_battery_fraction_is_a_typed_error() {
        let err = Experiment::from_config(ExperimentConfig {
            algorithm: AlgorithmSpec::SkipTrainConstrained(Schedule::new(4, 4)),
            energy: EnergySpec::cifar10(), // no battery fraction
            ..base()
        })
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
        let err = Experiment::from_config(ExperimentConfig {
            algorithm: AlgorithmSpec::Greedy,
            ..base()
        })
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
            let cfg = ExperimentConfig {
                algorithm,
                energy: energy.clone(),
                ..base()
            };
            // the policy constructors would panic on it: the typed-error
            // path must answer before reaching them, validated or not
            assert_eq!(
                cfg.try_build_policy().err(),
                Some(ConfigError::ZeroGammaTrain),
                "{json}"
            );
            assert_eq!(
                Experiment::from_config(cfg).unwrap_err(),
                ConfigError::ZeroGammaTrain,
                "{json}"
            );
        }
    }

    #[test]
    fn zero_rounds_and_nodes_are_rejected() {
        assert_eq!(
            Experiment::from_config(ExperimentConfig {
                rounds: 0,
                ..base()
            })
            .unwrap_err(),
            ConfigError::ZeroRounds
        );
        assert_eq!(
            Experiment::from_config(ExperimentConfig { nodes: 0, ..base() }).unwrap_err(),
            ConfigError::ZeroNodes
        );
    }

    #[test]
    fn impossible_regular_topology_is_rejected() {
        let err = Experiment::from_config(ExperimentConfig {
            nodes: 6,
            topology: TopologySpec::Regular { degree: 6 },
            ..base()
        })
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::DegreeTooLarge {
                degree: 6,
                nodes: 6
            }
        );

        let err = Experiment::from_config(ExperimentConfig {
            nodes: 7,
            topology: TopologySpec::Regular { degree: 3 },
            ..base()
        })
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
        let err = Experiment::from_config(ExperimentConfig {
            compression: Some(CompressionSpec {
                policy: CompressionPolicy::Uniform(ModelCodec::TopK { k: 0 }),
                ..CompressionSpec::default()
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroTopK);
        let top_k = CompressionPolicy::Uniform(ModelCodec::TopK { k: 64 });
        let ok = Experiment::from_config(ExperimentConfig {
            compression: Some(CompressionSpec {
                policy: top_k.clone(),
                ..CompressionSpec::default()
            }),
            ..base()
        })
        .expect("positive k validates");
        assert_eq!(ok.config().effective_compression().policy, top_k);
    }

    #[test]
    fn out_of_range_feedback_beta_is_a_typed_error() {
        for bad in [0.0f32, -0.5, 1.5, f32::NAN, f32::INFINITY] {
            let err = Experiment::from_config(ExperimentConfig {
                compression: Some(top_k_feedback(bad)),
                ..base()
            })
            .unwrap_err();
            assert_eq!(err, ConfigError::InvalidFeedbackBeta, "beta {bad}");
        }
        for good in [1.0f32, 0.5, 1e-3] {
            let ok = Experiment::from_config(ExperimentConfig {
                compression: Some(top_k_feedback(good)),
                ..base()
            })
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
            let err = Experiment::from_config(ExperimentConfig {
                topology_schedule: TopologyScheduleSpec::EdgeDropout { p: bad_p },
                ..base()
            })
            .unwrap_err();
            assert_eq!(err, ConfigError::InvalidEdgeDropout, "p = {bad_p}");
        }
        let err = Experiment::from_config(ExperimentConfig {
            topology_schedule: TopologyScheduleSpec::Cycle(vec![]),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::EmptyTopologyCycle);

        let err = Experiment::from_config(ExperimentConfig {
            nodes: 16,
            topology_schedule: TopologyScheduleSpec::Cycle(vec![Graph::ring(16), Graph::ring(12)]),
            ..base()
        })
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TopologyCycleSizeMismatch {
                index: 1,
                expected: 16,
                got: 12
            }
        );

        // A deserialized graph bypasses the constructors: missing
        // adjacency lists used to panic in the cell, and a one-sided edge
        // (node 1 drops node 0 from a ring) ran on a non-symmetric mixing.
        let ring = serde_json::to_string(&Graph::ring(12)).unwrap();
        let one_sided = ring.replacen("[0,2]", "[2]", 1);
        assert_ne!(one_sided, ring, "node 1's list is [0,2]");
        for json in [r#"{"n":12,"adj":[]}"#, one_sided.as_str()] {
            let malformed: Graph = serde_json::from_str(json).unwrap();
            let err = Experiment::from_config(ExperimentConfig {
                nodes: 12,
                topology_schedule: TopologyScheduleSpec::Cycle(vec![Graph::ring(12), malformed]),
                ..base()
            })
            .unwrap_err();
            assert_eq!(err, ConfigError::MalformedCycleGraph { index: 1 }, "{json}");
        }

        let ok = Experiment::from_config(ExperimentConfig {
            nodes: 16,
            topology_schedule: TopologyScheduleSpec::EdgeDropout { p: 0.5 },
            ..base()
        })
        .expect("valid dropout schedule");
        assert_eq!(
            ok.config().topology_schedule,
            TopologyScheduleSpec::EdgeDropout { p: 0.5 }
        );
    }

    #[test]
    fn zero_replica_cap_is_a_typed_error() {
        let err = Experiment::from_config(ExperimentConfig {
            compression: Some(top_k_feedback(1.0)),
            feedback_replica_cap: Some(0),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroReplicaCap);
        let ok = Experiment::from_config(ExperimentConfig {
            compression: Some(top_k_feedback(1.0)),
            feedback_replica_cap: Some(4),
            ..base()
        })
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
        let result = Experiment::from_config(cfg).unwrap().run().unwrap();
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
        assert_eq!(
            legacy.topology_schedule,
            crate::TopologyScheduleSpec::Static
        );
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
        Experiment::from_config(ExperimentConfig {
            battery: Some(valid.clone()),
            ..base()
        })
        .expect("valid battery spec must validate");

        for bad_wh in [0.0f64, -1.0, f64::NAN, f64::INFINITY] {
            let err = Experiment::from_config(ExperimentConfig {
                battery: Some(BatterySpec {
                    capacity: BatteryCapacitySpec::Uniform { wh: bad_wh },
                    ..valid.clone()
                }),
                ..base()
            })
            .unwrap_err();
            assert_eq!(err, ConfigError::NonPositiveBatteryCapacity, "wh {bad_wh}");
        }
        let err = Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                capacity: BatteryCapacitySpec::Fleet { fraction: 1.5 },
                ..valid.clone()
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveBatteryCapacity);

        for (suspend, resume) in [(0.5, 0.5), (0.6, 0.4), (-0.1, 0.5), (0.2, 1.1)] {
            let err = Experiment::from_config(ExperimentConfig {
                battery: Some(BatterySpec {
                    policy: BatteryPolicy::Hysteresis {
                        suspend_fraction: suspend,
                        resume_fraction: resume,
                    },
                    ..valid.clone()
                }),
                ..base()
            })
            .unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvertedHysteresisBands,
                "bands ({suspend}, {resume})"
            );
        }
        // ordered bands validate
        Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                policy: BatteryPolicy::Hysteresis {
                    suspend_fraction: 0.2,
                    resume_fraction: 0.4,
                },
                ..valid.clone()
            }),
            ..base()
        })
        .expect("ordered hysteresis bands validate");

        let err = Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                policy: BatteryPolicy::Threshold { min_fraction: 0.0 },
                ..valid.clone()
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBatteryPolicyFraction);

        let err = Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                initial_fraction: 1.5,
                ..valid.clone()
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBatteryInitialFraction);

        let err = Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                harvest: HarvestProfile::Piecewise { watts: vec![] },
                ..valid.clone()
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidHarvestProfile);

        let err = Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                harvest: HarvestProfile::Diurnal {
                    peak_watts: 1.0,
                    period_rounds: 0.0,
                },
                ..valid.clone()
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidHarvestProfile);

        let err = Experiment::from_config(ExperimentConfig {
            battery: Some(BatterySpec {
                harvest_jitter: 2.0,
                ..valid
            }),
            ..base()
        })
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

        let err = Experiment::from_config(ExperimentConfig {
            nodes: 16,
            timing: TimingSpec {
                compute: ComputeProfile::PerNode {
                    factors: vec![1.0; 4],
                },
                latency: LatencyModel::Zero,
            },
            ..base()
        })
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ComputeProfileArityMismatch {
                expected: 16,
                got: 4
            }
        );

        let err = Experiment::from_config(ExperimentConfig {
            nodes: 16,
            timing: TimingSpec {
                compute: ComputeProfile::PerNode {
                    factors: vec![
                        1.0, -2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                        1.0,
                    ],
                },
                latency: LatencyModel::Zero,
            },
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidComputeProfile { value: -2.0 });

        let err = Experiment::from_config(ExperimentConfig {
            timing: TimingSpec {
                compute: ComputeProfile::StragglerTail {
                    tail_prob: 1.5,
                    tail_factor: 4.0,
                },
                latency: LatencyModel::Zero,
            },
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidComputeProfile { value: 1.5 });

        let err = Experiment::from_config(ExperimentConfig {
            timing: TimingSpec {
                compute: ComputeProfile::Homogeneous,
                latency: LatencyModel::Seeded {
                    mean_ticks: 1000,
                    jitter: 2.0,
                },
            },
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidLatencyJitter { value: 2.0 });

        let err = Experiment::from_config(ExperimentConfig {
            churn: Some(ChurnSpec {
                leave_prob: 1.2,
                rejoin_prob: 0.5,
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidChurnRate { value: 1.2 });
        let err = Experiment::from_config(ExperimentConfig {
            churn: Some(ChurnSpec {
                leave_prob: 0.1,
                rejoin_prob: -0.5,
            }),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidChurnRate { value: -0.5 });

        let ok = Experiment::from_config(ExperimentConfig {
            timing: TimingSpec {
                compute: ComputeProfile::StragglerTail {
                    tail_prob: 0.2,
                    tail_factor: 4.0,
                },
                latency: LatencyModel::Constant { ticks: 500 },
            },
            churn: Some(ChurnSpec {
                leave_prob: 0.05,
                rejoin_prob: 0.5,
            }),
            ..base()
        })
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
        let err = Experiment::from_config(ExperimentConfig {
            nodes: 16,
            battery: Some(spec.clone()),
            ..base()
        })
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
        let err = Experiment::from_config(ExperimentConfig {
            nodes: 16,
            battery: Some(bad_entry),
            ..base()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidBatteryPolicyFraction);

        let mut ok = spec;
        ok.node_policies = Some(vec![BatteryPolicy::AlwaysOn; 16]);
        Experiment::from_config(ExperimentConfig {
            nodes: 16,
            battery: Some(ok),
            ..base()
        })
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
    fn hostile_values_are_typed_errors_and_their_neighbours_run() {
        // every value below used to pass `validate` and then trip an
        // `assert!` in `topology` / `data` while the cell was being built
        let small = || ExperimentConfig {
            nodes: 8,
            rounds: 1,
            eval_max_samples: 50,
            ..base()
        };
        let cifar_like = |feature_dim, shards_per_node, modes_per_class| DataSpec::CifarLike {
            feature_dim,
            samples_per_node: 20,
            test_samples: 100,
            shards_per_node,
            separation: 1.2,
            noise: 0.8,
            modes_per_class,
        };
        let partitioned = |partition, samples_per_node, test_samples| DataSpec::CifarPartitioned {
            feature_dim: 8,
            samples_per_node,
            test_samples,
            partition,
            separation: 1.2,
            noise: 0.8,
            modes_per_class: 1,
        };
        let regular = |nodes, degree| ExperimentConfig {
            nodes,
            topology: TopologySpec::Regular { degree },
            ..small()
        };
        let with_data = |data| ExperimentConfig { data, ..small() };
        let dirichlet = |alpha| with_data(partitioned(Partition::Dirichlet { alpha }, 20, 100));

        let mut rejected = vec![
            (regular(8, 0), ConfigError::ZeroDegree),
            (
                ExperimentConfig {
                    nodes: 2,
                    topology: TopologySpec::Ring,
                    ..small()
                },
                ConfigError::RingTooSmall { nodes: 2 },
            ),
            (with_data(cifar_like(0, 2, 1)), ConfigError::ZeroFeatureDim),
            (
                with_data(cifar_like(8, 2, 0)),
                ConfigError::ZeroModesPerClass,
            ),
            (
                with_data(cifar_like(8, 0, 1)),
                ConfigError::InvalidShardsPerNode {
                    shards_per_node: 0,
                    samples_per_node: 20,
                },
            ),
            (
                with_data(partitioned(
                    Partition::Shards { shards_per_node: 0 },
                    20,
                    100,
                )),
                ConfigError::InvalidShardsPerNode {
                    shards_per_node: 0,
                    samples_per_node: 20,
                },
            ),
            (
                with_data(cifar_like(8, 21, 1)),
                ConfigError::InvalidShardsPerNode {
                    shards_per_node: 21,
                    samples_per_node: 20,
                },
            ),
            // the cases `validate` already typed
            (regular(0, 4), ConfigError::ZeroNodes),
            (
                ExperimentConfig {
                    rounds: 0,
                    ..small()
                },
                ConfigError::ZeroRounds,
            ),
            (
                ExperimentConfig {
                    batch_size: 0,
                    ..small()
                },
                ConfigError::ZeroBatchSize,
            ),
            (
                ExperimentConfig {
                    local_steps: 0,
                    ..small()
                },
                ConfigError::ZeroLocalSteps,
            ),
            // validated, and then every accuracy read 0 % with exit 0
            (
                ExperimentConfig {
                    eval_max_samples: 0,
                    ..small()
                },
                ConfigError::ZeroEvalSamples,
            ),
            (
                ExperimentConfig {
                    learning_rate: 0.0,
                    ..small()
                },
                ConfigError::NonPositiveLearningRate,
            ),
            (
                regular(8, 8),
                ConfigError::DegreeTooLarge {
                    degree: 8,
                    nodes: 8,
                },
            ),
            (
                regular(7, 3),
                ConfigError::OddDegreeProduct {
                    degree: 3,
                    nodes: 7,
                },
            ),
            (
                with_data(partitioned(Partition::Iid, 0, 100)),
                ConfigError::EmptyNodeData,
            ),
            (
                with_data(partitioned(Partition::Iid, 20, 0)),
                ConfigError::EmptyEvalData,
            ),
        ];
        for alpha in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            rejected.push((
                dirichlet(alpha),
                ConfigError::InvalidDirichletAlpha { value: alpha },
            ));
        }
        for (cfg, want) in rejected {
            let got = Experiment::from_config(cfg).unwrap_err();
            // compared as text: a NaN payload is not equal to itself
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert!(!got.to_string().is_empty());
        }

        let accepted = [
            regular(8, 1),
            ExperimentConfig {
                nodes: 3,
                topology: TopologySpec::Ring,
                ..small()
            },
            with_data(cifar_like(8, 2, 1)),
            with_data(cifar_like(8, 1, 1)),
            with_data(cifar_like(1, 20, 1)),
            dirichlet(0.5),
        ];
        for cfg in accepted {
            let label = format!("{:?} / {:?}", cfg.topology, cfg.data);
            let result = Experiment::from_config(cfg)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(result.rounds, 1, "{label}");
        }
    }

    #[test]
    fn a_mismatched_bundle_is_a_typed_error() {
        let experiment = Experiment::from_config(ExperimentConfig {
            nodes: 12,
            rounds: 2,
            ..base()
        })
        .unwrap();
        let other = Experiment::from_config(ExperimentConfig {
            nodes: 10,
            rounds: 2,
            ..base()
        })
        .unwrap();
        let bundle = other.build_data();
        let err = runner::run_with_observers(experiment.config(), &bundle, &mut []).unwrap_err();
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
