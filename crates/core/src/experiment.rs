//! Experiment configuration and results.
//!
//! An [`ExperimentConfig`] fully describes one run of the paper's evaluation
//! pipeline — dataset synthesis and partitioning, topology and mixing
//! matrix, per-node models, the algorithm (policy), energy traces. Configs
//! are assembled from a preset plus public fields, validated into typed
//! [`ConfigError`]s by
//! [`Experiment::from_config`](crate::Experiment::from_config), and executed
//! one at a time ([`Experiment::run`](crate::Experiment::run)) or in
//! parallel batches over shared data ([`Campaign`](crate::Campaign)).

use crate::error::ConfigError;
use crate::policy::{
    AsyncGossipPolicy, ConstrainedPolicy, DPsgdPolicy, GreedyPolicy, RoundPolicy, SkipTrainPolicy,
};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use skiptrain_data::synth::{cifar_partitioned, femnist_like, MixtureSpec};
use skiptrain_data::{Dataset, Partition};
use skiptrain_energy::battery::{BatteryPolicy, BatterySetup, BatteryState};
use skiptrain_energy::device::fleet;
use skiptrain_energy::trace::{
    fleet_round_duration_s, round_energy_wh, training_budget_rounds, HarvestProfile, HarvestTrace,
    WorkloadSpec,
};
use skiptrain_engine::metrics::{AccuracyPoint, EvalStats};
use skiptrain_engine::{
    ChurnModel, CompressionPolicy, ComputeProfile, LatencyModel, ModelCodec, TransportKind,
};
use skiptrain_linalg::rng::derive_seed;
use skiptrain_nn::zoo::ModelKind;
use skiptrain_topology::regular::random_regular;
use skiptrain_topology::Graph;
use std::sync::Arc;

/// Which algorithm to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// D-PSGD (Algorithm 1) — train every round.
    DPsgd,
    /// SkipTrain (§3.1) with a coordinated schedule.
    SkipTrain(Schedule),
    /// SkipTrain-constrained (§3.2): schedule + Eq. 5 probabilities +
    /// battery budgets (requires `EnergySpec::battery_fraction`).
    SkipTrainConstrained(Schedule),
    /// Greedy baseline (§3.2): train until the budget is gone.
    Greedy,
    /// Asynchronous pairwise gossip (§5.3): each tick every node trains
    /// with probability `activation_prob`, a random maximal matching of
    /// the (scheduled) topology averages pairwise, and the tick closes a
    /// fixed slack after its slowest completion instead of at a barrier.
    AsyncGossip {
        /// Per-node, per-tick training probability `q ∈ [0, 1]`.
        activation_prob: f64,
    },
}

impl AlgorithmSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::DPsgd => "d-psgd",
            AlgorithmSpec::SkipTrain(_) => "skiptrain",
            AlgorithmSpec::SkipTrainConstrained(_) => "skiptrain-constrained",
            AlgorithmSpec::Greedy => "greedy",
            AlgorithmSpec::AsyncGossip { .. } => "async-gossip",
        }
    }
}

/// Communication topology family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Random d-regular graph (the paper's setting).
    Regular {
        /// Node degree.
        degree: usize,
    },
    /// Fully-connected graph (all-reduce communication pattern).
    Complete,
    /// Ring.
    Ring,
}

impl TopologySpec {
    /// Builds the graph.
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        match self {
            TopologySpec::Regular { degree } => random_regular(n, *degree, seed),
            TopologySpec::Complete => Graph::complete(n),
            TopologySpec::Ring => Graph::ring(n),
        }
    }
}

/// Time-varying topology schedule, in serializable configuration form.
///
/// This is the experiment-layer face of
/// [`TopologySchedule`](skiptrain_topology::TopologySchedule): every
/// variant here maps onto the topology-layer enum with per-schedule seeds
/// chained from the experiment's master seed ([`derive_seed`]), so two
/// schedules in one experiment never share a random stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum TopologyScheduleSpec {
    /// The configured topology every round (the paper's static setting,
    /// and the serde default — legacy JSON configs load unchanged).
    #[default]
    Static,
    /// Cycle through an explicit list of graphs: round `t` uses
    /// `graphs[t % len]`.
    Cycle(Vec<Graph>),
    /// Drop every edge of the round's base graph independently with
    /// probability `p` each round (duty-cycled radios).
    EdgeDropout {
        /// Per-edge, per-round drop probability in `[0, 1)`.
        p: f64,
    },
    /// A random maximal matching of the base graph fires each round
    /// (pairwise gossip as a graph schedule).
    PairwiseMatching,
}

impl TopologyScheduleSpec {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyScheduleSpec::Static => "static",
            TopologyScheduleSpec::Cycle(_) => "cycle",
            TopologyScheduleSpec::EdgeDropout { .. } => "edge-dropout",
            TopologyScheduleSpec::PairwiseMatching => "pairwise-matching",
        }
    }

    /// Checks schedule invariants against the experiment's node count.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        match self {
            TopologyScheduleSpec::Static | TopologyScheduleSpec::PairwiseMatching => Ok(()),
            TopologyScheduleSpec::EdgeDropout { p } => {
                if p.is_finite() && (0.0..1.0).contains(p) {
                    Ok(())
                } else {
                    Err(ConfigError::InvalidEdgeDropout)
                }
            }
            TopologyScheduleSpec::Cycle(graphs) => {
                if graphs.is_empty() {
                    return Err(ConfigError::EmptyTopologyCycle);
                }
                for (index, g) in graphs.iter().enumerate() {
                    if g.len() != nodes {
                        return Err(ConfigError::TopologyCycleSizeMismatch {
                            index,
                            expected: nodes,
                            got: g.len(),
                        });
                    }
                    if g.validate().is_err() {
                        return Err(ConfigError::MalformedCycleGraph { index });
                    }
                }
                Ok(())
            }
        }
    }

    /// Lowers the spec onto the topology layer, deriving per-schedule
    /// seeds from the experiment's master seed.
    pub fn build(&self, master_seed: u64) -> skiptrain_topology::TopologySchedule {
        use skiptrain_topology::TopologySchedule;
        match self {
            TopologyScheduleSpec::Static => TopologySchedule::Static,
            TopologyScheduleSpec::Cycle(graphs) => TopologySchedule::Cycle(graphs.clone()),
            TopologyScheduleSpec::EdgeDropout { p } => TopologySchedule::EdgeDropout {
                p: *p,
                seed: derive_seed(master_seed, 0x7D70),
            },
            TopologyScheduleSpec::PairwiseMatching => TopologySchedule::PairwiseMatching {
                seed: derive_seed(master_seed, 0x7D71),
            },
        }
    }

    /// Binds the schedule to a built base graph — the one producer of every
    /// round's mixing the runner steps, the static schedule included (its
    /// one periodic matrix is the base graph's MH matrix).
    ///
    /// # Panics
    /// Panics with the schedule's own diagnosis (e.g. a mis-sized cycle
    /// graph) when the spec does not fit `base` — run
    /// [`TopologyScheduleSpec::validate`] first (the runner and campaign
    /// paths do) to get the typed [`ConfigError`] instead.
    pub fn bind(&self, base: &Graph, master_seed: u64) -> skiptrain_topology::ScheduledTopology {
        skiptrain_topology::ScheduledTopology::try_new(base.clone(), self.build(master_seed))
            // lint:allow(no_panic, "schedule parameters were validated by cfg.validate() before this point")
            .unwrap_or_else(|e| panic!("invalid topology schedule: {e}"))
    }
}

/// The error-feedback replica cap an experiment runs with: the explicit
/// setting when given, else a default sized to the base graph — enough
/// links per receiver for its maximum degree (a static or base-subset
/// schedule then never evicts, since the replica census is already
/// bounded by the actual links), floored at
/// [`skiptrain_engine::DEFAULT_REPLICA_CAP`]. A cap *below* the
/// in-degree silently downgrades error feedback toward plain masked
/// compression (most links restart cold every round), so that trade-off
/// is reserved for explicit `feedback_replica_cap` settings.
pub(crate) fn effective_replica_cap(
    explicit: Option<usize>,
    base: &Graph,
    schedule: &TopologyScheduleSpec,
) -> usize {
    explicit.unwrap_or_else(|| {
        // The in-degree bound must cover every graph the schedule can put
        // in effect: the base graph for Static/EdgeDropout/PairwiseMatching
        // (whose round graphs are subsets of it), plus each cycle graph —
        // a cycle may legally be denser than the base topology.
        let mut degree = base.degree_range().1;
        if let TopologyScheduleSpec::Cycle(graphs) = schedule {
            for g in graphs {
                degree = degree.max(g.degree_range().1);
            }
        }
        degree.max(skiptrain_engine::DEFAULT_REPLICA_CAP)
    })
}

/// Virtual-time realism knobs for the event-driven engine.
///
/// This is the experiment-layer face of the engine's
/// [`ComputeProfile`] and [`LatencyModel`]: how long each node's
/// training round takes in virtual ticks, and how long each message
/// spends in flight. The default — homogeneous compute, zero latency —
/// reproduces the legacy lockstep results bit for bit, and
/// `#[serde(default)]` keeps every pre-event JSON config loadable
/// unchanged. Under the synchronous runner's barrier semantics these
/// knobs stretch virtual time without changing learning curves; under
/// async gossip's deadline semantics they decide which messages arrive
/// too late to aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TimingSpec {
    /// Per-node training-round duration model.
    #[serde(default)]
    pub compute: ComputeProfile,
    /// Per-link message-delay model.
    #[serde(default)]
    pub latency: LatencyModel,
}

impl TimingSpec {
    /// Checks timing invariants against the experiment's node count.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        match &self.compute {
            ComputeProfile::Homogeneous => {}
            ComputeProfile::PerNode { factors } => {
                if factors.len() != nodes {
                    return Err(ConfigError::ComputeProfileArityMismatch {
                        expected: nodes,
                        got: factors.len(),
                    });
                }
                for &f in factors {
                    if !(f.is_finite() && f > 0.0) {
                        return Err(ConfigError::InvalidComputeProfile { value: f });
                    }
                }
            }
            ComputeProfile::StragglerTail {
                tail_prob,
                tail_factor,
            } => {
                if !(tail_prob.is_finite() && (0.0..=1.0).contains(tail_prob)) {
                    return Err(ConfigError::InvalidComputeProfile { value: *tail_prob });
                }
                if !(tail_factor.is_finite() && *tail_factor >= 1.0) {
                    return Err(ConfigError::InvalidComputeProfile {
                        value: *tail_factor,
                    });
                }
            }
        }
        if let LatencyModel::Seeded { jitter, .. } = self.latency {
            if !(jitter.is_finite() && (0.0..=1.0).contains(&jitter)) {
                return Err(ConfigError::InvalidLatencyJitter { value: jitter });
            }
        }
        Ok(())
    }
}

/// Node churn specification: seeded per-round leave/rejoin probabilities.
///
/// This is the experiment-layer face of the engine's [`ChurnModel`]. An
/// absent node freezes — no training, no messages, no energy — and its
/// mixing row collapses to identity, so the ledger's conservation
/// invariants hold exactly through arbitrary churn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Per-round probability that a present node leaves.
    pub leave_prob: f64,
    /// Per-round probability that an absent node rejoins.
    pub rejoin_prob: f64,
}

impl ChurnSpec {
    /// Checks churn invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for p in [self.leave_prob, self.rejoin_prob] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(ConfigError::InvalidChurnRate { value: p });
            }
        }
        Ok(())
    }

    /// Lowers the spec onto the engine's churn model.
    pub fn build(&self) -> ChurnModel {
        ChurnModel {
            leave_prob: self.leave_prob,
            rejoin_prob: self.rejoin_prob,
        }
    }
}

/// End-of-run event-engine totals for one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct EventSummary {
    /// Virtual time at the end of the run, in engine ticks.
    pub virtual_ticks: u64,
    /// Total timeline events (policy ticks, joins, leaves, completions,
    /// arrivals, eval ticks).
    pub events: u64,
    /// Messages that missed their round deadline (always 0 under barrier
    /// semantics).
    pub late_messages: u64,
    /// Node rejoin events.
    pub joins: u64,
    /// Node leave events.
    pub leaves: u64,
}

/// Synthetic dataset family (see `skiptrain-data` for the substitution
/// rationale).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataSpec {
    /// CIFAR-10-like shared pool with sort-by-label sharding (§4.2).
    CifarLike {
        /// Feature dimensionality.
        feature_dim: usize,
        /// Training samples per node.
        samples_per_node: usize,
        /// Test-pool size (split 50/50 into validation/test).
        test_samples: usize,
        /// Shards per node (2 = the paper's setting).
        shards_per_node: usize,
        /// Class-center separation (task difficulty).
        separation: f32,
        /// Within-class noise (task difficulty).
        noise: f32,
        /// Sub-clusters per class (task nonlinearity).
        modes_per_class: usize,
    },
    /// CIFAR-10-like shared pool under an arbitrary partitioner (IID /
    /// Dirichlet / shards) — used by heterogeneity ablations.
    CifarPartitioned {
        /// Feature dimensionality.
        feature_dim: usize,
        /// Training samples per node.
        samples_per_node: usize,
        /// Test-pool size (split 50/50 into validation/test).
        test_samples: usize,
        /// The partitioner.
        partition: skiptrain_data::Partition,
        /// Class-center separation (task difficulty).
        separation: f32,
        /// Within-class noise (task difficulty).
        noise: f32,
        /// Sub-clusters per class (task nonlinearity).
        modes_per_class: usize,
    },
    /// FEMNIST-like per-writer data (natural non-IID).
    FemnistLike {
        /// Feature dimensionality.
        feature_dim: usize,
        /// Training samples per writer/node.
        samples_per_node: usize,
        /// Test-pool size (split 50/50 into validation/test).
        test_samples: usize,
        /// Writer-style strength in `[0, 1]`.
        style_strength: f32,
        /// Class-center separation (task difficulty).
        separation: f32,
        /// Within-class noise (task difficulty).
        noise: f32,
        /// Sub-clusters per class (task nonlinearity).
        modes_per_class: usize,
    },
}

impl DataSpec {
    /// Number of classes in the task.
    pub fn num_classes(&self) -> usize {
        match self {
            DataSpec::CifarLike { .. } | DataSpec::CifarPartitioned { .. } => 10,
            DataSpec::FemnistLike { .. } => 47,
        }
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        match self {
            DataSpec::CifarLike { feature_dim, .. }
            | DataSpec::CifarPartitioned { feature_dim, .. }
            | DataSpec::FemnistLike { feature_dim, .. } => *feature_dim,
        }
    }

    /// The generator parameters every variant carries.
    fn mixture_spec(&self) -> MixtureSpec {
        let (DataSpec::CifarLike {
            separation,
            noise,
            modes_per_class,
            ..
        }
        | DataSpec::CifarPartitioned {
            separation,
            noise,
            modes_per_class,
            ..
        }
        | DataSpec::FemnistLike {
            separation,
            noise,
            modes_per_class,
            ..
        }) = self;
        MixtureSpec {
            num_classes: self.num_classes(),
            feature_dim: self.feature_dim(),
            modes_per_class: *modes_per_class,
            separation: *separation,
            noise: *noise,
        }
    }

    /// The invariants the generators and partitioners assert.
    fn check(&self) -> Result<(), ConfigError> {
        let samples_per_node = self.samples_per_node();
        if samples_per_node == 0 {
            return Err(ConfigError::EmptyNodeData);
        }
        if self.test_samples() == 0 {
            return Err(ConfigError::EmptyEvalData);
        }
        if self.feature_dim() == 0 {
            return Err(ConfigError::ZeroFeatureDim);
        }
        if self.mixture_spec().modes_per_class == 0 {
            return Err(ConfigError::ZeroModesPerClass);
        }
        match self {
            DataSpec::CifarLike {
                shards_per_node, ..
            }
            | DataSpec::CifarPartitioned {
                partition: Partition::Shards { shards_per_node },
                ..
            } => {
                if !(1..=samples_per_node).contains(shards_per_node) {
                    return Err(ConfigError::InvalidShardsPerNode {
                        shards_per_node: *shards_per_node,
                        samples_per_node,
                    });
                }
            }
            DataSpec::CifarPartitioned {
                partition: Partition::Dirichlet { alpha },
                ..
            } => {
                if !(alpha.is_finite() && *alpha > 0.0) {
                    return Err(ConfigError::InvalidDirichletAlpha { value: *alpha });
                }
            }
            DataSpec::CifarPartitioned {
                partition: Partition::Iid,
                ..
            }
            | DataSpec::FemnistLike { .. } => {}
        }
        Ok(())
    }

    /// Generates per-node datasets plus validation/test splits, each row
    /// drawn straight into the dataset it ends in.
    pub fn build(&self, n: usize, seed: u64) -> DataBundle {
        let spec = self.mixture_spec();
        let (samples, test_samples) = (self.samples_per_node(), self.test_samples());
        // `CifarLike` is the shards partition spelled as a field.
        let (node_datasets, splits) = match self {
            DataSpec::CifarLike {
                shards_per_node, ..
            } => {
                let shards = Partition::Shards {
                    shards_per_node: *shards_per_node,
                };
                cifar_partitioned(&spec, n, samples, test_samples, &shards, seed)
            }
            DataSpec::CifarPartitioned { partition, .. } => {
                cifar_partitioned(&spec, n, samples, test_samples, partition, seed)
            }
            DataSpec::FemnistLike { style_strength, .. } => {
                femnist_like(&spec, n, samples, test_samples, *style_strength, seed)
            }
        };
        DataBundle::from_parts(node_datasets, splits.validation, splits.test)
    }

    /// Training samples generated per node.
    pub fn samples_per_node(&self) -> usize {
        match self {
            DataSpec::CifarLike {
                samples_per_node, ..
            }
            | DataSpec::CifarPartitioned {
                samples_per_node, ..
            }
            | DataSpec::FemnistLike {
                samples_per_node, ..
            } => *samples_per_node,
        }
    }

    /// Size of the evaluation pool (split into validation/test).
    pub fn test_samples(&self) -> usize {
        match self {
            DataSpec::CifarLike { test_samples, .. }
            | DataSpec::CifarPartitioned { test_samples, .. }
            | DataSpec::FemnistLike { test_samples, .. } => *test_samples,
        }
    }
}

/// Generated data for one experiment.
///
/// Every dataset sits behind an `Arc`: cloning a bundle reference into a
/// simulation (or sharing one bundle across all runs of a
/// [`Campaign`](crate::Campaign)) is pointer-cheap, never a deep copy.
#[derive(Debug, Clone)]
pub struct DataBundle {
    /// One private training set per node.
    pub node_datasets: Vec<Arc<Dataset>>,
    /// Validation set (hyperparameter tuning).
    pub validation: Arc<Dataset>,
    /// Test set (reported accuracy).
    pub test: Arc<Dataset>,
}

impl DataBundle {
    /// Wraps freshly materialized datasets into a shareable bundle.
    pub fn from_parts(node_datasets: Vec<Dataset>, validation: Dataset, test: Dataset) -> Self {
        Self {
            node_datasets: node_datasets.into_iter().map(Arc::new).collect(),
            validation: Arc::new(validation),
            test: Arc::new(test),
        }
    }
}

/// Energy accounting setup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergySpec {
    /// Nominal Table-1 workload used for energy math (decoupled from the
    /// reduced synthetic simulation models).
    pub workload: WorkloadSpec,
    /// `Some(fraction)` enables the constrained setting: per-node budgets τ
    /// equal the rounds needed to spend `fraction` of each device battery.
    pub battery_fraction: Option<f64>,
    /// Radio energy per transmitted/received byte (J). `None` keeps the
    /// paper-fit default; overriding it moves a fleet into a
    /// comm-dominated regime where per-link codec choice controls real
    /// battery spend (the adaptive-compression frontier). Absent from
    /// legacy configs, so deserialization defaults it.
    #[serde(default)]
    pub comm_joules_per_byte: Option<f64>,
}

impl EnergySpec {
    /// Unconstrained CIFAR-10 energy accounting.
    pub fn cifar10() -> Self {
        Self {
            workload: WorkloadSpec::cifar10(),
            battery_fraction: None,
            comm_joules_per_byte: None,
        }
    }

    /// Constrained CIFAR-10 (10 % battery, §4.2).
    pub fn cifar10_constrained() -> Self {
        Self {
            workload: WorkloadSpec::cifar10(),
            battery_fraction: Some(skiptrain_energy::trace::CIFAR_BATTERY_FRACTION),
            comm_joules_per_byte: None,
        }
    }

    /// Unconstrained FEMNIST energy accounting.
    pub fn femnist() -> Self {
        Self {
            workload: WorkloadSpec::femnist(),
            battery_fraction: None,
            comm_joules_per_byte: None,
        }
    }

    /// Constrained FEMNIST (50 % battery, §4.2).
    pub fn femnist_constrained() -> Self {
        Self {
            workload: WorkloadSpec::femnist(),
            battery_fraction: Some(skiptrain_energy::trace::FEMNIST_BATTERY_FRACTION),
            comm_joules_per_byte: None,
        }
    }

    /// Rescales the battery fraction so the budget-to-opportunity ratio
    /// τ/T_train at `rounds` matches what the paper's setting produces at
    /// `paper_rounds` (used when running the constrained experiments at
    /// reduced scale).
    pub fn scaled_for_rounds(&self, rounds: usize, paper_rounds: usize) -> EnergySpec {
        EnergySpec {
            workload: self.workload,
            battery_fraction: self
                .battery_fraction
                .map(|f| f * rounds as f64 / paper_rounds as f64),
            comm_joules_per_byte: self.comm_joules_per_byte,
        }
    }

    /// Per-node training-round energies (Wh) for an `n`-node fleet.
    pub fn node_energies(&self, n: usize) -> Vec<f64> {
        fleet(n)
            .iter()
            .map(|d| round_energy_wh(&d.profile(), &self.workload))
            .collect()
    }

    /// Per-node training budgets τ; `u32::MAX` when unconstrained.
    pub fn node_budgets(&self, n: usize) -> Vec<u32> {
        match self.battery_fraction {
            None => vec![u32::MAX; n],
            Some(frac) => fleet(n)
                .iter()
                .map(|d| training_budget_rounds(&d.profile(), &self.workload, frac) as u32)
                .collect(),
        }
    }
}

/// How much battery capacity each node gets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatteryCapacitySpec {
    /// Every node gets the same capacity (Wh).
    Uniform {
        /// Capacity per node, Wh.
        wh: f64,
    },
    /// Node `i` gets `fraction` of its fleet device's battery (the §4.2
    /// heterogeneous-phones setting, Wh-denominated).
    Fleet {
        /// Fraction of each device battery in `(0, 1]`.
        fraction: f64,
    },
}

/// Closed-loop battery setup, in serializable configuration form.
///
/// This is the experiment-layer face of
/// [`BatterySetup`]: node
/// batteries drain from the energy ledger's actual per-round spend,
/// recharge from the harvest profile, and the policy gates both training
/// *and* gossip per round (see the engine crate docs for the exact round
/// order). The harvest trace's round duration is derived from the
/// experiment's nominal workload — the fleet's *slowest* device sets the
/// wall-clock length of a lockstep round, so that is how long every
/// harvester collects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatterySpec {
    /// Per-node capacity.
    pub capacity: BatteryCapacitySpec,
    /// Initial state of charge as a fraction of capacity in `[0, 1]`
    /// (`1.0` = full).
    pub initial_fraction: f64,
    /// Energy-harvesting power profile feeding the batteries.
    pub harvest: HarvestProfile,
    /// Per-node harvest phase jitter in `[0, 1]` (fraction of the profile
    /// period; deterministic per node, derived from the master seed).
    #[serde(default)]
    pub harvest_jitter: f64,
    /// Participation policy deciding from charge fractions who trains and
    /// gossips.
    pub policy: BatteryPolicy,
    /// Optional heterogeneous fleet: one policy per node, overriding
    /// `policy` (which then only names the fleet default in reports).
    /// Must match the experiment's node count; every listed policy is
    /// validated like the fleet-wide one. `#[serde(default)]` keeps
    /// legacy JSON configs bit-compatible (absent field = uniform fleet).
    #[serde(default)]
    pub node_policies: Option<Vec<BatteryPolicy>>,
}

impl BatterySpec {
    /// Checks every battery invariant, returning the first violation.
    /// `nodes` bounds the per-node policy list when one is configured.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        let capacity_ok = match self.capacity {
            BatteryCapacitySpec::Uniform { wh } => wh.is_finite() && wh > 0.0,
            BatteryCapacitySpec::Fleet { fraction } => {
                fraction.is_finite() && fraction > 0.0 && fraction <= 1.0
            }
        };
        if !capacity_ok {
            return Err(ConfigError::NonPositiveBatteryCapacity);
        }
        if !(self.initial_fraction.is_finite() && (0.0..=1.0).contains(&self.initial_fraction)) {
            return Err(ConfigError::InvalidBatteryInitialFraction);
        }
        if !(self.harvest_jitter.is_finite() && (0.0..=1.0).contains(&self.harvest_jitter)) {
            return Err(ConfigError::InvalidHarvestJitter);
        }
        let harvest_ok = match &self.harvest {
            HarvestProfile::None => true,
            HarvestProfile::Constant { watts } => watts.is_finite() && *watts >= 0.0,
            HarvestProfile::Diurnal {
                peak_watts,
                period_rounds,
            } => {
                peak_watts.is_finite()
                    && *peak_watts >= 0.0
                    && period_rounds.is_finite()
                    && *period_rounds > 0.0
            }
            HarvestProfile::Piecewise { watts } => {
                !watts.is_empty() && watts.iter().all(|w| w.is_finite() && *w >= 0.0)
            }
        };
        if !harvest_ok {
            return Err(ConfigError::InvalidHarvestProfile);
        }
        Self::validate_policy(&self.policy)?;
        if let Some(policies) = &self.node_policies {
            if policies.len() != nodes {
                return Err(ConfigError::BatteryPolicyArityMismatch {
                    expected: nodes,
                    got: policies.len(),
                });
            }
            for policy in policies {
                Self::validate_policy(policy)?;
            }
        }
        Ok(())
    }

    /// Checks one participation policy's invariants.
    fn validate_policy(policy: &BatteryPolicy) -> Result<(), ConfigError> {
        match *policy {
            BatteryPolicy::AlwaysOn => Ok(()),
            BatteryPolicy::Threshold { min_fraction } => {
                if min_fraction.is_finite() && min_fraction > 0.0 && min_fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(ConfigError::InvalidBatteryPolicyFraction)
                }
            }
            BatteryPolicy::Hysteresis {
                suspend_fraction,
                resume_fraction,
            } => {
                if !(suspend_fraction.is_finite()
                    && resume_fraction.is_finite()
                    && suspend_fraction >= 0.0
                    && resume_fraction <= 1.0)
                {
                    return Err(ConfigError::InvertedHysteresisBands);
                }
                if suspend_fraction >= resume_fraction {
                    return Err(ConfigError::InvertedHysteresisBands);
                }
                Ok(())
            }
            BatteryPolicy::DutyCycle { target_fraction } => {
                if target_fraction.is_finite() && target_fraction > 0.0 && target_fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(ConfigError::InvalidBatteryPolicyFraction)
                }
            }
        }
    }

    /// Per-node capacities (Wh) for an `n`-node fleet.
    pub fn node_capacities(&self, n: usize) -> Vec<f64> {
        match self.capacity {
            BatteryCapacitySpec::Uniform { wh } => vec![wh; n],
            BatteryCapacitySpec::Fleet { fraction } => fleet(n)
                .iter()
                .map(|d| d.profile().battery_wh * fraction)
                .collect(),
        }
    }

    /// Lowers the spec onto the energy layer for an `n`-node fleet:
    /// concrete charge states, plus a harvest trace whose per-node phase
    /// jitter is chained from the experiment's master seed and whose
    /// round duration is the slowest fleet device's training-round
    /// wall-clock under `workload` (a lockstep round lasts as long as its
    /// slowest participant).
    pub fn build(&self, n: usize, master_seed: u64, workload: &WorkloadSpec) -> BatterySetup {
        let state =
            BatteryState::with_initial_fraction(self.node_capacities(n), self.initial_fraction);
        let trace = HarvestTrace::new(
            self.harvest.clone(),
            fleet_round_duration_s(n, workload),
            n,
            master_seed,
            self.harvest_jitter,
        );
        BatterySetup {
            state,
            trace,
            policy: self.policy,
            node_policies: self.node_policies.clone(),
        }
    }
}

/// End-of-run battery bookkeeping totals for one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct BatterySummary {
    /// Total harvest energy offered across nodes and rounds (Wh).
    pub harvested_wh: f64,
    /// Harvest clipped away at full batteries (Wh).
    pub wasted_wh: f64,
    /// Energy actually drained from batteries (Wh).
    pub drained_wh: f64,
    /// Sum of final node charges (Wh).
    pub final_charge_wh: f64,
    /// Node-rounds that participated (trained/gossiped).
    pub node_participations: u64,
    /// Node-rounds that browned out (intended to train, could not afford
    /// it, burned their remaining charge).
    pub brownouts: u64,
}

impl BatterySummary {
    /// Accuracy-per-harvest denominator: harvested Wh, floored at the
    /// drained total so zero-harvest runs still normalize.
    pub fn harvest_denominator_wh(&self) -> f64 {
        self.harvested_wh.max(self.drained_wh)
    }
}

/// The compression subsystem's experiment-level spec: a per-directed-link
/// codec selection policy, the consensus stepsize γ, and optional
/// CHOCO-SGD error feedback — the first-class replacement for the legacy
/// flat `codec` / `feedback_beta` / `feedback_replica_cap` fields of
/// [`ExperimentConfig`]. Every field is serde-defaulted so partial JSON
/// specs load, and [`ExperimentConfig::effective_compression`] merges a
/// spec with the legacy fields (spec wins where set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionSpec {
    /// Per-directed-link codec selection policy (defaults to uniform
    /// lossless dense — the legacy behaviour).
    #[serde(default)]
    pub policy: CompressionPolicy,
    /// Consensus stepsize γ ∈ (0, 1]:
    /// `x^t = x^{t−½} + γ (Σ_j W_ji x_j^{t−½} − x^{t−½})`. `1.0` (the
    /// default) is the paper's plain mixing update, bit-identical to the
    /// pre-γ executor; γ < 1 damps consensus for extreme sparsity.
    #[serde(default = "default_consensus_gamma")]
    pub gamma: f32,
    /// CHOCO-SGD error-feedback β (`None` = feedback off). Unset falls
    /// back to the legacy top-level `feedback_beta`.
    #[serde(default)]
    pub feedback_beta: Option<f32>,
    /// Per-receiver replica cap override for error feedback. Unset falls
    /// back to the legacy top-level `feedback_replica_cap` (and from
    /// there to the graph-derived default).
    #[serde(default)]
    pub feedback_replica_cap: Option<usize>,
}

fn default_consensus_gamma() -> f32 {
    1.0
}

impl Default for CompressionSpec {
    fn default() -> Self {
        Self {
            policy: CompressionPolicy::default(),
            gamma: default_consensus_gamma(),
            feedback_beta: None,
            feedback_replica_cap: None,
        }
    }
}

impl CompressionSpec {
    /// A spec equivalent to the legacy global-codec configuration: every
    /// link uses `codec`, γ = 1, feedback inherited from the legacy
    /// fields.
    pub fn uniform(codec: ModelCodec) -> Self {
        Self {
            policy: CompressionPolicy::Uniform(codec),
            ..Self::default()
        }
    }

    /// Checks every compression invariant, returning the first violation.
    pub fn validate(&self, nodes: usize) -> Result<(), ConfigError> {
        let gamma = self.gamma;
        if !(gamma.is_finite() && gamma > 0.0 && gamma <= 1.0) {
            return Err(ConfigError::InvalidConsensusGamma {
                value: gamma as f64,
            });
        }
        if let Some(beta) = self.feedback_beta {
            if !(beta.is_finite() && beta > 0.0 && beta <= 1.0) {
                return Err(ConfigError::InvalidFeedbackBeta);
            }
        }
        if self.feedback_replica_cap == Some(0) {
            return Err(ConfigError::ZeroReplicaCap);
        }
        let check_codec = |codec: ModelCodec| -> Result<(), ConfigError> {
            if matches!(codec, ModelCodec::TopK { k: 0 }) {
                return Err(ConfigError::ZeroTopK);
            }
            Ok(())
        };
        match &self.policy {
            CompressionPolicy::Uniform(codec) => check_codec(*codec)?,
            CompressionPolicy::PerLink { default, links } => {
                check_codec(*default)?;
                for link in links {
                    check_codec(link.codec)?;
                    if link.src == link.dst
                        || link.src as usize >= nodes
                        || link.dst as usize >= nodes
                    {
                        return Err(ConfigError::LinkCodecOutOfRange {
                            src: link.src,
                            dst: link.dst,
                            nodes,
                        });
                    }
                }
                let mut keys: Vec<(u32, u32)> = links.iter().map(|l| (l.src, l.dst)).collect();
                keys.sort_unstable();
                for pair in keys.windows(2) {
                    if pair[0] == pair[1] {
                        return Err(ConfigError::DuplicateLinkCodec {
                            src: pair[0].0,
                            dst: pair[0].1,
                        });
                    }
                }
            }
            CompressionPolicy::RarityAdaptive { base_k, max_k } => {
                if *base_k == 0 || max_k < base_k {
                    return Err(ConfigError::InvalidRarityBounds {
                        base_k: *base_k,
                        max_k: *max_k,
                    });
                }
            }
            CompressionPolicy::EnergyAdaptive { tiers } => {
                if tiers.is_empty() {
                    return Err(ConfigError::InvalidEnergyTiers);
                }
                for tier in tiers {
                    check_codec(tier.codec)?;
                    let t = tier.min_charge_fraction;
                    if !(t.is_finite() && (0.0..=1.0).contains(&t)) {
                        return Err(ConfigError::InvalidEnergyTiers);
                    }
                }
                for pair in tiers.windows(2) {
                    if pair[0].min_charge_fraction <= pair[1].min_charge_fraction {
                        return Err(ConfigError::InvalidEnergyTiers);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Complete description of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Label used in reports.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Total rounds `T`.
    pub rounds: usize,
    /// Algorithm under test.
    pub algorithm: AlgorithmSpec,
    /// Communication topology.
    pub topology: TopologySpec,
    /// Round→graph schedule over the topology (defaults to the paper's
    /// static setting; `#[serde(default)]` keeps legacy JSON configs
    /// loadable unchanged). Non-static schedules regenerate
    /// Metropolis–Hastings mixing weights per scheduled round, so every
    /// effective round stays symmetric and doubly stochastic, and the
    /// energy ledger charges only the edges that actually fired.
    #[serde(default)]
    pub topology_schedule: TopologyScheduleSpec,
    /// Dataset family and scale.
    pub data: DataSpec,
    /// Hidden width of the per-node MLP (0 = softmax regression).
    pub hidden_dim: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Local SGD steps per training round.
    pub local_steps: usize,
    /// SGD learning rate η.
    pub learning_rate: f32,
    /// Master seed.
    pub seed: u64,
    /// Evaluate every this many rounds (the paper uses Γ_train + Γ_sync).
    pub eval_every: usize,
    /// Cap on evaluation samples per eval point (`usize::MAX` = full set).
    pub eval_max_samples: usize,
    /// Energy accounting / budgets.
    pub energy: EnergySpec,
    /// Message transport.
    pub transport: TransportKind,
    /// Model-compression codec for the share phase (defaults to lossless
    /// dense f32; `#[serde(default)]` keeps older JSON configs loadable).
    #[serde(default)]
    pub codec: ModelCodec,
    /// `Some(β)` enables CHOCO-SGD-style error-feedback compression: each
    /// directed link accumulates the residual its codec discarded and
    /// re-injects `β ·` that residual into its next payload (`β ∈ (0, 1]`).
    /// Sender-local state, zero extra wire bytes; a no-op for the lossless
    /// dense codec. `#[serde(default)]` keeps older JSON configs
    /// bit-compatible (absent field = feedback off).
    #[serde(default)]
    pub feedback_beta: Option<f32>,
    /// Per-receiver replica cap for error feedback: bounds feedback
    /// memory at `nodes × cap` model vectors under time-varying
    /// topologies by evicting the stalest link (which restarts cold on
    /// its next delivery). `None` derives a never-evicting default from
    /// the base graph — `max(max degree,`
    /// [`skiptrain_engine::DEFAULT_REPLICA_CAP`]`)` — because a cap
    /// below the in-degree silently degrades feedback toward plain
    /// masked compression; set it explicitly to trade residual memory
    /// for a hard bound. `#[serde(default)]` keeps older JSON configs
    /// bit-compatible.
    #[serde(default)]
    pub feedback_replica_cap: Option<usize>,
    /// First-class compression subsystem spec: per-link codec policy,
    /// consensus stepsize γ, error feedback. `None` (and the serde
    /// default, so every pre-policy JSON config loads bit-compatibly)
    /// falls back to the legacy flat fields above — `codec` as a uniform
    /// policy, γ = 1, `feedback_beta` / `feedback_replica_cap` as-is.
    /// When set, its unset feedback fields still inherit the legacy ones
    /// (see [`ExperimentConfig::effective_compression`]).
    #[serde(default)]
    pub compression: Option<CompressionSpec>,
    /// Also record the accuracy of the averaged (all-reduced) model at each
    /// evaluation point — the hypothetical curve of Figure 1.
    pub record_mean_model: bool,
    /// Closed-loop battery setup: per-node charge states drained by the
    /// ledger's actual spend, recharged by a harvest profile, with a
    /// participation policy gating training *and* gossip per round.
    /// `None` (and the serde default — legacy JSON configs load
    /// bit-compatibly) runs the paper's plug-powered setting.
    #[serde(default)]
    pub battery: Option<BatterySpec>,
    /// Virtual-time realism: per-node compute speed and per-link latency
    /// for the event-driven engine. The default (homogeneous, zero
    /// latency — also the serde default, so legacy JSON configs load
    /// bit-compatibly) reproduces the lockstep results bit for bit.
    #[serde(default)]
    pub timing: TimingSpec,
    /// Node churn: seeded per-round leave/rejoin probabilities. `None`
    /// (and the serde default) keeps every node present all run.
    #[serde(default)]
    pub churn: Option<ChurnSpec>,
}

impl ExperimentConfig {
    /// The per-node model architecture.
    pub fn model_kind(&self) -> ModelKind {
        let classes = self.data.num_classes();
        let input = self.data.feature_dim();
        if self.hidden_dim == 0 {
            ModelKind::Logistic {
                input_dim: input,
                classes,
            }
        } else {
            ModelKind::Mlp {
                dims: vec![input, self.hidden_dim, classes],
            }
        }
    }

    /// Builds the policy for this config, reporting what its constructor
    /// would panic on (a missing battery budget, a schedule that never
    /// trains, an activation probability outside `[0, 1]`) as a typed error.
    pub fn try_build_policy(&self) -> Result<Box<dyn RoundPolicy>, ConfigError> {
        self.check_algorithm()?;
        Ok(match &self.algorithm {
            AlgorithmSpec::DPsgd => Box::new(DPsgdPolicy),
            AlgorithmSpec::SkipTrain(schedule) => Box::new(SkipTrainPolicy::new(*schedule)),
            AlgorithmSpec::SkipTrainConstrained(schedule) => Box::new(ConstrainedPolicy::new(
                *schedule,
                self.energy.node_budgets(self.nodes),
                self.rounds,
                derive_seed(self.seed, 0x70C1),
            )),
            AlgorithmSpec::Greedy => {
                Box::new(GreedyPolicy::new(self.energy.node_budgets(self.nodes)))
            }
            AlgorithmSpec::AsyncGossip { activation_prob } => {
                Box::new(AsyncGossipPolicy::new(*activation_prob, self.seed))
            }
        })
    }

    /// Builds the policy for this config.
    ///
    /// Kept because `benchmark/src/probes.rs:336` calls it; it leaves once
    /// `benchmark/` moves to the typed calls.
    ///
    /// # Panics
    /// Panics on every error [`ExperimentConfig::try_build_policy`]
    /// reports; prefer it or the validating
    /// [`Experiment`](crate::Experiment) API.
    pub fn build_policy(&self) -> Box<dyn RoundPolicy> {
        // lint:allow(no_panic, "documented '# Panics' contract pinned by benchmark/src/probes.rs:336; try_build_policy is the typed-error path")
        self.try_build_policy().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The compression configuration this experiment actually runs: the
    /// first-class [`CompressionSpec`] when one is set (with unset
    /// feedback fields inherited from the legacy flat fields), or the
    /// legacy `codec` / `feedback_beta` / `feedback_replica_cap` fields
    /// lifted into a uniform-policy spec with γ = 1. Every consumer
    /// (validation, the runner's engine lowering) goes through this one
    /// merge, so the two configuration surfaces cannot diverge.
    pub fn effective_compression(&self) -> CompressionSpec {
        match &self.compression {
            Some(spec) => CompressionSpec {
                policy: spec.policy.clone(),
                gamma: spec.gamma,
                feedback_beta: spec.feedback_beta.or(self.feedback_beta),
                feedback_replica_cap: spec.feedback_replica_cap.or(self.feedback_replica_cap),
            },
            None => CompressionSpec {
                policy: CompressionPolicy::Uniform(self.codec),
                gamma: 1.0,
                feedback_beta: self.feedback_beta,
                feedback_replica_cap: self.feedback_replica_cap,
            },
        }
    }

    /// Checks every configuration invariant, returning the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (count, zero) in [
            (self.nodes, ConfigError::ZeroNodes),
            (self.rounds, ConfigError::ZeroRounds),
            (self.batch_size, ConfigError::ZeroBatchSize),
            (self.local_steps, ConfigError::ZeroLocalSteps),
            (self.eval_max_samples, ConfigError::ZeroEvalSamples),
        ] {
            if count == 0 {
                return Err(zero);
            }
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(ConfigError::NonPositiveLearningRate);
        }
        if let TopologySpec::Regular { degree } = self.topology {
            if degree == 0 {
                return Err(ConfigError::ZeroDegree);
            }
            if degree >= self.nodes {
                return Err(ConfigError::DegreeTooLarge {
                    degree,
                    nodes: self.nodes,
                });
            }
            if !(degree * self.nodes).is_multiple_of(2) {
                return Err(ConfigError::OddDegreeProduct {
                    degree,
                    nodes: self.nodes,
                });
            }
        }
        if self.topology == TopologySpec::Ring && self.nodes < 3 {
            return Err(ConfigError::RingTooSmall { nodes: self.nodes });
        }
        self.data.check()?;
        if let Some(fraction) = self.energy.battery_fraction {
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(ConfigError::InvalidBatteryFraction);
            }
        }
        if let Some(j) = self.energy.comm_joules_per_byte {
            if !(j.is_finite() && j > 0.0) {
                return Err(ConfigError::InvalidCommJoulesPerByte);
            }
        }
        // Compression invariants are checked on the *effective* spec, so
        // the legacy flat fields and a first-class `CompressionSpec` pass
        // through one validator.
        self.effective_compression().validate(self.nodes)?;
        if let TransportKind::Serialized {
            drop_prob,
            corrupt_prob,
        } = self.transport
        {
            let unit = |p: f64| p.is_finite() && (0.0..1.0).contains(&p);
            if !unit(drop_prob) || !unit(corrupt_prob) || drop_prob + corrupt_prob >= 1.0 {
                return Err(ConfigError::InvalidTransportLoss {
                    drop_prob,
                    corrupt_prob,
                });
            }
        }
        if let Some(beta) = self.feedback_beta {
            if !(beta.is_finite() && beta > 0.0 && beta <= 1.0) {
                return Err(ConfigError::InvalidFeedbackBeta);
            }
        }
        if self.feedback_replica_cap == Some(0) {
            return Err(ConfigError::ZeroReplicaCap);
        }
        if let Some(battery) = &self.battery {
            battery.validate(self.nodes)?;
        }
        self.timing.validate(self.nodes)?;
        if let Some(churn) = &self.churn {
            churn.validate()?;
        }
        self.topology_schedule.validate(self.nodes)?;
        self.check_algorithm()
    }

    /// The invariants of the algorithm spec — the ones the policy
    /// constructors assert.
    fn check_algorithm(&self) -> Result<(), ConfigError> {
        if let AlgorithmSpec::AsyncGossip { activation_prob } = self.algorithm {
            if !(0.0..=1.0).contains(&activation_prob) {
                return Err(ConfigError::InvalidActivationProbability {
                    value: activation_prob,
                });
            }
        }
        if let AlgorithmSpec::SkipTrain(schedule) | AlgorithmSpec::SkipTrainConstrained(schedule) =
            &self.algorithm
        {
            if schedule.gamma_train == 0 {
                return Err(ConfigError::ZeroGammaTrain);
            }
        }
        let needs_budget = matches!(
            self.algorithm,
            AlgorithmSpec::SkipTrainConstrained(_) | AlgorithmSpec::Greedy
        );
        if needs_budget && self.energy.battery_fraction.is_none() {
            return Err(ConfigError::MissingBatteryFraction {
                algorithm: self.algorithm.name().to_string(),
            });
        }
        Ok(())
    }
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Config label.
    pub name: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Node count.
    pub nodes: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Test-accuracy learning curve.
    pub test_curve: Vec<AccuracyPoint>,
    /// `(round, accuracy)` of the averaged model, when enabled.
    pub mean_model_curve: Vec<(usize, f32)>,
    /// Final test statistics.
    pub final_test: EvalStats,
    /// Final mean validation accuracy (hyperparameter-tuning metric).
    pub final_val_accuracy: f32,
    /// Total training energy (Wh), Eq. 3 restricted to training.
    pub total_training_wh: f64,
    /// Total communication energy (Wh).
    pub total_comm_wh: f64,
    /// Total node-round training events executed (after battery and churn
    /// gating — not the `Train` actions the policy requested).
    pub node_train_events: u64,
    /// The element-wise mean of all node models at the end of the run (the
    /// consensus model used by fairness analysis, §5.1).
    pub final_mean_model: Vec<f32>,
    /// Distinct classes held locally by each node (fairness analysis).
    pub node_class_sets: Vec<Vec<u32>>,
    /// Battery bookkeeping totals, when the run was battery-gated
    /// (`#[serde(default)]` keeps pre-battery result JSON loadable).
    #[serde(default)]
    pub battery: Option<BatterySummary>,
    /// Event-engine totals: virtual time, event counts, late messages,
    /// churn (`#[serde(default)]` keeps pre-event result JSON loadable).
    #[serde(default)]
    pub events: EventSummary,
    /// Messages the transport corrupted in flight: each failed the
    /// receive-side frame checksum and was degraded to a drop
    /// (`#[serde(default)]` keeps pre-corruption result JSON loadable).
    #[serde(default)]
    pub corrupted_messages: u64,
    /// Total bytes the fleet put on the wire (sum of every transmit
    /// event's charged bytes — the ledger's cumulative tx total). Under
    /// adaptive compression policies this is the frontier's byte axis
    /// (`#[serde(default)]` keeps pre-policy result JSON loadable).
    #[serde(default)]
    pub total_wire_bytes: u64,
}

impl ExperimentResult {
    /// Accuracy (%) convenience for report printing.
    pub fn final_test_accuracy_pct(&self) -> f64 {
        self.final_test.mean_accuracy as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cifar_like_is_the_shards_partition_spelled_as_a_field() {
        // samples_per_node 7 over 2 shards: the pool splits into uneven shards
        let (feature_dim, samples_per_node, test_samples) = (5, 7, 41);
        let (separation, noise, modes_per_class) = (0.8, 1.1, 4);
        let like = DataSpec::CifarLike {
            feature_dim,
            samples_per_node,
            test_samples,
            shards_per_node: 2,
            separation,
            noise,
            modes_per_class,
        };
        let partitioned = DataSpec::CifarPartitioned {
            feature_dim,
            samples_per_node,
            test_samples,
            partition: Partition::Shards { shards_per_node: 2 },
            separation,
            noise,
            modes_per_class,
        };
        let (a, b) = (like.build(6, 21), partitioned.build(6, 21));
        let bits = |d: &Dataset| -> (Vec<u32>, Vec<u32>) {
            let features = d.features().as_slice().iter().map(|x| x.to_bits());
            (features.collect(), d.labels().to_vec())
        };
        let sets = |bundle: &DataBundle| -> Vec<(Vec<u32>, Vec<u32>)> {
            let evals = [&bundle.validation, &bundle.test];
            bundle
                .node_datasets
                .iter()
                .chain(evals)
                .map(|d| bits(d))
                .collect()
        };
        assert_eq!(sets(&a).len(), 8);
        assert!(
            sets(&a) == sets(&b),
            "CifarLike drew other bits than its shards partition"
        );
    }
}
