//! The round executor: resolve the round's edges into a plan, then
//! compute, share/aggregate and account as single passes over it.

use crate::error::EngineError;
use crate::eval::{evaluate_fleet, evaluate_model, fixed_subsample, EVAL_CHUNK};
use crate::events::EventEngine;
use crate::gate::Gate;
use crate::metrics::EvalStats;
use crate::node::{train_fleet, Node};
use crate::plan::{Entry, Fate, PlanRow, RoundPlan};
use crate::transport::{
    corrupt_frame_in_place, decode_frame_into, encode_message_with, CompressionPolicy,
    DecodeScratch, EncodeScratch, ErrorFeedbackState, LinkMap, ModelCodec, PayloadRef,
    TransportKind,
};
use rayon::prelude::*;
use skiptrain_data::Dataset;
use skiptrain_energy::battery::{BatterySetup, BatteryState};
use skiptrain_energy::comm::CommEnergyModel;
use skiptrain_energy::EnergyLedger;
use skiptrain_linalg::compress::{accumulate_delta, scatter_axpy, sparse_blend_axpy};
use skiptrain_linalg::ops::weighted_sum_block_into;
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::{Sequential, SoftmaxCrossEntropy};
use skiptrain_topology::{Graph, MixingMatrix};
use std::sync::Arc;

/// What a node does in the local-compute phase of a round.
///
/// Every round ends with share + aggregate regardless of the action
/// (Lines 12–13 of Algorithm 2); the action only controls Lines 5–11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundAction {
    /// Run `E` local SGD steps (a training round for this node).
    Train,
    /// Skip training; share the current model as-is (synchronization).
    SyncOnly,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Master seed; all node/round randomness derives from it.
    pub seed: u64,
    /// Mini-batch size `|ξ|`.
    pub batch_size: usize,
    /// Local SGD steps per training round `E`.
    pub local_steps: usize,
    /// Optimizer settings (the paper uses plain SGD).
    pub sgd: SgdConfig,
    /// Message transport.
    pub transport: TransportKind,
    /// Per-directed-link codec selection policy for the share phase.
    /// [`CompressionPolicy::Uniform`] is one shared share phase and one
    /// byte quote; the adaptive policies resolve a codec per directed link
    /// per round and charge each link the bytes of the codec it used.
    /// Lossy codecs feed their reconstruction into the aggregation and
    /// shrink the per-message bytes the energy ledger charges.
    pub compression: CompressionPolicy,
    /// Consensus stepsize γ ∈ (0, 1] applied after aggregation:
    /// `x^t = x^{t−½} + γ (Σ_j W_ji x_j^{t−½} − x^{t−½})`. `1.0` (the
    /// default) is the paper's plain mixing update and skips the blend;
    /// CHOCO-SGD-style damped consensus (γ < 1) keeps extreme sparsity stable.
    pub consensus_gamma: f32,
    /// `Some(β)` enables CHOCO-SGD-style error-feedback compression:
    /// every directed link tracks a replica of the sender's model,
    /// compresses the accumulated residual `model − replica` instead of
    /// the raw model, and folds the delivered part back (`β ∈ (0, 1]`,
    /// `1.0` = full error feedback), so what the codec failed to deliver
    /// stays in the next residual. Link-local state — message bytes and
    /// energy charges are unchanged. A no-op for the lossless
    /// [`ModelCodec::DenseF32`], which keeps its zero-copy fast path.
    pub feedback_beta: Option<f32>,
    /// Per-receiver replica cap for error feedback: at most this many
    /// in-links per node keep a replica; the stalest link (oldest
    /// delivery) is evicted when a new one would exceed the cap and
    /// restarts cold on its next delivery, bounding feedback memory at
    /// `nodes × cap` model vectors under time-varying topologies. `None`
    /// derives a never-evicting default from the simulation's graph —
    /// `max(max degree,`
    /// [`DEFAULT_REPLICA_CAP`](crate::transport::DEFAULT_REPLICA_CAP)`)`
    /// — since a cap below the in-degree trades residual memory for
    /// feedback quality. Ignored unless `feedback_beta` is set.
    pub feedback_replica_cap: Option<usize>,
    /// Per-node training energy per round (Wh); empty disables training
    /// energy accounting.
    pub training_energy_wh: Vec<f64>,
    /// Radio energy model for the share/aggregate phase.
    pub comm_energy: CommEnergyModel,
    /// Nominal parameter count for message-size accounting (the paper's
    /// Table 1 |x|); `None` uses the actual simulated model size.
    pub nominal_params: Option<usize>,
    /// `Some` enables closed-loop battery gating: each round the fleet
    /// recharges from the harvest trace, the policy picks a participation
    /// set from the charge fractions, and non-participants neither train
    /// nor fire edges (the round's effective mixing is masked, so the
    /// per-edge energy accounting and error-feedback replicas see only
    /// the edges that really fired). After the round, every node's actual
    /// ledger spend (training + tx + rx) drains its battery.
    pub battery: Option<BatterySetup>,
}

impl SimulationConfig {
    /// A minimal config for tests: no energy accounting, in-memory
    /// transport.
    pub fn minimal(seed: u64, batch_size: usize, local_steps: usize, lr: f32) -> Self {
        Self {
            seed,
            batch_size,
            local_steps,
            sgd: SgdConfig::plain(lr),
            transport: TransportKind::Memory,
            compression: CompressionPolicy::default(),
            consensus_gamma: 1.0,
            feedback_beta: None,
            feedback_replica_cap: None,
            training_energy_wh: Vec::new(),
            comm_energy: CommEnergyModel::paper_fit(),
            nominal_params: None,
            battery: None,
        }
    }
}

/// One node's reusable wire buffers: codec intermediates, the decoded
/// payload, and the serialized transport's frame. Under a shared payload
/// they are indexed by *sender* (each node's one message is compressed
/// once and read by all its receivers); under per-edge payloads by
/// *receiver* (every in-edge passes through in turn). Capacity is kept
/// across rounds, so steady-state rounds do not allocate.
#[derive(Debug, Clone, Default)]
struct WireScratch {
    enc: EncodeScratch,
    dec: DecodeScratch,
    frame: Vec<u8>,
}

/// Per-node round scratch.
#[derive(Debug, Clone, Default)]
struct NodeScratch {
    wire: WireScratch,
    /// Error-feedback residual `model − replica` of the edge in flight.
    delta: Vec<f32>,
}

/// Carries `model` from `sender` over `transport` under `codec` and
/// returns what the receiver decodes: a genuine encode → decode of the
/// wire frame on the serialized transport (the frame header carries the
/// codec id, so heterogeneous links need no coordination), the
/// equivalent in-memory kernels otherwise — bit-identical by the codec
/// contract.
fn transmit<'a>(
    transport: TransportKind,
    codec: ModelCodec,
    sender: u32,
    round: usize,
    model: &'a [f32],
    wire: &'a mut WireScratch,
) -> PayloadRef<'a> {
    match transport {
        TransportKind::Memory => codec.transform_into(model, &mut wire.enc, &mut wire.dec),
        TransportKind::Serialized { .. } => {
            encode_message_with(
                codec,
                sender,
                round as u32,
                model,
                &mut wire.frame,
                &mut wire.enc,
            );
            decode_frame_into(&wire.frame, &mut wire.dec)
                // lint:allow(no_panic, "frame was written by encode_message_with on the line above; a fresh in-process frame always decodes")
                .expect("in-process frame must decode")
                .payload
        }
    }
}

/// The synchronous decentralized simulation: nodes, their model replicas as
/// flat parameter vectors, the mixing topology, and the energy ledger.
pub struct Simulation {
    config: SimulationConfig,
    nodes: Vec<Node>,
    graph: Graph,
    mixing: MixingMatrix,
    /// One flat vector per node: the committed models `x^t`, and from the
    /// compute pass to the commit swap the half-step models `x^{t−½}`. A
    /// node's model holds no copy; training and evaluation borrow the row.
    params: Vec<Vec<f32>>,
    /// Aggregation output buffers (swapped into `params` at round end).
    next: Vec<Vec<f32>>,
    ledger: EnergyLedger,
    round: usize,
    param_count: usize,
    loss_fn: SoftmaxCrossEntropy,
    /// Mean training loss over the training nodes of the last round.
    last_train_loss: Option<f32>,
    /// Nodes that ran local training in the last round.
    last_trained_nodes: usize,
    /// The current round's resolved edges; every pass after
    /// [`RoundPlan::resolve`] reads this and nothing else about the
    /// round's topology, timing, losses or codecs.
    plan: RoundPlan,
    /// Per-node wire and residual buffers for the share/aggregate pass.
    scratch: Vec<NodeScratch>,
    /// Reusable per-node `(sender indices, mixing weights)` scratch for the
    /// dense kernel.
    agg_rows: Vec<(Vec<u32>, Vec<f32>)>,
    /// Reusable mean-model buffer for [`Simulation::evaluate_mean_model`].
    mean_scratch: Vec<f32>,
    /// Per-directed-link error-feedback replicas, when enabled.
    feedback: Option<ErrorFeedbackState>,
    /// The round's participation decision (churn ∧ battery) and the
    /// gated actions and masked mixing every pass below reads.
    gate: Gate,
    /// Cumulative count of on-time messages the transport corrupted (each
    /// rejected by the receive-side checksum and degraded to a drop).
    corrupted_frames: u64,
    /// Gradient workspaces for the compute pass: each block of nodes a
    /// worker trains accumulates into the slot of its block index.
    grad_scratch: Vec<Vec<f32>>,
}

impl Simulation {
    /// Builds a simulation from owned per-node datasets.
    ///
    /// `models` and `datasets` must have one entry per topology node, and
    /// all models must share one architecture (identical parameter counts).
    ///
    /// # Panics
    /// Panics on any arity or shape mismatch.
    pub fn new(
        models: Vec<Sequential>,
        datasets: Vec<Dataset>,
        graph: Graph,
        mixing: MixingMatrix,
        config: SimulationConfig,
    ) -> Self {
        Self::with_shared_data(
            models,
            datasets.into_iter().map(Arc::new).collect(),
            graph,
            mixing,
            config,
        )
    }

    /// Builds a simulation over `Arc`-shared per-node datasets — the
    /// zero-copy path campaigns use to run many experiments against one
    /// materialized data bundle.
    ///
    /// # Panics
    /// Panics on any arity or shape mismatch (see [`Simulation::new`]).
    pub fn with_shared_data(
        mut models: Vec<Sequential>,
        datasets: Vec<Arc<Dataset>>,
        graph: Graph,
        mixing: MixingMatrix,
        config: SimulationConfig,
    ) -> Self {
        let n = graph.len();
        assert!(n > 0, "empty topology");
        assert_eq!(models.len(), n, "one model per node required");
        assert_eq!(datasets.len(), n, "one dataset per node required");
        assert_eq!(mixing.len(), n, "mixing matrix size mismatch");
        if !config.training_energy_wh.is_empty() {
            assert_eq!(
                config.training_energy_wh.len(),
                n,
                "per-node energy size mismatch"
            );
        }
        let param_count = models[0].param_count();
        assert!(
            models.iter().all(|m| m.param_count() == param_count),
            "all nodes must share one architecture"
        );
        let num_classes = models[0].output_dim();

        // the engine takes every model's vector: from here on a node's model
        // is an architecture that trains and evaluates `params[i]` on loan
        let params: Vec<Vec<f32>> = models
            .iter_mut()
            .map(|model| {
                let mut x = Vec::new();
                model.swap_params(&mut x);
                x
            })
            .collect();
        let next = params.clone();
        let nodes: Vec<Node> = models
            .into_iter()
            .zip(datasets)
            .enumerate()
            .map(|(i, (model, data))| {
                Node::new(i, model, data, config.batch_size, config.sgd, config.seed)
            })
            .collect();

        // The unset default never evicts on this simulation's own graph
        // (lazy allocation already bounds replicas at the actual link
        // census there); only an explicit sub-degree cap trades residual
        // memory for cold restarts.
        let feedback = config.feedback_beta.map(|beta| {
            let cap = config.feedback_replica_cap.unwrap_or_else(|| {
                graph
                    .degree_range()
                    .1
                    .max(crate::transport::DEFAULT_REPLICA_CAP)
            });
            ErrorFeedbackState::with_cap(n, beta, cap)
        });

        // Room for the static topology's edge census; a schedule that
        // fires a denser graph grows the table once and keeps it.
        let edges = (0..n).map(|i| mixing.row(i).len().saturating_sub(1)).sum();

        Self {
            gate: Gate::new(config.battery.clone(), &mixing),
            nodes,
            graph,
            plan: RoundPlan::new(n, edges, param_count, &config.compression),
            mixing,
            params,
            next,
            ledger: EnergyLedger::new(n),
            round: 0,
            param_count,
            loss_fn: SoftmaxCrossEntropy::new(num_classes),
            last_train_loss: None,
            last_trained_nodes: 0,
            scratch: vec![NodeScratch::default(); n],
            // pre-sized to the hard bound (a mixing row holds at most n
            // entries): time-varying graphs hit fresh degree maxima mid-
            // campaign, and a growth realloc there would break the pinned
            // zero-allocation round loop
            agg_rows: (0..n)
                .map(|_| (Vec::with_capacity(n), Vec::with_capacity(n)))
                .collect(),
            mean_scratch: Vec::new(),
            feedback,
            corrupted_frames: 0,
            grad_scratch: vec![Vec::new(); n],
            config,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a zero-node simulation (not constructible).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Flat parameter count of the shared architecture.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The communication topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Cumulative count of on-time messages the transport corrupted so
    /// far. Every counted frame failed the receive-side checksum verify
    /// and was degraded to a drop (tx charged, no rx, mixing weight folded
    /// back to self).
    pub fn corrupted_frames(&self) -> u64 {
        self.corrupted_frames
    }

    /// The per-link error-feedback state, when feedback is enabled.
    pub fn feedback(&self) -> Option<&ErrorFeedbackState> {
        self.feedback.as_ref()
    }

    /// The per-node battery charge state, when battery gating is
    /// configured.
    pub fn battery_state(&self) -> Option<&BatteryState> {
        self.gate.battery.as_ref().map(|b| &b.setup.state)
    }

    /// The last round's participation mask — present at the round
    /// boundary *and* admitted by the battery (empty before the first
    /// round) — when battery gating is configured.
    pub fn battery_active(&self) -> Option<&[bool]> {
        self.gate.battery.as_ref().map(|_| &self.gate.active[..])
    }

    /// Total node-rounds of participation under battery gating: nodes the
    /// battery admitted that churn also had present.
    pub fn battery_participations(&self) -> Option<u64> {
        self.gate.battery.as_ref().map(|b| b.participations)
    }

    /// Brown-out events so far: rounds a node entered intending to train
    /// with less charge than its training cost, losing its remaining
    /// charge to the aborted attempt.
    pub fn battery_brownouts(&self) -> Option<u64> {
        self.gate.battery.as_ref().map(|b| b.brownouts)
    }

    /// Current committed model of `node`.
    pub fn node_params(&self, node: usize) -> &[f32] {
        &self.params[node]
    }

    /// Mean training loss over training nodes in the last round.
    pub fn last_train_loss(&self) -> Option<f32> {
        self.last_train_loss
    }

    /// Nodes that trained in the last round, after battery/churn gating.
    pub fn last_trained_nodes(&self) -> usize {
        self.last_trained_nodes
    }

    /// Element-wise mean of all node models.
    pub fn mean_params(&self) -> Vec<f32> {
        let mut mean = Vec::new();
        self.mean_params_into(&mut mean);
        mean
    }

    /// Accumulates the element-wise mean of all node models into `out`
    /// (resized to the parameter count) — the allocation-free form
    /// behind [`Simulation::mean_params`] and the reusable mean buffer of
    /// [`Simulation::evaluate_mean_model`].
    fn mean_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.param_count, 0.0);
        let scale = 1.0 / self.len() as f32;
        for p in &self.params {
            skiptrain_linalg::ops::axpy(scale, p, out);
        }
    }

    /// Mean squared distance of node models to the mean model, normalized by
    /// the parameter count — the consensus-disagreement metric.
    pub fn disagreement(&self) -> f64 {
        let mean = self.mean_params();
        let mut acc = 0.0f64;
        for p in &self.params {
            acc += skiptrain_linalg::ops::squared_distance(p, &mean) as f64;
        }
        acc / (self.len() as f64 * self.param_count as f64)
    }

    /// Executes one synchronous round over the simulation's own topology:
    /// local compute per `actions`, then share + aggregate, then energy
    /// accounting.
    ///
    /// # Panics
    /// Panics if `actions.len() != self.len()`; see
    /// [`Simulation::try_run_round`] for the typed-error form.
    pub fn run_round(&mut self, actions: &[RoundAction]) {
        self.try_run_round(actions, None, None)
            // lint:allow(no_panic, "documented '# Panics' contract; try_run_round is the typed-error form")
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The one way into a round. `mixing` replaces the topology's matrix
    /// for this round (time-varying topologies, pairwise gossip — §5.3 of
    /// the paper); `engine` times the round and supplies churn and
    /// deadlines. A mismatched action slice, matrix or engine size is an
    /// [`EngineError`], so one bad scheduled graph fails one campaign
    /// cell, not the process.
    ///
    /// Who takes part is decided once, before anything is timed or
    /// charged: **membership** (the engine's churn draws) → **battery**
    /// (recharge, then policy and brown-out over the nodes still present
    /// — an absent node attempts nothing, so it never browns out) →
    /// **compose** (non-participants demoted to [`RoundAction::SyncOnly`],
    /// their mixing rows masked to identity: zero tx/rx, no training,
    /// ledger conservation exact) → **timeline** over the *gated* actions
    /// and mixing (the round closes on the slowest participant; only an
    /// edge that fires can be late) → **resolve** (late edges become
    /// `Late` plan rows, degrading like drops) → compute → share/aggregate
    /// → γ blend → account → commit → battery settle.
    ///
    /// With every node taking part the gated inputs equal the caller's bit
    /// for bit, and under barrier timing (or deadline timing at zero
    /// latency) the engine only stamps the ledger's round-end ticks.
    pub fn try_run_round(
        &mut self,
        actions: &[RoundAction],
        mixing: Option<&MixingMatrix>,
        mut engine: Option<&mut EventEngine>,
    ) -> Result<(), EngineError> {
        let expected = self.len();
        if let Some(got) = engine.as_deref().map(EventEngine::len) {
            if got != expected {
                return Err(EngineError::EventEngineSizeMismatch { expected, got });
            }
        }
        if actions.len() != expected {
            return Err(EngineError::ActionArityMismatch {
                expected,
                got: actions.len(),
            });
        }
        let base = mixing.unwrap_or(&self.mixing);
        if base.len() != expected {
            return Err(EngineError::MixingSizeMismatch {
                expected,
                got: base.len(),
            });
        }
        if let Some(engine) = engine.as_deref_mut() {
            engine.membership(self.round, base);
        }
        self.gate.begin_round(
            self.round,
            actions,
            engine.as_deref().map(EventEngine::present),
            &self.config.training_energy_wh,
        );
        self.gate.compose(actions, base);
        let (late, round_end) = match engine {
            Some(engine) => {
                engine.timeline(self.round, &self.gate.actions, &self.gate.mixing);
                (engine.late_edges(), Some(engine.now()))
            }
            None => (&[][..], None),
        };
        // Energy-adaptive tiers read the sender's charge *at send time*:
        // after the recharge above, before the round's own spend drains it.
        self.plan.resolve(
            &self.config,
            self.feedback.is_some(),
            self.round,
            &self.gate.mixing,
            late,
            self.gate.battery.as_ref().map(|b| &b.setup.state),
        );
        self.compute();
        self.share_aggregate();
        self.blend_consensus_gamma();
        self.account(round_end);
        std::mem::swap(&mut self.params, &mut self.next);
        self.round += 1;
        self.gate.settle(&self.ledger);
        Ok(())
    }

    /// Local compute ([`train_fleet`]): a training node runs `E` local
    /// steps on `params[i]` in place, `x^t` → `x^{t−½}`; a sync-only node's
    /// `x^{t−½}` *is* its `x^t`, so it does nothing. Every later pass up to
    /// the commit swap reads `params` as the half-step models.
    fn compute(&mut self) {
        let (loss_sum, trained) = train_fleet(
            &mut self.nodes,
            &mut self.params,
            &mut self.grad_scratch,
            &self.gate.actions,
            self.config.local_steps,
        );
        self.last_train_loss = (trained > 0).then(|| loss_sum / trained as f32);
        self.last_trained_nodes = trained;
    }

    /// Share + aggregate `x^t = Σ_j W_ji x_j^{t−½}` over the plan
    /// (receiver-parallel). Every non-delivered row's weight falls back
    /// onto the receiver's own model, as do the coordinates a top-k
    /// message did not carry, so each row stays stochastic per coordinate.
    ///
    /// Bit-identity pins three accumulation orders. Which one runs follows
    /// from the plan's `shared_payload` — an observable of the round, not
    /// an option: one payload per sender costs `degree`× less codec work
    /// than one per edge wherever it is possible at all.
    fn share_aggregate(&mut self) {
        match self.plan.shared_payload() {
            Some(codec) => self.aggregate_shared(codec),
            None => self.aggregate_per_edge(),
        }
    }

    /// Shared payload: every sender's message is carried once into its own
    /// wire scratch, then each receiver reads its delivered in-edges from
    /// there. On the in-memory transport the lossless codec has nothing to
    /// carry and receivers read the half-step models (`params`) directly.
    ///
    /// * sparse (top-k) — `row_sum · own`, then a masked blend per
    ///   delivered row;
    /// * dense — the indexed weighted sum in mixing-row order, with the
    ///   fallback weight added to the self entry where it sits (appended
    ///   when the row has none). Each worker takes one contiguous block of
    ///   receivers and sums it parameter tile by parameter tile, so a
    ///   sender's tile leaves memory once per block, not once per reader.
    fn aggregate_shared(&mut self, codec: ModelCodec) {
        let plan = &self.plan;
        let half = &self.params;
        let transport = self.config.transport;
        let round = self.round;
        let direct = matches!(transport, TransportKind::Memory) && codec.is_lossless();
        if !direct {
            half.par_iter()
                .zip(self.scratch.par_iter_mut())
                .enumerate()
                .for_each(|(j, (model, scratch))| {
                    if plan.sends(j) {
                        transmit(transport, codec, j as u32, round, model, &mut scratch.wire);
                    }
                });
        }
        let sent = &self.scratch;
        if matches!(codec, ModelCodec::TopK { .. }) {
            self.next.par_iter_mut().enumerate().for_each(|(i, out)| {
                let own = &half[i];
                let row_sum: f32 = plan.entries(i).map(|e| e.weight()).sum();
                skiptrain_linalg::ops::scaled_copy(row_sum, own, out);
                for entry in plan.entries(i) {
                    match entry {
                        Entry::Edge(row) if row.fate == Fate::Delivered => {
                            let msg = &sent[row.src as usize].wire.dec;
                            sparse_blend_axpy(out, own, &msg.indices, &msg.values, row.weight);
                        }
                        _ => {}
                    }
                }
            });
            return;
        }
        let block = self.next.len().div_ceil(rayon::current_num_threads());
        self.next
            .par_chunks_mut(block)
            .zip(self.agg_rows.par_chunks_mut(block))
            .enumerate()
            .for_each(|(b, (outs, rows))| {
                let base = b * block;
                for (i, (indices, weights)) in (base..).zip(rows.iter_mut()) {
                    plan.dense_row_into(i, indices, weights);
                }
                weighted_sum_block_into(outs, rows, |r, j| {
                    let j = j as usize;
                    if direct || j == base + r {
                        &half[j]
                    } else {
                        &sent[j].wire.dec.dense
                    }
                });
            });
    }

    /// Per-edge payload (an adaptive policy, or a lossy codec under error
    /// feedback): zero, then each delivered row in row order through the
    /// receiver's wire scratch, own model last with the summed fallback
    /// weight.
    ///
    /// With error feedback the message is the link residual
    /// `x_j^{t−½} − x̂_{j→i}`, the decoded payload advances the replica by
    /// β, and the *replica* aggregates in place of the neighbor model. A
    /// cold link (first contact, or evicted under the replica cap) seeds
    /// from the receiver's own model, so never-delivered coordinates fall
    /// back to the receiver's values exactly like the plain masked blend.
    /// Replicas move only on `Delivered` rows — the link is acknowledged —
    /// and live in the receiver's slot of [`ErrorFeedbackState`], so the
    /// parallel loop mutates disjoint state.
    fn aggregate_per_edge(&mut self) {
        let plan = &self.plan;
        let half = &self.params;
        let transport = self.config.transport;
        let round = self.round;
        let (beta, cap) = self
            .feedback
            .as_ref()
            .map_or((0.0, 0), |fb| (fb.beta(), fb.cap()));
        let receive = |i: usize,
                       out: &mut Vec<f32>,
                       scratch: &mut NodeScratch,
                       mut links: Option<&mut LinkMap>| {
            let own = &half[i];
            out.fill(0.0);
            let mut self_weight = 0.0f32;
            for entry in plan.entries(i) {
                let row = match entry {
                    Entry::Edge(row) if row.fate == Fate::Delivered => row,
                    fallback => {
                        self_weight += fallback.weight();
                        continue;
                    }
                };
                let model = &half[row.src as usize];
                let Some(links) = links.as_deref_mut() else {
                    let wire = &mut scratch.wire;
                    match transmit(transport, row.codec, row.src, round, model, wire) {
                        PayloadRef::Dense(recon) => {
                            skiptrain_linalg::ops::axpy(row.weight, recon, out);
                        }
                        PayloadRef::Sparse { indices, values } => {
                            sparse_blend_axpy(out, own, indices, values, row.weight);
                            self_weight += row.weight;
                        }
                    }
                    continue;
                };
                let replica = links.replica_mut(row.src, round as u64, cap, |buf| {
                    buf.clear();
                    buf.extend_from_slice(own);
                });
                accumulate_delta(model, replica, &mut scratch.delta);
                let (delta, wire) = (&scratch.delta, &mut scratch.wire);
                match transmit(transport, row.codec, row.src, round, delta, wire) {
                    PayloadRef::Dense(recon) => skiptrain_linalg::ops::axpy(beta, recon, replica),
                    PayloadRef::Sparse { indices, values } => {
                        scatter_axpy(replica, indices, values, beta);
                    }
                }
                skiptrain_linalg::ops::axpy(row.weight, replica, out);
            }
            skiptrain_linalg::ops::axpy(self_weight, own, out);
        };
        let outs = self.next.par_iter_mut().zip(self.scratch.par_iter_mut());
        match self.feedback.as_mut() {
            Some(fb) => outs
                .zip(fb.incoming_mut().par_iter_mut())
                .enumerate()
                .for_each(|(i, ((out, scratch), links))| receive(i, out, scratch, Some(links))),
            None => outs
                .enumerate()
                .for_each(|(i, (out, scratch))| receive(i, out, scratch, None)),
        }
    }

    /// Applies the consensus stepsize after aggregation, in place on the
    /// `next` buffers: `x^t = x^{t−½} + γ (x_mixed − x^{t−½})`. γ = 1
    /// (the default) skips entirely, keeping the plain mixing update
    /// bit-identical to the pre-γ executor.
    fn blend_consensus_gamma(&mut self) {
        let gamma = self.config.consensus_gamma;
        if gamma == 1.0 {
            return;
        }
        self.next
            .par_iter_mut()
            .zip(self.params.par_iter())
            .for_each(|(out, base)| {
                for (o, &b) in out.iter_mut().zip(base.iter()) {
                    *o = b + gamma * (*o - b);
                }
            });
    }

    /// Records the round's energy from the plan: training per gated action,
    /// then for every row one transmit event on the sender (an attempt
    /// costs radio energy whatever becomes of the message) and, when
    /// delivered, one receive event on the receiver — both at the row's
    /// `charged_bytes`, the wire size of the codec that link actually used
    /// at the nominal parameter count.
    fn account(&mut self, round_end: Option<u64>) {
        let comm = self.config.comm_energy;
        for (i, action) in self.gate.actions.iter().enumerate() {
            if *action == RoundAction::Train {
                if let Some(&e) = self.config.training_energy_wh.get(i) {
                    self.ledger.record_training(i, e);
                }
            }
        }
        for k in 0..self.plan.rows().len() {
            let row = self.plan.rows()[k];
            self.ledger
                .record_tx(row.src as usize, row.charged_bytes, &comm);
            match row.fate {
                Fate::Delivered => {
                    self.ledger
                        .record_rx(row.dst as usize, row.charged_bytes, &comm);
                }
                Fate::Corrupted => self.reject_corrupted(row),
                Fate::Dropped | Fate::Late => {}
            }
        }
        match round_end {
            Some(ticks) => self.ledger.end_round_at(ticks),
            None => self.ledger.end_round(),
        }
    }

    /// Counts a corrupted frame and proves the receive path discards it:
    /// flip the seeded bit of the row's wire frame, verify the checksum
    /// rejects it, and flip the bit back (XOR is self-inverse — no copy).
    /// Under a shared payload the sender's frame is still in its wire
    /// scratch, intact for its other receivers; a per-edge frame was
    /// overwritten by the receiver's later in-edges and is encoded again.
    fn reject_corrupted(&mut self, row: PlanRow) {
        self.corrupted_frames += 1;
        let (src, dst) = (row.src as usize, row.dst as usize);
        let (seed, round) = (self.config.seed, self.round);
        let wire = if self.plan.shared_payload().is_some() {
            &mut self.scratch[src].wire
        } else {
            let wire = &mut self.scratch[dst].wire;
            let model = &self.params[src];
            encode_message_with(
                row.codec,
                row.src,
                round as u32,
                model,
                &mut wire.frame,
                &mut wire.enc,
            );
            wire
        };
        corrupt_frame_in_place(&mut wire.frame, seed, round, src, dst);
        let rejected = decode_frame_into(&wire.frame, &mut wire.dec).is_err();
        corrupt_frame_in_place(&mut wire.frame, seed, round, src, dst);
        debug_assert!(rejected, "corrupted frame must fail the checksum verify");
    }

    /// Evaluates every node's model on (a fixed subsample of) `dataset`,
    /// in parallel. `max_samples = usize::MAX` evaluates the full set.
    pub fn evaluate(&mut self, dataset: &Dataset, max_samples: usize) -> EvalStats {
        let indices = fixed_subsample(dataset.len(), max_samples, self.config.seed);
        let results = evaluate_fleet(
            &mut self.nodes,
            &mut self.params,
            &self.loss_fn,
            dataset,
            &indices,
        );
        EvalStats::from_node_results(self.round, &results)
    }

    /// Evaluates the *average* of all node models (the Figure-1 all-reduce
    /// curve evaluates this quantity).
    ///
    /// The forward pass is parallelized the same way [`Simulation::evaluate`]
    /// is: the evaluation subsample is split into [`EVAL_CHUNK`]-sized
    /// spans, each loaded onto a different node's model replica (all
    /// replicas get the same mean parameters) and evaluated concurrently.
    /// The mean itself is accumulated into a reusable buffer rather than a
    /// fresh allocation per call.
    pub fn evaluate_mean_model(&mut self, dataset: &Dataset, max_samples: usize) -> (f32, f32) {
        let indices = fixed_subsample(dataset.len(), max_samples, self.config.seed);
        if indices.is_empty() {
            return (0.0, 0.0);
        }
        let mut mean_scratch = std::mem::take(&mut self.mean_scratch);
        self.mean_params_into(&mut mean_scratch);
        self.mean_scratch = mean_scratch;

        // One contiguous index span per participating replica; chunks are
        // at least EVAL_CHUNK samples so small evaluations stay on one
        // replica (one load_params) like before.
        let chunk = EVAL_CHUNK.max(indices.len().div_ceil(self.nodes.len()));
        let spans: Vec<(usize, usize)> = (0..indices.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(indices.len())))
            .collect();
        let mean = &self.mean_scratch;
        let loss_fn = &self.loss_fn;
        let indices = &indices;
        let results: Vec<(f32, f32, usize)> = self.nodes[..spans.len()]
            .par_iter_mut()
            .zip(spans.par_iter())
            .map(|(node, &(s, e))| {
                node.model_mut().load_params(mean);
                let (acc, loss) =
                    evaluate_model(node.model_mut(), loss_fn, dataset, Some(&indices[s..e]));
                (acc, loss, e - s)
            })
            .collect();

        // Recombine the per-span (accuracy, loss) pairs exactly the way
        // evaluate_model combines its internal chunks: by sample counts.
        let total = indices.len() as f64;
        let mut correct = 0.0f64;
        let mut loss_sum = 0.0f64;
        for (acc, loss, len) in results {
            correct += (acc as f64 * len as f64).round();
            loss_sum += loss as f64 * len as f64;
        }
        ((correct / total) as f32, (loss_sum / total) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{
        ChurnModel, ComputeProfile, LatencyModel, RoundSemantics, BASE_TRAIN_TICKS,
    };
    use skiptrain_data::synth::{MixtureSpec, MixtureTask};
    use skiptrain_topology::regular::random_regular;

    impl Simulation {
        /// Overwrites the committed model of `node`. Test-only: outside
        /// this module a fleet moves only through a round.
        fn set_node_params(&mut self, node: usize, params: &[f32]) {
            assert_eq!(params.len(), self.param_count, "parameter length mismatch");
            self.params[node].copy_from_slice(params);
        }
    }

    fn tiny_sim_full(
        n: usize,
        seed: u64,
        transport: TransportKind,
        codec: ModelCodec,
        degree: usize,
    ) -> (Simulation, Dataset) {
        let spec = MixtureSpec {
            num_classes: 4,
            feature_dim: 6,
            modes_per_class: 1,
            separation: 1.6,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec, 99);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(60, 10 + i as u64)).collect();
        let test = task.sample(200, 5000);
        let models: Vec<Sequential> = (0..n)
            .map(|i| skiptrain_nn::zoo::mlp(&[6, 12, 4], seed + i as u64))
            .collect();
        let graph = random_regular(n, degree, seed);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut config = SimulationConfig::minimal(seed, 8, 2, 0.1);
        config.transport = transport;
        config.compression = CompressionPolicy::Uniform(codec);
        (
            Simulation::new(models, datasets, graph, mixing, config),
            test,
        )
    }

    fn tiny_sim(n: usize, seed: u64, transport: TransportKind) -> (Simulation, Dataset) {
        let d = if n > 4 { 4 } else { n - 1 };
        tiny_sim_full(n, seed, transport, ModelCodec::DenseF32, d)
    }

    fn tiny_sim_feedback(
        n: usize,
        seed: u64,
        transport: TransportKind,
        codec: ModelCodec,
        degree: usize,
        beta: f32,
    ) -> Simulation {
        let (mut sim, _) = tiny_sim_full(n, seed, transport, codec, degree);
        sim.config.feedback_beta = Some(beta);
        // mirror the constructor's unset-cap default: adaptive to the graph
        let cap = sim
            .graph()
            .degree_range()
            .1
            .max(crate::transport::DEFAULT_REPLICA_CAP);
        sim.feedback = Some(ErrorFeedbackState::with_cap(n, beta, cap));
        sim
    }

    #[test]
    fn training_rounds_improve_accuracy() {
        let (mut sim, test) = tiny_sim(8, 1, TransportKind::Memory);
        let before = sim.evaluate(&test, usize::MAX);
        let actions = vec![RoundAction::Train; 8];
        for _ in 0..25 {
            sim.run_round(&actions);
        }
        let after = sim.evaluate(&test, usize::MAX);
        assert!(
            after.mean_accuracy > before.mean_accuracy + 0.2,
            "accuracy {} -> {} did not improve enough",
            before.mean_accuracy,
            after.mean_accuracy
        );
    }

    #[test]
    fn sync_rounds_reduce_disagreement_without_changing_mean() {
        let (mut sim, _) = tiny_sim(8, 2, TransportKind::Memory);
        // diversify models with a few training rounds
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 8]);
        }
        let mean_before = sim.mean_params();
        let d_before = sim.disagreement();
        for _ in 0..10 {
            sim.run_round(&[RoundAction::SyncOnly; 8]);
        }
        let d_after = sim.disagreement();
        let mean_after = sim.mean_params();
        assert!(
            d_after < d_before * 0.5,
            "disagreement {d_before} -> {d_after}"
        );
        // doubly stochastic mixing preserves the average model
        let drift: f32 = mean_before
            .iter()
            .zip(&mean_after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(
            drift < 1e-4,
            "sync rounds drifted the mean model by {drift}"
        );
    }

    #[test]
    fn serialized_transport_matches_memory_exactly() {
        let (mut mem, test) = tiny_sim(6, 3, TransportKind::Memory);
        let (mut ser, _) = tiny_sim(
            6,
            3,
            TransportKind::Serialized {
                drop_prob: 0.0,
                corrupt_prob: 0.0,
            },
        );
        let actions = vec![RoundAction::Train; 6];
        for _ in 0..5 {
            mem.run_round(&actions);
            ser.run_round(&actions);
        }
        for i in 0..6 {
            assert_eq!(
                mem.node_params(i),
                ser.node_params(i),
                "node {i} diverged between transports"
            );
        }
        let (am, _) = mem.evaluate_mean_model(&test, usize::MAX);
        let (as_, _) = ser.evaluate_mean_model(&test, usize::MAX);
        assert_eq!(am, as_);
    }

    #[test]
    fn lossy_transport_still_converges_models() {
        let (mut sim, _) = tiny_sim(
            8,
            4,
            TransportKind::Serialized {
                drop_prob: 0.3,
                corrupt_prob: 0.0,
            },
        );
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 8]);
        }
        let d_before = sim.disagreement();
        for _ in 0..15 {
            sim.run_round(&[RoundAction::SyncOnly; 8]);
        }
        assert!(
            sim.disagreement() < d_before * 0.5,
            "lossy sync should still contract disagreement"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (mut sim, test) = tiny_sim(6, 7, TransportKind::Memory);
            for r in 0..6 {
                let actions: Vec<RoundAction> = (0..6)
                    .map(|i| {
                        if (r + i) % 2 == 0 {
                            RoundAction::Train
                        } else {
                            RoundAction::SyncOnly
                        }
                    })
                    .collect();
                sim.run_round(&actions);
            }
            (
                sim.node_params(3).to_vec(),
                sim.evaluate(&test, 100).mean_accuracy,
            )
        };
        let (p1, a1) = run();
        let (p2, a2) = run();
        assert_eq!(p1, p2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn energy_accounting_matches_hand_computation() {
        let (mut sim, _) = tiny_sim(4, 8, TransportKind::Memory);
        sim.config.training_energy_wh = vec![2.0, 3.0, 5.0, 7.0];
        let mut actions = vec![RoundAction::Train; 4];
        actions[3] = RoundAction::SyncOnly;
        sim.run_round(&actions);
        // nodes 0..3 trained: 2 + 3 + 5 Wh
        assert!((sim.ledger().total_training_wh() - 10.0).abs() < 1e-9);
        // comm energy: every node tx+rx over its degree
        let msg = ModelCodec::DenseF32.message_bytes(sim.param_count());
        let expected_comm: f64 = (0..4)
            .map(|i| {
                let d = sim.graph().degree(i) as f64;
                sim.config.comm_energy.tx_energy_wh(msg) * d
                    + sim.config.comm_energy.rx_energy_wh(msg) * d
            })
            .sum();
        assert!((sim.ledger().total_comm_wh() - expected_comm).abs() < 1e-12);
        assert_eq!(sim.ledger().rounds(), 1);
        // byte counters agree with the analytic edge count
        assert_eq!(sim.ledger().total_tx_bytes(), 4 * 3 * msg);
        assert_eq!(sim.ledger().total_rx_bytes(), 4 * 3 * msg);
    }

    #[test]
    fn pairwise_mixing_charges_only_matched_pair() {
        // Regression for the async-gossip over-charging bug: a round run
        // with a 1-pair mixing override on a 6-regular graph must charge
        // exactly 2 messages (one each way), not n·6.
        let n = 12;
        let (mut sim, _) = tiny_sim_full(n, 11, TransportKind::Memory, ModelCodec::DenseF32, 6);
        let mixing = MixingMatrix::pairwise(n, &[(2, 7)]);
        sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&mixing), None)
            .unwrap();

        let bytes = ModelCodec::DenseF32.message_bytes(sim.param_count());
        assert_eq!(sim.ledger().total_tx_bytes(), 2 * bytes);
        assert_eq!(sim.ledger().total_rx_bytes(), 2 * bytes);
        assert_eq!(sim.ledger().node_tx_bytes(2), bytes);
        assert_eq!(sim.ledger().node_rx_bytes(2), bytes);
        assert_eq!(sim.ledger().node_tx_bytes(7), bytes);
        assert_eq!(sim.ledger().node_tx_bytes(0), 0);

        let comm = sim.config.comm_energy;
        let expected = 2.0 * (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes));
        assert!((sim.ledger().total_comm_wh() - expected).abs() < 1e-15);
        // the legacy degree formula would have charged 36× more
        let legacy = n as f64 * 6.0 * (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes));
        assert!(sim.ledger().total_comm_wh() < legacy / 30.0);
    }

    #[test]
    fn per_edge_accounting_reproduces_legacy_analytic_totals() {
        // On a static topology the per-edge event stream must reproduce
        // the legacy analytic formula (tx·degree + rx·delivered): exactly,
        // when replayed in event order, and to float tolerance against the
        // closed form.
        let n = 6;
        let rounds = 4;
        let (mut sim, _) = tiny_sim(
            n,
            21,
            TransportKind::Serialized {
                drop_prob: 0.25,
                corrupt_prob: 0.0,
            },
        );
        let actions = vec![RoundAction::Train; n];
        for _ in 0..rounds {
            sim.run_round(&actions);
        }

        let bytes = ModelCodec::DenseF32.message_bytes(sim.param_count());
        let comm = sim.config.comm_energy;
        let transport = sim.config.transport;
        let seed = sim.config.seed;
        let mixing = MixingMatrix::metropolis_hastings(sim.graph());

        // exact replay of the per-edge event stream
        let mut replay = vec![0.0f64; n];
        // legacy closed form, one record per node per round
        let mut legacy = vec![0.0f64; n];
        for r in 0..rounds {
            for i in 0..n {
                for &(j, _) in mixing.row(i) {
                    let j = j as usize;
                    if j == i {
                        continue;
                    }
                    replay[j] += comm.tx_energy_wh(bytes);
                    if transport.delivered(seed, r, j, i) {
                        replay[i] += comm.rx_energy_wh(bytes);
                    }
                }
            }
            for (i, node_legacy) in legacy.iter_mut().enumerate() {
                let degree = sim.graph().degree(i);
                let delivered_in = sim
                    .graph()
                    .neighbors(i)
                    .iter()
                    .filter(|&&j| transport.delivered(seed, r, j as usize, i))
                    .count();
                *node_legacy += comm.tx_energy_wh(bytes) * degree as f64
                    + comm.rx_energy_wh(bytes) * delivered_in as f64;
            }
        }
        for i in 0..n {
            assert_eq!(
                sim.ledger().node_comm_wh(i).to_bits(),
                replay[i].to_bits(),
                "node {i}: event replay must be bit-identical"
            );
            assert!(
                (sim.ledger().node_comm_wh(i) - legacy[i]).abs() < 1e-15,
                "node {i}: {} vs legacy {}",
                sim.ledger().node_comm_wh(i),
                legacy[i]
            );
        }
    }

    #[test]
    fn lossy_mixing_round_counts_delivered_edges() {
        // a mixing override + lossy Serialized transport: rx charges
        // must match the delivered() decisions over exactly the matched
        // edges, tx charges the attempts.
        let n = 8;
        let (mut sim, _) = tiny_sim_full(
            n,
            17,
            TransportKind::Serialized {
                drop_prob: 0.5,
                corrupt_prob: 0.0,
            },
            ModelCodec::DenseF32,
            4,
        );
        let pairs = [(0u32, 3u32), (1, 6), (2, 5)];
        let mixing = MixingMatrix::pairwise(n, &pairs);
        let rounds = 9;
        for _ in 0..rounds {
            sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&mixing), None)
                .unwrap();
        }
        let transport = sim.config.transport;
        let seed = sim.config.seed;
        let bytes = ModelCodec::DenseF32.message_bytes(sim.param_count());
        let mut expected_rx = vec![0u64; n];
        for r in 0..rounds {
            for &(a, b) in &pairs {
                for (src, dst) in [(a as usize, b as usize), (b as usize, a as usize)] {
                    if transport.delivered(seed, r, src, dst) {
                        expected_rx[dst] += bytes;
                    }
                }
            }
        }
        for (i, &rx) in expected_rx.iter().enumerate() {
            let expected_tx = if pairs
                .iter()
                .any(|&(a, b)| a as usize == i || b as usize == i)
            {
                rounds as u64 * bytes
            } else {
                0
            };
            assert_eq!(sim.ledger().node_tx_bytes(i), expected_tx, "tx node {i}");
            assert_eq!(sim.ledger().node_rx_bytes(i), rx, "rx node {i}");
        }
        // with 50% drops, some messages must actually have been dropped
        assert!(sim.ledger().total_rx_bytes() < sim.ledger().total_tx_bytes());
    }

    #[test]
    fn row_without_self_weight_aggregates_gracefully() {
        // A mixing row with no self entry is legal (e.g. a swap matrix):
        // on a lossless transport it must apply exactly, and under drops
        // the dropped weight must fall back to the node's own model
        // instead of panicking (the old code indexed weights[usize::MAX]).
        let swap: MixingMatrix =
            serde_json::from_str(r#"{"n":2,"rows":[[[1,1.0]],[[0,1.0]]]}"#).unwrap();

        let (mut sim, _) = tiny_sim(2, 33, TransportKind::Memory);
        let before0 = sim.node_params(0).to_vec();
        let before1 = sim.node_params(1).to_vec();
        sim.try_run_round(&[RoundAction::SyncOnly; 2], Some(&swap), None)
            .unwrap();
        assert_eq!(sim.node_params(0), &before1[..], "swap row must apply");
        assert_eq!(sim.node_params(1), &before0[..]);

        let (mut lossy, _) = tiny_sim(
            2,
            34,
            TransportKind::Serialized {
                drop_prob: 0.8,
                corrupt_prob: 0.0,
            },
        );
        for _ in 0..12 {
            lossy
                .try_run_round(&[RoundAction::SyncOnly; 2], Some(&swap), None)
                .unwrap();
        }
        for i in 0..2 {
            assert!(
                lossy.node_params(i).iter().all(|v| v.is_finite()),
                "node {i} produced non-finite parameters"
            );
        }
    }

    /// A trainable layer with exactly one parameter: `out = gain · in`,
    /// starting from `initial`.
    struct Gain {
        initial: f32,
    }

    impl skiptrain_nn::Layer for Gain {
        fn name(&self) -> &'static str {
            "gain"
        }
        fn input_dim(&self) -> usize {
            2
        }
        fn output_dim(&self) -> usize {
            2
        }
        fn param_count(&self) -> usize {
            1
        }
        fn init_params(&self, params: &mut [f32], _init: &mut skiptrain_nn::zoo::InitRng) {
            params[0] = self.initial;
        }
        fn forward(
            &self,
            gain: &[f32],
            input: &skiptrain_linalg::Matrix,
            output: &mut skiptrain_linalg::Matrix,
        ) {
            output.resize_zeroed(input.rows(), 2);
            for (o, &i) in output.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *o = gain[0] * i;
            }
        }
        fn backward(
            &self,
            gain: &[f32],
            grad: &mut [f32],
            input: &skiptrain_linalg::Matrix,
            _output: &skiptrain_linalg::Matrix,
            grad_out: &skiptrain_linalg::Matrix,
            grad_in: Option<&mut skiptrain_linalg::Matrix>,
        ) {
            for (&go, &x) in grad_out.as_slice().iter().zip(input.as_slice()) {
                grad[0] += go * x;
            }
            if let Some(grad_in) = grad_in {
                grad_in.resize_zeroed(grad_out.rows(), 2);
                for (gi, &go) in grad_in.as_mut_slice().iter_mut().zip(grad_out.as_slice()) {
                    *gi = gain[0] * go;
                }
            }
        }
    }

    /// `n` one-layer models on a 4-regular graph: softmax regression with
    /// exactly `classes · (features + 1)` parameters, or — `features == 0`
    /// — the one-parameter [`Gain`] over two features and classes.
    fn sized_fleet(
        n: usize,
        features: usize,
        classes: usize,
        transport: TransportKind,
    ) -> Simulation {
        let spec = MixtureSpec {
            num_classes: classes.max(2),
            feature_dim: features.max(2),
            modes_per_class: 1,
            separation: 1.6,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec, 7);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(24, 40 + i as u64)).collect();
        let models: Vec<Sequential> = (0..n)
            .map(|i| match features {
                0 => {
                    let initial = 0.5 + i as f32;
                    Sequential::new(vec![Box::new(Gain { initial })], 0)
                }
                _ => skiptrain_nn::zoo::logistic_regression(features, classes, 90 + i as u64),
            })
            .collect();
        let graph = random_regular(n, 4, 5);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut config = SimulationConfig::minimal(5, 8, 2, 0.1);
        config.transport = transport;
        Simulation::new(models, datasets, graph, mixing, config)
    }

    /// The deliberately naive dense round the engine must equal bit for
    /// bit: fresh `Vec`s, an explicit copy for `SyncOnly`, each receiver's
    /// row re-derived from the mixing matrix and the transport's delivery
    /// decisions, one untiled `scaled_copy` + `axpy` chain per receiver.
    /// `twin` lends only its nodes' training state, seed and transport.
    fn naive_round(
        twin: &mut Simulation,
        params: &[Vec<f32>],
        round: usize,
        actions: &[RoundAction],
        mixing: &MixingMatrix,
    ) -> Vec<Vec<f32>> {
        let (seed, transport, steps) = (
            twin.config.seed,
            twin.config.transport,
            twin.config.local_steps,
        );
        let half: Vec<Vec<f32>> = (0..params.len())
            .map(|i| match actions[i] {
                RoundAction::Train => {
                    let mut out = Vec::new();
                    twin.nodes[i].train_local(&params[i], steps, &mut out);
                    out
                }
                RoundAction::SyncOnly => params[i].clone(),
            })
            .collect();
        (0..params.len())
            .map(|i| {
                let mut list: Vec<(usize, f32)> = Vec::new();
                let (mut fallback, mut self_at) = (0.0f32, None);
                for &(j, w) in mixing.row(i) {
                    let j = j as usize;
                    if j == i {
                        self_at = Some(list.len());
                        list.push((i, w));
                    } else if transport.delivered(seed, round, j, i) {
                        list.push((j, w));
                    } else {
                        fallback += w;
                    }
                }
                match self_at {
                    Some(pos) => list[pos].1 += fallback,
                    None if fallback > 0.0 => list.push((i, fallback)),
                    None => {}
                }
                let mut out = vec![0.0f32; params[i].len()];
                if let Some((&(j0, w0), rest)) = list.split_first() {
                    skiptrain_linalg::ops::scaled_copy(w0, &half[j0], &mut out);
                    for &(j, w) in rest {
                        skiptrain_linalg::ops::axpy(w, &half[j], &mut out);
                    }
                }
                out
            })
            .collect()
    }

    fn bits(model: &[f32]) -> Vec<u32> {
        model.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_swapping_rounds_equal_a_naive_round_bitwise() {
        use skiptrain_linalg::ops::WSUM_TILE;
        let n = 7; // budget 2 → blocks of 4 + 3, budget 7 → one receiver each
        let lossy = TransportKind::Serialized {
            drop_prob: 0.4,
            corrupt_prob: 0.0,
        };
        // a ring with no self entries: the fallback weight is appended
        let ring: Vec<String> = (0..n)
            .map(|i| format!("[[{},0.5],[{},0.5]]", (i + n - 1) % n, (i + 1) % n))
            .collect();
        let ring: MixingMatrix =
            serde_json::from_str(&format!(r#"{{"n":{n},"rows":[{}]}}"#, ring.join(","))).unwrap();
        use RoundAction::{SyncOnly as S, Train as T};
        let schedule: [[RoundAction; 7]; 6] = [
            [S; 7],
            [T; 7],
            [T, S, T, S, T, S, T],
            [S; 7],
            [S, T, S, T, S, T, S],
            [S; 7],
        ];
        // classes · (features + 1) parameters: 1, tile − 1, tile, tile + 1, 3·tile + 5
        assert_eq!(
            WSUM_TILE, 2048,
            "re-derive the shapes below for a new tile length"
        );
        for (features, classes) in [(0, 1), (88, 23), (255, 8), (682, 3), (558, 11)] {
            for (transport, override_mixing) in [
                (TransportKind::Memory, None),
                (lossy, None),
                (lossy, Some(&ring)),
            ] {
                let mut twin = sized_fleet(n, features, classes, transport);
                let mixing = override_mixing.unwrap_or(&twin.mixing).clone();
                // reference[t] = every node's model before round t
                let mut reference = vec![twin.params.clone()];
                for (round, actions) in schedule.iter().enumerate() {
                    let next = naive_round(&mut twin, &reference[round], round, actions, &mixing);
                    reference.push(next);
                }
                for threads in [1usize, 2, 7] {
                    let mut sim = sized_fleet(n, features, classes, transport);
                    assert_eq!(sim.param_count(), classes * (features + 1));
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    for (round, actions) in schedule.iter().enumerate() {
                        pool.install(|| sim.try_run_round(actions, Some(&mixing), None))
                            .unwrap();
                        for (i, want) in reference[round + 1].iter().enumerate() {
                            assert_eq!(
                                bits(sim.node_params(i)),
                                bits(want),
                                "{} params, {transport:?}, ring {}, {threads} threads, round {round}, node {i}",
                                sim.param_count(),
                                override_mixing.is_some()
                            );
                        }
                    }
                    let lost = sim.ledger().total_rx_bytes() < sim.ledger().total_tx_bytes();
                    assert_eq!(lost, transport != TransportKind::Memory, "drops must fire");
                }
            }
        }
    }

    #[test]
    fn sync_only_compute_moves_nothing_and_masked_nodes_keep_their_model() {
        let n = 6;
        let (mut sim, test) = tiny_sim(n, 21, TransportKind::Memory);
        sim.run_round(&vec![RoundAction::Train; n]);
        let committed: Vec<*const f32> = sim.params.iter().map(|p| p.as_ptr()).collect();
        let models: Vec<Vec<f32>> = sim.params.clone();
        sim.gate.actions.fill(RoundAction::SyncOnly);
        sim.compute();
        for (i, half) in sim.params.iter().enumerate() {
            assert_eq!(half.as_ptr(), committed[i], "node {i}: buffer moved");
            assert_eq!(bits(half), bits(&models[i]), "node {i}: model rewritten");
        }
        // an all-train pass trains, and an evaluation reads, the engine's
        // own buffers: same storage before and after, no model-sized copy.
        // (A whole round is the wrong bracket: its commit swaps `params`
        // with `next`.)
        let storage = |sim: &Simulation| -> Vec<(*const f32, usize)> {
            let row = |p: &Vec<f32>| (p.as_ptr(), p.capacity());
            sim.params.iter().map(row).collect()
        };
        let lent = storage(&sim);
        sim.gate.actions.fill(RoundAction::Train);
        sim.compute();
        assert_eq!(storage(&sim), lent, "training moved a buffer");
        assert_eq!(sim.last_trained_nodes(), n);
        for (i, half) in sim.params.iter().enumerate() {
            assert_ne!(bits(half), bits(&models[i]), "node {i} did not train");
        }
        let trained = sim.params.clone();
        let stats = sim.evaluate(&test, usize::MAX);
        assert_eq!(stats.per_node_accuracy.len(), n);
        assert_eq!(storage(&sim), lent, "evaluation moved a buffer");
        assert_eq!(sim.params, trained, "evaluation rewrote a model");
        // one workspace for the block(s) that trained, none per node
        let grown = sim.grad_scratch.iter().filter(|g| !g.is_empty()).count();
        assert!(grown <= rayon::current_num_threads().min(n), "{grown}");
        // a full all-sync round in which node 2 is masked out (identity row)
        let (mut sim, _) = tiny_sim(n, 21, TransportKind::Memory);
        sim.run_round(&vec![RoundAction::Train; n]);
        let mut active = vec![true; n];
        active[2] = false;
        let masked = sim.mixing.masked(&active);
        let before = bits(sim.node_params(2));
        let neighbour_before = sim.node_params(0).to_vec();
        for _ in 0..3 {
            sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&masked), None)
                .unwrap();
        }
        assert_eq!(
            bits(sim.node_params(2)),
            before,
            "an identity row must keep the model exactly"
        );
        assert_ne!(
            sim.node_params(0),
            &neighbour_before[..],
            "the others still mix"
        );
    }

    #[test]
    fn lossy_codecs_identical_across_transports() {
        // Memory-transport codec transforms must equal the full wire
        // round trip, so large experiments can stay on the fast path.
        for codec in [
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
            ModelCodec::TopK { k: 40 },
        ] {
            let (mut mem, _) = tiny_sim_full(6, 31, TransportKind::Memory, codec, 4);
            let (mut ser, _) = tiny_sim_full(
                6,
                31,
                TransportKind::Serialized {
                    drop_prob: 0.0,
                    corrupt_prob: 0.0,
                },
                codec,
                4,
            );
            let actions = vec![RoundAction::Train; 6];
            for _ in 0..3 {
                mem.run_round(&actions);
                ser.run_round(&actions);
            }
            for i in 0..6 {
                assert_eq!(
                    mem.node_params(i),
                    ser.node_params(i),
                    "{codec:?}: node {i} diverged between transports"
                );
            }
        }
    }

    #[test]
    fn top_k_masked_aggregation_blends_against_pre_mixing_model() {
        // Regression (issue 4, satellite 1): when several top-k messages
        // arrive in one round and hit the *same* coordinate, each blend
        // must substitute the receiver's pre-mixing half-step model, not
        // the partially-updated aggregation buffer. Nodes 1 and 2 both
        // send coordinate 1, so a partial-buffer bug would double-apply.
        let (mut sim, _) =
            tiny_sim_full(3, 77, TransportKind::Memory, ModelCodec::TopK { k: 1 }, 2);
        let p = sim.param_count();
        let mut x0 = vec![0.0f32; p];
        x0[0] = 1.0;
        let mut x1 = vec![0.0f32; p];
        x1[1] = 5.0;
        let mut x2 = vec![0.0f32; p];
        x2[1] = 7.0;
        sim.set_node_params(0, &x0);
        sim.set_node_params(1, &x1);
        sim.set_node_params(2, &x2);
        let before = [x0.clone(), x1.clone(), x2.clone()];

        let mixing = MixingMatrix::metropolis_hastings(sim.graph());
        sim.run_round(&[RoundAction::SyncOnly; 3]);

        // independent reimplementation of the masked blend, base fixed to
        // the pre-mixing model for every incoming message
        let sent: Vec<(u32, f32)> = vec![(0, 1.0), (1, 5.0), (1, 7.0)];
        for (i, base) in before.iter().enumerate() {
            let row = mixing.row(i);
            let row_sum: f32 = row.iter().map(|&(_, w)| w).sum();
            let mut expected: Vec<f32> = base.iter().map(|v| v * row_sum).collect();
            for &(j, w) in row {
                if j as usize != i {
                    let (coord, val) = sent[j as usize];
                    let c = coord as usize;
                    expected[c] += w * (val - base[c]);
                }
            }
            assert_eq!(
                sim.node_params(i),
                &expected[..],
                "node {i}: masked blend must use the pre-mixing base"
            );
        }
    }

    #[test]
    fn feedback_codecs_identical_across_transports() {
        for codec in [
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
            ModelCodec::TopK { k: 40 },
        ] {
            for beta in [1.0f32, 0.5] {
                let mut mem = tiny_sim_feedback(6, 61, TransportKind::Memory, codec, 4, beta);
                let mut ser = tiny_sim_feedback(
                    6,
                    61,
                    TransportKind::Serialized {
                        drop_prob: 0.0,
                        corrupt_prob: 0.0,
                    },
                    codec,
                    4,
                    beta,
                );
                let actions = vec![RoundAction::Train; 6];
                for _ in 0..3 {
                    mem.run_round(&actions);
                    ser.run_round(&actions);
                }
                for i in 0..6 {
                    assert_eq!(
                        mem.node_params(i),
                        ser.node_params(i),
                        "{codec:?} β={beta}: node {i} diverged between transports"
                    );
                }
                // the sender-local residuals must match too
                for dst in 0..6 {
                    for src in 0..6 {
                        assert_eq!(
                            mem.feedback().unwrap().replica(src, dst),
                            ser.feedback().unwrap().replica(src, dst),
                            "{codec:?} β={beta}: replica {src}->{dst} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn feedback_reduces_top_k_consensus_bias() {
        // Aggressive top-k without memory parks gossip at a biased
        // disagreement floor; error feedback keeps draining the deferred
        // coordinates, so sync rounds contract much further.
        let run = |beta: Option<f32>| {
            let codec = ModelCodec::TopK { k: 8 };
            let mut sim = match beta {
                Some(b) => tiny_sim_feedback(8, 83, TransportKind::Memory, codec, 4, b),
                None => tiny_sim_full(8, 83, TransportKind::Memory, codec, 4).0,
            };
            for _ in 0..3 {
                sim.run_round(&[RoundAction::Train; 8]);
            }
            for _ in 0..20 {
                sim.run_round(&[RoundAction::SyncOnly; 8]);
            }
            sim.disagreement()
        };
        let plain = run(None);
        let with_feedback = run(Some(1.0));
        assert!(
            with_feedback < plain * 0.5,
            "feedback should at least halve the top-k disagreement floor: \
             plain {plain} vs feedback {with_feedback}"
        );
    }

    #[test]
    fn feedback_links_allocate_lazily_per_fired_edge() {
        let n = 8;
        let mut sim = tiny_sim_feedback(
            n,
            91,
            TransportKind::Memory,
            ModelCodec::TopK { k: 10 },
            4,
            1.0,
        );
        assert_eq!(sim.feedback().unwrap().active_links(), 0);
        let mixing = MixingMatrix::pairwise(n, &[(1, 4)]);
        sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&mixing), None)
            .unwrap();
        assert_eq!(
            sim.feedback().unwrap().active_links(),
            2,
            "one matched pair fires exactly two directed links"
        );
        assert!(sim.feedback().unwrap().replica(1, 4).is_some());
        assert!(sim.feedback().unwrap().replica(4, 1).is_some());
        assert!(sim.feedback().unwrap().replica(0, 1).is_none());
        // a second, different matching adds exactly two more links and
        // leaves the first pair's residuals in place
        let mixing2 = MixingMatrix::pairwise(n, &[(2, 6)]);
        sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&mixing2), None)
            .unwrap();
        assert_eq!(sim.feedback().unwrap().active_links(), 4);
        assert!(sim.feedback().unwrap().replica(1, 4).is_some());
    }

    #[test]
    fn mismatched_mixing_and_actions_are_typed_errors() {
        let (mut sim, _) = tiny_sim(6, 13, TransportKind::Memory);
        let wrong_mixing = MixingMatrix::identity(4);
        assert_eq!(
            sim.try_run_round(&[RoundAction::SyncOnly; 6], Some(&wrong_mixing), None),
            Err(crate::error::EngineError::MixingSizeMismatch {
                expected: 6,
                got: 4
            })
        );
        assert_eq!(
            sim.try_run_round(&[RoundAction::SyncOnly; 3], None, None),
            Err(crate::error::EngineError::ActionArityMismatch {
                expected: 6,
                got: 3
            })
        );
        let mut wrong_engine = EventEngine::lockstep(5, 13);
        assert_eq!(
            sim.try_run_round(&[RoundAction::SyncOnly; 6], None, Some(&mut wrong_engine)),
            Err(crate::error::EngineError::EventEngineSizeMismatch {
                expected: 6,
                got: 5
            })
        );
        // failed rounds must leave the simulation and the engine untouched
        assert_eq!(wrong_engine.stats().events, 0);
        assert_eq!(sim.round(), 0);
        sim.try_run_round(&[RoundAction::SyncOnly; 6], None, None)
            .expect("well-formed round runs");
        assert_eq!(sim.round(), 1);
    }

    #[test]
    fn feedback_replica_cap_bounds_links_under_changing_matchings() {
        // Cycle through every edge of a complete graph via per-round
        // 1-pair matchings: the uncapped state would accumulate one
        // replica per directed pair; the cap must hold it at n × cap
        // while every round still executes correctly.
        let n = 8;
        let cap = 2;
        let (mut sim, _) = tiny_sim_full(
            n,
            19,
            TransportKind::Memory,
            ModelCodec::TopK { k: 10 },
            n - 2,
        );
        sim.config.feedback_beta = Some(1.0);
        sim.config.feedback_replica_cap = Some(cap);
        sim.feedback = Some(ErrorFeedbackState::with_cap(n, 1.0, cap));
        for pair in 0..40usize {
            let a = (pair % n) as u32;
            let b = ((pair + 1 + pair / n) % n) as u32;
            if a == b || !sim.graph().has_edge(a as usize, b as usize) {
                continue;
            }
            let mixing = MixingMatrix::pairwise(n, &[(a, b)]);
            sim.try_run_round(&vec![RoundAction::SyncOnly; n], Some(&mixing), None)
                .unwrap();
        }
        let fb = sim.feedback().unwrap();
        assert!(
            fb.active_links() <= n * cap,
            "cap breached: {} links > {}",
            fb.active_links(),
            n * cap
        );
        assert!(
            fb.total_evictions() > 0,
            "cycling matchings over a dense graph must evict"
        );
        for i in 0..n {
            assert!(
                sim.node_params(i).iter().all(|v| v.is_finite()),
                "node {i} produced non-finite parameters after evictions"
            );
        }
    }

    #[test]
    fn unset_replica_cap_adapts_to_dense_graphs_and_never_evicts() {
        // A 19-in-degree static graph exceeds DEFAULT_REPLICA_CAP; the
        // unset default must size itself to the graph so direct engine
        // users keep full residual memory (no silent cold restarts).
        let n = 20;
        let mut sim = tiny_sim_feedback(
            n,
            29,
            TransportKind::Memory,
            ModelCodec::TopK { k: 10 },
            n - 1,
            1.0,
        );
        assert_eq!(sim.feedback().unwrap().cap(), n - 1);
        for _ in 0..3 {
            sim.run_round(&vec![RoundAction::SyncOnly; n]);
        }
        let fb = sim.feedback().unwrap();
        assert_eq!(fb.total_evictions(), 0, "adaptive default must not evict");
        assert_eq!(fb.active_links(), n * (n - 1), "every link keeps a replica");
    }

    #[test]
    fn capped_feedback_on_static_topology_is_identical_to_uncapped() {
        // The default cap exceeds the paper's degrees, so static-topology
        // runs must be bit-identical whether the cap is the default or
        // effectively unbounded — the cap only changes behavior when a
        // schedule actually cycles beyond it.
        let codec = ModelCodec::TopK { k: 12 };
        let mut capped = tiny_sim_feedback(8, 67, TransportKind::Memory, codec, 4, 1.0);
        let mut unbounded = tiny_sim_feedback(8, 67, TransportKind::Memory, codec, 4, 1.0);
        unbounded.config.feedback_replica_cap = Some(usize::MAX);
        unbounded.feedback = Some(ErrorFeedbackState::with_cap(8, 1.0, usize::MAX));
        let actions = vec![RoundAction::Train; 8];
        for _ in 0..6 {
            capped.run_round(&actions);
            unbounded.run_round(&actions);
        }
        for i in 0..8 {
            assert_eq!(capped.node_params(i), unbounded.node_params(i));
        }
        assert_eq!(capped.feedback().unwrap().total_evictions(), 0);
    }

    #[test]
    fn feedback_with_dense_codec_is_a_bitwise_noop() {
        let (mut plain, _) = tiny_sim(6, 44, TransportKind::Memory);
        let mut fb = tiny_sim_feedback(6, 44, TransportKind::Memory, ModelCodec::DenseF32, 4, 1.0);
        let actions = vec![RoundAction::Train; 6];
        for _ in 0..4 {
            plain.run_round(&actions);
            fb.run_round(&actions);
        }
        for i in 0..6 {
            assert_eq!(plain.node_params(i), fb.node_params(i));
        }
        assert_eq!(
            fb.feedback().unwrap().active_links(),
            0,
            "lossless codec must never materialize feedback links"
        );
    }

    #[test]
    fn feedback_charges_identical_energy_to_plain_compression() {
        let codec = ModelCodec::TopK { k: 10 };
        let (mut plain, _) = tiny_sim_full(6, 52, TransportKind::Memory, codec, 4);
        let mut fb = tiny_sim_feedback(6, 52, TransportKind::Memory, codec, 4, 1.0);
        let actions = vec![RoundAction::SyncOnly; 6];
        for _ in 0..3 {
            plain.run_round(&actions);
            fb.run_round(&actions);
        }
        assert_eq!(
            plain.ledger().total_tx_bytes(),
            fb.ledger().total_tx_bytes()
        );
        assert_eq!(
            plain.ledger().total_rx_bytes(),
            fb.ledger().total_rx_bytes()
        );
        assert_eq!(
            plain.ledger().total_comm_wh().to_bits(),
            fb.ledger().total_comm_wh().to_bits(),
            "feedback is sender-local state: zero extra bytes, identical energy"
        );
    }

    #[test]
    fn feedback_rounds_are_deterministic() {
        let run = || {
            let mut sim = tiny_sim_feedback(
                6,
                73,
                TransportKind::Memory,
                ModelCodec::TopK { k: 12 },
                4,
                1.0,
            );
            for r in 0..5 {
                let actions: Vec<RoundAction> = (0..6)
                    .map(|i| {
                        if (r + i) % 2 == 0 {
                            RoundAction::Train
                        } else {
                            RoundAction::SyncOnly
                        }
                    })
                    .collect();
                sim.run_round(&actions);
            }
            sim.node_params(2).to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quantized_sync_still_contracts_disagreement() {
        let (mut sim, _) = tiny_sim_full(8, 41, TransportKind::Memory, ModelCodec::QuantizedU16, 4);
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 8]);
        }
        let d_before = sim.disagreement();
        for _ in 0..10 {
            sim.run_round(&[RoundAction::SyncOnly; 8]);
        }
        assert!(
            sim.disagreement() < d_before * 0.6,
            "quantized sync failed to contract: {} -> {}",
            d_before,
            sim.disagreement()
        );
    }

    #[test]
    fn compressed_codecs_charge_monotonically_fewer_bytes() {
        let mut totals = Vec::new();
        for codec in [
            ModelCodec::DenseF32,
            ModelCodec::QuantizedU16,
            ModelCodec::QuantizedU8,
            ModelCodec::TopK { k: 10 },
        ] {
            let (mut sim, _) = tiny_sim_full(6, 51, TransportKind::Memory, codec, 4);
            sim.run_round(&[RoundAction::SyncOnly; 6]);
            totals.push((codec, sim.ledger().total_tx_bytes()));
        }
        for pair in totals.windows(2) {
            assert!(
                pair[1].1 < pair[0].1,
                "{:?} ({} B) should beat {:?} ({} B)",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1
            );
        }
    }

    use skiptrain_energy::battery::{BatteryPolicy, BatterySetup, BatteryState};
    use skiptrain_energy::trace::{HarvestProfile, HarvestTrace};

    /// A tiny mixture-MLP fleet with battery gating configured at
    /// construction (the battery runtime is built by the constructor, so
    /// it cannot be injected after the fact like feedback state).
    fn tiny_sim_battery(
        n: usize,
        seed: u64,
        setup: BatterySetup,
        training_wh: Vec<f64>,
    ) -> Simulation {
        let spec = MixtureSpec {
            num_classes: 4,
            feature_dim: 6,
            modes_per_class: 1,
            separation: 1.6,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec, 99);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(60, 10 + i as u64)).collect();
        let models: Vec<Sequential> = (0..n)
            .map(|i| skiptrain_nn::zoo::mlp(&[6, 12, 4], seed + i as u64))
            .collect();
        let graph = random_regular(n, 4, seed);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut config = SimulationConfig::minimal(seed, 8, 2, 0.1);
        config.training_energy_wh = training_wh;
        config.battery = Some(setup);
        Simulation::new(models, datasets, graph, mixing, config)
    }

    fn no_harvest(n: usize) -> HarvestTrace {
        HarvestTrace::new(HarvestProfile::None, 600.0, n, 1, 0.0)
    }

    #[test]
    fn gated_nodes_charge_zero_comm_energy_and_never_train() {
        // nodes 0 and 3 start below a 50% threshold: they must neither
        // train nor fire a single byte, while the rest run normally
        let n = 8;
        let mut state = BatteryState::new(vec![1.0; n]);
        state.drain(0, 0.9);
        state.drain(3, 0.9);
        let setup = BatterySetup {
            state,
            trace: no_harvest(n),
            policy: BatteryPolicy::Threshold { min_fraction: 0.5 },
            node_policies: None,
        };
        let mut sim = tiny_sim_battery(n, 5, setup, vec![1e-3; n]);
        let frozen0 = sim.node_params(0).to_vec();
        for _ in 0..4 {
            sim.run_round(&vec![RoundAction::Train; n]);
        }
        for &i in &[0usize, 3] {
            assert_eq!(sim.ledger().node_tx_bytes(i), 0, "node {i} must not send");
            assert_eq!(
                sim.ledger().node_rx_bytes(i),
                0,
                "node {i} must not receive"
            );
            assert_eq!(
                sim.ledger().node_comm_wh(i),
                0.0,
                "gated node {i} must charge zero comm energy"
            );
            assert_eq!(
                sim.ledger().node_training_wh(i),
                0.0,
                "gated node {i} must not train"
            );
        }
        // an isolated node's model never moves (identity mixing row)
        assert_eq!(sim.node_params(0), &frozen0[..]);
        // the active majority trains and communicates as usual
        assert!(sim.ledger().node_comm_wh(1) > 0.0);
        assert!(sim.ledger().node_training_wh(1) > 0.0);
        let active = sim.battery_active().unwrap();
        assert!(!active[0] && !active[3] && active[1]);
    }

    #[test]
    fn battery_round_equals_manually_masked_round() {
        // one gated round must be bit-identical to running the plain
        // engine with the same masked mixing and gated actions — the
        // battery path adds bookkeeping, not new dynamics
        let n = 8;
        let seed = 6;
        let mut state = BatteryState::new(vec![1.0; n]);
        for &i in &[2usize, 5] {
            state.drain(i, 0.8);
        }
        let setup = BatterySetup {
            state,
            trace: no_harvest(n),
            policy: BatteryPolicy::Threshold { min_fraction: 0.5 },
            node_policies: None,
        };
        let costs = vec![1e-3; n];
        let mut gated = tiny_sim_battery(n, seed, setup, costs.clone());

        let (mut plain, _) = tiny_sim_full(n, seed, TransportKind::Memory, ModelCodec::DenseF32, 4);
        plain.config.training_energy_wh = costs;
        let mut active = vec![true; n];
        active[2] = false;
        active[5] = false;
        let masked = MixingMatrix::metropolis_hastings(plain.graph()).masked(&active);
        let manual_actions: Vec<RoundAction> = (0..n)
            .map(|i| {
                if active[i] {
                    RoundAction::Train
                } else {
                    RoundAction::SyncOnly
                }
            })
            .collect();

        for _ in 0..3 {
            gated.run_round(&vec![RoundAction::Train; n]);
            plain
                .try_run_round(&manual_actions, Some(&masked), None)
                .unwrap();
        }
        for i in 0..n {
            assert_eq!(
                gated.node_params(i),
                plain.node_params(i),
                "node {i}: gated round diverged from the manual mask"
            );
            assert_eq!(
                gated.ledger().node_comm_wh(i).to_bits(),
                plain.ledger().node_comm_wh(i).to_bits(),
                "node {i}: comm accounting must be bit-identical"
            );
        }
    }

    #[test]
    fn brownout_burns_trickle_harvest_under_always_on() {
        // empty batteries + a harvest trickle far below the training cost:
        // always-on attempts every round, browns out every time, and the
        // whole harvest is burned without one completed training round
        let n = 6;
        let trickle = HarvestTrace::new(HarvestProfile::Constant { watts: 0.06 }, 600.0, n, 2, 0.0);
        // 0.06 W × 600 s = 0.01 Wh per round, training costs 0.05 Wh
        let setup = BatterySetup {
            state: BatteryState::with_initial_fraction(vec![1.0; n], 0.0),
            trace: trickle,
            policy: BatteryPolicy::AlwaysOn,
            node_policies: None,
        };
        let mut sim = tiny_sim_battery(n, 7, setup, vec![0.05; n]);
        for _ in 0..10 {
            sim.run_round(&vec![RoundAction::Train; n]);
        }
        assert_eq!(sim.battery_brownouts(), Some(10 * n as u64));
        assert_eq!(sim.ledger().total_training_wh(), 0.0);
        assert_eq!(sim.ledger().total_tx_bytes(), 0);
        let state = sim.battery_state().unwrap();
        assert!((state.total_harvested_wh() - 10.0 * 0.01 * n as f64).abs() < 1e-9);
        assert!(
            state.total_charge_wh() < 1e-12,
            "brown-outs must burn every banked watt-hour"
        );
        // a threshold policy on the same trace banks instead of burning
        let banked = BatterySetup {
            state: BatteryState::with_initial_fraction(vec![1.0; n], 0.0),
            trace: HarvestTrace::new(HarvestProfile::Constant { watts: 0.06 }, 600.0, n, 2, 0.0),
            policy: BatteryPolicy::Threshold { min_fraction: 0.08 },
            node_policies: None,
        };
        let mut sim2 = tiny_sim_battery(n, 7, banked, vec![0.05; n]);
        for _ in 0..10 {
            sim2.run_round(&vec![RoundAction::Train; n]);
        }
        assert!(
            sim2.ledger().total_training_wh() > 0.0,
            "threshold policy must convert the banked harvest into training"
        );
        assert_eq!(sim2.battery_brownouts(), Some(0));
    }

    #[test]
    fn battery_drain_reconciles_with_ledger_deltas() {
        // generous capacity (no clamping): every ledger watt-hour must
        // show up as battery drain, so charge = initial + accepted − spend
        let n = 6;
        let setup = BatterySetup {
            state: BatteryState::new(vec![50.0; n]),
            trace: HarvestTrace::new(HarvestProfile::Constant { watts: 0.5 }, 600.0, n, 3, 0.0),
            policy: BatteryPolicy::AlwaysOn,
            node_policies: None,
        };
        let mut sim = tiny_sim_battery(n, 9, setup, vec![0.02; n]);
        for r in 0..6 {
            let actions: Vec<RoundAction> = (0..n)
                .map(|i| {
                    if (r + i) % 2 == 0 {
                        RoundAction::Train
                    } else {
                        RoundAction::SyncOnly
                    }
                })
                .collect();
            sim.run_round(&actions);
        }
        let state = sim.battery_state().unwrap();
        for i in 0..n {
            let spend = sim.ledger().node_training_wh(i) + sim.ledger().node_comm_wh(i);
            assert!(
                (state.node_drained_wh(i) - spend).abs() < 1e-12,
                "node {i}: drained {} vs ledger spend {spend}",
                state.node_drained_wh(i)
            );
            let expected = state.initial_wh(i)
                + (state.node_harvested_wh(i) - state.node_wasted_wh(i))
                - spend;
            assert!(
                (state.charge_wh(i) - expected).abs() < 1e-9,
                "node {i}: conservation through the engine violated"
            );
        }
        assert_eq!(sim.battery_participations(), Some(6 * n as u64));
    }

    #[test]
    fn battery_rounds_are_deterministic() {
        let run = || {
            let n = 8;
            let setup = BatterySetup {
                state: BatteryState::with_initial_fraction(vec![0.5; n], 0.3),
                trace: HarvestTrace::new(
                    HarvestProfile::Diurnal {
                        peak_watts: 0.4,
                        period_rounds: 6.0,
                    },
                    600.0,
                    n,
                    11,
                    0.5,
                ),
                policy: BatteryPolicy::Hysteresis {
                    suspend_fraction: 0.2,
                    resume_fraction: 0.4,
                },
                node_policies: None,
            };
            let mut sim = tiny_sim_battery(n, 13, setup, vec![0.01; n]);
            for _ in 0..12 {
                sim.run_round(&vec![RoundAction::Train; n]);
            }
            (
                sim.node_params(4).to_vec(),
                sim.battery_state().unwrap().clone(),
                sim.battery_participations().unwrap(),
            )
        };
        let (p1, s1, c1) = run();
        let (p2, s2, c2) = run();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn mean_model_eval_uses_average() {
        let (mut sim, test) = tiny_sim(4, 9, TransportKind::Memory);
        let mean = sim.mean_params();
        let (acc_direct, _) = sim.evaluate_mean_model(&test, usize::MAX);
        // setting every node to the mean and evaluating gives the same
        for i in 0..4 {
            sim.set_node_params(i, &mean);
        }
        let stats = sim.evaluate(&test, usize::MAX);
        assert!((stats.mean_accuracy - acc_direct).abs() < 1e-6);
        assert!(stats.std_accuracy < 1e-9);
    }

    #[test]
    fn fleet_evaluation_equals_per_node_evaluate_model() {
        // EVAL_CHUNK + 37 rows: two gathered batches of different shapes,
        // shared by every replica. Full set, then a fixed subsample.
        let (mut sim, test) = tiny_sim(6, 21, TransportKind::Memory);
        for _ in 0..2 {
            sim.run_round(&[RoundAction::Train; 6]);
        }
        let rows: Vec<usize> = (0..EVAL_CHUNK + 37).map(|r| r % test.len()).collect();
        let test = test.subset(&rows);
        for max_samples in [usize::MAX, EVAL_CHUNK + 5] {
            let indices = fixed_subsample(test.len(), max_samples, sim.config.seed);
            let per_node: Vec<(f32, f32)> = (0..sim.len())
                .map(|i| {
                    let model = sim.nodes[i].model_mut();
                    model.load_params(&sim.params[i]);
                    evaluate_model(model, &sim.loss_fn, &test, Some(&indices))
                })
                .collect();
            let want = EvalStats::from_node_results(sim.round, &per_node);
            let got = sim.evaluate(&test, max_samples);
            assert_eq!(got.per_node_accuracy, want.per_node_accuracy);
            assert_eq!(got.mean_loss.to_bits(), want.mean_loss.to_bits());
            assert_eq!(got.mean_accuracy.to_bits(), want.mean_accuracy.to_bits());
            assert!(got.max_accuracy > got.min_accuracy, "replicas must differ");
        }
    }

    /// Runs `rounds` alternating train/sync rounds and returns the full
    /// observable footprint: every node's committed model plus the
    /// serialized energy ledger (bit-identity on the JSON string pins
    /// every Wh and byte counter) plus the corrupted-frame count.
    fn corruption_footprint(mut sim: Simulation, rounds: usize) -> (Vec<Vec<f32>>, String, u64) {
        let n = sim.len();
        for r in 0..rounds {
            let actions: Vec<RoundAction> = (0..n)
                .map(|i| {
                    if (r + i) % 2 == 0 {
                        RoundAction::Train
                    } else {
                        RoundAction::SyncOnly
                    }
                })
                .collect();
            sim.run_round(&actions);
        }
        let params: Vec<Vec<f32>> = (0..n).map(|i| sim.node_params(i).to_vec()).collect();
        let ledger = serde_json::to_string(sim.ledger()).expect("ledger serializes");
        (params, ledger, sim.corrupted_frames())
    }

    #[test]
    fn corruption_degrades_exactly_like_drops_dense() {
        // {drop: 0, corrupt: p} must be observationally identical to
        // {drop: p, corrupt: 0}: same models bit-for-bit, same ledger
        // bytes and Wh — the only visible difference is the counter.
        let n = 8;
        let make = |drop, corrupt| {
            let t = TransportKind::Serialized {
                drop_prob: drop,
                corrupt_prob: corrupt,
            };
            tiny_sim_full(n, 17, t, ModelCodec::DenseF32, 4).0
        };
        let (p_drop, l_drop, c_drop) = corruption_footprint(make(0.3, 0.0), 6);
        let (p_corr, l_corr, c_corr) = corruption_footprint(make(0.0, 0.3), 6);
        assert_eq!(p_drop, p_corr, "models diverged between drop and corrupt");
        assert_eq!(l_drop, l_corr, "energy ledgers diverged");
        assert_eq!(c_drop, 0);
        assert!(c_corr > 0, "corruption must actually fire at p = 0.3");
    }

    #[test]
    fn corruption_degrades_exactly_like_drops_topk() {
        let n = 8;
        let make = |drop, corrupt| {
            let t = TransportKind::Serialized {
                drop_prob: drop,
                corrupt_prob: corrupt,
            };
            tiny_sim_full(n, 19, t, ModelCodec::TopK { k: 20 }, 4).0
        };
        let (p_drop, l_drop, c_drop) = corruption_footprint(make(0.4, 0.0), 6);
        let (p_corr, l_corr, c_corr) = corruption_footprint(make(0.0, 0.4), 6);
        assert_eq!(p_drop, p_corr);
        assert_eq!(l_drop, l_corr);
        assert_eq!(c_drop, 0);
        assert!(c_corr > 0);
    }

    #[test]
    fn corruption_degrades_exactly_like_drops_with_error_feedback() {
        // On the feedback path a corrupted frame must leave the link
        // replica untouched exactly like a drop (acknowledged-link
        // semantics) — replicas advancing on corrupt-rejected frames would
        // silently diverge the two runs.
        let n = 6;
        let make = |drop, corrupt| {
            let t = TransportKind::Serialized {
                drop_prob: drop,
                corrupt_prob: corrupt,
            };
            tiny_sim_feedback(n, 23, t, ModelCodec::TopK { k: 16 }, 3, 0.8)
        };
        let (p_drop, l_drop, c_drop) = corruption_footprint(make(0.4, 0.0), 6);
        let (p_corr, l_corr, c_corr) = corruption_footprint(make(0.0, 0.4), 6);
        assert_eq!(p_drop, p_corr, "feedback replicas diverged");
        assert_eq!(l_drop, l_corr);
        assert_eq!(c_drop, 0);
        assert!(c_corr > 0);
    }

    #[test]
    fn mixed_drop_and_corruption_loses_the_union() {
        // A {drop: a, corrupt: b} transport delivers exactly what a
        // {drop: a+b} transport delivers (one partitioned draw), so the
        // trained models and rx accounting agree bit-for-bit.
        let n = 8;
        let mixed = tiny_sim_full(
            n,
            29,
            TransportKind::Serialized {
                drop_prob: 0.2,
                corrupt_prob: 0.2,
            },
            ModelCodec::DenseF32,
            4,
        )
        .0;
        let pure = tiny_sim_full(
            n,
            29,
            TransportKind::Serialized {
                drop_prob: 0.4,
                corrupt_prob: 0.0,
            },
            ModelCodec::DenseF32,
            4,
        )
        .0;
        let (p_mixed, l_mixed, c_mixed) = corruption_footprint(mixed, 5);
        let (p_pure, l_pure, c_pure) = corruption_footprint(pure, 5);
        assert_eq!(p_mixed, p_pure);
        assert_eq!(l_mixed, l_pure);
        assert!(c_mixed > 0);
        assert_eq!(c_pure, 0);
    }

    #[test]
    fn zero_corrupt_prob_counts_nothing() {
        let (mut sim, _) = tiny_sim(
            6,
            31,
            TransportKind::Serialized {
                drop_prob: 0.3,
                corrupt_prob: 0.0,
            },
        );
        for _ in 0..5 {
            sim.run_round(&[RoundAction::SyncOnly; 6]);
        }
        assert_eq!(sim.corrupted_frames(), 0);
    }

    use proptest::prelude::*;

    /// A mixture-MLP fleet over `graph` (136 parameters per node).
    fn fleet(graph: Graph, config: SimulationConfig) -> Simulation {
        let n = graph.len();
        let spec = MixtureSpec {
            num_classes: 4,
            feature_dim: 6,
            modes_per_class: 1,
            separation: 1.6,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec, 99);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(40, 10 + i as u64)).collect();
        let models: Vec<Sequential> = (0..n)
            .map(|i| skiptrain_nn::zoo::mlp(&[6, 12, 4], config.seed + i as u64))
            .collect();
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        Simulation::new(models, datasets, graph, mixing, config)
    }

    /// A deterministic pseudo-random percentage in `0..100` per key.
    fn pct(salt: u64, a: u64, b: u64) -> u64 {
        skiptrain_linalg::rng::derive_seed(skiptrain_linalg::rng::derive_seed(salt, a), b) % 100
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The plan reconciles with everything the round did, through the
        // one entry with a real event engine (deadline rounds, seeded
        // latency, churn) and a battery: the effective mixing is the base
        // masked by `present ∧ battery-admitted`, the plan's rows are its
        // off-diagonal entries, every fate equals a naive recomputation,
        // the engine's counters move by exactly what the mask and the rows
        // say, and so do the ledger and the corrupted-frame counter.
        #[test]
        fn plan_reconciles_with_mixing_fates_and_ledger(
            seed in 0u64..10_000,
            n in 4usize..10,
            topology in 0u8..4,
            lossy in 0u8..3,
            drop_prob in 0.0f64..0.4,
            corrupt_prob in 0.0f64..0.3,
            policy in 0u8..7,
            feedback in 0u8..2,
            battery in 0u8..2,
            churn in 0u8..3,
            latency_ticks in 0u64..BASE_TRAIN_TICKS / 2,
            rounds in 3usize..6,
        ) {
            let k = 20;
            let mut config = SimulationConfig::minimal(seed, 8, 1, 0.1);
            config.training_energy_wh = vec![0.05; n];
            config.nominal_params = Some(1000);
            config.transport = match lossy {
                0 => TransportKind::Memory,
                _ => TransportKind::Serialized { drop_prob, corrupt_prob },
            };
            config.compression = match policy {
                0 => CompressionPolicy::Uniform(ModelCodec::DenseF32),
                1 => CompressionPolicy::Uniform(ModelCodec::QuantizedU8),
                2 => CompressionPolicy::Uniform(ModelCodec::QuantizedU16),
                3 => CompressionPolicy::Uniform(ModelCodec::TopK { k }),
                4 => CompressionPolicy::PerLink {
                    default: ModelCodec::QuantizedU8,
                    links: vec![
                        crate::transport::LinkCodec { src: 0, dst: 1, codec: ModelCodec::TopK { k } },
                        crate::transport::LinkCodec { src: 1, dst: 0, codec: ModelCodec::DenseF32 },
                    ],
                },
                5 => CompressionPolicy::deal_tiers(k),
                _ => CompressionPolicy::RarityAdaptive { base_k: k, max_k: 4 * k },
            };
            config.feedback_beta = (feedback == 1).then_some(0.8);
            if battery == 1 {
                // mixed charge levels around a 50% threshold, no harvest:
                // some nodes are gated from the start, more drop out
                let mut state = BatteryState::new(vec![1.0; n]);
                for i in 0..n {
                    state.drain(i, pct(seed, 1, i as u64) as f64 / 100.0);
                }
                config.battery = Some(BatterySetup {
                    state,
                    trace: no_harvest(n),
                    policy: BatteryPolicy::Threshold { min_fraction: 0.5 },
                    node_policies: None,
                });
            }
            let graph = match topology {
                0 | 3 => Graph::ring(n),
                1 => random_regular(n, if n >= 6 { 4 } else { 2 }, seed),
                _ => Graph::complete(n),
            };
            let base = MixingMatrix::metropolis_hastings(&graph);
            let transport = config.transport;
            let mut sim = fleet(graph.clone(), config);
            // training senders are late when their link outlasts the slack;
            // sync-only senders (zero compute ticks) never are
            let mut engine = EventEngine::new(
                n,
                seed,
                ComputeProfile::Homogeneous,
                LatencyModel::Seeded { mean_ticks: latency_ticks, jitter: 0.9 },
                match churn {
                    0 => None,
                    1 => Some(ChurnModel { leave_prob: 0.1, rejoin_prob: 0.5 }),
                    _ => Some(ChurnModel { leave_prob: 0.5, rejoin_prob: 0.3 }),
                },
                RoundSemantics::Deadline { slack_ticks: BASE_TRAIN_TICKS / 4 },
            );
            let mut capacities = None;
            for round in 0..rounds {
                // topology 3: an edge-dropout override, a fresh subgraph
                // of the ring every round
                let dropout = (topology == 3).then(|| {
                    let mut g = graph.clone();
                    for i in 0..n as u32 {
                        if pct(seed, 2 + round as u64, i as u64) < 30 {
                            g.remove_edge(i, (i + 1) % n as u32);
                        }
                    }
                    MixingMatrix::metropolis_hastings(&g)
                });
                let used = dropout.as_ref().unwrap_or(&base);
                let actions: Vec<RoundAction> = (0..n)
                    .map(|i| if (i + round) % 2 == 0 { RoundAction::Train } else { RoundAction::SyncOnly })
                    .collect();
                let (tx0, rx0) = (sim.ledger().total_tx_bytes(), sim.ledger().total_rx_bytes());
                let corrupted0 = sim.corrupted_frames();
                let stats0 = engine.stats();

                sim.try_run_round(&actions, dropout.as_ref(), Some(&mut engine)).unwrap();

                // the effective mixing: one mask, one fold over the one used
                let present = engine.present();
                let mask: Vec<bool> = (0..n)
                    .map(|i| present[i] && sim.battery_active().is_none_or(|on| on[i]))
                    .collect();
                if let Some(on) = sim.battery_active() {
                    prop_assert_eq!(on, &mask[..], "the battery mask never admits an absent node");
                }
                let effective = used.masked(&mask);
                prop_assert_eq!(&sim.gate.mixing, &effective);
                for (i, &on) in mask.iter().enumerate() {
                    prop_assert!(on || sim.gate.actions[i] == RoundAction::SyncOnly);
                    prop_assert!(!on || sim.gate.actions[i] == actions[i]);
                }
                let late = engine.late_edges();
                let rows = sim.plan.rows();
                let mut next_row = 0;
                for dst in 0..n {
                    let mut entries = sim.plan.entries(dst);
                    for &(src, weight) in effective.row(dst) {
                        let entry = entries.next().expect("one plan entry per mixing entry");
                        prop_assert_eq!(entry.weight().to_bits(), weight.to_bits());
                        match entry {
                            Entry::Own(_) => prop_assert_eq!(src as usize, dst),
                            Entry::Edge(row) => {
                                prop_assert_eq!((row.src, row.dst), (src, dst as u32));
                                prop_assert!(std::ptr::eq(row, &rows[next_row]), "rows grouped by receiver");
                                next_row += 1;
                            }
                        }
                    }
                    prop_assert!(entries.next().is_none());
                    let row_sum: f32 = effective.row(dst).iter().map(|&(_, w)| w).sum();
                    let plan_sum: f32 = sim.plan.entries(dst).map(|e| e.weight()).sum();
                    prop_assert_eq!(plan_sum.to_bits(), row_sum.to_bits());
                }
                prop_assert_eq!(next_row, rows.len());

                for row in rows {
                    let naive = if late.contains(&(row.src, row.dst)) {
                        Fate::Late
                    } else {
                        match transport.fate(seed, round, row.src as usize, row.dst as usize) {
                            crate::transport::MessageFate::Delivered => Fate::Delivered,
                            crate::transport::MessageFate::Dropped => Fate::Dropped,
                            crate::transport::MessageFate::Corrupted => Fate::Corrupted,
                        }
                    };
                    prop_assert_eq!(row.fate, naive);
                    prop_assert_eq!(row.charged_bytes, row.codec.charged_message_bytes(136, 1000));
                }
                let sent: u64 = rows.iter().map(|r| r.charged_bytes).sum();
                let received: u64 = rows
                    .iter()
                    .filter(|r| r.fate == Fate::Delivered)
                    .map(|r| r.charged_bytes)
                    .sum();
                let corrupted = rows.iter().filter(|r| r.fate == Fate::Corrupted).count() as u64;
                // virtual time is counted from what the plan and ledger see
                let stats = engine.stats();
                let late_rows = rows.iter().filter(|r| r.fate == Fate::Late).count() as u64;
                prop_assert_eq!(stats.late_messages - stats0.late_messages, late_rows);
                let churned = (stats.joins - stats0.joins) + (stats.leaves - stats0.leaves);
                let arrived = present.iter().filter(|&&on| on).count() + rows.len();
                prop_assert_eq!(stats.events - stats0.events, 2 + churned + arrived as u64);
                prop_assert_eq!(sim.ledger().total_tx_bytes() - tx0, sent);
                prop_assert_eq!(sim.ledger().total_rx_bytes() - rx0, received);
                prop_assert_eq!(sim.corrupted_frames() - corrupted0, corrupted);
                prop_assert_eq!(
                    sim.plan.shared_payload().is_some(),
                    policy < 4 && (feedback == 0 || policy == 0)
                );

                // every buffer was sized by the first round at the latest
                let now = sim.plan.capacities();
                prop_assert_eq!(*capacities.get_or_insert(now), now);
            }
        }

        // A per-link table with no entries decides every edge like the
        // uniform policy over its default codec: same rows, same fates,
        // same ledger bytes. The *parameters* may differ in the last bits:
        // `Uniform` aggregates through the shared-payload kernels (indexed
        // weighted sum / row-sum blend), `PerLink` through the per-edge
        // kernel (axpy per row, own model last) — a different f32
        // accumulation order, which is why the kernel follows the policy
        // and not the codec column.
        #[test]
        fn empty_per_link_table_decides_like_uniform(
            seed in 0u64..10_000,
            codec in 0u8..4,
            drop_prob in 0.0f64..0.4,
            corrupt_prob in 0.0f64..0.3,
        ) {
            let n = 8;
            let codec = match codec {
                0 => ModelCodec::DenseF32,
                1 => ModelCodec::QuantizedU8,
                2 => ModelCodec::QuantizedU16,
                _ => ModelCodec::TopK { k: 20 },
            };
            let run = |policy: CompressionPolicy| {
                let mut config = SimulationConfig::minimal(seed, 8, 1, 0.1);
                config.transport = TransportKind::Serialized { drop_prob, corrupt_prob };
                config.compression = policy;
                let mut sim = fleet(random_regular(n, 4, seed), config);
                let mut messages = Vec::new();
                for _ in 0..4 {
                    sim.run_round(&vec![RoundAction::SyncOnly; n]);
                    messages.extend(
                        sim.plan
                            .rows()
                            .iter()
                            .map(|r| (r.src, r.dst, r.codec, r.fate, r.charged_bytes)),
                    );
                }
                let bytes: Vec<(u64, u64)> = (0..n)
                    .map(|i| (sim.ledger().node_tx_bytes(i), sim.ledger().node_rx_bytes(i)))
                    .collect();
                (messages, bytes, sim.corrupted_frames())
            };
            let uniform = run(CompressionPolicy::Uniform(codec));
            let per_link = run(CompressionPolicy::PerLink { default: codec, links: Vec::new() });
            prop_assert_eq!(uniform, per_link);
        }
    }
}
