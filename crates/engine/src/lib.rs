//! Event-driven decentralized-learning execution engine.
//!
//! This crate is the DecentralizePy substitute: it owns the round
//! mechanics every algorithm in the paper shares, layered on a
//! discrete-event core ([`events`]) so that synchronous D-PSGD/SkipTrain
//! and asynchronous gossip are two *schedules compiled onto one engine*
//! rather than two loops.
//!
//! # The event core
//!
//! [`events::EventEngine`] owns per-node virtual clocks and three timing
//! models: a [`events::ComputeProfile`] (homogeneous, per-node speed
//! factors, or a seeded straggler tail), a [`events::LatencyModel`] (zero,
//! constant, or seeded per-link jitter), and an optional
//! [`events::ChurnModel`] (seeded per-round leave/rejoin; absent nodes
//! cost nothing). Each round it times the fleet in three passes that
//! never overlap — the boundary (policy tick, churn joins/leaves in node
//! order), compute (one completion per present node), propagation (one
//! arrival per effective edge), then the closing eval tick — and tells
//! the executor which nodes are present and which edges *missed the round
//! deadline*. There is no event queue: no decision reads the order events
//! would pop in (only a `max`, a `> deadline` test and a counter), so one
//! returns with overlapping rounds, not before.
//!
//! Under **barrier** semantics (the synchronous runner) the round waits
//! for every message: stragglers and latency stretch virtual time but
//! never change which messages aggregate, so the event path reproduces
//! the legacy lockstep loop bit for bit. Under **deadline** semantics
//! (async gossip) a message arriving after the slack window is a *late
//! edge*, treated exactly like a transport drop: the sender's transmit
//! energy is still charged, no receive is charged, the mixing weight
//! folds back into the receiver's self weight, and error-feedback
//! replicas do not advance — it becomes a `Late` row of the round plan
//! below.
//!
//! # The round phases
//!
//! However a round was timed, its data path is the same: **resolve** the
//! round's directed edges once, then **compute**, **share/aggregate** and
//! **account** as single passes over the resolved plan.
//!
//! 1. **resolve** — one serial pass over the round's effective mixing
//!    (the topology's matrix, a pairwise-gossip or scheduled override, or
//!    the churn- and battery-masked form of either) writes one row per
//!    off-diagonal entry: `(src, dst, weight, codec, fate, charged_bytes)`,
//!    grouped by receiver, plus each receiver's own weight. This is the
//!    only place the transport's loss stream
//!    ([`TransportKind::fate`](transport::TransportKind::fate)), the event
//!    engine's late-edge set, the
//!    [`CompressionPolicy`](transport::CompressionPolicy) and the byte
//!    quote
//!    ([`ModelCodec::charged_message_bytes`](transport::ModelCodec::charged_message_bytes))
//!    are consulted; no later pass sees a mixing matrix. The fate of a row:
//!
//!    | fate | when | tx charged | rx charged | aggregates | replica advances |
//!    |---|---|---|---|---|---|
//!    | `Delivered` | on time and the transport delivered it | yes | yes | yes | yes |
//!    | `Dropped` | on time, lost in transit | yes | no | weight falls back to self | no |
//!    | `Corrupted` | on time, bits flipped; the checksum rejects it and `corrupted_frames` counts it | yes | no | weight falls back to self | no |
//!    | `Late` | missed the round deadline, **whatever the transport drew** | yes | no | weight falls back to self | no |
//!
//!    An edge gated out by churn or battery has *no row* — its weight was
//!    already folded into the receiver's self entry by
//!    [`MixingMatrix::masked_into`](skiptrain_topology::MixingMatrix::masked_into)
//!    — so it costs nothing and appears nowhere.
//! 2. **compute** — each node either trains `E` local SGD steps on its
//!    private dataset into the half-step model `x^{t−½}` (a *training*
//!    round) or leaves its model untouched (a *synchronization* round):
//!    its committed buffer is *swapped* in as `x^{t−½}`, not copied, so a
//!    sync-only node moves no byte here;
//! 3. **share + aggregate** — every `Delivered` row carries the sender's
//!    `x^{t−½}` through the [`transport`](transport::TransportKind)
//!    (in-memory kernels, or a full encode → decode of the wire frame)
//!    under the row's [`ModelCodec`](transport::ModelCodec), and every
//!    receiver computes `x^t = Σ_j W_ji · x_j^{t−½}` over what it decoded,
//!    its own model standing in for every row that did not deliver and for
//!    the coordinates a top-k message did not carry. When the policy is
//!    uniform and no per-link replica makes payloads differ, each sender's
//!    message is compressed once and shared by its receivers — and a dense
//!    shared payload is summed receiver-block × parameter-tile: one worker
//!    takes one contiguous block of receivers and walks the models tile by
//!    tile
//!    ([`weighted_sum_block_into`](skiptrain_linalg::ops::weighted_sum_block_into)),
//!    so a tile of every sender's model is fetched from memory once and
//!    read by all its `degree + 1` receivers from cache, each element
//!    still accumulated in mixing-row order; otherwise
//!    every edge is carried on its own — with per-link CHOCO-SGD error
//!    feedback ([`ErrorFeedbackState`](transport::ErrorFeedbackState)) the
//!    message is the link's accumulated residual and the receiver
//!    aggregates its replica, at identical wire bytes. Then the consensus
//!    stepsize applies:
//!    `x^t = x^{t−½} + γ (Σ_j W_ji · x_j^{t−½} − x^{t−½})` with γ = 1
//!    by default;
//! 4. **account** — the energy ledger records training per action, one tx
//!    event per row and one rx event per `Delivered` row at the row's
//!    `charged_bytes`, runs each `Corrupted` row through the receive-side
//!    checksum reject, and stamps the round's virtual end tick when an
//!    event engine is driving
//!    ([`EnergyLedger::round_end_ticks`](skiptrain_energy::EnergyLedger::round_end_ticks)).
//!
//! Which of train/sync each node performs per round is decided by the
//! *policies* in `skiptrain-core`; the engine is policy-agnostic and simply
//! executes [`RoundAction`](executor::RoundAction)s. Nodes execute in
//! parallel with rayon; the event layer is serial and all randomness is
//! derived from per-node seeded streams, so results are independent of
//! the thread count.
//!
//! When a [`BatterySetup`](skiptrain_energy::battery::BatterySetup) is
//! configured on the [`SimulationConfig`](executor::SimulationConfig), a
//! battery prologue runs before step 1 and an epilogue after step 4: each
//! node's battery recharges from its harvest trace, the participation
//! policy (fleet-wide or per-node heterogeneous) decides from charge
//! fractions which nodes take part, intended actions are gated (a gated
//! node neither trains nor fires its edges — its mixing row collapses to
//! identity via
//! [`MixingMatrix::masked_into`](skiptrain_topology::MixingMatrix::masked_into),
//! so comm accounting stays byte-accurate over exactly the surviving
//! edges), and the ledger's actual per-node spend of the round is drained
//! from the batteries. A node that intends to train but cannot afford the
//! round browns out: its remaining charge is burned and it sits the round
//! out. Churn gating composes with battery gating: an absent node's row
//! is masked first, then the battery masks what remains.
//!
//! Drivers hook into the round loop through
//! [`RoundObserver`](observer::RoundObserver) callbacks (round start/end,
//! periodic evaluation) — curve recording, energy streaming, and early
//! stopping are [`observer`] implementations rather than executor
//! concerns. Per-node datasets sit behind `Arc` so many simulations can
//! share one materialized dataset (see
//! [`Simulation::with_shared_data`](executor::Simulation::with_shared_data)).

pub mod error;
pub mod eval;
pub mod events;
pub mod executor;
pub mod metrics;
pub mod node;
pub mod observer;
mod plan;
pub mod transport;

pub use error::EngineError;
pub use events::{
    ChurnModel, ComputeProfile, EventEngine, EventStats, LatencyModel, RoundSemantics,
    BASE_TRAIN_TICKS,
};
pub use executor::{RoundAction, Simulation, SimulationConfig};
pub use metrics::{AccuracyPoint, EvalStats, MetricsRecorder};
pub use observer::{
    BatteryObserver, BatteryRound, CurveObserver, EarlyStop, EnergyTraceObserver, EvalReport,
    MeanModelObserver, RoundCtx, RoundObserver, RoundReport,
};
pub use transport::{
    rarity_k, tier_codec, CompressionPolicy, DecodeScratch, EncodeScratch, EnergyTier,
    ErrorFeedbackState, LinkCodec, ModelCodec, TransportKind, DEFAULT_REPLICA_CAP,
};
