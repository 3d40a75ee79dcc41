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
//! arrival per edge that fires), then the closing eval tick — and tells
//! the executor which nodes are present and which edges *missed the round
//! deadline*. The executor drives the boundary pass first and the other
//! two after the participation gate (below), so they time the actions and
//! the mixing the round really runs. There is no event queue: no decision
//! reads the order events would pop in (only a `max`, a `> deadline` test
//! and a counter), so one returns with overlapping rounds, not before.
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
//! There is one way into a round,
//! [`Simulation::try_run_round`](executor::Simulation::try_run_round), and
//! one order inside it. First **who takes part** is decided, once, before
//! anything is timed or charged: the engine's churn draws (membership),
//! then — when a
//! [`BatterySetup`](skiptrain_energy::battery::BatterySetup) is configured
//! — recharge from the harvest trace, the participation policy (fleet-wide
//! or per-node) over charge fractions, and the brown-out check over the
//! nodes still present (a node that cannot afford the training it intends
//! burns its remaining charge and sits out; an absent node attempts
//! nothing). The crate-private gate labels each node once, in one pass
//! over the fleet, with why it takes part or not (admitted, absent,
//! denied, browned out or flat), and lowers the labels into the round's
//! *gated* actions (non-participants demoted to `SyncOnly`) and *masked*
//! mixing (their rows collapsed to identity by the one
//! [`MixingMatrix::masked_into`](skiptrain_topology::MixingMatrix::masked_into)
//! call, which reads the labels as its predicate); with everyone taking
//! part both equal the caller's inputs bit for bit. Then the engine's **timeline** runs over the gated inputs — the
//! round closes on the slowest *participant* and only an edge that fires
//! can be late — and the data path follows: **resolve**, **compute**,
//! **share/aggregate** and **account** as single passes over the plan,
//! then each battery is drained by its node's actual spend.
//!
//! 1. **resolve** — one serial pass over the round's effective mixing
//!    (the gate's masked form of the topology's matrix or of a
//!    pairwise-gossip or scheduled override) writes one row per
//!    off-diagonal entry: `(src, dst, weight, codec, fate, charged_bytes)`,
//!    grouped by receiver, plus each receiver's own weight. This is the
//!    only place the transport's loss stream
//!    ([`TransportKind::fate`](transport::TransportKind::fate)), the event
//!    engine's late-edge set, the
//!    [`CompressionPolicy`] and the byte
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
//!    An edge gated out by churn or battery has *no row* — the gate
//!    already folded its weight into the receiver's self entry — so it
//!    costs no energy and no virtual time, and the engine's late counter
//!    is exactly the number of `Late` rows.
//! 2. **compute** — each node either trains `E` local SGD steps on its
//!    private dataset, turning its model buffer from `x^t` into the
//!    half-step model `x^{t−½}` in place (a *training* round), or does
//!    nothing (a *synchronization* round): its `x^{t−½}` is its `x^t`.
//!    A node's model sits in this one buffer and nowhere else: its layers
//!    borrow it for the steps and evaluation, and a dense shared round
//!    mixes it in place (the other aggregation paths below add one
//!    out-of-place output per node). Each block of nodes a worker takes
//!    trains and evaluates through one replica, whose gradient,
//!    activations and minibatch are the only ones the fleet grows;
//! 3. **share + aggregate** — every `Delivered` row carries the sender's
//!    `x^{t−½}` through the [`transport`](transport::TransportKind)
//!    under the row's [`ModelCodec`] (a lossless model in memory is read in
//!    place; every other message is encoded to a wire frame and decoded),
//!    and every
//!    receiver computes `x^t = Σ_j W_ji · x_j^{t−½}` over what it decoded,
//!    its own model standing in for every row that did not deliver and for
//!    the coordinates a top-k message did not carry. When the policy is
//!    uniform and no per-link replica makes payloads differ, each sender's
//!    message is compressed once and shared by its receivers — and a dense
//!    shared payload is mixed **in place** through a
//!    [`MixWindow`](skiptrain_linalg::ops::MixWindow). On the in-memory
//!    transport the models themselves are the messages, so the round's
//!    rows and γ only wait in the window, up to one SkipTrain 1:7 period
//!    of rounds; the window settles when it is full or before anything
//!    reads the models (a round in which a node trains, a framed, top-k or
//!    per-edge round, an evaluation, `node_params`, `mean_params`,
//!    `disagreement`), and a framed round settles its own mix at once,
//!    reading the decoded frames. Settling runs parameter sub-tile
//!    outermost: a sub-tile of every model is fetched from memory once
//!    and goes through every pending round in cache, each receiver's sum
//!    (still in mixing-row order, then the γ blend) alternating between
//!    the models and a per-worker stage, each worker owning a contiguous
//!    range of tiles across every model. Mixing updates each coordinate
//!    on its own, so the bits are those of the rounds applied one at a
//!    time; otherwise every edge is carried on its own — with per-link CHOCO-SGD
//!    error feedback ([`ErrorFeedbackState`]) the message is the link's
//!    accumulated residual and the receiver aggregates its replica, at
//!    identical wire bytes — into one out-of-place output per node,
//!    swapped in after **account**. Either way the consensus stepsize
//!    applies as the result is written:
//!    `x^t = x^{t−½} + γ (Σ_j W_ji · x_j^{t−½} − x^{t−½})` with γ = 1
//!    by default;
//! 4. **account** — the energy ledger records training per gated action, one tx
//!    event per row and one rx event per `Delivered` row at the row's
//!    `charged_bytes`, runs each `Corrupted` row through the receive-side
//!    checksum reject, and stamps the round's virtual end tick when an
//!    event engine is driving
//!    ([`EnergyLedger::round_end_ticks`](skiptrain_energy::EnergyLedger::round_end_ticks)).
//!
//! Which of train/sync each node performs per round is decided by the
//! *policies* in `skiptrain-core`; the engine is policy-agnostic and simply
//! executes [`RoundAction`]s. Nodes execute in
//! parallel, one block of nodes per thread; the event layer is serial and all randomness is
//! derived from per-node seeded streams, so results are independent of
//! the thread count.
//!
//! Drivers hook into the round loop through
//! [`RoundObserver`] callbacks (round start/end,
//! periodic evaluation) — a caller's extra recording is an [`observer`]
//! implementation and stopping early is an observer's `Break`, not
//! executor concerns. Per-node datasets sit behind `Arc` so many simulations can
//! share one materialized dataset (see
//! [`Simulation::with_shared_data`](executor::Simulation::with_shared_data)).

pub mod error;
pub mod eval;
pub mod events;
pub mod executor;
mod gate;
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
pub use metrics::{AccuracyPoint, EvalStats};
pub use observer::{EvalReport, RoundCtx, RoundObserver, RoundReport};
pub use transport::{
    rarity_k, tier_codec, CompressionPolicy, DecodeScratch, EncodeScratch, EnergyTier,
    ErrorFeedbackState, LinkCodec, ModelCodec, TransportKind, DEFAULT_REPLICA_CAP,
};
