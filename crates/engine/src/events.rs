//! The discrete-event simulation core.
//!
//! The lockstep round loop the executor started from assumes every node
//! computes at the same speed and every message arrives instantly — a
//! fine model for the paper's synchronous experiments, but not for the
//! energy-harvesting fleets it targets, where compute speeds differ,
//! links carry latency, and nodes join and leave as charge allows. This
//! module supplies the event layer underneath both regimes:
//!
//! * [`EventQueue`] — a priority queue keyed by `(time, seq)`. `seq` is a
//!   monotone push counter, so two events scheduled for the same virtual
//!   tick pop in insertion order: the schedule is a pure function of the
//!   push sequence, never of heap internals or thread timing.
//! * [`Event`] — the typed vocabulary: [`Event::TrainComplete`],
//!   [`Event::MessageArrive`], [`Event::PolicyTick`] (churn and battery
//!   decisions fire on the round boundary), [`Event::Join`],
//!   [`Event::Leave`], and [`Event::EvalTick`] (closes a round).
//! * [`ComputeProfile`] — per-node virtual clock rates: homogeneous,
//!   explicit per-node speed factors, or a seeded straggler tail.
//! * [`LatencyModel`] — per-link delivery delay: zero, constant, or a
//!   seeded per-(round, edge) distribution.
//! * [`ChurnModel`] — seeded per-round leave/rejoin draws; an absent
//!   node's clock freezes and it costs nothing until it rejoins.
//! * [`EventEngine`] — per-node clocks plus the round driver
//!   [`EventEngine::begin_round`], which plays one round's events and
//!   reports the participation mask and the edges whose messages missed
//!   the deadline.
//!
//! # Round semantics
//!
//! The two execution regimes compile onto the same event timeline and
//! differ only in what a round *waits for* ([`RoundSemantics`]):
//!
//! * **Barrier** (the synchronous runner): the round ends when the last
//!   message has arrived. Stragglers and latency stretch virtual time but
//!   never change *which* messages are aggregated — which is why the
//!   event core reproduces the legacy lockstep results bit for bit under
//!   any barrier timing, not just the zero-latency default.
//! * **Deadline** (async gossip): the round closes a fixed slack after
//!   the slowest participant finishes computing. A message arriving after
//!   the deadline is a *late edge*: it resolves to a `Late` row of the
//!   executor's round plan, which degrades exactly like a transport drop
//!   — the sender's transmit energy is charged, no receive is charged,
//!   the mixing weight folds back into the receiver's self weight, and
//!   error-feedback replicas do not advance.
//!
//! Everything is drawn from dedicated seed streams via the same
//! `derive_seed`/`stream_rng` discipline the rest of the workspace uses,
//! so a run is a pure function of `(config, seed)` at every thread count;
//! `begin_round` itself is serial and allocation-free at steady state
//! (the heap, masks, and scratch vectors retain capacity across rounds).

use crate::executor::RoundAction;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use skiptrain_linalg::rng::{derive_seed, stream_rng};
use skiptrain_topology::MixingMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual ticks a homogeneous training round costs. Sync-only rounds
/// cost zero compute ticks (the model is shared as-is); latency and
/// straggler factors scale relative to this base, so its absolute value
/// only fixes the resolution of the virtual clock.
pub const BASE_TRAIN_TICKS: u64 = 1_000_000;

/// Seed stream for per-(round, node) compute-time draws.
const COMPUTE_STREAM: u64 = 0xEC01;
/// Seed stream for per-(round, edge) latency draws.
const LATENCY_STREAM: u64 = 0xEC02;
/// Seed stream for per-(round, node) churn draws.
const CHURN_STREAM: u64 = 0xEC03;

/// A typed simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `node` finished its local-compute phase for the round.
    TrainComplete {
        /// The node whose compute finished.
        node: u32,
    },
    /// The message on directed edge `src → dst` reached the receiver.
    MessageArrive {
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
    },
    /// The round-boundary policy point: harvest recharge, battery gating,
    /// and churn decisions all resolve here.
    PolicyTick,
    /// `node` (re)joined the fleet.
    Join {
        /// The joining node.
        node: u32,
    },
    /// `node` left the fleet; its clock freezes and it costs nothing
    /// until a later [`Event::Join`].
    Leave {
        /// The leaving node.
        node: u32,
    },
    /// The round closed; evaluation observers may fire.
    EvalTick,
}

/// A scheduled event: ordered by `(time, seq)` — earliest tick first,
/// insertion order within a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    key: Reverse<(u64, u64)>,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic priority queue of [`Event`]s.
///
/// Keys are `(time, seq)` where `seq` is a monotone counter assigned at
/// push: ties at the same virtual tick pop in insertion order, making the
/// pop sequence a pure function of the push sequence — reproducible
/// across runs, platforms, and rayon pool sizes.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at virtual tick `time`.
    pub fn push(&mut self, time: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            key: Reverse((time, seq)),
            event,
        });
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|s| {
            let Reverse((time, _)) = s.key;
            (time, s.event)
        })
    }

    /// The tick of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|s| s.key.0 .0)
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// How long a node's local-compute phase takes, in virtual ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum ComputeProfile {
    /// Every node trains in exactly [`BASE_TRAIN_TICKS`] — the lockstep
    /// assumption, and the default.
    #[default]
    Homogeneous,
    /// Explicit per-node speed factors: node `i` trains in
    /// `factors[i] × BASE_TRAIN_TICKS`. Must hold one finite positive
    /// factor per node.
    PerNode {
        /// Round-duration multiplier per node (`1.0` = nominal speed).
        factors: Vec<f64>,
    },
    /// A two-point straggler distribution: each (round, node) draw is a
    /// straggler with probability `tail_prob`, training `tail_factor ×`
    /// slower than nominal that round. This is the classic transient
    /// straggler tail (thermal throttling, background load) rather than a
    /// permanently slow device — use [`ComputeProfile::PerNode`] for
    /// those.
    StragglerTail {
        /// Probability a given node straggles in a given round.
        tail_prob: f64,
        /// Slowdown multiplier applied to a straggling round (`≥ 1`).
        tail_factor: f64,
    },
}

/// Scales a tick count by a factor, keeping at least one tick.
fn scale_ticks(base: u64, factor: f64) -> u64 {
    ((base as f64) * factor).round().max(1.0) as u64
}

impl ComputeProfile {
    /// True for the homogeneous (lockstep-equivalent) profile.
    pub fn is_uniform(&self) -> bool {
        matches!(self, ComputeProfile::Homogeneous)
    }

    /// Virtual ticks `node`'s training takes in `round`. Deterministic in
    /// `(seed, round, node)`.
    pub fn train_ticks(&self, seed: u64, round: u64, node: usize, base: u64) -> u64 {
        match self {
            ComputeProfile::Homogeneous => base,
            ComputeProfile::PerNode { factors } => scale_ticks(base, factors[node]),
            ComputeProfile::StragglerTail {
                tail_prob,
                tail_factor,
            } => {
                let mut rng = stream_rng(seed, (round << 24) | node as u64);
                if rng.random::<f64>() < *tail_prob {
                    scale_ticks(base, *tail_factor)
                } else {
                    base
                }
            }
        }
    }
}

/// Per-link message delivery delay, in virtual ticks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LatencyModel {
    /// Instant delivery — the lockstep assumption, and the default.
    #[default]
    Zero,
    /// Every link delays every message by a fixed tick count.
    Constant {
        /// Delivery delay in virtual ticks.
        ticks: u64,
    },
    /// Seeded per-(round, edge) uniform jitter around a mean:
    /// `mean_ticks × (1 ± jitter)` with `jitter ∈ [0, 1]`.
    Seeded {
        /// Mean delivery delay in virtual ticks.
        mean_ticks: u64,
        /// Relative half-width of the uniform jitter band (`0` = constant).
        jitter: f64,
    },
}

impl LatencyModel {
    /// True for the zero-latency (lockstep-equivalent) model.
    pub fn is_zero(&self) -> bool {
        matches!(self, LatencyModel::Zero)
    }

    /// Virtual ticks the message on `src → dst` spends in flight in
    /// `round`. Deterministic in `(seed, round, src, dst)`.
    pub fn link_ticks(&self, seed: u64, round: u64, src: usize, dst: usize) -> u64 {
        match *self {
            LatencyModel::Zero => 0,
            LatencyModel::Constant { ticks } => ticks,
            LatencyModel::Seeded { mean_ticks, jitter } => {
                let stream = (round << 40) ^ ((src as u64) << 20) ^ dst as u64;
                let mut rng = stream_rng(seed, stream);
                let u = 2.0 * rng.random::<f64>() - 1.0;
                scale_ticks(mean_ticks.max(1), 1.0 + jitter * u)
            }
        }
    }
}

/// Seeded per-round membership churn: each present node leaves with
/// `leave_prob`, each absent node rejoins with `rejoin_prob`, decided at
/// the round-boundary [`Event::PolicyTick`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Per-round probability a present node leaves.
    pub leave_prob: f64,
    /// Per-round probability an absent node rejoins.
    pub rejoin_prob: f64,
}

/// What closes a round — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundSemantics {
    /// Wait for every message: stragglers and latency stretch virtual
    /// time but never drop an edge (the synchronous runner).
    Barrier,
    /// Close the round `slack_ticks` after the slowest participant's
    /// compute finishes; later arrivals are late edges, treated as drops
    /// (async gossip).
    Deadline {
        /// Grace period after the last compute completion, in ticks.
        slack_ticks: u64,
    },
}

/// Aggregate event-layer counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStats {
    /// Total events processed.
    pub events: u64,
    /// Messages that missed their round deadline (deadline semantics only).
    pub late_messages: u64,
    /// Churn join events applied.
    pub joins: u64,
    /// Churn leave events applied.
    pub leaves: u64,
}

/// The per-fleet event runtime: the queue, per-node virtual clocks, the
/// churn presence mask, and the reusable per-round outputs the executor
/// consumes ([`EventEngine::late_edges`] and the gated action/mixing
/// buffers). One engine drives one simulation across its whole run.
#[derive(Debug, Clone)]
pub struct EventEngine {
    seed: u64,
    compute: ComputeProfile,
    latency: LatencyModel,
    churn: Option<ChurnModel>,
    semantics: RoundSemantics,
    queue: EventQueue,
    /// Per-node virtual clock: where this node's local time stands.
    /// Present nodes resynchronize at every round boundary (they wait at
    /// the barrier / deadline); an absent node's clock freezes until it
    /// rejoins.
    clocks: Vec<u64>,
    present: Vec<bool>,
    absent: usize,
    /// Per-node compute-completion tick for the current round.
    completions: Vec<u64>,
    /// Sorted directed edges whose message missed the round deadline.
    late: Vec<(u32, u32)>,
    /// Presence-gated actions (absent nodes demoted to `SyncOnly`).
    pub(crate) gated: Vec<RoundAction>,
    /// Presence-masked effective mixing (identity rows for absent nodes).
    pub(crate) masked: MixingMatrix,
    now: u64,
    stats: EventStats,
}

impl EventEngine {
    /// Creates an engine for an `n`-node fleet.
    ///
    /// # Panics
    /// Panics if `n == 0`, if a [`ComputeProfile::PerNode`] factor vector
    /// does not hold one finite positive factor per node, if straggler or
    /// churn probabilities fall outside `[0, 1]`, if a straggler tail
    /// factor is below `1`, or if a seeded latency jitter falls outside
    /// `[0, 1]`. (The core crate's config validation reports these as
    /// typed errors before an engine is ever built.)
    pub fn new(
        n: usize,
        seed: u64,
        compute: ComputeProfile,
        latency: LatencyModel,
        churn: Option<ChurnModel>,
        semantics: RoundSemantics,
    ) -> Self {
        assert!(n > 0, "empty fleet");
        match &compute {
            ComputeProfile::Homogeneous => {}
            ComputeProfile::PerNode { factors } => {
                assert_eq!(factors.len(), n, "one compute factor per node required");
                assert!(
                    factors.iter().all(|f| f.is_finite() && *f > 0.0),
                    "compute factors must be finite and positive"
                );
            }
            ComputeProfile::StragglerTail {
                tail_prob,
                tail_factor,
            } => {
                assert!(
                    tail_prob.is_finite() && (0.0..=1.0).contains(tail_prob),
                    "straggler probability must lie in [0, 1]"
                );
                assert!(
                    tail_factor.is_finite() && *tail_factor >= 1.0,
                    "straggler tail factor must be ≥ 1"
                );
            }
        }
        if let LatencyModel::Seeded { jitter, .. } = latency {
            assert!(
                jitter.is_finite() && (0.0..=1.0).contains(&jitter),
                "latency jitter must lie in [0, 1]"
            );
        }
        if let Some(c) = churn {
            assert!(
                c.leave_prob.is_finite() && (0.0..=1.0).contains(&c.leave_prob),
                "leave probability must lie in [0, 1]"
            );
            assert!(
                c.rejoin_prob.is_finite() && (0.0..=1.0).contains(&c.rejoin_prob),
                "rejoin probability must lie in [0, 1]"
            );
        }
        Self {
            seed,
            compute,
            latency,
            churn,
            semantics,
            queue: EventQueue::new(),
            clocks: vec![0; n],
            present: vec![true; n],
            absent: 0,
            completions: vec![0; n],
            late: Vec::new(),
            gated: Vec::with_capacity(n),
            masked: MixingMatrix::identity(n),
            now: 0,
            stats: EventStats::default(),
        }
    }

    /// A lockstep-equivalent engine: homogeneous compute, zero latency,
    /// no churn, barrier rounds. Driving a simulation through this engine
    /// reproduces the legacy synchronous loop bit for bit while stamping
    /// the energy ledger with virtual round-end times.
    pub fn lockstep(n: usize, seed: u64) -> Self {
        Self::new(
            n,
            seed,
            ComputeProfile::Homogeneous,
            LatencyModel::Zero,
            None,
            RoundSemantics::Barrier,
        )
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True for a zero-node engine (not constructible).
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Current virtual time (the last closed round's end tick).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregate event counters so far.
    pub fn stats(&self) -> EventStats {
        self.stats
    }

    /// Per-node presence mask after the last round's churn draws.
    pub fn present(&self) -> &[bool] {
        &self.present
    }

    /// True when no node is currently absent.
    pub fn all_present(&self) -> bool {
        self.absent == 0
    }

    /// Directed edges whose message missed the last round's deadline,
    /// sorted ascending. Always empty under barrier semantics.
    pub fn late_edges(&self) -> &[(u32, u32)] {
        &self.late
    }

    /// Plays one round's events: churn draws at the policy tick, per-node
    /// compute completions, per-edge message arrivals, deadline
    /// classification, and the closing eval tick. After this returns,
    /// [`EventEngine::now`] is the round-end tick, and
    /// [`EventEngine::present`] / [`EventEngine::late_edges`] describe
    /// what the executor must mask.
    ///
    /// Serial and deterministic: the outcome is a pure function of
    /// `(seed, round, actions, mixing, presence)`.
    ///
    /// # Panics
    /// Panics if `actions` or `mixing` disagree with the fleet size.
    pub fn begin_round(&mut self, round: usize, actions: &[RoundAction], mixing: &MixingMatrix) {
        let n = self.len();
        assert_eq!(actions.len(), n, "one action per node required");
        assert_eq!(mixing.len(), n, "mixing matrix size mismatch");
        debug_assert!(self.queue.is_empty(), "previous round fully drained");
        let round_u = round as u64;

        // Policy tick: all membership changes resolve at the round
        // boundary, in node order (the push sequence fixes tie order).
        self.queue.push(self.now, Event::PolicyTick);
        if let Some(churn) = self.churn {
            let cseed = derive_seed(self.seed, CHURN_STREAM);
            for i in 0..n {
                let mut rng = stream_rng(cseed, (round_u << 24) | i as u64);
                let u = rng.random::<f64>();
                if self.present[i] {
                    if u < churn.leave_prob {
                        self.queue.push(self.now, Event::Leave { node: i as u32 });
                    }
                } else if u < churn.rejoin_prob {
                    self.queue.push(self.now, Event::Join { node: i as u32 });
                }
            }
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.stats.events += 1;
            match ev {
                Event::PolicyTick => {}
                Event::Leave { node } => {
                    self.present[node as usize] = false;
                    self.absent += 1;
                    self.stats.leaves += 1;
                }
                Event::Join { node } => {
                    // the rejoining clock jumps to the current boundary:
                    // no virtual time passed for work it never did
                    self.present[node as usize] = true;
                    self.clocks[node as usize] = t;
                    self.absent -= 1;
                    self.stats.joins += 1;
                }
                // lint:allow(no_panic, "phase invariant: the boundary queue is drained before compute events are pushed")
                _ => unreachable!("only churn events fire at the round boundary"),
            }
        }

        // Compute phase: every present node finishes its local work at
        // clock + cost (sync-only rounds share the model as-is, costing
        // zero compute ticks).
        let cseed = derive_seed(self.seed, COMPUTE_STREAM);
        let mut latest_completion = self.now;
        for (i, &action) in actions.iter().enumerate() {
            if !self.present[i] {
                self.completions[i] = self.clocks[i];
                continue;
            }
            let cost = match action {
                RoundAction::Train => self
                    .compute
                    .train_ticks(cseed, round_u, i, BASE_TRAIN_TICKS),
                RoundAction::SyncOnly => 0,
            };
            self.queue.push(
                self.clocks[i] + cost,
                Event::TrainComplete { node: i as u32 },
            );
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.stats.events += 1;
            let Event::TrainComplete { node } = ev else {
                // lint:allow(no_panic, "phase invariant: the queue was empty at phase start and only TrainComplete was pushed")
                unreachable!("compute phase only schedules completions")
            };
            self.completions[node as usize] = t;
            latest_completion = latest_completion.max(t);
        }

        // Message propagation over the round's effective edges: each
        // present sender's message departs at its completion tick and
        // arrives after the link latency.
        let lseed = derive_seed(self.seed, LATENCY_STREAM);
        // reserve for the graph's full edge census (not this round's
        // presence-filtered arrivals): a later round with a record
        // presence count must never reallocate the late-edge buffer
        let worst_edges: usize = (0..n).map(|i| mixing.row(i).len().saturating_sub(1)).sum();
        for i in 0..n {
            if !self.present[i] {
                continue;
            }
            for &(j, _) in mixing.row(i) {
                let src = j as usize;
                if src == i || !self.present[src] {
                    continue;
                }
                let arrival =
                    self.completions[src] + self.latency.link_ticks(lseed, round_u, src, i);
                self.queue.push(
                    arrival,
                    Event::MessageArrive {
                        src: j,
                        dst: i as u32,
                    },
                );
            }
        }
        let deadline = match self.semantics {
            RoundSemantics::Barrier => u64::MAX,
            RoundSemantics::Deadline { slack_ticks } => {
                latest_completion.saturating_add(slack_ticks)
            }
        };
        self.late.clear();
        self.late.reserve(worst_edges);
        let mut round_end = latest_completion;
        let mut any_late = false;
        while let Some((t, ev)) = self.queue.pop() {
            self.stats.events += 1;
            let Event::MessageArrive { src, dst } = ev else {
                // lint:allow(no_panic, "phase invariant: the queue was empty at phase start and only MessageArrive was pushed")
                unreachable!("propagation phase only schedules arrivals")
            };
            if t > deadline {
                self.late.push((src, dst));
                self.stats.late_messages += 1;
                any_late = true;
            } else {
                round_end = round_end.max(t);
            }
        }
        // A deadline round that actually timed anyone out ran its full
        // grace period; otherwise the round closes at the last arrival.
        if any_late {
            round_end = deadline;
        }
        self.late.sort_unstable();

        // Eval tick closes the round; every present node waited at the
        // barrier/deadline, so their clocks resynchronize here. Absent
        // clocks stay frozen.
        self.queue.push(round_end, Event::EvalTick);
        // lint:allow(no_panic, "provably infallible: the eval tick was pushed on the line above")
        let (t, _) = self.queue.pop().expect("eval tick just scheduled");
        self.stats.events += 1;
        self.now = t;
        for (clock, &on) in self.clocks.iter_mut().zip(&self.present) {
            if on {
                *clock = t;
            }
        }
    }

    /// Materializes the presence-gated actions and the presence-masked
    /// effective mixing for the executor's slow path (some node absent or
    /// some edge late). Reuses internal buffers; allocation-free at
    /// steady state.
    pub(crate) fn compose_gating(&mut self, actions: &[RoundAction], mixing: &MixingMatrix) {
        self.gated.clear();
        self.gated
            .extend(actions.iter().zip(&self.present).map(|(&a, &on)| {
                if on {
                    a
                } else {
                    RoundAction::SyncOnly
                }
            }));
        mixing.masked_into(&self.present, &mut self.masked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_topology::{Graph, MixingMatrix};

    fn ring_mixing(n: usize) -> MixingMatrix {
        MixingMatrix::metropolis_hastings(&Graph::ring(n))
    }

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(5, Event::EvalTick);
        q.push(3, Event::TrainComplete { node: 1 });
        q.push(3, Event::TrainComplete { node: 0 });
        q.push(4, Event::PolicyTick);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, Event::TrainComplete { node: 1 })));
        assert_eq!(q.pop(), Some((3, Event::TrainComplete { node: 0 })));
        assert_eq!(q.pop(), Some((4, Event::PolicyTick)));
        assert_eq!(q.pop(), Some((5, Event::EvalTick)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn straggler_draws_are_deterministic_and_bounded() {
        let p = ComputeProfile::StragglerTail {
            tail_prob: 0.25,
            tail_factor: 4.0,
        };
        let mut stragglers = 0;
        for round in 0..50u64 {
            for node in 0..16 {
                let a = p.train_ticks(9, round, node, BASE_TRAIN_TICKS);
                let b = p.train_ticks(9, round, node, BASE_TRAIN_TICKS);
                assert_eq!(a, b, "same (seed, round, node) must redraw identically");
                assert!(a == BASE_TRAIN_TICKS || a == 4 * BASE_TRAIN_TICKS);
                if a > BASE_TRAIN_TICKS {
                    stragglers += 1;
                }
            }
        }
        // 25% tail over 800 draws: loose two-sided sanity band
        assert!((100..300).contains(&stragglers), "got {stragglers}");
    }

    #[test]
    fn seeded_latency_is_deterministic_and_stays_in_the_jitter_band() {
        let l = LatencyModel::Seeded {
            mean_ticks: 1000,
            jitter: 0.5,
        };
        for round in 0..20u64 {
            let a = l.link_ticks(7, round, 2, 5);
            assert_eq!(a, l.link_ticks(7, round, 2, 5));
            assert!((500..=1500).contains(&a), "got {a}");
        }
        // directed edges draw independently
        assert_ne!(
            (0..20u64).map(|r| l.link_ticks(7, r, 2, 5)).sum::<u64>(),
            (0..20u64).map(|r| l.link_ticks(7, r, 5, 2)).sum::<u64>(),
        );
    }

    #[test]
    fn barrier_rounds_have_no_late_edges_and_advance_time() {
        let n = 8;
        let mixing = ring_mixing(n);
        let actions = vec![RoundAction::Train; n];
        let mut e = EventEngine::new(
            n,
            3,
            ComputeProfile::StragglerTail {
                tail_prob: 0.3,
                tail_factor: 5.0,
            },
            LatencyModel::Constant { ticks: 250_000 },
            None,
            RoundSemantics::Barrier,
        );
        for round in 0..10 {
            e.begin_round(round, &actions, &mixing);
            assert!(e.late_edges().is_empty());
            assert!(e.all_present());
        }
        // ≥ 10 training rounds + latency of virtual time elapsed
        assert!(e.now() >= 10 * BASE_TRAIN_TICKS + 250_000);
    }

    #[test]
    fn deadline_rounds_mark_slow_senders_late() {
        let n = 6;
        let mixing = ring_mixing(n);
        let actions = vec![RoundAction::Train; n];
        // node 0 is 3× slower than the rest; the deadline is one quarter
        // round after the *fastest cohort* — wait, after the slowest — so
        // nothing can be late from compute alone. Use latency to push
        // node 0's outgoing messages past the deadline instead: every
        // link delays by more than the slack.
        let mut e = EventEngine::new(
            n,
            11,
            ComputeProfile::Homogeneous,
            LatencyModel::Constant {
                ticks: BASE_TRAIN_TICKS / 2,
            },
            None,
            RoundSemantics::Deadline {
                slack_ticks: BASE_TRAIN_TICKS / 4,
            },
        );
        e.begin_round(0, &actions, &mixing);
        // every edge's arrival (completion + half round) exceeds the
        // deadline (completion + quarter round): all 2n ring edges late
        assert_eq!(e.late_edges().len(), 2 * n);
        assert!(e.late_edges().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(e.stats().late_messages, 2 * n as u64);
    }

    #[test]
    fn churn_draws_are_deterministic_and_freeze_absent_clocks() {
        let n = 10;
        let mixing = ring_mixing(n);
        let actions = vec![RoundAction::Train; n];
        let build = || {
            EventEngine::new(
                n,
                21,
                ComputeProfile::Homogeneous,
                LatencyModel::Zero,
                Some(ChurnModel {
                    leave_prob: 0.3,
                    rejoin_prob: 0.4,
                }),
                RoundSemantics::Barrier,
            )
        };
        let mut a = build();
        let mut b = build();
        let mut saw_absent = false;
        for round in 0..20 {
            a.begin_round(round, &actions, &mixing);
            b.begin_round(round, &actions, &mixing);
            assert_eq!(a.present(), b.present());
            saw_absent |= !a.all_present();
        }
        assert!(saw_absent, "30% churn over 20 rounds should evict someone");
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().leaves > 0 && a.stats().joins > 0);
    }

    #[test]
    fn gating_demotes_absent_nodes_and_masks_their_rows() {
        let n = 5;
        let mixing = ring_mixing(n);
        let actions = vec![RoundAction::Train; n];
        let mut e = EventEngine::new(
            n,
            1,
            ComputeProfile::Homogeneous,
            LatencyModel::Zero,
            // leave_prob 1: everyone departs at the first policy tick
            Some(ChurnModel {
                leave_prob: 1.0,
                rejoin_prob: 0.0,
            }),
            RoundSemantics::Barrier,
        );
        e.begin_round(0, &actions, &mixing);
        assert!(e.present().iter().all(|&p| !p));
        e.compose_gating(&actions, &mixing);
        assert!(e.gated.iter().all(|&a| a == RoundAction::SyncOnly));
        for i in 0..n {
            assert_eq!(e.masked.row(i), &[(i as u32, 1.0)]);
        }
    }

    #[test]
    fn lockstep_engine_advances_one_base_round_per_round() {
        let n = 4;
        let mixing = ring_mixing(n);
        let actions = vec![RoundAction::Train; n];
        let mut e = EventEngine::lockstep(n, 42);
        for round in 0..7 {
            e.begin_round(round, &actions, &mixing);
        }
        assert_eq!(e.now(), 7 * BASE_TRAIN_TICKS);
        let mut sync = EventEngine::lockstep(n, 42);
        sync.begin_round(0, &[RoundAction::SyncOnly; 4], &mixing);
        assert_eq!(sync.now(), 0, "sync-only rounds cost zero compute ticks");
    }
}
