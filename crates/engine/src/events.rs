//! The discrete-event simulation core.
//!
//! A lockstep loop assumes every node computes at the same speed and
//! every message arrives instantly — fine for the paper's synchronous
//! experiments, not for the energy-harvesting fleets it targets, where
//! compute speeds differ, links carry latency, and nodes join and leave
//! as charge allows. This module supplies the timing layer for both:
//!
//! * [`ComputeProfile`] — per-node virtual clock rates: homogeneous,
//!   explicit per-node speed factors, or a seeded straggler tail.
//! * [`LatencyModel`] — per-link delivery delay: zero, constant, or a
//!   seeded per-(round, edge) distribution.
//! * [`ChurnModel`] — seeded per-round leave/rejoin draws; an absent
//!   node's clock freezes and it costs nothing until it rejoins.
//! * [`EventEngine`] — per-node clocks plus the round driver
//!   [`EventEngine::begin_round`], which times one round and reports the
//!   presence mask and the edges whose messages missed the deadline.
//!
//! # A round's timeline is three passes
//!
//! A round is phase-structured — boundary (churn draws in node order),
//! compute (`completion = clock + cost`), propagation (`arrival =
//! completion[src] + latency`, late when past the deadline) — and the
//! phases never overlap, so `begin_round` walks them in order with no
//! event queue. The engine decides *membership* and nothing else about who
//! takes part: inside a simulation round the executor runs the boundary
//! pass, lets the participation gate fold the presence mask with the
//! battery's, and hands the other two passes the gated actions and masked
//! mixing — whoever sits the round out has no edges there and trains for
//! zero ticks, so virtual time, the event counter and the late set come
//! from exactly what the round plan and the ledger see. No decision
//! depends on the order events would pop in: an event's time feeds only a
//! `max`, a `> deadline` test and a counter ([`EventStats::events`]), and
//! the late list is sorted afterwards. A priority queue returns the day
//! rounds overlap (a barrier-free variant); the `skiptrain-oracle` crate
//! keeps one as the reference `begin_round` is checked against.
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
//! (the mask and scratch vectors retain capacity across rounds).

use crate::executor::RoundAction;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use skiptrain_linalg::rng::{derive_seed, stream_rng};
use skiptrain_topology::MixingMatrix;

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
/// the round-boundary policy tick.
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
    /// Timeline events: per round a policy tick, the joins and leaves, a
    /// completion per present node, an arrival per edge that fired, an eval
    /// tick.
    pub events: u64,
    /// Messages that missed their round deadline (deadline semantics only).
    pub late_messages: u64,
    /// Churn join events applied.
    pub joins: u64,
    /// Churn leave events applied.
    pub leaves: u64,
}

/// The per-fleet event runtime: per-node virtual clocks, the churn
/// presence mask, and the sorted late-edge set of the last round
/// ([`EventEngine::late_edges`]). One engine drives one simulation across
/// its whole run.
#[derive(Debug, Clone)]
pub struct EventEngine {
    seed: u64,
    compute: ComputeProfile,
    latency: LatencyModel,
    churn: Option<ChurnModel>,
    semantics: RoundSemantics,
    /// Per-node virtual clock: where this node's local time stands.
    /// Present nodes resynchronize at every round boundary (they wait at
    /// the barrier / deadline); an absent node's clock freezes until it
    /// rejoins.
    clocks: Vec<u64>,
    present: Vec<bool>,
    /// Per-node compute-completion tick for the current round.
    completions: Vec<u64>,
    /// Sorted directed edges whose message missed the round deadline.
    late: Vec<(u32, u32)>,
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
        let unit = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
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
                assert!(unit(*tail_prob), "straggler probability must lie in [0, 1]");
                assert!(
                    tail_factor.is_finite() && *tail_factor >= 1.0,
                    "straggler tail factor must be ≥ 1"
                );
            }
        }
        if let LatencyModel::Seeded { jitter, .. } = latency {
            assert!(unit(jitter), "latency jitter must lie in [0, 1]");
        }
        if let Some(c) = churn {
            assert!(unit(c.leave_prob), "leave probability must lie in [0, 1]");
            assert!(unit(c.rejoin_prob), "rejoin probability must lie in [0, 1]");
        }
        Self {
            seed,
            compute,
            latency,
            churn,
            semantics,
            clocks: vec![0; n],
            present: vec![true; n],
            completions: vec![0; n],
            late: Vec::new(),
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

    /// Directed edges whose message missed the last round's deadline,
    /// sorted ascending. Always empty under barrier semantics.
    pub fn late_edges(&self) -> &[(u32, u32)] {
        &self.late
    }

    /// Times one round in three passes (see the module docs): the
    /// membership pass, then the timeline over `actions` and `mixing` as
    /// given. After this returns, [`EventEngine::now`] is the round-end
    /// tick, and [`EventEngine::present`] / [`EventEngine::late_edges`]
    /// describe who was there and which messages missed the deadline. The
    /// executor drives the two halves itself, with the participation gate
    /// between them.
    ///
    /// Serial and deterministic: the outcome is a pure function of
    /// `(seed, round, actions, mixing, presence)`.
    ///
    /// # Panics
    /// Panics if `actions` or `mixing` disagree with the fleet size.
    pub fn begin_round(&mut self, round: usize, actions: &[RoundAction], mixing: &MixingMatrix) {
        assert_eq!(actions.len(), self.len(), "one action per node required");
        assert_eq!(mixing.len(), self.len(), "mixing matrix size mismatch");
        self.membership(round, mixing);
        self.timeline(round, actions, mixing);
    }

    /// Boundary pass: the policy tick resolves membership, in node order.
    /// Also sizes the late-edge buffer for `base`'s full edge census (not
    /// this round's gated arrivals): a later round with a record
    /// participation count must never reallocate it.
    pub(crate) fn membership(&mut self, round: usize, base: &MixingMatrix) {
        let n = self.len();
        let worst_edges: usize = (0..n).map(|i| base.row(i).len().saturating_sub(1)).sum();
        self.late.clear();
        self.late.reserve(worst_edges);
        self.stats.events += 1;
        if let Some(churn) = self.churn {
            let cseed = derive_seed(self.seed, CHURN_STREAM);
            for i in 0..n {
                let mut rng = stream_rng(cseed, ((round as u64) << 24) | i as u64);
                let u = rng.random::<f64>();
                if self.present[i] {
                    if u < churn.leave_prob {
                        self.present[i] = false;
                        self.stats.leaves += 1;
                        self.stats.events += 1;
                    }
                } else if u < churn.rejoin_prob {
                    // the rejoining clock jumps to the current boundary:
                    // no virtual time passed for work it never did
                    self.present[i] = true;
                    self.clocks[i] = self.now;
                    self.stats.joins += 1;
                    self.stats.events += 1;
                }
            }
        }
    }

    /// Compute and propagation passes plus the eval tick, after
    /// [`EventEngine::membership`] (which emptied the late set), over the
    /// actions and mixing the round really runs — the gate's, under the
    /// executor, so sitting a round out costs no virtual time.
    pub(crate) fn timeline(
        &mut self,
        round: usize,
        actions: &[RoundAction],
        mixing: &MixingMatrix,
    ) {
        let n = self.len();
        let round_u = round as u64;

        // Compute: a present node finishes at clock + cost (sync-only
        // rounds share the model as-is, costing zero compute ticks).
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
            self.completions[i] = self.clocks[i] + cost;
            latest_completion = latest_completion.max(self.completions[i]);
            self.stats.events += 1;
        }

        // Propagation over the round's effective edges: a message departs
        // at its sender's completion and arrives after the link latency.
        let lseed = derive_seed(self.seed, LATENCY_STREAM);
        let deadline = match self.semantics {
            RoundSemantics::Barrier => u64::MAX,
            RoundSemantics::Deadline { slack_ticks } => {
                latest_completion.saturating_add(slack_ticks)
            }
        };
        let mut round_end = latest_completion;
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
                if arrival > deadline {
                    self.late.push((j, i as u32));
                } else {
                    round_end = round_end.max(arrival);
                }
                self.stats.events += 1;
            }
        }
        // A deadline round that actually timed anyone out ran its full
        // grace period; otherwise the round closes at the last arrival.
        if !self.late.is_empty() {
            round_end = deadline;
        }
        self.stats.late_messages += self.late.len() as u64;
        self.late.sort_unstable();

        // The eval tick closes the round; every present node waited at the
        // barrier/deadline, so their clocks resynchronize here. Absent
        // clocks stay frozen.
        self.stats.events += 1;
        self.now = round_end;
        for (clock, &on) in self.clocks.iter_mut().zip(&self.present) {
            if on {
                *clock = round_end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skiptrain_oracle::queue::{Churn, Timeline};
    use skiptrain_topology::{Graph, MixingMatrix};

    fn ring_mixing(n: usize) -> MixingMatrix {
        MixingMatrix::metropolis_hastings(&Graph::ring(n))
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
            assert!(e.present().iter().all(|&on| on));
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
            saw_absent |= a.present().contains(&false);
        }
        assert!(saw_absent, "30% churn over 20 rounds should evict someone");
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().leaves > 0 && a.stats().joins > 0);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The three-pass timeline and the queue replay agree on everything
        // the executor and the result summary read, after every round.
        #[test]
        fn timeline_matches_a_queue_replay(
            seed in 0u64..10_000,
            n in 4usize..40,
            density in 0.05f64..1.0,
            profile in 0u8..3,
            latency in 0u8..3,
            latency_ticks in 0u64..BASE_TRAIN_TICKS,
            jitter in 0.0f64..1.0,
            churn in 0u8..3,
            deadline in 0u8..3,
            slack_ticks in 0u64..BASE_TRAIN_TICKS,
            train_prob in 0.0f64..1.0,
            rounds in 6usize..10,
        ) {
            let mut rng = stream_rng(seed, 0x7E57);
            let mut graph = Graph::ring(n);
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if rng.random::<f64>() < density && !graph.has_edge(a as usize, b as usize) {
                        graph.add_edge(a, b);
                    }
                }
            }
            let mixing = MixingMatrix::metropolis_hastings(&graph);
            let compute = match profile {
                0 => ComputeProfile::Homogeneous,
                1 => ComputeProfile::PerNode {
                    factors: (0..n).map(|_| 0.25 + 3.0 * rng.random::<f64>()).collect(),
                },
                _ => ComputeProfile::StragglerTail { tail_prob: 0.3, tail_factor: 4.0 },
            };
            let latency = match latency {
                0 => LatencyModel::Zero,
                1 => LatencyModel::Constant { ticks: latency_ticks },
                _ => LatencyModel::Seeded { mean_ticks: latency_ticks, jitter },
            };
            let churn = match churn {
                0 => None,
                1 => Some(ChurnModel { leave_prob: 0.1, rejoin_prob: 0.5 }),
                _ => Some(ChurnModel { leave_prob: 0.6, rejoin_prob: 0.3 }),
            };
            let semantics = match deadline {
                0 => RoundSemantics::Barrier,
                1 => RoundSemantics::Deadline { slack_ticks },
                // the last sender's messages land exactly on the deadline
                // (on time) when every link takes the same ticks
                _ => RoundSemantics::Deadline {
                    slack_ticks: match latency {
                        LatencyModel::Constant { ticks } => ticks,
                        _ => 0,
                    },
                },
            };
            let mut engine = EventEngine::new(n, seed, compute, latency, churn, semantics);
            let rows: Vec<Vec<(u32, f32)>> = (0..n).map(|i| mixing.row(i).to_vec()).collect();
            let slack = match semantics {
                RoundSemantics::Barrier => None,
                RoundSemantics::Deadline { slack_ticks } => Some(slack_ticks),
            };
            let mut replay = Timeline::new(n);
            for round in 0..rounds {
                let actions: Vec<RoundAction> = (0..n)
                    .map(|_| match rng.random::<f64>() < train_prob {
                        true => RoundAction::Train,
                        false => RoundAction::SyncOnly,
                    })
                    .collect();
                engine.begin_round(round, &actions, &mixing);
                // the engine's draws, handed to the replay as plain values
                let round = round as u64;
                let (cseed, tseed, lseed) = (
                    derive_seed(seed, CHURN_STREAM),
                    derive_seed(seed, COMPUTE_STREAM),
                    derive_seed(seed, LATENCY_STREAM),
                );
                let draws: Vec<f64> = (0..n)
                    .map(|i| stream_rng(cseed, (round << 24) | i as u64).random::<f64>())
                    .collect();
                let cost: Vec<u64> = (0..n)
                    .map(|i| match actions[i] {
                        RoundAction::Train => engine.compute.train_ticks(tseed, round, i, BASE_TRAIN_TICKS),
                        RoundAction::SyncOnly => 0,
                    })
                    .collect();
                let churn = churn.map(|c| Churn {
                    leave_prob: c.leave_prob,
                    rejoin_prob: c.rejoin_prob,
                    draws: &draws,
                });
                let link = |src, dst| engine.latency.link_ticks(lseed, round, src, dst);
                replay.round(&rows, churn, &cost, link, slack);
                let stats = EventStats {
                    events: replay.events,
                    late_messages: replay.late_messages,
                    joins: replay.joins,
                    leaves: replay.leaves,
                };
                prop_assert_eq!(engine.now(), replay.now, "round {}", round);
                prop_assert_eq!(engine.stats(), stats, "round {}", round);
                prop_assert_eq!(engine.present(), &replay.present[..], "round {}", round);
                prop_assert_eq!(engine.late_edges(), &replay.late[..], "round {}", round);
                prop_assert_eq!(&engine.clocks, &replay.clocks, "round {}", round);
            }
        }
    }
}
