//! Per-node battery charge state machines and participation policies.
//!
//! This module closes the loop the rest of the crate only records: a
//! [`BatteryState`] holds each node's charge in watt-hours, recharged by a
//! [`crate::trace::HarvestTrace`] and drained by the actual training and
//! communication spend the [`crate::ledger::EnergyLedger`] attributes to
//! the node, and a [`BatteryPolicy`] turns charge into a per-round
//! participation decision (train + gossip, or stay silent).
//!
//! # Drain/recharge model and units
//!
//! Everything is in watt-hours, the ledger's unit. Per simulated round,
//! the engine takes each node through steps 1–3 in one pass, after the
//! round's membership churn is drawn, so step 3 knows who is present; an
//! absent node still recharges and is still asked in step 2:
//!
//! 1. **Recharge**: the harvest trace offers the node
//!    `P_i(t) · Δ_round / 3600` Wh; the battery accepts what fits below
//!    capacity and counts the clipped remainder as *wasted*.
//! 2. **Decision**: the node's policy maps its charge fraction to take
//!    part or not (see [`BatteryPolicy::decide_node`]), advancing the
//!    policy's memory.
//! 3. **Brown-out**: a present node that decided to train but holds less
//!    charge than its per-round training cost burns its remaining charge
//!    to zero and drops out of the round (an absent node attempts nothing
//!    and burns nothing) — partial work is lost, which is exactly
//!    why threshold policies ("only train when battery ≥ 20 %", the
//!    xaynet participant rule) beat always-on under trickle harvests.
//! 4. **Drain**: after the round was timed and run over the participants
//!    only, each participant is debited its ledger delta (training + tx +
//!    rx energy). Drain clamps at empty; demand beyond the clamp is
//!    counted as *deficit* rather than going negative.
//!
//! The conservation invariant (property-tested below) is
//! `charge = initial + (harvested − wasted) − drained`, with
//! `0 ≤ charge ≤ capacity` at all times.

use serde::{Deserialize, Serialize};

/// Per-node battery charge state machine (all quantities in Wh).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryState {
    capacity_wh: Vec<f64>,
    charge_wh: Vec<f64>,
    initial_wh: Vec<f64>,
    /// Total harvest *offered* per node (before capacity clipping).
    harvested_wh: Vec<f64>,
    /// Offered harvest clipped away at full capacity.
    wasted_wh: Vec<f64>,
    /// Drain actually debited (clamped at empty).
    drained_wh: Vec<f64>,
    /// Drain demanded beyond the charge available (the clamped part).
    deficit_wh: Vec<f64>,
}

impl BatteryState {
    /// Creates batteries at full charge.
    ///
    /// # Panics
    /// Panics on empty input or any non-finite / non-positive capacity.
    pub fn new(capacity_wh: Vec<f64>) -> Self {
        Self::with_initial_fraction(capacity_wh, 1.0)
    }

    /// Creates batteries charged to `initial_fraction` of capacity.
    ///
    /// # Panics
    /// Panics on empty input, any non-finite / non-positive capacity, or
    /// `initial_fraction` outside `[0, 1]`.
    pub fn with_initial_fraction(capacity_wh: Vec<f64>, initial_fraction: f64) -> Self {
        assert!(!capacity_wh.is_empty(), "empty battery fleet");
        assert!(
            capacity_wh.iter().all(|c| c.is_finite() && *c > 0.0),
            "battery capacities must be positive and finite"
        );
        assert!(
            (0.0..=1.0).contains(&initial_fraction),
            "initial charge fraction must be in [0, 1]"
        );
        let n = capacity_wh.len();
        let charge: Vec<f64> = capacity_wh.iter().map(|c| c * initial_fraction).collect();
        Self {
            charge_wh: charge.clone(),
            initial_wh: charge,
            capacity_wh,
            harvested_wh: vec![0.0; n],
            wasted_wh: vec![0.0; n],
            drained_wh: vec![0.0; n],
            deficit_wh: vec![0.0; n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.capacity_wh.len()
    }

    /// True for zero nodes (not constructible via the public API).
    pub fn is_empty(&self) -> bool {
        self.capacity_wh.is_empty()
    }

    /// Capacity of `node`, Wh.
    pub fn capacity_wh(&self, node: usize) -> f64 {
        self.capacity_wh[node]
    }

    /// Current charge of `node`, Wh.
    pub fn charge_wh(&self, node: usize) -> f64 {
        self.charge_wh[node]
    }

    /// Charge of `node` at construction, Wh.
    pub fn initial_wh(&self, node: usize) -> f64 {
        self.initial_wh[node]
    }

    /// Current charge of `node` as a fraction of capacity, in `[0, 1]`.
    pub fn charge_fraction(&self, node: usize) -> f64 {
        self.charge_wh[node] / self.capacity_wh[node]
    }

    /// Offers `wh` of harvested energy to `node`; the battery accepts what
    /// fits below capacity and counts the rest as wasted. Returns the
    /// accepted amount.
    pub fn recharge(&mut self, node: usize, wh: f64) -> f64 {
        debug_assert!(wh >= 0.0, "harvest must be non-negative");
        self.harvested_wh[node] += wh;
        let headroom = self.capacity_wh[node] - self.charge_wh[node];
        let accepted = wh.min(headroom);
        self.charge_wh[node] += accepted;
        self.wasted_wh[node] += wh - accepted;
        accepted
    }

    /// Debits `wh` from `node`, clamping at empty; the unmet part is
    /// counted as deficit. Returns the amount actually drained.
    pub fn drain(&mut self, node: usize, wh: f64) -> f64 {
        debug_assert!(wh >= 0.0, "drain must be non-negative");
        let drained = wh.min(self.charge_wh[node]);
        self.charge_wh[node] -= drained;
        self.drained_wh[node] += drained;
        self.deficit_wh[node] += wh - drained;
        drained
    }

    /// Burns whatever charge `node` still holds (the brown-out case: a
    /// round was attempted that the battery could not finish). Returns the
    /// burned amount.
    pub fn drain_all(&mut self, node: usize) -> f64 {
        let remaining = self.charge_wh[node];
        self.charge_wh[node] = 0.0;
        self.drained_wh[node] += remaining;
        remaining
    }

    /// Total harvest offered to `node` so far (before clipping), Wh.
    pub fn node_harvested_wh(&self, node: usize) -> f64 {
        self.harvested_wh[node]
    }

    /// Harvest clipped away at full capacity for `node`, Wh.
    pub fn node_wasted_wh(&self, node: usize) -> f64 {
        self.wasted_wh[node]
    }

    /// Energy actually drained from `node`, Wh.
    pub fn node_drained_wh(&self, node: usize) -> f64 {
        self.drained_wh[node]
    }

    /// Drain demanded from `node` beyond its charge (clamped at empty), Wh.
    pub fn node_deficit_wh(&self, node: usize) -> f64 {
        self.deficit_wh[node]
    }

    /// Sum of offered harvest over all nodes, Wh.
    pub fn total_harvested_wh(&self) -> f64 {
        self.harvested_wh.iter().sum()
    }

    /// Sum of capacity-clipped harvest over all nodes, Wh.
    pub fn total_wasted_wh(&self) -> f64 {
        self.wasted_wh.iter().sum()
    }

    /// Sum of actual drain over all nodes, Wh.
    pub fn total_drained_wh(&self) -> f64 {
        self.drained_wh.iter().sum()
    }

    /// Sum of current charge over all nodes, Wh.
    pub fn total_charge_wh(&self) -> f64 {
        self.charge_wh.iter().sum()
    }
}

/// Charge-aware participation policy: maps a node's battery state to a
/// per-round decision to participate (train + gossip) or stay silent.
///
/// Decisions use charge *fractions* so one policy serves heterogeneous
/// fleets. Stateful policies (hysteresis, duty-cycling) keep their memory
/// in a [`ParticipationState`], not in the enum, so policies stay plain
/// serializable data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatteryPolicy {
    /// Participate whenever any charge is left — the static baseline the
    /// paper's always-train schedules correspond to.
    AlwaysOn,
    /// Participate only at `charge ≥ min_fraction · capacity` (the xaynet
    /// participant rule; `min_fraction = 0.2` is "battery ≥ 20 %").
    Threshold {
        /// Minimum charge fraction required to participate.
        min_fraction: f64,
    },
    /// Two-band threshold: a node drops out when charge falls below
    /// `suspend_fraction` and only returns once it has recovered past
    /// `resume_fraction` (`suspend < resume`), eliminating the on/off
    /// flapping a single threshold exhibits around its boundary.
    Hysteresis {
        /// Charge fraction below which a node suspends.
        suspend_fraction: f64,
        /// Charge fraction a suspended node must recover to resume.
        resume_fraction: f64,
    },
    /// Proportional duty-cycling: a node at charge fraction `f`
    /// participates in `min(1, f / target_fraction)` of rounds, spread
    /// deterministically by per-node error diffusion (credit accumulates
    /// each round; the node fires when it reaches 1). At or above
    /// `target_fraction` the node runs every round.
    DutyCycle {
        /// Charge fraction at (or above) which a node runs every round.
        target_fraction: f64,
    },
}

impl BatteryPolicy {
    /// Short stable name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            BatteryPolicy::AlwaysOn => "always-on",
            BatteryPolicy::Threshold { .. } => "threshold",
            BatteryPolicy::Hysteresis { .. } => "hysteresis",
            BatteryPolicy::DutyCycle { .. } => "duty-cycle",
        }
    }

    /// Decides one node's participation this round from its charge
    /// fraction. `state` must already cover the fleet (see
    /// [`ParticipationState::new`] /
    /// [`BatteryPolicy::decide_into`]). This is the per-node primitive
    /// behind both the fleet-wide mask and heterogeneous
    /// policy-per-node fleets, where each node consults its own policy
    /// (see [`BatterySetup::node_policies`]) against the shared state.
    pub fn decide_node(
        &self,
        node: usize,
        battery: &BatteryState,
        state: &mut ParticipationState,
    ) -> bool {
        let i = node;
        let frac = battery.charge_fraction(i);
        match *self {
            BatteryPolicy::AlwaysOn => battery.charge_wh(i) > 0.0,
            BatteryPolicy::Threshold { min_fraction } => frac >= min_fraction,
            BatteryPolicy::Hysteresis {
                suspend_fraction,
                resume_fraction,
            } => {
                if state.suspended[i] {
                    if frac >= resume_fraction {
                        state.suspended[i] = false;
                    }
                } else if frac < suspend_fraction {
                    state.suspended[i] = true;
                }
                !state.suspended[i]
            }
            BatteryPolicy::DutyCycle { target_fraction } => {
                if battery.charge_wh(i) <= 0.0 {
                    false
                } else {
                    let duty = (frac / target_fraction).min(1.0);
                    state.credit[i] += duty;
                    if state.credit[i] >= 1.0 {
                        state.credit[i] -= 1.0;
                        true
                    } else {
                        false
                    }
                }
            }
        }
    }

    /// Decides this round's participation mask from charge fractions,
    /// writing into `active` (resized to the fleet). `state` carries the
    /// policy's per-node memory across rounds and must be reused between
    /// calls. Allocation-free once buffers have their capacity.
    pub fn decide_into(
        &self,
        battery: &BatteryState,
        state: &mut ParticipationState,
        active: &mut Vec<bool>,
    ) {
        let n = battery.len();
        state.ensure_len(n);
        active.clear();
        active.resize(n, false);
        for (i, slot) in active.iter_mut().enumerate() {
            *slot = self.decide_node(i, battery, state);
        }
    }
}

/// Per-node memory for stateful [`BatteryPolicy`] variants (hysteresis
/// latches, duty-cycle credit). One instance per fleet, reused each round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParticipationState {
    suspended: Vec<bool>,
    credit: Vec<f64>,
}

impl ParticipationState {
    /// A fresh state for `n` nodes (nothing suspended, zero credit).
    pub fn new(n: usize) -> Self {
        Self {
            suspended: vec![false; n],
            credit: vec![0.0; n],
        }
    }

    fn ensure_len(&mut self, n: usize) {
        if self.suspended.len() != n {
            self.suspended.clear();
            self.suspended.resize(n, false);
            self.credit.clear();
            self.credit.resize(n, 0.0);
        }
    }
}

/// Everything the engine needs to run a battery-gated simulation: the
/// charge state, the harvest trace recharging it, and the participation
/// policy reading it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatterySetup {
    /// Per-node charge state.
    pub state: BatteryState,
    /// Harvest trace recharging the fleet each round.
    pub trace: crate::trace::HarvestTrace,
    /// Fleet-wide participation policy gating training and gossip.
    pub policy: BatteryPolicy,
    /// `Some` overrides `policy` per node: node `i` consults
    /// `node_policies[i]` through [`BatteryPolicy::decide_node`], letting
    /// threshold and duty-cycle devices mix in one fleet. Must hold one
    /// policy per node when set; absent in legacy serialized setups.
    #[serde(default)]
    pub node_policies: Option<Vec<BatteryPolicy>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_node() -> BatteryState {
        BatteryState::with_initial_fraction(vec![10.0, 4.0], 0.5)
    }

    #[test]
    fn recharge_clips_at_capacity_and_counts_waste() {
        let mut b = two_node();
        assert_eq!(b.recharge(0, 3.0), 3.0);
        assert_eq!(b.charge_wh(0), 8.0);
        // 4 offered, only 2 fit
        assert_eq!(b.recharge(0, 4.0), 2.0);
        assert_eq!(b.charge_wh(0), 10.0);
        assert_eq!(b.node_harvested_wh(0), 7.0);
        assert_eq!(b.node_wasted_wh(0), 2.0);
        // node 1 untouched
        assert_eq!(b.node_harvested_wh(1), 0.0);
    }

    #[test]
    fn drain_clamps_at_empty_and_counts_deficit() {
        let mut b = two_node();
        assert_eq!(b.drain(1, 1.5), 1.5);
        assert_eq!(b.charge_wh(1), 0.5);
        // 2.0 demanded, 0.5 available
        assert_eq!(b.drain(1, 2.0), 0.5);
        assert_eq!(b.charge_wh(1), 0.0);
        assert_eq!(b.node_drained_wh(1), 2.0);
        assert_eq!(b.node_deficit_wh(1), 1.5);
    }

    #[test]
    fn drain_all_burns_remaining_charge() {
        let mut b = two_node();
        assert_eq!(b.drain_all(0), 5.0);
        assert_eq!(b.charge_wh(0), 0.0);
        assert_eq!(b.node_drained_wh(0), 5.0);
        assert_eq!(b.drain_all(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = BatteryState::new(vec![1.0, 0.0]);
    }

    #[test]
    fn threshold_policy_matches_fraction() {
        let mut b = two_node(); // both at 50%
        let policy = BatteryPolicy::Threshold { min_fraction: 0.4 };
        let mut ps = ParticipationState::new(2);
        let mut active = Vec::new();
        policy.decide_into(&b, &mut ps, &mut active);
        assert_eq!(active, vec![true, true]);
        b.drain(0, 2.0); // node 0 to 30%
        policy.decide_into(&b, &mut ps, &mut active);
        assert_eq!(active, vec![false, true]);
    }

    #[test]
    fn hysteresis_latches_until_resume_band() {
        let mut b = BatteryState::with_initial_fraction(vec![10.0], 0.5);
        let policy = BatteryPolicy::Hysteresis {
            suspend_fraction: 0.3,
            resume_fraction: 0.6,
        };
        let mut ps = ParticipationState::new(1);
        let mut active = Vec::new();
        policy.decide_into(&b, &mut ps, &mut active);
        assert!(active[0], "50% is above the suspend band");
        b.drain(0, 3.0); // 20% → suspend
        policy.decide_into(&b, &mut ps, &mut active);
        assert!(!active[0]);
        b.recharge(0, 2.0); // 40%: above suspend but below resume → stays off
        policy.decide_into(&b, &mut ps, &mut active);
        assert!(!active[0], "hysteresis must latch below the resume band");
        b.recharge(0, 2.5); // 65% → resumes
        policy.decide_into(&b, &mut ps, &mut active);
        assert!(active[0]);
    }

    #[test]
    fn duty_cycle_fires_proportionally_to_charge() {
        // a node pinned at 25% of a 50% target should fire every 2nd round
        let b = BatteryState::with_initial_fraction(vec![8.0], 0.25);
        let policy = BatteryPolicy::DutyCycle {
            target_fraction: 0.5,
        };
        let mut ps = ParticipationState::new(1);
        let mut active = Vec::new();
        let mut fired = 0;
        for _ in 0..20 {
            policy.decide_into(&b, &mut ps, &mut active);
            fired += active[0] as usize;
        }
        assert_eq!(fired, 10, "25%/50% duty must fire exactly half the rounds");
    }

    #[test]
    fn always_on_only_needs_nonzero_charge() {
        let mut b = BatteryState::with_initial_fraction(vec![5.0], 0.01);
        let mut ps = ParticipationState::new(1);
        let mut active = Vec::new();
        BatteryPolicy::AlwaysOn.decide_into(&b, &mut ps, &mut active);
        assert!(active[0]);
        b.drain_all(0);
        BatteryPolicy::AlwaysOn.decide_into(&b, &mut ps, &mut active);
        assert!(!active[0]);
    }

    #[test]
    fn per_node_policies_mix_in_one_fleet() {
        // node 0: strict threshold (50% charge < 60% bar → off);
        // node 1: duty-cycle at half its target → fires every 2nd round
        let b = BatteryState::with_initial_fraction(vec![10.0, 10.0], 0.5);
        let policies = [
            BatteryPolicy::Threshold { min_fraction: 0.6 },
            BatteryPolicy::DutyCycle {
                target_fraction: 1.0,
            },
        ];
        let mut ps = ParticipationState::new(2);
        let mut node1_fired = 0;
        for _ in 0..10 {
            let active: Vec<bool> = (0..2)
                .map(|i| policies[i].decide_node(i, &b, &mut ps))
                .collect();
            assert!(!active[0], "node 0's threshold policy must gate it off");
            node1_fired += active[1] as usize;
        }
        assert_eq!(node1_fired, 5, "node 1 duty-cycles independently");
    }

    #[test]
    fn state_round_trips_through_serde() {
        let mut b = two_node();
        b.recharge(0, 7.0);
        b.drain(1, 3.0);
        let json = serde_json::to_string(&b).unwrap();
        let back: BatteryState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }

    // Conservation: charge = initial + (harvested − wasted) − drained,
    // clamped inside [0, capacity], for any op sequence.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_charge_is_conserved(
            capacity in 0.5f64..20.0,
            initial in 0.0f64..1.0,
            kinds in proptest::collection::vec(0u8..3, 1..60),
            amounts in proptest::collection::vec(0.0f64..5.0, 1..60)
        ) {
            let mut b = BatteryState::with_initial_fraction(vec![capacity], initial);
            for (&kind, &amount) in kinds.iter().zip(&amounts) {
                match kind {
                    0 => { b.recharge(0, amount); }
                    1 => { b.drain(0, amount); }
                    _ => { b.drain_all(0); }
                }
                let expected = b.initial_wh(0) + (b.node_harvested_wh(0) - b.node_wasted_wh(0))
                    - b.node_drained_wh(0);
                prop_assert!((b.charge_wh(0) - expected).abs() < 1e-9,
                    "conservation violated: charge {} vs expected {}", b.charge_wh(0), expected);
                prop_assert!(b.charge_wh(0) >= 0.0);
                prop_assert!(b.charge_wh(0) <= b.capacity_wh(0) + 1e-12);
            }
        }
    }
}
