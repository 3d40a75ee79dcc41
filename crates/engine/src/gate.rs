//! The participation gate: who takes part in a round, and why not.
//!
//! [`Gate::begin_round`] labels each node once with its [`Admission`];
//! [`Gate::compose`] lowers the labels into the actions the compute pass
//! runs and the mixing the timeline, the plan and the ledger all read. A
//! node that sits the round out is demoted to [`RoundAction::SyncOnly`]
//! and its mixing row collapses to the identity: no training, no edge, no
//! virtual time, no energy.

use crate::executor::RoundAction;
use skiptrain_energy::battery::{BatterySetup, ParticipationState};
use skiptrain_energy::EnergyLedger;
use skiptrain_topology::MixingMatrix;

/// Why a node is in or out of the round. Membership is decided first, so
/// an absent node is `Absent` whatever its battery said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Takes part: present, and admitted by the battery when there is one.
    Admitted,
    /// Churned out of the round.
    Absent,
    /// Present, but the battery policy refused it.
    Denied,
    /// Admitted to train on less charge than training costs, which it burned.
    Brownout,
    /// Admitted to sync with an empty battery.
    Flat,
}

/// The battery feedback loop's engine-side runtime: the setup, whose
/// charge state evolves, plus the policy memory and the run's counters
/// (charge updates are O(n) per round).
#[derive(Debug, Clone)]
pub(crate) struct BatteryRuntime {
    pub(crate) setup: BatterySetup,
    pstate: ParticipationState,
    /// Per-node (training + comm) Wh already drained from the ledger.
    settled_wh: Vec<f64>,
    /// Node-rounds labelled [`Admission::Admitted`].
    pub(crate) participations: u64,
    /// Node-rounds labelled [`Admission::Brownout`].
    pub(crate) brownouts: u64,
}

/// The round's participation decision and its lowered form. All buffers
/// keep their capacity across rounds.
#[derive(Debug, Clone)]
pub(crate) struct Gate {
    pub(crate) battery: Option<BatteryRuntime>,
    /// Each node's admission to the last round (all `Admitted` without
    /// churn or a battery). Empty before the first round.
    pub(crate) admission: Vec<Admission>,
    /// The requested actions with non-participants demoted to `SyncOnly`.
    pub(crate) actions: Vec<RoundAction>,
    /// The round's mixing with non-participants' rows masked to identity.
    pub(crate) mixing: MixingMatrix,
}

impl Gate {
    /// A gate for the fleet `mixing` spans. The masked-mixing buffer
    /// starts as a copy of it, so it has room for the static topology's
    /// edge census; a schedule that fires a denser graph grows it once.
    ///
    /// # Panics
    /// Panics unless a battery setup holds one battery, one harvest
    /// stream and (when set) one policy per node.
    pub(crate) fn new(battery: Option<BatterySetup>, mixing: &MixingMatrix) -> Self {
        let n = mixing.len();
        let battery = battery.map(|setup| {
            assert_eq!(setup.state.len(), n, "one battery per node required");
            assert_eq!(setup.trace.len(), n, "one harvest stream per node required");
            if let Some(policies) = &setup.node_policies {
                assert_eq!(policies.len(), n, "one policy per node required");
            }
            BatteryRuntime {
                setup,
                pstate: ParticipationState::new(n),
                settled_wh: vec![0.0; n],
                participations: 0,
                brownouts: 0,
            }
        });
        Self {
            battery,
            admission: Vec::with_capacity(n),
            actions: Vec::with_capacity(n),
            mixing: mixing.clone(),
        }
    }

    /// Labels every node's admission to the round, in one pass. `present`
    /// is the event engine's membership after this round's churn draws
    /// (`None` off the event path: everyone is present).
    ///
    /// With a battery, each node recharges from the harvest trace and
    /// asks its policy, present or not, so hysteresis latches and
    /// duty-cycle credit advance every round. Only a present node the
    /// policy admits can still drop out: one that intends to train but
    /// holds less charge than its per-round training cost burns its
    /// remaining charge (the attempted partial round is lost work); a
    /// sync-only intent just needs nonzero charge to key the radio.
    pub(crate) fn begin_round(
        &mut self,
        round: usize,
        intended: &[RoundAction],
        present: Option<&[bool]>,
        training_energy_wh: &[f64],
    ) {
        self.admission.clear();
        for (i, &intent) in intended.iter().enumerate() {
            let here = present.is_none_or(|present| present[i]);
            let label = match self.battery.as_mut() {
                None if here => Admission::Admitted,
                None => Admission::Absent,
                Some(b) => {
                    let setup = &mut b.setup;
                    setup.state.recharge(i, setup.trace.energy_wh(i, round));
                    let policy = setup
                        .node_policies
                        .as_ref()
                        .map_or(&setup.policy, |p| &p[i]);
                    let admitted = policy.decide_node(i, &setup.state, &mut b.pstate);
                    let cost = training_energy_wh.get(i).copied().unwrap_or(0.0);
                    match intent {
                        _ if !here => Admission::Absent,
                        _ if !admitted => Admission::Denied,
                        RoundAction::Train if setup.state.charge_wh(i) < cost => {
                            setup.state.drain_all(i);
                            b.brownouts += 1;
                            Admission::Brownout
                        }
                        RoundAction::SyncOnly if setup.state.charge_wh(i) <= 0.0 => Admission::Flat,
                        _ => {
                            b.participations += 1;
                            Admission::Admitted
                        }
                    }
                }
            };
            self.admission.push(label);
        }
    }

    /// Lowers the labels decided by [`Gate::begin_round`] into the gated
    /// actions and the masked mixing. Runs every round: with every node
    /// admitted both equal their inputs bit for bit.
    pub(crate) fn compose(&mut self, intended: &[RoundAction], base: &MixingMatrix) {
        let admitted = |i: usize| self.admission[i] == Admission::Admitted;
        self.actions.clear();
        self.actions.extend_from_slice(intended);
        for i in (0..intended.len()).filter(|&i| !admitted(i)) {
            self.actions[i] = RoundAction::SyncOnly;
        }
        base.masked_into(admitted, &mut self.mixing);
    }

    /// Post-round drain: debit each node's battery with what the round
    /// actually cost it, read as the delta of the ledger's cumulative
    /// per-node training + comm energy since the last settle.
    pub(crate) fn settle(&mut self, ledger: &EnergyLedger) {
        let Some(b) = self.battery.as_mut() else {
            return;
        };
        for i in 0..b.settled_wh.len() {
            let total = ledger.node_training_wh(i) + ledger.node_comm_wh(i);
            let delta = total - b.settled_wh[i];
            if delta > 0.0 {
                b.setup.state.drain(i, delta);
            }
            b.settled_wh[i] = total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_energy::battery::{BatteryPolicy, BatteryState};
    use skiptrain_energy::trace::{HarvestProfile, HarvestTrace};
    use skiptrain_topology::Graph;

    /// A battery gate on a ring, one policy per node, without harvest.
    fn battery_gate(state: BatteryState, node_policies: Vec<BatteryPolicy>) -> Gate {
        let n = state.len();
        let setup = BatterySetup {
            state,
            trace: HarvestTrace::new(HarvestProfile::None, 600.0, n, 1, 0.0),
            policy: BatteryPolicy::Threshold { min_fraction: 0.5 },
            node_policies: Some(node_policies),
        };
        Gate::new(
            Some(setup),
            &MixingMatrix::metropolis_hastings(&Graph::ring(n)),
        )
    }

    #[test]
    fn one_round_labels_each_cause_once_and_masks_the_four_left_out() {
        use Admission::*;
        let n = 5;
        // node 0 admitted; 1 absent; 2 below the threshold; 3 and 4 pass
        // their policies with too little charge for their intents
        let mut state = BatteryState::new(vec![1.0; n]);
        state.drain(2, 0.9);
        state.drain(3, 0.95);
        state.drain_all(4);
        let mut policies = vec![BatteryPolicy::Threshold { min_fraction: 0.5 }; n];
        policies[3] = BatteryPolicy::AlwaysOn;
        // node 4 is empty, which always-on would refuse: a zero threshold
        policies[4] = BatteryPolicy::Threshold { min_fraction: 0.0 };
        let mut gate = battery_gate(state, policies);
        let intended = [
            RoundAction::Train,
            RoundAction::Train,
            RoundAction::Train,
            RoundAction::Train,
            RoundAction::SyncOnly,
        ];
        let present = [true, false, true, true, true];
        gate.begin_round(0, &intended, Some(&present), &[0.1; 5]);
        assert_eq!(gate.admission, [Admitted, Absent, Denied, Brownout, Flat]);
        let b = gate.battery.as_ref().unwrap();
        assert_eq!((b.participations, b.brownouts), (1, 1));
        assert_eq!(
            b.setup.state.charge_wh(3),
            0.0,
            "a brown-out burns its charge"
        );

        let base = gate.mixing.clone();
        gate.compose(&intended, &base);
        assert_eq!(gate.actions[0], RoundAction::Train);
        assert!(gate.actions[1..]
            .iter()
            .all(|&a| a == RoundAction::SyncOnly));
        let rows_of = |w: &MixingMatrix| -> Vec<Vec<(u32, f32)>> {
            (0..w.len()).map(|i| w.row(i).to_vec()).collect()
        };
        let want = skiptrain_oracle::mixing::masked(&rows_of(&base), |i| i == 0);
        assert_eq!(rows_of(&gate.mixing), want);
        for i in 1..n {
            assert_eq!(gate.mixing.row(i), &[(i as u32, 1.0)]);
        }
    }

    #[test]
    #[should_panic(expected = "one policy per node")]
    fn per_node_policy_arity_is_enforced() {
        let _ = battery_gate(
            BatteryState::new(vec![1.0; 5]),
            vec![BatteryPolicy::AlwaysOn],
        );
    }

    #[test]
    fn compose_demotes_absent_nodes_and_masks_their_rows() {
        let n = 5;
        let mixing = MixingMatrix::metropolis_hastings(&Graph::ring(n));
        let actions = vec![RoundAction::Train; n];
        let mut gate = Gate::new(None, &mixing);
        // everyone departed at the round's policy tick
        gate.begin_round(0, &actions, Some(&[false; 5]), &[]);
        gate.compose(&actions, &mixing);
        assert!(gate.actions.iter().all(|&a| a == RoundAction::SyncOnly));
        for i in 0..n {
            assert_eq!(gate.mixing.row(i), &[(i as u32, 1.0)]);
        }
        // everyone back: the inputs pass through untouched
        gate.begin_round(1, &actions, None, &[]);
        gate.compose(&actions, &mixing);
        assert_eq!(gate.actions, actions);
        assert_eq!(gate.mixing, mixing);
    }
}
