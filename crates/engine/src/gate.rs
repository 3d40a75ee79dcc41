//! The participation gate: who takes part in a round, decided once.
//!
//! Two things keep a node out of a round: churn (the event engine's
//! presence mask) and an empty battery (this module's recharge → decide →
//! brown-out). Both only *emit a mask*; the gate folds them into the one
//! per-node `active` mask and [`Gate::compose`] lowers it, once, into the
//! actions the compute pass runs and the mixing the timeline, the plan and
//! the ledger all read. A node that sits the round out is demoted to
//! [`RoundAction::SyncOnly`] and its mixing row collapses to the identity:
//! no training, no edge, no virtual time, no energy.

use crate::executor::RoundAction;
use skiptrain_energy::battery::{decide_per_node_into, BatterySetup, ParticipationState};
use skiptrain_energy::EnergyLedger;
use skiptrain_topology::MixingMatrix;

/// The battery feedback loop's engine-side runtime: the setup, whose
/// charge state evolves, plus the policy memory and the run's counters
/// (charge updates are O(n) per round).
#[derive(Debug, Clone)]
pub(crate) struct BatteryRuntime {
    pub(crate) setup: BatterySetup,
    pstate: ParticipationState,
    /// Per-node (training + comm) Wh already drained from the ledger.
    settled_wh: Vec<f64>,
    /// Node-rounds of participation: admitted by the battery *and* present.
    pub(crate) participations: u64,
    /// Brown-out events: train intents the charge could not cover.
    pub(crate) brownouts: u64,
}

/// The round's participation decision and its lowered form. All buffers
/// keep their capacity across rounds.
#[derive(Debug, Clone)]
pub(crate) struct Gate {
    pub(crate) battery: Option<BatteryRuntime>,
    /// `present ∧ battery-admitted`, per node (all true without churn or
    /// a battery). Empty before the first round.
    pub(crate) active: Vec<bool>,
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
            active: Vec::with_capacity(n),
            actions: Vec::with_capacity(n),
            mixing: mixing.clone(),
        }
    }

    /// Decides the round's participation mask. `present` is the event
    /// engine's membership after this round's churn draws (`None` off the
    /// event path: everyone is present).
    ///
    /// With a battery: recharge from the harvest trace, let the policy
    /// admit nodes by charge, then brown-out admitted *present* nodes that
    /// cannot afford their intent. A node that intended to train but holds
    /// less charge than its per-round training cost burns its remaining
    /// charge (the attempted partial round is lost work) and drops out; a
    /// sync-only intent just needs nonzero charge to key the radio. An
    /// absent node attempts nothing, so it never browns out.
    pub(crate) fn begin_round(
        &mut self,
        round: usize,
        intended: &[RoundAction],
        present: Option<&[bool]>,
        training_energy_wh: &[f64],
    ) {
        let n = intended.len();
        let Some(b) = self.battery.as_mut() else {
            self.active.clear();
            match present {
                Some(present) => self.active.extend_from_slice(present),
                None => self.active.resize(n, true),
            }
            return;
        };
        let BatterySetup {
            state,
            trace,
            policy,
            node_policies,
        } = &mut b.setup;
        for i in 0..n {
            state.recharge(i, trace.energy_wh(i, round));
        }
        match node_policies {
            Some(policies) => {
                decide_per_node_into(policies, state, &mut b.pstate, &mut self.active)
            }
            None => policy.decide_into(state, &mut b.pstate, &mut self.active),
        }
        for (i, intent) in intended.iter().enumerate() {
            self.active[i] &= present.is_none_or(|present| present[i]);
            if !self.active[i] {
                continue;
            }
            match intent {
                RoundAction::Train => {
                    let cost = training_energy_wh.get(i).copied().unwrap_or(0.0);
                    if state.charge_wh(i) < cost {
                        state.drain_all(i);
                        self.active[i] = false;
                        b.brownouts += 1;
                    }
                }
                RoundAction::SyncOnly => {
                    if state.charge_wh(i) <= 0.0 {
                        self.active[i] = false;
                    }
                }
            }
        }
        b.participations += self.active.iter().filter(|&&on| on).count() as u64;
    }

    /// Lowers the mask decided by [`Gate::begin_round`] into the gated
    /// actions and the masked mixing. Runs every round: with every node
    /// active both equal their inputs bit for bit.
    pub(crate) fn compose(&mut self, intended: &[RoundAction], base: &MixingMatrix) {
        self.actions.clear();
        self.actions
            .extend(intended.iter().zip(&self.active).map(|(&a, &on)| {
                if on {
                    a
                } else {
                    RoundAction::SyncOnly
                }
            }));
        base.masked_into(&self.active, &mut self.mixing);
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
    use skiptrain_topology::Graph;

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
