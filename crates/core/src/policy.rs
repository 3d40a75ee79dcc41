//! Round policies: who trains when.
//!
//! Algorithm 1 (D-PSGD) and Algorithm 2 (SkipTrain / SkipTrain-constrained)
//! differ *only* in the decision whether a node runs the local update in
//! round `t`; sharing and aggregation always happen. That decision is
//! factored into [`RoundPolicy`] implementations so every algorithm runs on
//! the same engine:
//!
//! | policy                    | trains when |
//! |---------------------------|-------------|
//! | [`DPsgdPolicy`]           | always |
//! | [`SkipTrainPolicy`]       | coordinated Γ-schedule says so |
//! | [`ConstrainedPolicy`]     | schedule ∧ Bernoulli(p_i) ∧ budget left |
//! | [`GreedyPolicy`]          | budget left (then sync-only forever) |
//! | [`AsyncGossipPolicy`]     | Bernoulli(q), independently per node and tick |

use crate::prob::training_probabilities;
use crate::schedule::Schedule;
use rand::RngExt;
use skiptrain_energy::BudgetTracker;
use skiptrain_engine::RoundAction;
use skiptrain_linalg::rng::stream_rng;

/// Decides, per round, which nodes train and which only synchronize.
pub trait RoundPolicy: Send {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Fills `actions[i]` for every node for round `t` (0-based), updating
    /// any internal budget state.
    fn decide(&mut self, round: usize, actions: &mut [RoundAction]);
}

/// D-PSGD (Algorithm 1): every node trains every round.
pub struct DPsgdPolicy;

impl RoundPolicy for DPsgdPolicy {
    fn name(&self) -> &'static str {
        "d-psgd"
    }

    fn decide(&mut self, _round: usize, actions: &mut [RoundAction]) {
        actions.fill(RoundAction::Train);
    }
}

/// SkipTrain (§3.1): coordinated training / synchronization batches.
pub struct SkipTrainPolicy {
    schedule: Schedule,
}

impl SkipTrainPolicy {
    /// Creates the policy for a schedule.
    pub fn new(schedule: Schedule) -> Self {
        Self { schedule }
    }
}

impl RoundPolicy for SkipTrainPolicy {
    fn name(&self) -> &'static str {
        "skiptrain"
    }

    fn decide(&mut self, round: usize, actions: &mut [RoundAction]) {
        let action = if self.schedule.is_train_round(round) {
            RoundAction::Train
        } else {
            RoundAction::SyncOnly
        };
        actions.fill(action);
    }
}

/// SkipTrain-constrained (§3.2, Algorithm 2): coordinated schedule plus
/// per-node probabilistic participation under an energy budget.
pub struct ConstrainedPolicy {
    schedule: Schedule,
    probabilities: Vec<f64>,
    budget: BudgetTracker,
    seed: u64,
}

impl ConstrainedPolicy {
    /// Creates the policy. `budgets[i]` is node i's training-round budget
    /// τ_i; probabilities follow Eq. 5 with `T_train` from Eq. 4.
    pub fn new(schedule: Schedule, budgets: Vec<u32>, total_rounds: usize, seed: u64) -> Self {
        let probabilities = training_probabilities(&budgets, &schedule, total_rounds);
        Self {
            schedule,
            probabilities,
            budget: BudgetTracker::new(budgets),
            seed,
        }
    }

    /// The Eq. 5 probability of a node.
    pub fn probability(&self, node: usize) -> f64 {
        self.probabilities[node]
    }

    /// The budget tracker (read access).
    pub fn budget(&self) -> &BudgetTracker {
        &self.budget
    }
}

impl RoundPolicy for ConstrainedPolicy {
    fn name(&self) -> &'static str {
        "skiptrain-constrained"
    }

    fn decide(&mut self, round: usize, actions: &mut [RoundAction]) {
        if !self.schedule.is_train_round(round) {
            actions.fill(RoundAction::SyncOnly);
            return;
        }
        // One independent Bernoulli draw per (node, round), on a stream that
        // depends on both so outcomes don't correlate across rounds.
        for (i, slot) in actions.iter_mut().enumerate() {
            let can = self.budget.can_train(i);
            let draw = if can {
                let mut rng = stream_rng(self.seed ^ 0xBE7, (round as u64) << 24 | i as u64);
                rng.random::<f64>() <= self.probabilities[i]
            } else {
                false
            };
            *slot = if can && draw && self.budget.try_consume(i) {
                RoundAction::Train
            } else {
                RoundAction::SyncOnly
            };
        }
    }
}

/// The Greedy baseline (§3.2): each node trains every round until its
/// budget is exhausted, then synchronizes only.
pub struct GreedyPolicy {
    budget: BudgetTracker,
}

impl GreedyPolicy {
    /// Creates the policy from per-node budgets (round counts).
    pub fn new(budgets: Vec<u32>) -> Self {
        Self {
            budget: BudgetTracker::new(budgets),
        }
    }

    /// The budget tracker (read access).
    pub fn budget(&self) -> &BudgetTracker {
        &self.budget
    }
}

impl RoundPolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide(&mut self, _round: usize, actions: &mut [RoundAction]) {
        for (i, slot) in actions.iter_mut().enumerate() {
            *slot = if self.budget.try_consume(i) {
                RoundAction::Train
            } else {
                RoundAction::SyncOnly
            };
        }
    }
}

/// Asynchronous pairwise gossip (§5.3, the extension the paper leaves as
/// future work): no coordinated schedule — each tick, every node
/// independently trains with probability `q`, its energy knob (`q = 0.5`
/// spends the same expected training energy as SkipTrain with
/// Γ_train = Γ_sync). The runner pairs this policy with deadline rounds
/// over random maximal matchings instead of the all-neighbor exchange.
pub struct AsyncGossipPolicy {
    activation_prob: f64,
    seed: u64,
}

impl AsyncGossipPolicy {
    /// Creates the policy: `activation_prob` is the per-node, per-tick
    /// training probability `q`; draws are seeded from the experiment's
    /// master `seed`.
    pub fn new(activation_prob: f64, seed: u64) -> Self {
        Self {
            activation_prob,
            seed,
        }
    }
}

impl RoundPolicy for AsyncGossipPolicy {
    fn name(&self) -> &'static str {
        "async-gossip"
    }

    fn decide(&mut self, round: usize, actions: &mut [RoundAction]) {
        // independent per-(node, tick) activation draws
        for (i, slot) in actions.iter_mut().enumerate() {
            let mut rng = stream_rng(self.seed ^ 0xA57C, (round as u64) << 24 | i as u64);
            *slot = if rng.random::<f64>() < self.activation_prob {
                RoundAction::Train
            } else {
                RoundAction::SyncOnly
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_trains(actions: &[RoundAction]) -> usize {
        actions.iter().filter(|&&a| a == RoundAction::Train).count()
    }

    #[test]
    fn dpsgd_trains_everyone_always() {
        let mut p = DPsgdPolicy;
        let mut actions = vec![RoundAction::SyncOnly; 5];
        for t in 0..20 {
            p.decide(t, &mut actions);
            assert_eq!(count_trains(&actions), 5);
        }
    }

    #[test]
    fn skiptrain_follows_schedule() {
        let mut p = SkipTrainPolicy::new(Schedule::new(2, 3));
        let mut actions = vec![RoundAction::SyncOnly; 3];
        let mut pattern = String::new();
        for t in 0..10 {
            p.decide(t, &mut actions);
            pattern.push(if actions[0] == RoundAction::Train {
                'T'
            } else {
                'S'
            });
            // coordinated: all nodes identical
            assert!(actions.iter().all(|&a| a == actions[0]));
        }
        assert_eq!(pattern, "TTSSSTTSSS");
    }

    #[test]
    fn constrained_respects_budget_exactly() {
        let mut p = ConstrainedPolicy::new(Schedule::new(1, 0), vec![3, 0, 100], 10, 7);
        let mut actions = vec![RoundAction::SyncOnly; 3];
        let mut trained = [0usize; 3];
        for t in 0..10 {
            p.decide(t, &mut actions);
            for (i, &a) in actions.iter().enumerate() {
                if a == RoundAction::Train {
                    trained[i] += 1;
                }
            }
        }
        assert!(
            trained[0] <= 3,
            "node 0 exceeded its budget: {}",
            trained[0]
        );
        assert_eq!(trained[1], 0, "node 1 has zero budget");
        assert_eq!(p.budget().remaining(1), 0);
    }

    #[test]
    fn constrained_with_ample_budget_equals_skiptrain() {
        // §3.2: τ ≥ T_train ⇒ p = 1 ⇒ identical to unconstrained SkipTrain.
        let schedule = Schedule::new(4, 4);
        let mut constrained = ConstrainedPolicy::new(schedule, vec![1000; 4], 1000, 3);
        let mut skiptrain = SkipTrainPolicy::new(schedule);
        let mut a1 = vec![RoundAction::SyncOnly; 4];
        let mut a2 = vec![RoundAction::SyncOnly; 4];
        for t in 0..64 {
            constrained.decide(t, &mut a1);
            skiptrain.decide(t, &mut a2);
            assert_eq!(a1, a2, "round {t} diverged");
        }
    }

    #[test]
    fn constrained_training_rate_tracks_probability() {
        // p = 0.5 (budget 250 of T_train 500); over many rounds the
        // empirical training rate must be close to 0.5.
        let mut p = ConstrainedPolicy::new(Schedule::new(1, 1), vec![250], 1000, 11);
        assert!((p.probability(0) - 0.5).abs() < 1e-9);
        let mut actions = vec![RoundAction::SyncOnly; 1];
        let mut trains = 0usize;
        let mut opportunities = 0usize;
        for t in 0..500 {
            p.decide(t, &mut actions);
            if Schedule::new(1, 1).is_train_round(t) {
                opportunities += 1;
                if actions[0] == RoundAction::Train {
                    trains += 1;
                }
            }
        }
        let rate = trains as f64 / opportunities as f64;
        assert!(
            (rate - 0.5).abs() < 0.1,
            "empirical rate {rate} far from 0.5"
        );
    }

    #[test]
    fn greedy_trains_then_stops() {
        let mut p = GreedyPolicy::new(vec![2, 4]);
        let mut actions = vec![RoundAction::SyncOnly; 2];
        let mut history = Vec::new();
        for t in 0..6 {
            p.decide(t, &mut actions);
            history.push(actions.clone());
        }
        // node 0: T T S S S S — a prefix of trains, then sync forever
        for (t, h) in history.iter().enumerate() {
            assert_eq!(h[0] == RoundAction::Train, t < 2, "node 0 at round {t}");
            assert_eq!(h[1] == RoundAction::Train, t < 4, "node 1 at round {t}");
        }
    }

    #[test]
    fn policies_are_deterministic() {
        let run = |seed: u64| {
            let mut p = ConstrainedPolicy::new(Schedule::new(2, 2), vec![10, 20, 5], 100, seed);
            let mut actions = vec![RoundAction::SyncOnly; 3];
            let mut log = Vec::new();
            for t in 0..40 {
                p.decide(t, &mut actions);
                log.push(actions.clone());
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
