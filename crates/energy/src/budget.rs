//! Per-node training-round budgets for the constrained setting (§3.2).
//!
//! Node `i` may perform at most `τ_i` training rounds before its battery
//! budget is exhausted. The tracker enforces the budget and exposes the
//! remaining counts the SkipTrain-constrained policy needs to compute its
//! training probabilities (Eq. 5).
//!
//! # Units
//!
//! The paper defines budgets as *integer round counts* (τ of §4.2), and
//! exact integer semantics are what keep the Table 2 budget tests exact —
//! so the tracker holds `u32` counters and nothing else. τ rounds mean
//! different energy on different devices; what they cost in Wh is the
//! [`crate::ledger::EnergyLedger`]'s to say, the one Wh authority of a run.

use serde::{Deserialize, Serialize};

/// Tracks remaining training rounds per node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetTracker {
    initial: Vec<u32>,
    remaining: Vec<u32>,
}

impl BudgetTracker {
    /// Creates a tracker from per-node budgets τ.
    pub fn new(budgets: Vec<u32>) -> Self {
        Self {
            remaining: budgets.clone(),
            initial: budgets,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.remaining.len()
    }

    /// True for zero nodes.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Rounds still available to `node`.
    pub fn remaining(&self, node: usize) -> u32 {
        self.remaining[node]
    }

    /// True if `node` can still train.
    pub fn can_train(&self, node: usize) -> bool {
        self.remaining[node] > 0
    }

    /// Consumes one training round if available; returns whether it was.
    pub fn try_consume(&mut self, node: usize) -> bool {
        if self.remaining[node] > 0 {
            self.remaining[node] -= 1;
            true
        } else {
            false
        }
    }

    /// Training rounds consumed by `node` so far.
    pub fn consumed(&self, node: usize) -> u32 {
        self.initial[node] - self.remaining[node]
    }

    /// Sum of consumed rounds over all nodes.
    pub fn total_consumed(&self) -> u64 {
        (0..self.len()).map(|i| self.consumed(i) as u64).sum()
    }

    /// Fraction of nodes whose budget is exhausted.
    pub fn exhausted_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.remaining.iter().filter(|&&r| r == 0).count() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_until_exhausted() {
        let mut t = BudgetTracker::new(vec![2, 0]);
        assert!(t.can_train(0));
        assert!(!t.can_train(1));
        assert!(t.try_consume(0));
        assert!(t.try_consume(0));
        assert!(!t.try_consume(0), "budget must not go negative");
        assert_eq!(t.consumed(0), 2);
        assert_eq!(t.remaining(0), 0);
    }

    #[test]
    fn aggregate_statistics() {
        let mut t = BudgetTracker::new(vec![1, 3]);
        t.try_consume(0);
        t.try_consume(1);
        assert_eq!(t.total_consumed(), 2);
        assert_eq!(t.exhausted_fraction(), 0.5);
    }

    #[test]
    fn legacy_json_without_wh_fields_stays_loadable() {
        // the wire shape is the integer counters, as before the Wh mirror
        let json = r#"{"initial":[4,2],"remaining":[3,0]}"#;
        let t: BudgetTracker = serde_json::from_str(json).unwrap();
        assert_eq!(t.consumed(0), 1, "initial 4, remaining 3");
        assert_eq!(t.remaining(1), 0);
        assert_eq!(serde_json::to_string(&t).unwrap(), json);
    }
}
