//! The SkipTrain round schedule (§3.1).
//!
//! SkipTrain alternates batches of Γ_train coordinated training rounds with
//! Γ_sync coordinated synchronization rounds. Rounds are counted 0-based
//! here; round `t` is a training round iff `t mod (Γ_train + Γ_sync) <
//! Γ_train` (Line 5 of Algorithm 2, shifted so each period opens with its
//! training block).

use serde::{Deserialize, Serialize};

/// A coordinated train/sync schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schedule {
    /// Γ_train: consecutive training rounds per period.
    pub gamma_train: usize,
    /// Γ_sync: consecutive synchronization rounds per period.
    pub gamma_sync: usize,
    /// Phase offset into the period at round 0. With offset 0 each period
    /// opens with its training block (the paper's convention); offset
    /// `gamma_train` opens with the synchronization block — an ablation of
    /// the block ordering.
    #[serde(default)]
    pub phase_offset: usize,
}

impl Schedule {
    /// Creates a train-first schedule.
    ///
    /// # Panics
    /// Panics if `gamma_train == 0` (a schedule that never trains cannot
    /// learn).
    pub fn new(gamma_train: usize, gamma_sync: usize) -> Self {
        assert!(gamma_train > 0, "Γ_train must be positive");
        Self {
            gamma_train,
            gamma_sync,
            phase_offset: 0,
        }
    }

    /// The same schedule starting `offset` slots into the period (e.g.
    /// `offset = gamma_train` gives a sync-first ordering).
    pub fn with_offset(mut self, offset: usize) -> Self {
        self.phase_offset = offset % self.period();
        self
    }

    /// The D-PSGD schedule: train every round, never sync-only.
    pub fn dpsgd() -> Self {
        Self {
            gamma_train: 1,
            gamma_sync: 0,
            phase_offset: 0,
        }
    }

    /// The paper's tuned schedules per topology degree (§4.3: (4,4) for
    /// 6-regular, (3,3) for 8-regular, (4,2) for 10-regular).
    pub fn tuned_for_degree(degree: usize) -> Self {
        match degree {
            0..=6 => Self::new(4, 4),
            7..=8 => Self::new(3, 3),
            _ => Self::new(4, 2),
        }
    }

    /// Period length Γ_train + Γ_sync.
    pub fn period(&self) -> usize {
        self.gamma_train + self.gamma_sync
    }

    /// Whether round `t` (0-based) is a coordinated training round.
    pub fn is_train_round(&self, t: usize) -> bool {
        (t + self.phase_offset) % self.period() < self.gamma_train
    }

    /// Eq. 4: the (real-valued) maximum number of training rounds in `total`
    /// rounds, `T_train = Γ_train / (Γ_train + Γ_sync) · T`.
    pub fn t_train(&self, total_rounds: usize) -> f64 {
        self.gamma_train as f64 / self.period() as f64 * total_rounds as f64
    }

    /// Exact count of training rounds among `0..total_rounds`.
    pub fn count_train_rounds(&self, total_rounds: usize) -> usize {
        let period = self.period();
        let full = total_rounds / period;
        let mut count = full * self.gamma_train;
        for t in full * period..total_rounds {
            if self.is_train_round(t) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dpsgd_always_trains() {
        let s = Schedule::dpsgd();
        assert!((0..100).all(|t| s.is_train_round(t)));
        assert_eq!(s.count_train_rounds(100), 100);
    }

    #[test]
    fn four_four_pattern() {
        let s = Schedule::new(4, 4);
        // TTTTSSSS TTTTSSSS
        assert!((0..16).all(|t| s.is_train_round(t) == (t % 8 < 4)));
        assert_eq!(s.count_train_rounds(16), 8);
        assert!((s.t_train(1000) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn paper_tuned_schedules() {
        assert_eq!(Schedule::tuned_for_degree(6), Schedule::new(4, 4));
        assert_eq!(Schedule::tuned_for_degree(8), Schedule::new(3, 3));
        assert_eq!(Schedule::tuned_for_degree(10), Schedule::new(4, 2));
    }

    #[test]
    fn ten_regular_trains_666_of_1000() {
        // §4.3 reports T_train = 666 on the 10-regular graph (Γ = (4, 2)),
        // the real-valued Eq. 4 value ⌊4/6 · 1000⌋; exact enumeration of the
        // TTTTSS pattern over 1000 rounds gives 668 executed training rounds.
        let s = Schedule::tuned_for_degree(10);
        assert_eq!(s.count_train_rounds(1000), 668);
        assert!((s.t_train(1000) - 666.67).abs() < 0.01);
    }

    #[test]
    fn partial_period_counts() {
        let s = Schedule::new(2, 3);
        // pattern TTSSS | TT...
        assert_eq!(s.count_train_rounds(0), 0);
        assert_eq!(s.count_train_rounds(1), 1);
        assert_eq!(s.count_train_rounds(2), 2);
        assert_eq!(s.count_train_rounds(3), 2);
        assert_eq!(s.count_train_rounds(7), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_gamma_train() {
        let _ = Schedule::new(0, 4);
    }

    #[test]
    fn offset_shifts_the_pattern() {
        let sync_first = Schedule::new(4, 4).with_offset(4);
        // SSSSTTTT SSSSTTTT
        assert!((0..16).all(|t| sync_first.is_train_round(t) == (t % 8 >= 4)));
        // over whole periods the train count is unchanged
        assert_eq!(sync_first.count_train_rounds(16), 8);
        // but a partial window sees the shift
        assert_eq!(sync_first.count_train_rounds(4), 0);
        assert_eq!(Schedule::new(4, 4).count_train_rounds(4), 4);
    }

    #[test]
    fn offset_wraps_modulo_period() {
        let s = Schedule::new(2, 2).with_offset(5);
        assert_eq!(s.phase_offset, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_count_matches_enumeration(gt in 1usize..6, gs in 0usize..6, total in 0usize..200) {
            let s = Schedule::new(gt, gs);
            let brute = (0..total).filter(|&t| s.is_train_round(t)).count();
            prop_assert_eq!(s.count_train_rounds(total), brute);
        }

        #[test]
        fn prop_eq4_bounds_exact_count(gt in 1usize..6, gs in 0usize..6, total in 0usize..200) {
            let s = Schedule::new(gt, gs);
            let exact = s.count_train_rounds(total) as f64;
            // the real-valued Eq. 4 is within one period of the exact count
            prop_assert!((exact - s.t_train(total)).abs() <= s.gamma_train as f64);
        }

        #[test]
        fn prop_offset_shifts_phase_without_dropping_partial_periods(
            gt in 1usize..6, gs in 0usize..6, offset in 0usize..16, total in 0usize..120
        ) {
            // Issue-4 satellite: `with_offset` must *shift* the activation
            // phase — round t of the offset schedule behaves like round
            // t + offset of the base schedule — and the first (partial)
            // period stays fully populated rather than being dropped.
            let base = Schedule::new(gt, gs);
            let shifted = base.with_offset(offset);
            for t in 0..total {
                prop_assert_eq!(
                    shifted.is_train_round(t),
                    base.is_train_round(t + offset),
                    "round {} with offset {}", t, offset
                );
            }
            // count_train_rounds' full-period shortcut must agree with
            // brute enumeration at every offset (a dropped first partial
            // period would show up here)
            let brute = (0..total).filter(|&t| shifted.is_train_round(t)).count();
            prop_assert_eq!(shifted.count_train_rounds(total), brute);
            // any full-period window contains exactly gamma_train training
            // rounds regardless of phase
            let period = base.period();
            if total >= period {
                let window = (0..period).filter(|&t| shifted.is_train_round(t)).count();
                prop_assert_eq!(window, gt);
            }
        }
    }
}
