//! Validation/test splitting, following §4.2 of the paper.
//!
//! The paper tunes hyperparameters on a validation set "obtained by
//! extracting 50 % of the samples from the test set", keeping validation and
//! test disjoint. The split works over a row count: the generators draw the
//! evaluation pool straight into its halves (see [`crate::synth`]).

use crate::dataset::Dataset;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Evaluation splits as used by the paper.
#[derive(Clone, Debug)]
pub struct EvalSplits {
    /// Validation set (hyperparameter tuning, Figure 3).
    pub validation: Dataset,
    /// Test set (all other reported accuracies).
    pub test: Dataset,
}

/// Rows `0..n` shuffled by `seed` and cut into a `frac` and a `1 - frac`
/// part, each non-empty when `n ≥ 2`.
///
/// # Panics
/// Panics unless `0.0 < frac < 1.0`.
pub(crate) fn split_rows(n: usize, frac: f64, seed: u64) -> Vec<Vec<usize>> {
    assert!(frac > 0.0 && frac < 1.0, "split fraction must be in (0, 1)");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut SmallRng::seed_from_u64(seed));
    let cut = ((n as f64) * frac).round() as usize;
    let cut = cut.clamp(usize::from(n >= 2), n.saturating_sub(1).max(1));
    let rest = idx.split_off(cut);
    vec![idx, rest]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_are_disjoint_and_cover() {
        let halves = split_rows(100, 0.5, 1);
        assert_eq!(halves[0].len(), 50);
        assert_eq!(halves[1].len(), 50);
        let mut rows = halves.concat();
        rows.sort_unstable();
        assert_eq!(rows, (0..100).collect::<Vec<_>>(), "split leaked a row");
    }

    #[test]
    fn custom_fraction_respected() {
        // the evaluation split's shuffle at a fraction other than one half
        let parts = split_rows(100, 0.2, 2);
        assert_eq!((parts[0].len(), parts[1].len()), (20, 80));
    }
}
