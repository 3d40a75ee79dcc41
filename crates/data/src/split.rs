//! Validation/test splitting, following §4.2 of the paper.
//!
//! The paper tunes hyperparameters on a validation set "obtained by
//! extracting 50 % of the samples from the test set", keeping validation and
//! test disjoint.

use crate::dataset::Dataset;

/// Evaluation splits as used by the paper.
#[derive(Clone, Debug)]
pub struct EvalSplits {
    /// Validation set (hyperparameter tuning, Figure 3).
    pub validation: Dataset,
    /// Test set (all other reported accuracies).
    pub test: Dataset,
}

/// Splits a test pool into disjoint validation/test halves (§4.2).
pub fn split_eval(test_pool: &Dataset, seed: u64) -> EvalSplits {
    let (validation, test) = test_pool.split(0.5, seed);
    EvalSplits { validation, test }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_linalg::Matrix;

    fn pool(n: usize) -> Dataset {
        let features = Matrix::from_fn(n, 3, |r, c| (r * 3 + c) as f32);
        let labels = (0..n).map(|i| (i % 4) as u32).collect();
        Dataset::new(features, labels, 4)
    }

    #[test]
    fn halves_are_disjoint_and_cover() {
        let p = pool(100);
        let s = split_eval(&p, 1);
        assert_eq!(s.validation.len(), 50);
        assert_eq!(s.test.len(), 50);
        // disjoint by construction: every feature row is unique in `pool`
        let val_ids: std::collections::HashSet<u32> = s
            .validation
            .features()
            .rows_iter()
            .map(|r| r[0] as u32)
            .collect();
        for row in s.test.features().rows_iter() {
            assert!(!val_ids.contains(&(row[0] as u32)), "split leaked a sample");
        }
    }

    #[test]
    fn custom_fraction_respected() {
        // the split under `split_eval` at a fraction other than one half
        let (validation, test) = pool(100).split(0.2, 2);
        assert_eq!(validation.len(), 20);
        assert_eq!(test.len(), 80);
    }
}
