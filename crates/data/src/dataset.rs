//! Dataset container and minibatch sampling.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use skiptrain_linalg::Matrix;

/// An in-memory labelled dataset: `n × d` features and one class id per row.
#[derive(Clone, Debug)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<u32>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    /// Panics if row/label counts differ or any label is out of range.
    pub fn new(features: Matrix, labels: Vec<u32>, num_classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label count mismatch"
        );
        assert!(num_classes >= 1, "need at least one class");
        assert!(
            labels.iter().all(|&l| (l as usize) < num_classes),
            "label out of range for {num_classes} classes"
        );
        Self {
            features,
            labels,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes in the task (not necessarily all present locally).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature matrix (`len × feature_dim`).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Labels, one per row.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Copies the selected rows into a new dataset.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (mut features, mut labels) = (Matrix::zeros(0, 0), Vec::with_capacity(indices.len()));
        self.gather_batch(indices, &mut features, &mut labels);
        Dataset::new(features, labels, self.num_classes)
    }

    /// Gathers a minibatch into caller-provided buffers (no allocation when
    /// shapes already match).
    pub fn gather_batch(&self, indices: &[usize], x: &mut Matrix, y: &mut Vec<u32>) {
        if x.shape() != (indices.len(), self.feature_dim()) {
            *x = Matrix::zeros(indices.len(), self.feature_dim());
        }
        y.clear();
        for (r, &i) in indices.iter().enumerate() {
            x.copy_row_from(r, &self.features, i);
            y.push(self.labels[i]);
        }
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in &self.labels {
            h[l as usize] += 1;
        }
        h
    }

    /// Number of classes with at least one sample.
    pub fn distinct_classes(&self) -> usize {
        self.class_histogram().iter().filter(|&&c| c > 0).count()
    }
}

/// Uniform with-replacement minibatch sampler (Line 5 of D-PSGD: "ξ ← mini-
/// batch of samples from D_i").
pub struct MinibatchSampler {
    rng: SmallRng,
    n: usize,
    batch_size: usize,
}

impl MinibatchSampler {
    /// Creates a sampler over a dataset of `n` samples.
    ///
    /// # Panics
    /// Panics if `n == 0` or `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, seed: u64) -> Self {
        assert!(n > 0, "cannot sample from an empty dataset");
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            n,
            batch_size,
        }
    }

    /// Batch size (capped at the dataset size when gathering).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Fills `out` with `batch_size` sampled indices.
    pub fn sample_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        let effective = self.batch_size.min(self.n);
        for _ in 0..effective {
            out.push(self.rng.random_range(0..self.n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        Dataset::new(features, vec![0, 1, 2, 0, 1, 2], 3)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 6);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.distinct_classes(), 3);
    }

    #[test]
    fn subset_copies_rows_and_labels() {
        let d = toy();
        let s = d.subset(&[5, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(s.features().row(0), d.features().row(5));
        assert_eq!(s.features().row(1), d.features().row(0));
    }

    #[test]
    fn histogram_counts_labels() {
        let d = toy();
        assert_eq!(d.class_histogram(), vec![2, 2, 2]);
    }

    #[test]
    fn gather_batch_reuses_buffers() {
        let d = toy();
        let mut x = Matrix::zeros(2, 2);
        let mut y = Vec::new();
        d.gather_batch(&[1, 3], &mut x, &mut y);
        assert_eq!(y, vec![1, 0]);
        assert_eq!(x.row(0), d.features().row(1));
    }

    #[test]
    fn sampler_respects_bounds_and_determinism() {
        let mut s1 = MinibatchSampler::new(10, 4, 5);
        let mut s2 = MinibatchSampler::new(10, 4, 5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..10 {
            s1.sample_into(&mut a);
            s2.sample_into(&mut b);
            assert_eq!(a, b);
            assert_eq!(a.len(), 4);
            assert!(a.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sampler_caps_batch_at_dataset_size() {
        let mut s = MinibatchSampler::new(3, 16, 1);
        let mut out = Vec::new();
        s.sample_into(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(Matrix::zeros(1, 2), vec![5], 3);
    }
}
