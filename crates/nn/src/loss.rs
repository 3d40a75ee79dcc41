//! Softmax cross-entropy loss (the paper's training objective) and top-1
//! accuracy.

use skiptrain_linalg::Matrix;

/// Fused softmax + cross-entropy.
///
/// The fused formulation is numerically stable (log-sum-exp with max
/// subtraction) and has the famously simple gradient
/// `(softmax(logits) - onehot(label)) / batch`.
pub struct SoftmaxCrossEntropy {
    num_classes: usize,
}

impl SoftmaxCrossEntropy {
    /// Creates the loss for `num_classes`-way classification.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self { num_classes }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Computes the mean loss over the batch and writes the logit gradient.
    ///
    /// `logits` is `batch × num_classes`; `labels` holds one class id per
    /// sample; `grad` is resized to the logits shape.
    ///
    /// # Panics
    /// Panics on shape mismatch or an out-of-range label.
    pub fn loss_and_grad(&self, logits: &Matrix, labels: &[u32], grad: &mut Matrix) -> f32 {
        let batch = logits.rows();
        assert_eq!(
            logits.cols(),
            self.num_classes,
            "logit width != num_classes"
        );
        assert_eq!(labels.len(), batch, "labels length != batch");
        assert!(batch > 0, "empty batch");
        crate::model::ensure_shape(grad, batch, self.num_classes);

        let inv_b = 1.0 / batch as f32;
        let mut total = 0.0f64;
        for (r, &raw_label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let label = raw_label as usize;
            assert!(label < self.num_classes, "label {label} out of range");
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum_exp = 0.0f32;
            let grow = grad.row_mut(r);
            for (g, &v) in grow.iter_mut().zip(row) {
                let e = (v - max).exp();
                *g = e;
                sum_exp += e;
            }
            let inv_sum = 1.0 / sum_exp;
            for g in grow.iter_mut() {
                *g *= inv_sum * inv_b;
            }
            grow[label] -= inv_b;
            // loss = -(logit_y - max - ln Σexp)
            total += -((row[label] - max) as f64 - (sum_exp as f64).ln());
        }
        (total * inv_b as f64) as f32
    }

    /// Mean loss only (no gradient), for evaluation.
    pub fn loss(&self, logits: &Matrix, labels: &[u32]) -> f32 {
        let batch = logits.rows();
        assert_eq!(
            logits.cols(),
            self.num_classes,
            "logit width != num_classes"
        );
        assert_eq!(labels.len(), batch, "labels length != batch");
        assert!(batch > 0, "empty batch");
        let mut total = 0.0f64;
        for (r, &raw_label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let label = raw_label as usize;
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let sum_exp: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            total += -((row[label] - max) as f64 - (sum_exp as f64).ln());
        }
        (total / batch as f64) as f32
    }
}

/// Fraction of samples whose argmax logit equals the label (top-1 accuracy).
///
/// # Panics
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[u32]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "labels length != batch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        if skiptrain_linalg::reduce::argmax(row) == Some(label as usize) {
            correct += 1;
        }
    }
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let loss = SoftmaxCrossEntropy::new(4);
        let logits = Matrix::zeros(3, 4);
        let labels = [0u32, 1, 2];
        let mut grad = Matrix::zeros(0, 0);
        let l = loss.loss_and_grad(&logits, &labels, &mut grad);
        assert!((l - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let loss = SoftmaxCrossEntropy::new(3);
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let labels = [2u32, 0];
        let mut grad = Matrix::zeros(0, 0);
        loss.loss_and_grad(&logits, &labels, &mut grad);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let loss = SoftmaxCrossEntropy::new(2);
        let logits = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        let l = loss.loss(&logits, &[0]);
        assert!(l < 1e-3, "loss {l} not small");
        let l_wrong = loss.loss(&logits, &[1]);
        assert!(l_wrong > 5.0, "wrong-label loss {l_wrong} not large");
    }

    #[test]
    fn loss_is_shift_invariant() {
        let loss = SoftmaxCrossEntropy::new(3);
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        assert!((loss.loss(&a, &[1]) - loss.loss(&b, &[1])).abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = SoftmaxCrossEntropy::new(3);
        let base = vec![0.3f32, -0.2, 0.9];
        let labels = [1u32];
        let mut grad = Matrix::zeros(0, 0);
        loss.loss_and_grad(&Matrix::from_vec(1, 3, base.clone()), &labels, &mut grad);
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut plus = base.clone();
            plus[j] += eps;
            let mut minus = base.clone();
            minus[j] -= eps;
            let lp = loss.loss(&Matrix::from_vec(1, 3, plus), &labels);
            let lm = loss.loss(&Matrix::from_vec(1, 3, minus), &labels);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.row(0)[j]).abs() < 1e-3,
                "logit {j}: numeric {num} vs analytic {}",
                grad.row(0)[j]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Matrix::from_vec(3, 2, vec![2.0, 1.0, 0.0, 5.0, 1.0, 1.5]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        let loss = SoftmaxCrossEntropy::new(2);
        let logits = Matrix::zeros(1, 2);
        let mut grad = Matrix::zeros(0, 0);
        loss.loss_and_grad(&logits, &[5], &mut grad);
    }
}
