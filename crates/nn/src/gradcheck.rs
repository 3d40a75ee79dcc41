//! Finite-difference gradient verification.
//!
//! Manual backpropagation is the highest-risk code in the substrate, so the
//! test suite verifies the model's gradients end-to-end against central
//! differences — with and without hidden layers, and with more than one.
//! The checker is public so downstream code can verify any model it
//! builds.

use crate::loss::SoftmaxCrossEntropy;
use crate::model::Sequential;
use skiptrain_linalg::Matrix;

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative error across the checked coordinates.
    pub max_rel_error: f32,
    /// Index of the worst coordinate in the flattened parameter vector.
    pub worst_index: usize,
    /// Analytic gradient at the worst coordinate.
    pub analytic: f32,
    /// Numeric gradient at the worst coordinate.
    pub numeric: f32,
    /// How many coordinates were checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// True if the worst relative error is below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_error < tol
    }
}

/// Relative error with an absolute floor so near-zero gradients don't blow
/// up the ratio.
fn rel_error(a: f32, b: f32) -> f32 {
    (a - b).abs() / (a.abs().max(b.abs()) + 1e-3)
}

/// Verifies the model's backpropagated gradients against central finite
/// differences of the loss.
///
/// `max_coords` bounds the number of parameter coordinates probed (spread
/// evenly over the flattened vector) since each probe costs two forward
/// passes.
pub fn check_gradients(
    model: &mut Sequential,
    loss: &SoftmaxCrossEntropy,
    x: &Matrix,
    labels: &[u32],
    eps: f32,
    max_coords: usize,
) -> GradCheckReport {
    // Analytic gradients.
    model.zero_grads();
    let mut grad_logits = Matrix::zeros(0, 0);
    {
        let logits = model.forward(x);
        loss.loss_and_grad(logits, labels, &mut grad_logits);
    }
    model.backward(x, &grad_logits);
    let mut analytic = Vec::new();
    model.copy_grads_to(&mut analytic);

    let mut flat = model.flat_params();
    let n = flat.len();
    let step = (n / max_coords.max(1)).max(1);

    let mut report = GradCheckReport {
        max_rel_error: 0.0,
        worst_index: 0,
        analytic: 0.0,
        numeric: 0.0,
        checked: 0,
    };

    let mut idx = 0usize;
    while idx < n {
        let orig = flat[idx];
        flat[idx] = orig + eps;
        model.load_params(&flat);
        let lp = loss.loss(model.forward(x), labels);
        flat[idx] = orig - eps;
        model.load_params(&flat);
        let lm = loss.loss(model.forward(x), labels);
        flat[idx] = orig;

        let numeric = (lp - lm) / (2.0 * eps);
        let err = rel_error(analytic[idx], numeric);
        if err > report.max_rel_error {
            report.max_rel_error = err;
            report.worst_index = idx;
            report.analytic = analytic[idx];
            report.numeric = numeric;
        }
        report.checked += 1;
        idx += step;
    }
    model.load_params(&flat);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::mlp;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn random_batch(batch: usize, dim: usize, classes: usize, seed: u64) -> (Matrix, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = Matrix::from_fn(batch, dim, |_, _| rng.random_range(-1.0f32..1.0));
        let labels = (0..batch)
            .map(|_| rng.random_range(0..classes) as u32)
            .collect();
        (x, labels)
    }

    #[test]
    fn mlp_gradients_verify() {
        let mut model = mlp(&[6, 10, 4], 11);
        let loss = SoftmaxCrossEntropy::new(4);
        let (x, y) = random_batch(5, 6, 4, 1);
        let report = check_gradients(&mut model, &loss, &x, &y, 1e-2, 120);
        assert!(report.passes(2e-2), "mlp gradcheck failed: {:?}", report);
    }

    #[test]
    fn logistic_gradients_verify() {
        let mut model = mlp(&[8, 3], 5);
        let loss = SoftmaxCrossEntropy::new(3);
        let (x, y) = random_batch(7, 8, 3, 2);
        let report = check_gradients(&mut model, &loss, &x, &y, 1e-2, 60);
        assert!(
            report.passes(2e-2),
            "logistic gradcheck failed: {:?}",
            report
        );
    }

    #[test]
    fn deep_mlp_gradients_verify() {
        // two hidden layers: the masked input gradient of layer 2 is what
        // layer 1 trains on
        let mut model = mlp(&[5, 7, 6, 3], 8);
        let loss = SoftmaxCrossEntropy::new(3);
        let (x, y) = random_batch(4, 5, 3, 6);
        let report = check_gradients(&mut model, &loss, &x, &y, 1e-2, 80);
        assert!(
            report.passes(2e-2),
            "deep mlp gradcheck failed: {:?}",
            report
        );
    }
}
