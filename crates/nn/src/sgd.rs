//! Stochastic gradient descent.
//!
//! The paper trains with plain SGD (Table 1), and so does every
//! configuration of this repository: the learning rate is the one
//! hyperparameter.

use crate::model::Sequential;

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate η.
    pub lr: f32,
}

impl SgdConfig {
    /// Plain SGD at learning rate `lr` — the paper's optimizer.
    pub fn plain(lr: f32) -> Self {
        Self { lr }
    }
}

/// Plain SGD optimizer.
pub struct Sgd {
    config: SgdConfig,
}

impl Sgd {
    /// Creates an optimizer.
    pub fn new(config: SgdConfig) -> Self {
        assert!(config.lr > 0.0, "learning rate must be positive");
        Self { config }
    }

    /// Applies one update `w ← w − η g` using the gradients currently
    /// accumulated in the model.
    pub fn step(&mut self, model: &mut Sequential) {
        let (params, grads) = model.params_and_grads();
        skiptrain_linalg::ops::axpy(-self.config.lr, grads, params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_linalg::Matrix;

    fn one_layer() -> Sequential {
        crate::zoo::mlp(&[2, 2], 1)
    }

    fn run_backward(model: &mut Sequential) {
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let _ = model.forward(&x);
        let g = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        model.backward(&x, &g);
    }

    #[test]
    fn plain_step_moves_against_gradient() {
        let mut model = one_layer();
        let before = model.flat_params();
        run_backward(&mut model);
        let mut grads = Vec::new();
        model.copy_grads_to(&mut grads);
        let mut opt = Sgd::new(SgdConfig::plain(0.5));
        opt.step(&mut model);
        let after = model.flat_params();
        for ((b, a), g) in before.iter().zip(&after).zip(&grads) {
            assert!((a - (b - 0.5 * g)).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(SgdConfig::plain(0.0));
    }
}
