//! Stochastic gradient descent.
//!
//! The paper trains with plain SGD (Table 1); momentum and weight decay are
//! provided for ablations and the examples.

use crate::model::Sequential;
use serde::{Deserialize, Serialize};

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 = plain SGD).
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl SgdConfig {
    /// Plain SGD at learning rate `lr` — the paper's optimizer.
    pub fn plain(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self::plain(0.1)
    }
}

/// SGD optimizer with optional momentum.
pub struct Sgd {
    config: SgdConfig,
    /// Momentum buffer over the flattened parameter vector; allocated lazily
    /// on first step when momentum is enabled.
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an optimizer.
    pub fn new(config: SgdConfig) -> Self {
        assert!(config.lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&config.momentum),
            "momentum must be in [0, 1)"
        );
        assert!(
            config.weight_decay >= 0.0,
            "weight decay must be non-negative"
        );
        Self {
            config,
            velocity: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Applies one update `w ← w − η (g + λw)` (with optional momentum)
    /// using the gradients currently accumulated in the model.
    pub fn step(&mut self, model: &mut Sequential) {
        let lr = self.config.lr;
        let wd = self.config.weight_decay;
        let mu = self.config.momentum;

        if mu == 0.0 {
            model.for_each_param_block(|params, grads| {
                if wd == 0.0 {
                    skiptrain_linalg::ops::axpy(-lr, grads, params);
                } else {
                    for (w, &g) in params.iter_mut().zip(grads) {
                        *w -= lr * (g + wd * *w);
                    }
                }
            });
            return;
        }

        if self.velocity.len() != model.param_count() {
            self.velocity = vec![0.0; model.param_count()];
        }
        let mut offset = 0usize;
        let velocity = &mut self.velocity;
        model.for_each_param_block(|params, grads| {
            let v = &mut velocity[offset..offset + params.len()];
            for ((w, &g), vi) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
                let eff_g = g + wd * *w;
                *vi = mu * *vi + eff_g;
                *w -= lr * *vi;
            }
            offset += params.len();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::zoo::InitRng;
    use skiptrain_linalg::Matrix;

    fn one_layer() -> Sequential {
        let mut init = InitRng::new(1);
        Sequential::new(vec![Box::new(Dense::new(2, 2, &mut init))])
    }

    fn run_backward(model: &mut Sequential) {
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let _ = model.forward(&x, true);
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
    fn weight_decay_shrinks_weights() {
        let mut model = one_layer();
        // zero gradients: step should purely decay
        model.zero_grads();
        let before = model.flat_params();
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        });
        opt.step(&mut model);
        for (b, a) in before.iter().zip(model.flat_params()) {
            assert!((a - b * (1.0 - 0.05)).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accelerates_repeated_steps() {
        let mut plain_model = one_layer();
        let mut mom_model = one_layer();
        let mut plain = Sgd::new(SgdConfig::plain(0.1));
        let mut mom = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let start = plain_model.flat_params();
        for _ in 0..5 {
            plain_model.zero_grads();
            run_backward(&mut plain_model);
            plain.step(&mut plain_model);
            mom_model.zero_grads();
            run_backward(&mut mom_model);
            mom.step(&mut mom_model);
        }
        let d_plain: f32 = start
            .iter()
            .zip(plain_model.flat_params())
            .map(|(s, w)| (s - w).abs())
            .sum();
        let d_mom: f32 = start
            .iter()
            .zip(mom_model.flat_params())
            .map(|(s, w)| (s - w).abs())
            .sum();
        assert!(
            d_mom > d_plain,
            "momentum should travel farther: {d_mom} vs {d_plain}"
        );
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(SgdConfig::plain(0.0));
    }
}
