//! Inverted dropout, provided as an extension for regularization studies
//! (the paper's models do not use dropout; ablation configs can).

use crate::layer::{ensure_shape, Layer};
use rand::RngExt;
use skiptrain_linalg::rng::stream_rng;
use skiptrain_linalg::Matrix;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation is
/// the identity function.
pub struct Dropout {
    dim: usize,
    p: f32,
    seed: u64,
    calls: u64,
    /// Mask of the last training forward (scale factor or 0 per element).
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer over `dim` features.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(dim: usize, p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Self {
            dim,
            p,
            seed,
            calls: 0,
            mask: Vec::new(),
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn forward(&mut self, input: &Matrix, output: &mut Matrix, train: bool) {
        assert_eq!(input.cols(), self.dim, "dropout forward: dim mismatch");
        ensure_shape(output, input.rows(), self.dim);
        if !train || self.p == 0.0 {
            output.as_mut_slice().copy_from_slice(input.as_slice());
            if train {
                self.mask.clear();
                self.mask.resize(input.len(), 1.0);
            }
            return;
        }
        // fresh deterministic mask per training call
        self.calls += 1;
        let mut rng = stream_rng(self.seed ^ 0xD809, self.calls);
        let keep_scale = 1.0 / (1.0 - self.p);
        self.mask.clear();
        self.mask.reserve(input.len());
        for (o, &x) in output.as_mut_slice().iter_mut().zip(input.as_slice()) {
            let keep = rng.random::<f32>() >= self.p;
            let m = if keep { keep_scale } else { 0.0 };
            self.mask.push(m);
            *o = x * m;
        }
    }

    fn backward(
        &mut self,
        _input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    ) {
        let Some(grad_in) = grad_in else { return };
        assert_eq!(
            self.mask.len(),
            grad_out.len(),
            "dropout backward: no cached forward for this batch"
        );
        ensure_shape(grad_in, grad_out.rows(), self.dim);
        for ((gi, &go), &m) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(&self.mask)
        {
            *gi = go * m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(4, 0.5, 1);
        let x = Matrix::from_vec(1, 4, vec![1.0, -2.0, 3.0, 0.5]);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&x, &mut y, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn train_mode_zeroes_roughly_p_fraction() {
        let mut d = Dropout::new(1000, 0.3, 2);
        let x = Matrix::full(1, 1000, 1.0);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&x, &mut y, true);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(
            (zeros as f32 / 1000.0 - 0.3).abs() < 0.06,
            "zeroed {zeros}/1000"
        );
        // survivors are scaled by 1/(1-p)
        let survivor = y.as_slice().iter().find(|&&v| v != 0.0).unwrap();
        assert!((survivor - 1.0 / 0.7).abs() < 1e-5);
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut d = Dropout::new(2000, 0.4, 3);
        let x = Matrix::full(1, 2000, 1.0);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&x, &mut y, true);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 2000.0;
        assert!((mean - 1.0).abs() < 0.08, "inverted dropout mean {mean}");
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(64, 0.5, 4);
        let x = Matrix::full(1, 64, 2.0);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&x, &mut y, true);
        let g = Matrix::full(1, 64, 1.0);
        let mut gi = Matrix::zeros(0, 0);
        d.backward(&x, &y, &g, Some(&mut gi));
        for (o, gi_v) in y.as_slice().iter().zip(gi.as_slice()) {
            // y = 2 * m and gi = m, so y == 2 * gi elementwise
            assert!((o - 2.0 * gi_v).abs() < 1e-6);
        }
    }

    #[test]
    fn masks_differ_across_calls_but_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut d = Dropout::new(32, 0.5, seed);
            let x = Matrix::full(1, 32, 1.0);
            let mut y1 = Matrix::zeros(0, 0);
            let mut y2 = Matrix::zeros(0, 0);
            d.forward(&x, &mut y1, true);
            d.forward(&x, &mut y2, true);
            (y1.as_slice().to_vec(), y2.as_slice().to_vec())
        };
        let (a1, a2) = run(7);
        let (b1, _) = run(7);
        assert_ne!(a1, a2, "mask must be resampled per call");
        assert_eq!(a1, b1, "same seed must give the same mask sequence");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(4, 1.0, 1);
    }
}
