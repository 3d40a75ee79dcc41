//! Fully-connected (dense) layer.

use crate::layer::{ensure_shape, Layer};
use crate::zoo::InitRng;
use skiptrain_linalg::{gemm_a_bt_into, gemm_at_b_into, Matrix};

/// A dense layer computing `Y = X · W + b`.
///
/// Parameters are packed contiguously as `[W (in×out, row-major) | b (out)]`
/// — one span of the model's flat parameter vector — and all three GEMMs of
/// the layer run directly on the borrowed slice with no copies. The layer
/// keeps neither parameters nor activations: the weight-gradient GEMM reads
/// the forward input the caller hands back to `backward`.
pub struct Dense {
    input_dim: usize,
    output_dim: usize,
}

impl Dense {
    /// Creates a dense layer; [`Layer::init_params`] draws He-uniform
    /// weights and leaves the bias zero (PyTorch's `nn.Linear` default
    /// family).
    pub fn new(input_dim: usize, output_dim: usize) -> Self {
        Self {
            input_dim,
            output_dim,
        }
    }

    #[inline]
    fn weight_len(&self) -> usize {
        self.input_dim * self.output_dim
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn param_count(&self) -> usize {
        self.weight_len() + self.output_dim
    }

    fn init_params(&self, params: &mut [f32], init: &mut InitRng) {
        init.he_uniform(&mut params[..self.weight_len()], self.input_dim);
    }

    fn forward(&mut self, params: &[f32], input: &Matrix, output: &mut Matrix, _train: bool) {
        let batch = input.rows();
        assert_eq!(
            input.cols(),
            self.input_dim,
            "dense forward: input dim mismatch"
        );
        ensure_shape(output, batch, self.output_dim);

        let (w, bias) = params.split_at(self.weight_len());
        // Y = X · W: batch-sized, so the direct tile reads X and W in place.
        skiptrain_linalg::gemm_into(
            batch,
            self.input_dim,
            self.output_dim,
            input.as_slice(),
            w,
            output.as_mut_slice(),
        );
        for r in 0..batch {
            let row = output.row_mut(r);
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    fn backward(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    ) {
        let batch = grad_out.rows();
        assert_eq!(
            grad_out.cols(),
            self.output_dim,
            "dense backward: grad dim mismatch"
        );
        assert_eq!(
            input.shape(),
            (batch, self.input_dim),
            "dense backward: input is not the forward input of this batch"
        );

        let wlen = self.weight_len();
        let (dw, db) = grads.split_at_mut(wlen);
        // dW += Xᵀ · dY
        gemm_at_b_into(
            self.input_dim,
            batch,
            self.output_dim,
            input.as_slice(),
            grad_out.as_slice(),
            dw,
        );
        // db += column sums of dY
        for r in 0..batch {
            for (g, d) in db.iter_mut().zip(grad_out.row(r)) {
                *g += d;
            }
        }
        // dX = dY · Wᵀ, only when a layer below reads it. W is in×out
        // row-major and a_bt wants B as n×k = in×out: exactly W.
        if let Some(grad_in) = grad_in {
            ensure_shape(grad_in, batch, self.input_dim);
            gemm_a_bt_into(
                batch,
                self.output_dim,
                self.input_dim,
                grad_out.as_slice(),
                &params[..wlen],
                grad_in.as_mut_slice(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense layer, its seed-42 initial parameters and a zeroed gradient
    /// vector — the storage a model would lend it.
    fn fixed_dense(input_dim: usize, output_dim: usize) -> (Dense, Vec<f32>, Vec<f32>) {
        let d = Dense::new(input_dim, output_dim);
        let mut params = vec![0.0; d.param_count()];
        d.init_params(&mut params, &mut InitRng::new(42));
        let grads = vec![0.0; d.param_count()];
        (d, params, grads)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let (mut d, mut params, _) = fixed_dense(2, 3);
        // W = [[1,2,3],[4,5,6]], b = [.1,.2,.3]
        params.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.1, 0.2, 0.3]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&params, &x, &mut y, false);
        assert_eq!(y.shape(), (1, 3));
        let row = y.row(0);
        assert!((row[0] - 5.1).abs() < 1e-6);
        assert!((row[1] - 7.2).abs() < 1e-6);
        assert!((row[2] - 9.3).abs() < 1e-6);
    }

    #[test]
    fn input_gradient_matches_manual() {
        let (mut d, mut params, mut grads) = fixed_dense(2, 2);
        // W = [[1,2],[3,4]], b = 0
        params.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 0.0, 0.0]);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&params, &x, &mut y, true);
        let g = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let mut gi = Matrix::zeros(0, 0);
        d.backward(&params, &mut grads, &x, &y, &g, Some(&mut gi));
        // dX = dY · Wᵀ = [1,0]·[[1,3],[2,4]]ᵀ... dX_j = Σ_o g_o W[j][o] = W[j][0]
        assert_eq!(gi.row(0), &[1.0, 3.0]);
        // dW[i][o] = x_i * g_o → [[1,0],[1,0]]; db = [1,0]
        assert_eq!(&grads[..4], &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(&grads[4..], &[1.0, 0.0]);
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let (d, ..) = fixed_dense(7, 5);
        assert_eq!(d.param_count(), 7 * 5 + 5);
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let (_, a, _) = fixed_dense(4, 4);
        let (_, b, _) = fixed_dense(4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn bias_initialized_to_zero() {
        let (_, params, _) = fixed_dense(3, 2);
        assert_eq!(&params[6..], &[0.0, 0.0]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let (mut d, params, mut grads) = fixed_dense(2, 2);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let mut y = Matrix::zeros(0, 0);
        d.forward(&params, &x, &mut y, true);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut gi = Matrix::zeros(0, 0);
        d.backward(&params, &mut grads, &x, &y, &g, Some(&mut gi));
        let g1 = grads.clone();
        d.forward(&params, &x, &mut y, true);
        d.backward(&params, &mut grads, &x, &y, &g, Some(&mut gi));
        for (a, b) in grads.iter().zip(&g1) {
            assert!((a - 2.0 * b).abs() < 1e-5, "gradient did not accumulate");
        }
    }
}
