//! Stateless activation layers.

use crate::layer::{ensure_shape, Layer};
use skiptrain_linalg::Matrix;

/// Rectified linear unit: `y = max(0, x)`.
///
/// The backward pass masks by the forward *output* (`y > 0`, which equals
/// the input mask for ReLU), read from the buffer the caller hands back —
/// the layer holds nothing but its width.
pub struct Relu {
    dim: usize,
}

impl Relu {
    /// Creates a ReLU over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn forward(&mut self, _params: &[f32], input: &Matrix, output: &mut Matrix, _train: bool) {
        assert_eq!(input.cols(), self.dim, "relu forward: dim mismatch");
        ensure_shape(output, input.rows(), self.dim);
        for (o, &i) in output.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if i > 0.0 { i } else { 0.0 };
        }
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        _input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    ) {
        let Some(grad_in) = grad_in else { return };
        assert_eq!(
            output.shape(),
            grad_out.shape(),
            "relu backward: output is not the forward output of this batch"
        );
        ensure_shape(grad_in, grad_out.rows(), self.dim);
        for ((gi, &go), &y) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(output.as_slice())
        {
            *gi = if y > 0.0 { go } else { 0.0 };
        }
    }
}

/// Hyperbolic tangent activation, provided for the linear/regression examples
/// and ablations; the paper's models use ReLU. Its derivative `1 − y²` is
/// read from the forward output the caller hands back.
pub struct Tanh {
    dim: usize,
}

impl Tanh {
    /// Creates a tanh over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn forward(&mut self, _params: &[f32], input: &Matrix, output: &mut Matrix, _train: bool) {
        assert_eq!(input.cols(), self.dim, "tanh forward: dim mismatch");
        ensure_shape(output, input.rows(), self.dim);
        for (o, &i) in output.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = i.tanh();
        }
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        _input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    ) {
        let Some(grad_in) = grad_in else { return };
        assert_eq!(
            output.shape(),
            grad_out.shape(),
            "tanh backward: output is not the forward output of this batch"
        );
        ensure_shape(grad_in, grad_out.rows(), self.dim);
        for ((gi, &go), &y) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(output.as_slice())
        {
            *gi = go * (1.0 - y * y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new(4);
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let mut y = Matrix::zeros(0, 0);
        relu.forward(&[], &x, &mut y, false);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_gradient_masks_inactive_units() {
        let mut relu = Relu::new(3);
        let x = Matrix::from_vec(1, 3, vec![-1.0, 1.0, 3.0]);
        let mut y = Matrix::zeros(0, 0);
        relu.forward(&[], &x, &mut y, true);
        let g = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]);
        let mut gi = Matrix::zeros(0, 0);
        relu.backward(&[], &mut [], &x, &y, &g, Some(&mut gi));
        assert_eq!(gi.as_slice(), &[0.0, 5.0, 5.0]);
    }

    #[test]
    fn relu_zero_input_has_zero_gradient() {
        // the kink: subgradient at 0 chosen as 0, consistent forward/backward
        let mut relu = Relu::new(1);
        let x = Matrix::from_vec(1, 1, vec![0.0]);
        let mut y = Matrix::zeros(0, 0);
        relu.forward(&[], &x, &mut y, true);
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        let mut gi = Matrix::zeros(0, 0);
        relu.backward(&[], &mut [], &x, &y, &g, Some(&mut gi));
        assert_eq!(gi.as_slice(), &[0.0]);
    }

    #[test]
    fn tanh_matches_std() {
        let mut t = Tanh::new(2);
        let x = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let mut y = Matrix::zeros(0, 0);
        t.forward(&[], &x, &mut y, false);
        assert!((y.row(0)[0] - 0.5f32.tanh()).abs() < 1e-6);
        assert!((y.row(0)[1] + 0.5f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_is_one_minus_y_squared() {
        let mut t = Tanh::new(1);
        let x = Matrix::from_vec(1, 1, vec![0.0]);
        let mut y = Matrix::zeros(0, 0);
        t.forward(&[], &x, &mut y, true);
        let g = Matrix::from_vec(1, 1, vec![2.0]);
        let mut gi = Matrix::zeros(0, 0);
        t.backward(&[], &mut [], &x, &y, &g, Some(&mut gi));
        // tanh(0)=0, derivative = 1
        assert!((gi.row(0)[0] - 2.0).abs() < 1e-6);
    }
}
