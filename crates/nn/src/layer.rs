//! The layer abstraction.
//!
//! Layers process batch-major activations: a `Matrix` with one sample per
//! row and `features` columns. Convolutional layers interpret the feature
//! axis as a flattened `channels × height × width` volume; because the
//! layout is row-major and contiguous, no reshapes are ever materialized.

use crate::zoo::InitRng;
use skiptrain_linalg::Matrix;

/// A differentiable layer.
///
/// Contract:
/// * [`forward`](Layer::forward) consumes `input` (`batch × input_dim`) and
///   writes `output` (`batch × output_dim`). Layers keep no copy of either:
///   the caller owns both buffers and hands them back to `backward`.
///   `train` matters only to a layer whose forward pass selects something
///   the backward pass must replay (`MaxPool2d`'s argmax); every other
///   layer ignores it.
/// * [`backward`](Layer::backward) receives the `input` and `output` of the
///   last `forward` on this batch (unchanged since), consumes `grad_out`
///   (`batch × output_dim`) and accumulates parameter gradients into
///   `grads`. With `grad_in = Some(g)` it also writes the gradient
///   w.r.t. `input` into `g` (`batch × input_dim`); with `None` nobody
///   reads that gradient, so the layer must not compute it — a layer
///   without parameters then has nothing to do. For layers with
///   forward-only state it must follow a `forward` with `train = true`.
/// * A layer is a shape plus its forward-only state: it owns neither its
///   parameters nor their gradients. Both passes are handed `params`, and
///   `backward` the aligned `grads`, as slices of exactly
///   [`param_count`](Layer::param_count) values cut from the model's one
///   flat vector of each — the vector that is trained, shared and averaged
///   is the one the kernels read, wherever its owner keeps it.
pub trait Layer: Send {
    /// Human-readable layer kind, used in the model's shape-mismatch message.
    fn name(&self) -> &'static str;

    /// Number of input features per sample.
    fn input_dim(&self) -> usize;

    /// Number of output features per sample.
    fn output_dim(&self) -> usize;

    /// Number of trainable parameters (0 for stateless layers).
    fn param_count(&self) -> usize {
        0
    }

    /// Writes the layer's initial parameters into `params` (all zero on
    /// entry), drawing from `init` in flatten order.
    fn init_params(&self, _params: &mut [f32], _init: &mut InitRng) {}

    /// Forward pass. See trait docs for the buffer contract.
    fn forward(&mut self, params: &[f32], input: &Matrix, output: &mut Matrix, train: bool);

    /// Backward pass. See trait docs for the buffer contract.
    fn backward(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    );
}

/// Resizes `m` to `rows × cols` if needed, reusing the allocation when the
/// total element count already matches.
pub(crate) fn ensure_shape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        // capacity-preserving: a scratch matrix cycled across layer widths
        // (e.g. the model's two backward gradient buffers) stops
        // reallocating once it has seen the largest shape
        m.resize_zeroed(rows, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stateless;
    impl Layer for Stateless {
        fn name(&self) -> &'static str {
            "stateless"
        }
        fn input_dim(&self) -> usize {
            3
        }
        fn output_dim(&self) -> usize {
            3
        }
        fn forward(&mut self, _params: &[f32], input: &Matrix, output: &mut Matrix, _train: bool) {
            output.as_mut_slice().copy_from_slice(input.as_slice());
        }
        fn backward(
            &mut self,
            _params: &[f32],
            _grads: &mut [f32],
            _input: &Matrix,
            _output: &Matrix,
            grad_out: &Matrix,
            grad_in: Option<&mut Matrix>,
        ) {
            if let Some(grad_in) = grad_in {
                grad_in.as_mut_slice().copy_from_slice(grad_out.as_slice());
            }
        }
    }

    #[test]
    fn default_param_views_are_empty() {
        let l = Stateless;
        assert_eq!(l.param_count(), 0);
        // a stateless layer draws nothing from the initializer stream
        let (mut used, mut fresh) = (InitRng::new(1), InitRng::new(1));
        l.init_params(&mut [], &mut used);
        assert_eq!(used.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0));
    }

    #[test]
    fn ensure_shape_reallocates_only_on_mismatch() {
        let mut m = Matrix::zeros(2, 3);
        ensure_shape(&mut m, 2, 3);
        assert_eq!(m.shape(), (2, 3));
        ensure_shape(&mut m, 4, 5);
        assert_eq!(m.shape(), (4, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }
}
