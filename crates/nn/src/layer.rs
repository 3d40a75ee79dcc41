//! The layer abstraction.
//!
//! Layers process batch-major activations: a `Matrix` with one sample per
//! row and `features` columns. Convolutional layers interpret the feature
//! axis as a flattened `channels × height × width` volume; because the
//! layout is row-major and contiguous, no reshapes are ever materialized.

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
///   (`batch × output_dim`) and accumulates parameter gradients
///   internally. With `grad_in = Some(g)` it also writes the gradient
///   w.r.t. `input` into `g` (`batch × input_dim`); with `None` nobody
///   reads that gradient, so the layer must not compute it — a layer
///   without parameters then has nothing to do. For layers with
///   forward-only state it must follow a `forward` with `train = true`.
/// * Parameters and their gradients are exposed as single contiguous slices
///   so models can be flattened for gossip exchange without copying
///   layer-by-layer structure around.
pub trait Layer: Send {
    /// Human-readable layer kind, used in the model's shape-mismatch message.
    fn name(&self) -> &'static str;

    /// Number of input features per sample.
    fn input_dim(&self) -> usize;

    /// Number of output features per sample.
    fn output_dim(&self) -> usize;

    /// Forward pass. See trait docs for the buffer contract.
    fn forward(&mut self, input: &Matrix, output: &mut Matrix, train: bool);

    /// Backward pass. See trait docs for the buffer contract.
    fn backward(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    );

    /// Flat view of the trainable parameters (empty for stateless layers).
    fn params(&self) -> &[f32] {
        &[]
    }

    /// Mutable flat view of the trainable parameters.
    fn params_mut(&mut self) -> &mut [f32] {
        &mut []
    }

    /// Flat view of the parameter gradients, aligned with [`params`](Layer::params).
    fn grads(&self) -> &[f32] {
        &[]
    }

    /// Mutable flat view of the parameter gradients.
    fn grads_mut(&mut self) -> &mut [f32] {
        &mut []
    }

    /// Mutable parameters together with their (read-only) gradients, for the
    /// optimizer update. Layers with state implement this as a disjoint
    /// field borrow; stateless layers return empty slices.
    fn params_and_grads(&mut self) -> (&mut [f32], &[f32]) {
        (&mut [], &[])
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        self.params().len()
    }
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
        fn forward(&mut self, input: &Matrix, output: &mut Matrix, _train: bool) {
            output.as_mut_slice().copy_from_slice(input.as_slice());
        }
        fn backward(
            &mut self,
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
        let mut l = Stateless;
        assert!(l.params().is_empty());
        assert!(l.params_mut().is_empty());
        assert!(l.grads().is_empty());
        assert_eq!(l.param_count(), 0);
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
