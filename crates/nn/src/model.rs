//! Sequential model container with flat parameter access.
//!
//! Decentralized learning treats a model as an opaque parameter vector `x`
//! that is trained locally, shared with neighbors, and averaged. The
//! [`Sequential`] container therefore makes flatten/unflatten first-class:
//! [`Sequential::copy_params_to`] and [`Sequential::load_params`] move the
//! full parameter vector in and out without any per-layer bookkeeping on the
//! caller's side.

use crate::layer::Layer;
use skiptrain_linalg::Matrix;

/// A stack of layers executed in order.
///
/// The container owns every activation (`acts[i]` is layer `i`'s output of
/// the last forward pass) and the caller owns the batch, so the backward
/// sweep hands each layer its forward input and output by reference —
/// layers cache neither.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Output activation buffer per layer (workhorse, reused across batches).
    acts: Vec<Matrix>,
    /// Ping-pong gradient buffers for the backward sweep.
    gbuf_a: Matrix,
    gbuf_b: Matrix,
    param_count: usize,
    /// Index of the lowest layer with parameters (`layers.len()` if none):
    /// where the backward sweep stops.
    lowest_trainable: usize,
}

impl Sequential {
    /// Builds a model from layers.
    ///
    /// # Panics
    /// Panics if `layers` is empty or if consecutive layer dimensions do not
    /// line up.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_dim(),
                pair[1].input_dim(),
                "layer {} output ({}) does not feed layer {} input ({})",
                pair[0].name(),
                pair[0].output_dim(),
                pair[1].name(),
                pair[1].input_dim()
            );
        }
        let acts = layers.iter().map(|_| Matrix::zeros(0, 0)).collect();
        let param_count = layers.iter().map(|l| l.param_count()).sum();
        let lowest_trainable = layers
            .iter()
            .position(|l| l.param_count() > 0)
            .unwrap_or(layers.len());
        Self {
            layers,
            acts,
            gbuf_a: Matrix::zeros(0, 0),
            gbuf_b: Matrix::zeros(0, 0),
            param_count,
            lowest_trainable,
        }
    }

    /// Number of input features per sample.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Number of output features (logits) per sample.
    pub fn output_dim(&self) -> usize {
        // lint:allow(no_panic, "provably infallible: the constructor asserts at least one layer")
        self.layers.last().unwrap().output_dim()
    }

    /// Total number of trainable parameters (the paper's `|x|`).
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Runs the forward pass and returns the logits for the batch.
    ///
    /// With `train = true`, layers with forward-only state (pooling
    /// argmaxes) record what the backward pass must replay.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> &Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "model forward: input dim mismatch"
        );
        let mut src: &Matrix = input;
        for (layer, act) in self.layers.iter_mut().zip(self.acts.iter_mut()) {
            layer.forward(src, act, train);
            src = act;
        }
        // lint:allow(no_panic, "provably infallible: acts is built one-to-one with the non-empty layer stack")
        self.acts.last().unwrap()
    }

    /// Runs the backward sweep from the logit gradient, accumulating
    /// parameter gradients in every layer.
    ///
    /// Must follow a `forward(input, train = true)` on the same `input`.
    /// The sweep walks from the top layer down to the lowest layer that has
    /// parameters and stops there: that layer gets `grad_in = None` (the
    /// gradient w.r.t. its input would be dropped unread — a quarter of a
    /// two-layer MLP step's multiply–adds) and the parameterless layers
    /// below it are not visited.
    pub fn backward(&mut self, input: &Matrix, grad_logits: &Matrix) {
        let Self {
            layers,
            acts,
            gbuf_a,
            gbuf_b,
            lowest_trainable,
            ..
        } = self;
        let n = layers.len();
        debug_assert_eq!(acts.len(), n);
        // `cur` receives the gradient w.r.t. the current layer's input;
        // `next` holds the gradient produced by the layer above.
        let mut cur: &mut Matrix = gbuf_a;
        let mut next: &mut Matrix = gbuf_b;
        for i in (*lowest_trainable..n).rev() {
            let layer_in = if i == 0 { input } else { &acts[i - 1] };
            let grad_out = if i == n - 1 { grad_logits } else { &*next };
            let grad_in = (i > *lowest_trainable).then_some(&mut *cur);
            layers[i].backward(layer_in, &acts[i], grad_out, grad_in);
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.grads_mut().fill(0.0);
        }
    }

    /// Copies the flattened parameter vector into `out` (resized to fit).
    pub fn copy_params_to(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count);
        for layer in &self.layers {
            out.extend_from_slice(layer.params());
        }
    }

    /// Returns the flattened parameter vector.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut v = Vec::new();
        self.copy_params_to(&mut v);
        v
    }

    /// Copies the flattened gradient vector into `out` (resized to fit).
    pub fn copy_grads_to(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count);
        for layer in &self.layers {
            out.extend_from_slice(layer.grads());
        }
    }

    /// Loads a flattened parameter vector produced by [`copy_params_to`]
    /// (e.g. an aggregated neighbor model).
    ///
    /// # Panics
    /// Panics if `flat.len() != self.param_count()`.
    pub fn load_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count,
            "flat parameter length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            let p = layer.params_mut();
            p.copy_from_slice(&flat[offset..offset + p.len()]);
            offset += p.len();
        }
    }

    /// Visits `(params, grads)` slices of every parameterized layer, in
    /// flatten order — the optimizer hook.
    pub fn for_each_param_block(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        for layer in &mut self.layers {
            let (params, grads) = layer.params_and_grads();
            if !params.is_empty() {
                f(params, grads);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::{Relu, Tanh};
    use crate::conv::{Conv2d, MaxPool2d, Shape2d};
    use crate::dense::Dense;
    use crate::zoo::InitRng;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut init = InitRng::new(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 6, &mut init)),
            Box::new(Relu::new(6)),
            Box::new(Dense::new(6, 3, &mut init)),
        ])
    }

    #[test]
    fn param_count_sums_layers() {
        let m = tiny_mlp(1);
        assert_eq!(m.param_count(), (4 * 6 + 6) + (6 * 3 + 3));
    }

    #[test]
    fn forward_produces_logit_shape() {
        let mut m = tiny_mlp(2);
        let x = Matrix::zeros(5, 4);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), (5, 3));
    }

    #[test]
    fn flatten_load_roundtrip() {
        let mut a = tiny_mlp(3);
        let b = tiny_mlp(4);
        assert_ne!(a.flat_params(), b.flat_params());
        let theirs = b.flat_params();
        a.load_params(&theirs);
        assert_eq!(a.flat_params(), theirs);
    }

    #[test]
    fn loaded_params_change_predictions() {
        let mut a = tiny_mlp(5);
        let mut b = tiny_mlp(6);
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.3);
        let ya = a.forward(&x, false).clone();
        let flat_b = b.flat_params();
        a.load_params(&flat_b);
        let ya2 = a.forward(&x, false).clone();
        let yb = b.forward(&x, false).clone();
        assert!(ya.max_abs_diff(&ya2) > 1e-6, "loading params had no effect");
        assert!(
            ya2.max_abs_diff(&yb) < 1e-6,
            "same params must predict identically"
        );
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut m = tiny_mlp(7);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let _ = m.forward(&x, true);
        let g = Matrix::full(3, 3, 0.5);
        m.backward(&x, &g);
        let mut grads = Vec::new();
        m.copy_grads_to(&mut grads);
        assert!(
            grads.iter().any(|&v| v != 0.0),
            "backward produced no gradient"
        );
        m.zero_grads();
        m.copy_grads_to(&mut grads);
        assert!(grads.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "dense backward: input is not the forward input of this batch")]
    fn backward_rejects_an_input_of_another_batch_size() {
        let mut m = tiny_mlp(7);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let _ = m.forward(&x, true);
        let other = Matrix::zeros(2, 4);
        m.backward(&other, &Matrix::full(3, 3, 0.5));
    }

    /// A random stack over every layer kind: dense / conv widths, kernel,
    /// stride and padding, pooling, both activations. Returns the layers
    /// and the index of the lowest one with parameters.
    fn random_stack(seed: u64) -> (Vec<Box<dyn Layer>>, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut init = InitRng::new(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        // `shape` is Some while the activations are still a c×h×w volume
        let mut shape = rng
            .random_bool(0.5)
            .then(|| Shape2d::new(rng.random_range(1..3), 6, 6));
        let mut dim = shape.map_or(rng.random_range(2..9), |s| s.len());
        let mut lowest = None;
        let depth = rng.random_range(2..8);
        while layers.len() < depth || lowest.is_none() {
            let layer: Box<dyn Layer> = match (rng.random_range(0..5u32), shape) {
                (0, Some(s)) if s.height >= 3 => {
                    let (stride, padding) = (rng.random_range(1..3), rng.random_range(0..2));
                    let conv =
                        Conv2d::new(s, rng.random_range(1..4), 3, stride, padding, &mut init);
                    shape = Some(conv.output_shape());
                    Box::new(conv)
                }
                (1, Some(s)) if s.height >= 2 => {
                    let pool = MaxPool2d::new(s, 2);
                    shape = Some(pool.output_shape());
                    Box::new(pool)
                }
                (0..=2, _) => {
                    shape = None;
                    Box::new(Dense::new(dim, rng.random_range(2..9), &mut init))
                }
                (3, _) => Box::new(Relu::new(dim)),
                _ => Box::new(Tanh::new(dim)),
            };
            if layer.param_count() > 0 && lowest.is_none() {
                lowest = Some(layers.len());
            }
            dim = layer.output_dim();
            layers.push(layer);
        }
        (layers, lowest.unwrap())
    }

    /// Reference sweep: every layer, top to bottom, is asked for its input
    /// gradient, into a fresh buffer.
    fn full_sweep(m: &mut Sequential, input: &Matrix, grad_logits: &Matrix) {
        let mut grad_out = grad_logits.clone();
        for i in (0..m.layers.len()).rev() {
            let layer_in = if i == 0 { input } else { &m.acts[i - 1] };
            let mut grad_in = Matrix::zeros(0, 0);
            m.layers[i].backward(layer_in, &m.acts[i], &grad_out, Some(&mut grad_in));
            grad_out = grad_in;
        }
    }

    #[test]
    fn shortened_sweep_gives_the_full_sweeps_parameter_gradients_bit_for_bit() {
        let (mut at_zero, mut above_zero, mut live) = (0, 0, 0);
        for seed in 0..300u64 {
            let (layers, lowest) = random_stack(seed);
            if lowest == 0 {
                at_zero += 1;
            } else {
                above_zero += 1;
            }
            let mut short = Sequential::new(layers);
            let mut full = Sequential::new(random_stack(seed).0);
            assert_eq!(short.flat_params(), full.flat_params());
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAC);
            // two batches of different sizes without zeroing in between:
            // accumulation and the reuse of the ping-pong buffers across
            // shapes are part of the property
            for batch in [3, 5] {
                let x = Matrix::from_fn(batch, short.input_dim(), |_, _| {
                    rng.random_range(-1.0f32..1.0)
                });
                let g = Matrix::from_fn(batch, short.output_dim(), |_, _| {
                    rng.random_range(-1.0f32..1.0)
                });
                let _ = short.forward(&x, true);
                let _ = full.forward(&x, true);
                short.backward(&x, &g);
                full_sweep(&mut full, &x, &g);
                let (mut gs, mut gf) = (Vec::new(), Vec::new());
                short.copy_grads_to(&mut gs);
                full.copy_grads_to(&mut gf);
                live += usize::from(gs.iter().any(|&v| v != 0.0));
                assert!(
                    gs.iter().zip(&gf).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "seed {seed}: gradients differ"
                );
            }
        }
        assert!(
            at_zero > 30 && above_zero > 30,
            "generator must cover both: {at_zero} stacks train layer 0, {above_zero} do not"
        );
        assert!(live > 500, "only {live} of 600 sweeps produced a gradient");
    }

    #[test]
    #[should_panic(expected = "does not feed")]
    fn rejects_mismatched_layers() {
        let mut init = InitRng::new(1);
        let _ = Sequential::new(vec![
            Box::new(Dense::new(4, 6, &mut init)),
            Box::new(Dense::new(5, 3, &mut init)),
        ]);
    }
}
