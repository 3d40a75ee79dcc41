//! Sequential model container: an architecture over one flat parameter
//! vector.
//!
//! Decentralized learning treats a model as an opaque parameter vector `x`
//! that is trained locally, shared with neighbors, and averaged. The
//! [`Sequential`] container therefore holds exactly that: **one** flat
//! parameter vector and **one** flat gradient vector, of which every layer
//! is handed its span for the duration of a pass. Layers own neither.
//!
//! A stand-alone model owns its vector: it is initialized at construction,
//! [`Sequential::copy_params_to`] / [`Sequential::load_params`] copy it out
//! and in. A caller that already keeps the vector somewhere — the engine
//! keeps one per node, and one gradient workspace per block of nodes —
//! *lends* it instead: [`Sequential::swap_params`] and
//! [`Sequential::swap_grads`] exchange the storage in O(1), the passes run
//! on the caller's buffer where it lies, and a second swap takes it back.
//! While its parameters are lent out the model holds an empty vector and
//! [`Sequential::forward`] refuses to run.

use crate::layer::Layer;
use crate::zoo::InitRng;
use skiptrain_linalg::Matrix;

/// A stack of layers executed in order.
///
/// The container owns every activation (`acts[i]` is layer `i`'s output of
/// the last forward pass) and the caller owns the batch, so the backward
/// sweep hands each layer its forward input and output by reference —
/// layers cache neither.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Layer `i`'s span of both flat vectors is `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    /// The flat parameter vector `x`; empty while lent out.
    params: Vec<f32>,
    /// The flat gradient vector, aligned with `params`; sized by the first
    /// [`Sequential::zero_grads`] (or backward sweep), not at construction.
    grads: Vec<f32>,
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
    /// Builds a model from layers and initializes its parameters: every
    /// layer draws its span from one [`InitRng`] stream of `seed`, in
    /// flatten order.
    ///
    /// # Panics
    /// Panics if `layers` is empty or if consecutive layer dimensions do not
    /// line up.
    pub fn new(layers: Vec<Box<dyn Layer>>, seed: u64) -> Self {
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
        let mut param_count = 0;
        let mut offsets = vec![0];
        for layer in &layers {
            param_count += layer.param_count();
            offsets.push(param_count);
        }
        let mut params = vec![0.0f32; param_count];
        let mut init = InitRng::new(seed);
        for (layer, span) in layers.iter().zip(offsets.windows(2)) {
            layer.init_params(&mut params[span[0]..span[1]], &mut init);
        }
        let lowest_trainable = layers
            .iter()
            .position(|l| l.param_count() > 0)
            .unwrap_or(layers.len());
        Self {
            layers,
            offsets,
            params,
            grads: Vec::new(),
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
        self.layers.last().map_or(0, |l| l.output_dim())
    }

    /// Total number of trainable parameters (the paper's `|x|`).
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Runs the forward pass and returns the logits for the batch.
    ///
    /// # Panics
    /// Panics if the input width is wrong or the parameters are lent out.
    pub fn forward<'a>(&'a mut self, input: &'a Matrix) -> &'a Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "model forward: input dim mismatch"
        );
        assert_eq!(
            self.params.len(),
            self.param_count,
            "model forward: parameters are lent out"
        );
        let mut src: &Matrix = input;
        for (i, (layer, act)) in self.layers.iter().zip(&mut self.acts).enumerate() {
            let span = self.offsets[i]..self.offsets[i + 1];
            layer.forward(&self.params[span], src, act);
            src = act;
        }
        src
    }

    /// Runs the backward sweep from the logit gradient, accumulating
    /// parameter gradients into the flat gradient vector (zeroed first if
    /// it does not have the model's size yet).
    ///
    /// Must follow a `forward(input)` on the same `input`.
    /// The sweep walks from the top layer down to the lowest layer that has
    /// parameters and stops there: that layer gets `grad_in = None` (the
    /// gradient w.r.t. its input would be dropped unread — a quarter of a
    /// two-layer MLP step's multiply–adds) and the parameterless layers
    /// below it are not visited.
    pub fn backward(&mut self, input: &Matrix, grad_logits: &Matrix) {
        assert_eq!(
            self.params.len(),
            self.param_count,
            "model backward: parameters are lent out"
        );
        if self.grads.len() != self.param_count {
            self.zero_grads();
        }
        let Self {
            layers,
            offsets,
            params,
            grads,
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
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            let layer_in = if i == 0 { input } else { &acts[i - 1] };
            let grad_out = if i == n - 1 { grad_logits } else { &*next };
            let grad_in = (i > *lowest_trainable).then_some(&mut *cur);
            layers[i].backward(
                &params[lo..hi],
                &mut grads[lo..hi],
                layer_in,
                &acts[i],
                grad_out,
                grad_in,
            );
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Zeroes the flat gradient vector, sizing it to the model first.
    pub fn zero_grads(&mut self) {
        self.grads.resize(self.param_count, 0.0);
        self.grads.fill(0.0);
    }

    /// Exchanges the model's parameter storage with `other` in O(1): a
    /// caller lends its own vector for the passes that follow and takes it
    /// back with a second call, or takes the model's vector for good by
    /// handing in an empty one.
    ///
    /// # Panics
    /// Panics if `other` is neither empty nor `self.param_count()` long.
    pub fn swap_params(&mut self, other: &mut Vec<f32>) {
        assert!(
            other.is_empty() || other.len() == self.param_count,
            "flat parameter length mismatch"
        );
        std::mem::swap(&mut self.params, other);
    }

    /// Exchanges the model's gradient storage with `other` in O(1), so
    /// several models can accumulate into one workspace in turn. Any length
    /// is accepted: [`Sequential::zero_grads`] sizes what it is given.
    pub fn swap_grads(&mut self, other: &mut Vec<f32>) {
        std::mem::swap(&mut self.grads, other);
    }

    /// Copies the flattened parameter vector into `out` (resized to fit).
    pub fn copy_params_to(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.params);
    }

    /// Returns the flattened parameter vector.
    pub fn flat_params(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Copies the flattened gradient vector into `out` (resized to fit).
    pub fn copy_grads_to(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.grads);
    }

    /// Loads a flattened parameter vector produced by [`copy_params_to`]
    /// (e.g. an aggregated neighbor model) by copying it.
    ///
    /// # Panics
    /// Panics if `flat.len() != self.param_count()`.
    ///
    /// [`copy_params_to`]: Sequential::copy_params_to
    pub fn load_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count,
            "flat parameter length mismatch"
        );
        self.params.clear();
        self.params.extend_from_slice(flat);
    }

    /// The parameters together with their (read-only) gradients — the
    /// optimizer's view.
    pub(crate) fn params_and_grads(&mut self) -> (&mut [f32], &[f32]) {
        (&mut self.params, &self.grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::Relu;
    use crate::dense::Dense;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn tiny_mlp(seed: u64) -> Sequential {
        Sequential::new(
            vec![
                Box::new(Dense::new(4, 6)),
                Box::new(Relu::new(6)),
                Box::new(Dense::new(6, 3)),
            ],
            seed,
        )
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
        let y = m.forward(&x);
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
        let ya = a.forward(&x).clone();
        let flat_b = b.flat_params();
        a.load_params(&flat_b);
        let ya2 = a.forward(&x).clone();
        let yb = b.forward(&x).clone();
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
        let _ = m.forward(&x);
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
        let _ = m.forward(&x);
        let other = Matrix::zeros(2, 4);
        m.backward(&other, &Matrix::full(3, 3, 0.5));
    }

    /// A random Dense/ReLU stack: widths, depth, and how many ReLUs sit
    /// below the first dense layer (none for about half the seeds). Returns
    /// the layers and the index of the lowest one with parameters.
    fn random_stack(seed: u64) -> (Vec<Box<dyn Layer>>, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut dim = rng.random_range(2..9);
        let mut lowest = None;
        let depth = rng.random_range(2..8);
        while layers.len() < depth || lowest.is_none() {
            let layer: Box<dyn Layer> = if rng.random_bool(0.5) {
                Box::new(Dense::new(dim, rng.random_range(2..9)))
            } else {
                Box::new(Relu::new(dim))
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
        if m.grads.is_empty() {
            m.zero_grads();
        }
        let mut grad_out = grad_logits.clone();
        for i in (0..m.layers.len()).rev() {
            let span = m.offsets[i]..m.offsets[i + 1];
            let layer_in = if i == 0 { input } else { &m.acts[i - 1] };
            let mut grad_in = Matrix::zeros(0, 0);
            m.layers[i].backward(
                &m.params[span.clone()],
                &mut m.grads[span],
                layer_in,
                &m.acts[i],
                &grad_out,
                Some(&mut grad_in),
            );
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
            let mut short = Sequential::new(layers, seed);
            let mut full = Sequential::new(random_stack(seed).0, seed);
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
                let _ = short.forward(&x);
                let _ = full.forward(&x);
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
        let _ = Sequential::new(
            vec![Box::new(Dense::new(4, 6)), Box::new(Dense::new(5, 3))],
            1,
        );
    }

    #[test]
    fn a_lent_vector_is_trained_where_it_lies_and_comes_back() {
        let mut owner = tiny_mlp(9);
        let mut lender = tiny_mlp(9);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let g = Matrix::full(3, 3, 0.5);
        let step = |m: &mut Sequential| {
            m.zero_grads();
            let _ = m.forward(&x);
            m.backward(&x, &g);
            crate::Sgd::new(crate::sgd::SgdConfig::plain(0.1)).step(m);
        };
        step(&mut owner);

        // take the vector for good, then lend it (and a cold workspace)
        let (mut x_i, mut workspace) = (Vec::new(), Vec::new());
        lender.swap_params(&mut x_i);
        assert_eq!(x_i.len(), lender.param_count());
        assert!(lender.flat_params().is_empty());
        let at = (x_i.as_ptr(), x_i.capacity());
        lender.swap_params(&mut x_i);
        lender.swap_grads(&mut workspace);
        step(&mut lender);
        lender.swap_grads(&mut workspace);
        lender.swap_params(&mut x_i);

        assert_eq!((x_i.as_ptr(), x_i.capacity()), at, "trained in place");
        assert_eq!(workspace.len(), x_i.len(), "zero_grads sizes a workspace");
        let expected = owner.flat_params();
        assert!(x_i
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    #[should_panic(expected = "model forward: parameters are lent out")]
    fn forward_on_lent_out_parameters_fails_by_name() {
        let mut m = tiny_mlp(2);
        m.swap_params(&mut Vec::new());
        let _ = m.forward(&Matrix::zeros(5, 4));
    }

    #[test]
    #[should_panic(expected = "flat parameter length mismatch")]
    fn swap_params_rejects_a_vector_of_another_model() {
        tiny_mlp(2).swap_params(&mut vec![0.0; 5]);
    }
}
