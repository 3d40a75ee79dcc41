//! The model: an MLP described by its widths, over one flat parameter
//! vector.
//!
//! Decentralized learning treats a model as an opaque parameter vector `x`
//! that is trained locally, shared with neighbors, and averaged. The
//! [`Sequential`] model therefore holds exactly that: **one** flat
//! parameter vector and **one** flat gradient vector, laid out layer after
//! layer as `[W_l (in×out, row-major) | b_l]`, and every pass reads its
//! layer's span of them where it lies.
//!
//! A stand-alone model owns its vector: it is initialized at construction,
//! [`Sequential::flat_params`] / [`Sequential::load_params`] copy it out
//! and in. A caller that already keeps the vector somewhere — the engine
//! keeps one per node — *lends* it instead: [`Sequential::swap_params`]
//! exchanges the storage in O(1), the passes run on the caller's buffer
//! where it lies, and a second swap takes it back. The gradient, like the
//! activations, stays the model's own, so one model trains many lent
//! vectors in turn. While its parameters are lent out the model holds an
//! empty vector and [`Sequential::forward`] refuses to run.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use skiptrain_linalg::{gemm_a_bt_into, gemm_at_b_into, gemm_into, Matrix};

/// An MLP `dims[0] → dims[1] → … → dims[L]`: dense layers `Y = X·W + b`
/// with a ReLU after every layer but the last.
///
/// The model owns every activation (`acts[l]` is layer `l`'s output of the
/// last forward pass, after its ReLU) and the caller owns the batch, so the
/// backward sweep reads both where they lie.
pub struct Sequential {
    /// Layer widths: layer `l` maps `dims[l]` features to `dims[l + 1]`.
    dims: Vec<usize>,
    /// Layer `l`'s span of both flat vectors is `offsets[l]..offsets[l + 1]`.
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
}

impl Sequential {
    /// Builds the MLP over `dims` (see [`crate::zoo::mlp`]) and initializes
    /// its parameters from one stream of `seed`: layer by layer, He-uniform
    /// weights in `±sqrt(6 / dims[l])`, in flatten order, and zero biases.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub(crate) fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "mlp needs at least input and output dims");
        let mut rng = SmallRng::seed_from_u64(seed);
        // exact capacity: the engine takes this vector as a node's model
        let count = dims.windows(2).map(|p| p[0] * p[1] + p[1]).sum();
        let (mut params, mut offsets) = (Vec::with_capacity(count), vec![0]);
        for pair in dims.windows(2) {
            let bound = (6.0f32 / pair[0] as f32).sqrt();
            params.extend((0..pair[0] * pair[1]).map(|_| rng.random_range(-bound..bound)));
            params.resize(params.len() + pair[1], 0.0);
            offsets.push(params.len());
        }
        Self {
            dims: dims.to_vec(),
            offsets,
            params,
            grads: Vec::new(),
            acts: dims[1..].iter().map(|_| Matrix::zeros(0, 0)).collect(),
            gbuf_a: Matrix::zeros(0, 0),
            gbuf_b: Matrix::zeros(0, 0),
        }
    }

    /// Number of input features per sample.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Number of output features (logits) per sample.
    pub fn output_dim(&self) -> usize {
        self.dims[self.dims.len() - 1]
    }

    /// Total number of trainable parameters (the paper's `|x|`).
    pub fn param_count(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// Runs the forward pass and returns the logits for the batch.
    ///
    /// # Panics
    /// Panics if the input width is wrong or the parameters are lent out.
    pub fn forward(&mut self, input: &Matrix) -> &Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "model forward: input dim mismatch"
        );
        assert_eq!(
            self.params.len(),
            self.param_count(),
            "model forward: parameters are lent out"
        );
        let top = self.acts.len() - 1;
        for l in 0..=top {
            let (below, here) = self.acts.split_at_mut(l);
            let (x, y) = (below.last().unwrap_or(input), &mut here[0]);
            let (k, n) = (self.dims[l], self.dims[l + 1]);
            let (w, b) = self.params[self.offsets[l]..self.offsets[l + 1]].split_at(k * n);
            ensure_shape(y, x.rows(), n);
            // Y = X · W: batch-sized, so the direct tile reads X and W in place.
            gemm_into(x.rows(), k, n, x.as_slice(), w, y.as_mut_slice());
            add_bias_relu(y, b, l < top);
        }
        &self.acts[top]
    }

    /// Runs the backward sweep from the logit gradient, accumulating
    /// parameter gradients into the flat gradient vector (zeroed first if
    /// it does not have the model's size yet).
    ///
    /// Must follow a `forward(input)` on the same `input`. The sweep walks
    /// from the top layer down; layer 0 computes no input gradient, since
    /// nobody reads it (a quarter of a two-layer MLP step's multiply–adds).
    pub fn backward(&mut self, input: &Matrix, grad_logits: &Matrix) {
        assert_eq!(
            self.params.len(),
            self.param_count(),
            "model backward: parameters are lent out"
        );
        if self.grads.len() != self.param_count() {
            self.zero_grads();
        }
        let Self {
            dims,
            offsets,
            params,
            grads,
            acts,
            gbuf_a,
            gbuf_b,
        } = self;
        let (top, batch) = (acts.len() - 1, grad_logits.rows());
        assert_eq!(
            grad_logits.shape(),
            acts[top].shape(),
            "model backward: grad is not the shape of this batch's logits"
        );
        assert_eq!(
            input.shape(),
            (batch, dims[0]),
            "model backward: input is not the forward input of this batch"
        );
        // `cur` receives the gradient w.r.t. the current layer's input;
        // `next` holds the gradient produced by the layer above.
        let (mut cur, mut next) = (gbuf_a, gbuf_b);
        for l in (0..=top).rev() {
            let (k, n) = (dims[l], dims[l + 1]);
            let x = if l == 0 { input } else { &acts[l - 1] };
            let dy = if l == top { grad_logits } else { &*next };
            let (dw, db) = grads[offsets[l]..offsets[l + 1]].split_at_mut(k * n);
            // dW += Xᵀ · dY
            gemm_at_b_into(k, batch, n, x.as_slice(), dy.as_slice(), dw);
            // db += column sums of dY
            for r in 0..batch {
                for (g, d) in db.iter_mut().zip(dy.row(r)) {
                    *g += d;
                }
            }
            if l > 0 {
                // dX = dY · Wᵀ (W is in×out row-major, exactly the n×k `B`
                // a_bt wants), masked by the ReLU below: its output `x` is
                // positive exactly where it passed its input through.
                ensure_shape(cur, batch, k);
                let w = &params[offsets[l]..][..k * n];
                gemm_a_bt_into(batch, n, k, dy.as_slice(), w, cur.as_mut_slice());
                for (g, &y) in cur.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *g = if y > 0.0 { *g } else { 0.0 };
                }
                std::mem::swap(&mut cur, &mut next);
            }
        }
    }

    /// Zeroes the flat gradient vector, sizing it to the model first.
    pub fn zero_grads(&mut self) {
        self.grads.resize(self.param_count(), 0.0);
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
            other.is_empty() || other.len() == self.param_count(),
            "flat parameter length mismatch"
        );
        std::mem::swap(&mut self.params, other);
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

    /// Loads a flattened parameter vector produced by
    /// [`Sequential::flat_params`] (e.g. an aggregated neighbor model) by
    /// copying it.
    ///
    /// # Panics
    /// Panics if `flat.len() != self.param_count()`.
    pub fn load_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
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

/// `Y += b` row by row and, on a hidden layer, the ReLU select in place,
/// one pass while the block is hot. The order is the GEMM's chain, then
/// `+ b`, then `max(0, ·)` (a NaN becomes 0): the trained bits depend on it.
fn add_bias_relu(y: &mut Matrix, bias: &[f32], relu: bool) {
    for r in 0..y.rows() {
        for (v, b) in y.row_mut(r).iter_mut().zip(bias) {
            let s = *v + b;
            *v = if !relu || s > 0.0 { s } else { 0.0 };
        }
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
    use crate::zoo::mlp;

    fn tiny_mlp(seed: u64) -> Sequential {
        mlp(&[4, 6, 3], seed)
    }

    /// `model` with `params` loaded, after one forward pass on `x` and one
    /// backward pass of `g` into zeroed gradients; returns the gradients.
    fn grads_of(model: &mut Sequential, params: &[f32], x: &[f32], g: &[f32]) -> Vec<f32> {
        model.load_params(params);
        let x = Matrix::from_vec(1, model.input_dim(), x.to_vec());
        let _ = model.forward(&x);
        model.zero_grads();
        model.backward(&x, &Matrix::from_vec(1, model.output_dim(), g.to_vec()));
        let mut grads = Vec::new();
        model.copy_grads_to(&mut grads);
        grads
    }

    #[test]
    fn param_count_sums_layers() {
        let m = tiny_mlp(1);
        assert_eq!(m.param_count(), (4 * 6 + 6) + (6 * 3 + 3));
    }

    #[test]
    fn param_count_is_w_plus_b() {
        assert_eq!(mlp(&[7, 5], 42).param_count(), 7 * 5 + 5);
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        assert_eq!(
            mlp(&[4, 4], 42).flat_params(),
            mlp(&[4, 4], 42).flat_params()
        );
    }

    #[test]
    fn bias_initialized_to_zero() {
        // [W0 (3×4) | b0 (4) | W1 (4×2) | b1 (2)]
        let params = mlp(&[3, 4, 2], 42).flat_params();
        assert!(params[..12].iter().all(|&v| v != 0.0));
        assert_eq!(&params[12..16], &[0.0; 4]);
        assert_eq!(&params[24..], &[0.0, 0.0]);
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut m = mlp(&[2, 3], 42);
        // W = [[1,2,3],[4,5,6]], b = [.1,.2,.3]
        m.load_params(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.1, 0.2, 0.3]);
        let y = m.forward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert_eq!(y.shape(), (1, 3));
        let row = y.row(0);
        assert!((row[0] - 5.1).abs() < 1e-6);
        assert!((row[1] - 7.2).abs() < 1e-6);
        assert!((row[2] - 9.3).abs() < 1e-6);
    }

    #[test]
    fn input_gradient_matches_manual() {
        // layer 0 is the identity (its ReLU passes [1, 1] through), layer 1
        // W = [[1,2],[3,4]], b = 0; layer 1's input gradient is what layer
        // 0's bias gradient accumulates
        let params = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        let grads = grads_of(&mut mlp(&[2, 2, 2], 1), &params, &[1.0, 1.0], &[1.0, 0.0]);
        // dX = dY · Wᵀ: dX_j = Σ_o g_o W[j][o] = W[j][0]
        assert_eq!(&grads[4..6], &[1.0, 3.0]);
        // layer 1: dW[i][o] = h_i * g_o → [[1,0],[1,0]]; db = [1,0]
        assert_eq!(&grads[6..10], &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(&grads[10..], &[1.0, 0.0]);
        // layer 0: dW = xᵀ · dX
        assert_eq!(&grads[..4], &[1.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut m = mlp(&[2, 2], 42);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let _ = m.forward(&x);
        m.backward(&x, &g);
        let mut g1 = Vec::new();
        m.copy_grads_to(&mut g1);
        let _ = m.forward(&x);
        m.backward(&x, &g);
        for (a, b) in m.grads.iter().zip(&g1) {
            assert!((a - 2.0 * b).abs() < 1e-5, "gradient did not accumulate");
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        // one input of 1 and W0 = the pre-activations, b0 = 0
        let mut m = mlp(&[1, 4, 2], 1);
        let mut params = m.flat_params();
        params[..4].copy_from_slice(&[-1.0, 0.0, 2.0, -0.5]);
        m.load_params(&params);
        let _ = m.forward(&Matrix::from_vec(1, 1, vec![1.0]));
        assert_eq!(m.acts[0].as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_gradient_masks_inactive_units() {
        // pre-activations [-1, 1, 3], W1 = [1, 1, 1]: layer 1's input
        // gradient is [5, 5, 5] and reaches layer 0's bias masked
        let params = [-1.0, 1.0, 3.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0];
        let grads = grads_of(&mut mlp(&[1, 3, 1], 1), &params, &[1.0], &[5.0]);
        assert_eq!(&grads[3..6], &[0.0, 5.0, 5.0]);
    }

    #[test]
    fn relu_zero_input_has_zero_gradient() {
        // the kink: subgradient at 0 chosen as 0, consistent forward/backward
        let params = [0.0, 0.0, 1.0, 0.0];
        let grads = grads_of(&mut mlp(&[1, 1, 1], 1), &params, &[1.0], &[1.0]);
        assert_eq!(&grads[..2], &[0.0, 0.0]);
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
        let moved = ya.as_slice().iter().zip(ya2.as_slice());
        assert!(
            moved.map(|(p, q)| (p - q).abs()).any(|d| d > 1e-6),
            "loading params had no effect"
        );
        assert_eq!(ya2, yb, "same params must predict identically");
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut m = tiny_mlp(7);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let _ = m.forward(&x);
        let g = Matrix::from_vec(3, 3, vec![0.5; 9]);
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
    #[should_panic(expected = "model backward: input is not the forward input of this batch")]
    fn backward_rejects_an_input_of_another_batch_size() {
        let mut m = tiny_mlp(7);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let _ = m.forward(&x);
        let other = Matrix::zeros(2, 4);
        m.backward(&other, &Matrix::from_vec(3, 3, vec![0.5; 9]));
    }

    /// Reference sweep: every layer, layer 0 included, computes its input
    /// gradient into a fresh buffer, masked by the ReLU below it if any.
    fn full_sweep(m: &mut Sequential, input: &Matrix, grad_logits: &Matrix) {
        if m.grads.is_empty() {
            m.zero_grads();
        }
        let mut dy = grad_logits.clone();
        for l in (0..m.acts.len()).rev() {
            let (k, n, batch) = (m.dims[l], m.dims[l + 1], dy.rows());
            let x = if l == 0 { input } else { &m.acts[l - 1] };
            let span = m.offsets[l]..m.offsets[l + 1];
            let (dw, db) = m.grads[span.clone()].split_at_mut(k * n);
            gemm_at_b_into(k, batch, n, x.as_slice(), dy.as_slice(), dw);
            for r in 0..batch {
                for (g, d) in db.iter_mut().zip(dy.row(r)) {
                    *g += d;
                }
            }
            let mut dx = Matrix::zeros(batch, k);
            let w = &m.params[span][..k * n];
            gemm_a_bt_into(batch, n, k, dy.as_slice(), w, dx.as_mut_slice());
            if l > 0 {
                for (g, &y) in dx.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *g = if y > 0.0 { *g } else { 0.0 };
                }
            }
            dy = dx;
        }
    }

    #[test]
    fn shortened_sweep_gives_the_full_sweeps_parameter_gradients_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let (mut per_depth, mut live) = ([0usize; 5], 0);
        for seed in 0..300u64 {
            // depth 1–4, widths 2–8
            let mut rng = SmallRng::seed_from_u64(seed);
            let depth = rng.random_range(1..5);
            let dims: Vec<usize> = (0..=depth).map(|_| rng.random_range(2..9)).collect();
            per_depth[depth] += 1;
            let (mut short, mut full) = (mlp(&dims, seed), mlp(&dims, seed));
            // two batches of different sizes without zeroing in between:
            // accumulation and the reuse of the ping-pong buffers across
            // shapes are part of the property
            for batch in [3, 5] {
                let x = Matrix::from_fn(batch, dims[0], |_, _| rng.random_range(-1.0f32..1.0));
                let g = Matrix::from_fn(batch, dims[depth], |_, _| rng.random_range(-1.0f32..1.0));
                let _ = short.forward(&x);
                let _ = full.forward(&x);
                short.backward(&x, &g);
                full_sweep(&mut full, &x, &g);
                live += usize::from(short.grads.iter().any(|&v| v != 0.0));
                assert!(
                    short
                        .grads
                        .iter()
                        .zip(&full.grads)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "seed {seed}, dims {dims:?}: gradients differ"
                );
            }
        }
        assert!(
            per_depth[1..].iter().all(|&count| count > 30),
            "generator must cover every depth: {per_depth:?}"
        );
        assert!(live > 500, "only {live} of 600 sweeps produced a gradient");
    }

    #[test]
    #[should_panic(expected = "mlp needs at least input and output dims")]
    fn rejects_a_width_list_without_a_layer() {
        let _ = mlp(&[4], 1);
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

    #[test]
    fn a_lent_vector_is_trained_where_it_lies_and_comes_back() {
        let mut owner = tiny_mlp(9);
        let mut lender = tiny_mlp(9);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let g = Matrix::from_vec(3, 3, vec![0.5; 9]);
        let step = |m: &mut Sequential| {
            m.zero_grads();
            let _ = m.forward(&x);
            m.backward(&x, &g);
            crate::Sgd::new(crate::sgd::SgdConfig::plain(0.1)).step(m);
        };
        step(&mut owner);

        // take the vector for good, then lend it back for one step
        let mut x_i = Vec::new();
        lender.swap_params(&mut x_i);
        assert_eq!(x_i.len(), lender.param_count());
        assert!(lender.flat_params().is_empty());
        let at = (x_i.as_ptr(), x_i.capacity());
        lender.swap_params(&mut x_i);
        step(&mut lender);
        lender.swap_params(&mut x_i);

        assert_eq!((x_i.as_ptr(), x_i.capacity()), at, "trained in place");
        let mut grads = Vec::new();
        lender.copy_grads_to(&mut grads);
        assert_eq!(grads.len(), x_i.len(), "the gradient stays the model's");
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
