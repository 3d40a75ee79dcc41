//! Per-node training state, and the fleet-level training pass over it.

use crate::executor::RoundAction;
use rayon::prelude::*;
use skiptrain_data::{Dataset, MinibatchSampler};
use skiptrain_linalg::Matrix;
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
use std::sync::Arc;

/// A simulated node: its model replica, private dataset, optimizer state
/// and reusable minibatch buffers.
///
/// The model is an architecture that trains whatever parameter vector it is
/// lent ([`Node::train_in_place`]); inside a
/// [`Simulation`](crate::Simulation) it holds none of its own — the engine
/// keeps every node's vector and lends it for each pass.
///
/// The dataset sits behind an `Arc` so that many simulations (e.g. every
/// run of a [`Campaign`](https://docs.rs/skiptrain-core)) share one
/// materialized copy instead of deep-cloning per run.
pub struct Node {
    id: usize,
    model: Sequential,
    dataset: Arc<Dataset>,
    sampler: MinibatchSampler,
    sgd: Sgd,
    loss: SoftmaxCrossEntropy,
    // workhorse buffers reused across rounds
    batch_x: Matrix,
    batch_y: Vec<u32>,
    batch_idx: Vec<usize>,
    grad_logits: Matrix,
    /// Mean loss of the node's last [`train_fleet`] pass (`None` when it
    /// did not train). Kept here, not in a fleet-wide slice, so the pass
    /// zips one slice fewer: the vendored rayon allocates the zipped
    /// iterator's bytes per worker.
    last_loss: Option<f32>,
}

impl Node {
    /// Creates a node.
    ///
    /// # Panics
    /// Panics if the dataset is empty or its feature dimension does not
    /// match the model input.
    pub fn new(
        id: usize,
        model: Sequential,
        dataset: impl Into<Arc<Dataset>>,
        batch_size: usize,
        sgd: SgdConfig,
        seed: u64,
    ) -> Self {
        let dataset = dataset.into();
        assert!(!dataset.is_empty(), "node {id}: empty dataset");
        assert_eq!(
            dataset.feature_dim(),
            model.input_dim(),
            "node {id}: dataset dim does not match model input"
        );
        let sampler = MinibatchSampler::new(
            dataset.len(),
            batch_size,
            skiptrain_linalg::rng::derive_seed(seed, id as u64),
        );
        let loss = SoftmaxCrossEntropy::new(model.output_dim());
        Self {
            id,
            model,
            dataset,
            sampler,
            sgd: Sgd::new(sgd),
            loss,
            batch_x: Matrix::zeros(0, 0),
            batch_y: Vec::new(),
            batch_idx: Vec::new(),
            grad_logits: Matrix::zeros(0, 0),
            last_loss: None,
        }
    }

    /// Node id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's private dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The node's model replica (used by evaluation).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Runs `local_steps` SGD steps on `params` in place: `x^t` goes in,
    /// `x^{t−½}` comes out in the same buffer (Lines 8–10 of Algorithm 2).
    /// The buffer is lent to the model for the steps, not copied — every
    /// kernel reads and updates `params` where it lies. Returns the mean
    /// training loss across the steps.
    pub fn train_in_place(&mut self, params: &mut Vec<f32>, local_steps: usize) -> f32 {
        self.model.swap_params(params);
        let mut loss_sum = 0.0f64;
        for _ in 0..local_steps {
            self.sampler.sample_into(&mut self.batch_idx);
            self.dataset
                .gather_batch(&self.batch_idx, &mut self.batch_x, &mut self.batch_y);
            self.model.zero_grads();
            let loss_value = {
                let logits = self.model.forward(&self.batch_x);
                self.loss
                    .loss_and_grad(logits, &self.batch_y, &mut self.grad_logits)
            };
            self.model.backward(&self.batch_x, &self.grad_logits);
            self.sgd.step(&mut self.model);
            loss_sum += loss_value as f64;
        }
        self.model.swap_params(params);
        (loss_sum / local_steps.max(1) as f64) as f32
    }

    /// [`Node::train_in_place`] on a copy: `params_out` becomes `params_in`,
    /// then trains. Kept for the benchmark's probes.
    pub fn train_local(
        &mut self,
        params_in: &[f32],
        local_steps: usize,
        params_out: &mut Vec<f32>,
    ) -> f32 {
        params_out.clear();
        params_out.extend_from_slice(params_in);
        self.train_in_place(params_out, local_steps)
    }

    /// Evaluates accuracy and loss of a copy of `params` on the given
    /// samples.
    pub fn evaluate(&mut self, params: &[f32], features: &Matrix, labels: &[u32]) -> (f32, f32) {
        self.model.load_params(params);
        let logits = self.model.forward(features);
        let acc = skiptrain_nn::loss::accuracy(logits, labels);
        let loss = self.loss.loss(logits, labels);
        (acc, loss)
    }
}

/// The fleet-level training pass (parallel over contiguous blocks of
/// nodes): a [`RoundAction::Train`] node runs `local_steps` steps on its
/// row of `params` in place, a sync-only node does nothing (`actions` is
/// read by node id: a fleet's ids are its indices). Block `b` — the
/// `len.div_ceil(threads)` blocking of the dense aggregate — accumulates
/// its gradients in `workspaces[b]` alone (the caller keeps one slot per
/// node so that any thread budget finds its blocks'; a slot grows to the
/// model size when a block first trains into it), which stays
/// cache-resident from node to node. The workspace is zeroed before every
/// step, so nothing depends on the blocking. Returns the sum of the
/// training nodes' mean losses, folded in node order, and their count.
pub(crate) fn train_fleet(
    nodes: &mut [Node],
    params: &mut [Vec<f32>],
    workspaces: &mut [Vec<f32>],
    actions: &[RoundAction],
    local_steps: usize,
) -> (f32, usize) {
    let block = nodes.len().div_ceil(rayon::current_num_threads());
    nodes
        .par_chunks_mut(block)
        .zip(params.par_chunks_mut(block))
        .zip(workspaces.par_iter_mut())
        .for_each(|((nodes, params), grads)| {
            for (node, x) in nodes.iter_mut().zip(params) {
                node.last_loss = (actions[node.id] == RoundAction::Train).then(|| {
                    node.model.swap_grads(grads);
                    let loss = node.train_in_place(x, local_steps);
                    node.model.swap_grads(grads);
                    loss
                });
            }
        });
    nodes
        .iter()
        .filter_map(|node| node.last_loss)
        .fold((0.0, 0), |(sum, trained), loss| (sum + loss, trained + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_data::synth::{MixtureSpec, MixtureTask};

    fn small_node(seed: u64) -> (Node, Vec<f32>) {
        let spec = MixtureSpec {
            num_classes: 3,
            feature_dim: 8,
            modes_per_class: 1,
            separation: 2.0,
            noise: 0.4,
        };
        let task = MixtureTask::new(spec, 7);
        let data = task.sample(120, 1);
        let model = skiptrain_nn::zoo::mlp(&[8, 16, 3], seed);
        let params = model.flat_params();
        (
            Node::new(0, model, data, 16, SgdConfig::plain(0.1), seed),
            params,
        )
    }

    #[test]
    fn local_training_reduces_loss() {
        let (mut node, params) = small_node(1);
        let mut out1 = Vec::new();
        let first_loss = node.train_local(&params, 5, &mut out1);
        let mut out2 = Vec::new();
        let later_loss = node.train_local(&out1, 25, &mut out2);
        assert!(
            later_loss < first_loss,
            "loss did not go down: {first_loss} -> {later_loss}"
        );
    }

    #[test]
    fn train_local_changes_params() {
        let (mut node, params) = small_node(2);
        let mut out = Vec::new();
        node.train_local(&params, 1, &mut out);
        assert_eq!(out.len(), params.len());
        assert_ne!(out, params);
    }

    #[test]
    fn training_improves_local_accuracy() {
        let (mut node, params) = small_node(3);
        let features = node.dataset().features().clone();
        let labels = node.dataset().labels().to_vec();
        let (acc_before, _) = node.evaluate(&params, &features, &labels);
        let mut trained = Vec::new();
        node.train_local(&params, 60, &mut trained);
        let (acc_after, _) = node.evaluate(&trained, &features, &labels);
        assert!(
            acc_after > acc_before + 0.2,
            "training should lift local accuracy: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (mut a, params) = small_node(4);
        let (mut b, _) = small_node(4);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.train_local(&params, 3, &mut out_a);
        b.train_local(&params, 3, &mut out_b);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn train_in_place_equals_train_local_bitwise() {
        let (mut a, p0) = small_node(5);
        let (mut b, _) = small_node(5);
        let mut p = p0.clone();
        let mut out = Vec::new();
        let loss_in_place = a.train_in_place(&mut p, 4);
        let loss_local = b.train_local(&p0, 4, &mut out);
        assert_eq!(loss_in_place.to_bits(), loss_local.to_bits());
        assert_ne!(p, p0);
        assert_eq!(p.len(), out.len());
        for (k, (x, y)) in p.iter().zip(&out).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "parameter {k}");
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let model = skiptrain_nn::zoo::mlp(&[4, 2], 1);
        let empty = Dataset::empty(4, 2);
        let _ = Node::new(0, model, empty, 8, SgdConfig::plain(0.1), 1);
    }
}
