//! Per-node training state, and the fleet-level training pass over it.
//!
//! A node is its own data and sampler plus a replica: an architecture with
//! the gradient, activations, backward buffers, minibatch and logit
//! gradient a pass over a lent parameter vector works in. A fleet trains
//! and evaluates each block of nodes a worker takes ([`rayon::block_len`])
//! through the block's one replica, its first node's, which draws every
//! row's minibatch from that row's node and overwrites each buffer before
//! reading it: no bit depends on the blocking.

use crate::executor::RoundAction;
use skiptrain_data::{Dataset, MinibatchSampler};
use skiptrain_linalg::{rng::derive_seed, Matrix};
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
use std::sync::Arc;

/// A simulated node: its private dataset and training state, and a
/// replica that trains whatever parameter vector it is lent
/// ([`Node::train_in_place`]). The dataset sits behind an `Arc`, so many
/// simulations (e.g. every run of a
/// [`Campaign`](https://docs.rs/skiptrain-core)) share one copy.
pub struct Node {
    own: Learner,
    replica: Replica,
}

/// What a node keeps of its own in a fleet.
struct Learner {
    id: usize,
    dataset: Arc<Dataset>,
    sampler: MinibatchSampler,
    sgd: Sgd,
    /// Mean loss of its last [`train_fleet`] pass, `None` if it did not train.
    last_loss: Option<f32>,
}

/// The working set of a pass over a lent parameter vector.
struct Replica {
    model: Sequential,
    loss: SoftmaxCrossEntropy,
    batch_x: Matrix,
    batch_y: Vec<u32>,
    batch_idx: Vec<usize>,
    grad_logits: Matrix,
}

impl Replica {
    /// [`Node::train_in_place`] for `node`, through this replica.
    fn train(&mut self, node: &mut Learner, params: &mut Vec<f32>, local_steps: usize) -> f32 {
        self.model.swap_params(params);
        let mut loss_sum = 0.0f64;
        for _ in 0..local_steps {
            node.sampler.sample_into(&mut self.batch_idx);
            node.dataset
                .gather_batch(&self.batch_idx, &mut self.batch_x, &mut self.batch_y);
            self.model.zero_grads();
            let loss_value = {
                let logits = self.model.forward(&self.batch_x);
                self.loss
                    .loss_and_grad(logits, &self.batch_y, &mut self.grad_logits)
            };
            self.model.backward(&self.batch_x, &self.grad_logits);
            node.sgd.step(&mut self.model);
            loss_sum += loss_value as f64;
        }
        self.model.swap_params(params);
        (loss_sum / local_steps.max(1) as f64) as f32
    }
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
        let own = Learner {
            id,
            sampler: MinibatchSampler::new(dataset.len(), batch_size, derive_seed(seed, id as u64)),
            dataset,
            sgd: Sgd::new(sgd),
            last_loss: None,
        };
        let replica = Replica {
            loss: SoftmaxCrossEntropy::new(model.output_dim()),
            model,
            batch_x: Matrix::zeros(0, 0),
            batch_y: Vec::new(),
            batch_idx: Vec::new(),
            grad_logits: Matrix::zeros(0, 0),
        };
        Self { own, replica }
    }

    /// The node's replica's model (used by evaluation).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.replica.model
    }

    /// Runs `local_steps` SGD steps on `params` in place: `x^t` goes in,
    /// `x^{t−½}` comes out in the same buffer (Lines 8–10 of Algorithm 2).
    /// The buffer is lent to the model for the steps, not copied — every
    /// kernel reads and updates `params` where it lies. Returns the mean
    /// training loss across the steps.
    pub fn train_in_place(&mut self, params: &mut Vec<f32>, local_steps: usize) -> f32 {
        self.replica.train(&mut self.own, params, local_steps)
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
        let Replica { model, loss, .. } = &mut self.replica;
        model.load_params(params);
        let logits = model.forward(features);
        let accuracy = skiptrain_nn::loss::accuracy(logits, labels);
        (accuracy, loss.loss(logits, labels))
    }
}

/// The fleet-level training pass, parallel over the blocks fleet
/// evaluation shares: a [`RoundAction::Train`] node's row of `params` goes
/// to its block's replica for `local_steps` steps in place, a sync-only
/// node does nothing (`actions` is read by node id: a fleet's ids are its
/// indices). Returns the sum of the training nodes' mean losses, folded in
/// node order, and their count.
pub(crate) fn train_fleet(
    nodes: &mut [Node],
    params: &mut [Vec<f32>],
    actions: &[RoundAction],
    local_steps: usize,
) -> (f32, usize) {
    let block = rayon::block_len(nodes.len());
    let blocks = nodes.chunks_mut(block).zip(params.chunks_mut(block));
    rayon::for_each_part(blocks, |(nodes, params)| {
        let (first, rest) = nodes.split_at_mut(1);
        let Node { own, replica } = &mut first[0];
        let block = std::iter::once(own).chain(rest.iter_mut().map(|node| &mut node.own));
        for (node, x) in block.zip(params) {
            node.last_loss = (actions[node.id] == RoundAction::Train)
                .then(|| replica.train(node, x, local_steps));
        }
    });
    nodes
        .iter()
        .filter_map(|node| node.own.last_loss)
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
        let (mut node, mut params) = small_node(1);
        let first_loss = node.train_in_place(&mut params, 5);
        let later_loss = node.train_in_place(&mut params, 25);
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
        let features = node.own.dataset.features().clone();
        let labels = node.own.dataset.labels().to_vec();
        let (acc_before, _) = node.evaluate(&params, &features, &labels);
        let mut trained = params.clone();
        node.train_in_place(&mut trained, 60);
        let (acc_after, _) = node.evaluate(&trained, &features, &labels);
        assert!(
            acc_after > acc_before + 0.2,
            "training should lift local accuracy: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (mut a, mut out_a) = small_node(4);
        let (mut b, mut out_b) = small_node(4);
        a.train_in_place(&mut out_a, 3);
        b.train_in_place(&mut out_b, 3);
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
    fn a_fleet_trained_through_block_replicas_equals_standalone_nodes_bitwise() {
        // budget 1 lends every row one replica, 2 splits the fleet 4 + 3,
        // 7 gives each node its own; round 2 starts with an evaluation
        // that grows the replicas to a 48-row batch, so its training finds
        // every buffer in another shape
        let n = 7;
        let task = MixtureTask::new(MixtureSpec::cifar_like(12), 3);
        let test = task.sample(48, 99);
        let rows: Vec<usize> = (0..test.len()).collect();
        let loss = SoftmaxCrossEntropy::new(10);
        let build = || -> (Vec<Node>, Vec<Vec<f32>>) {
            (0..n)
                .map(|i| {
                    let model = skiptrain_nn::zoo::mlp(&[12, 20, 10], 30 + i as u64);
                    let params = model.flat_params();
                    let data = task.sample(40, i as u64);
                    let node = Node::new(i, model, data, 8, SgdConfig::plain(0.1), 11);
                    (node, params)
                })
                .unzip()
        };
        for threads in [1, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (mut alone, mut want) = build();
            let (mut fleet, mut got) = build();
            for round in 0..4 {
                let actions: Vec<RoundAction> = (0..n)
                    .map(|i| match (i + round) % 3 {
                        0 => RoundAction::SyncOnly,
                        _ => RoundAction::Train,
                    })
                    .collect();
                let (sum, trained) = pool.install(|| {
                    if round == 2 {
                        crate::eval::evaluate_fleet(&mut fleet, &mut got, &loss, &test, &rows);
                    }
                    train_fleet(&mut fleet, &mut got, &actions, 3)
                });
                let (mut want_sum, mut want_trained) = (0.0f32, 0);
                for (i, node) in alone.iter_mut().enumerate() {
                    if actions[i] == RoundAction::Train {
                        want_sum += node.train_in_place(&mut want[i], 3);
                        want_trained += 1;
                    }
                }
                let at = format!("{threads} threads, round {round}");
                assert_eq!(trained, want_trained, "{at}");
                assert_eq!(sum.to_bits(), want_sum.to_bits(), "{at}: loss");
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    let same = x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{at}: node {i}");
                }
            }
            // the fleet grew one replica per block, the standalone nodes
            // one each
            let mut grads = Vec::new();
            let grown = fleet.iter_mut().fold(0, |grown, node| {
                node.model_mut().copy_grads_to(&mut grads);
                grown + usize::from(!grads.is_empty())
            });
            assert_eq!(grown, threads, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let model = skiptrain_nn::zoo::mlp(&[4, 2], 1);
        let empty = Dataset::new(Matrix::zeros(0, 4), Vec::new(), 2);
        let _ = Node::new(0, model, empty, 8, SgdConfig::plain(0.1), 1);
    }
}
