//! Model evaluation helpers.
//!
//! Evaluation runs forward in bounded-size chunks so activation buffers
//! stay small even when the test set is large, and supports evaluating on a
//! fixed subsample for cheap periodic accuracy tracking. The rows are
//! gathered once per call into [`EVAL_CHUNK`]-row batches; a fleet
//! evaluation shares those batches across its blocks' replicas, the ones
//! its training pass runs through.

use crate::node::Node;
use rand::seq::SliceRandom;
use skiptrain_data::Dataset;
use skiptrain_linalg::rng::stream_rng;
use skiptrain_linalg::Matrix;
use skiptrain_nn::{Sequential, SoftmaxCrossEntropy};

/// Maximum rows evaluated in one forward pass.
pub const EVAL_CHUNK: usize = 512;

/// One gathered evaluation batch: at most [`EVAL_CHUNK`] rows and their
/// labels.
type EvalBatch = (Matrix, Vec<u32>);

/// Gathers `indices` into [`EVAL_CHUNK`]-row batches, in order.
fn gather_chunks(dataset: &Dataset, indices: &[usize]) -> Vec<EvalBatch> {
    indices
        .chunks(EVAL_CHUNK)
        .map(|chunk| {
            let mut batch = (Matrix::zeros(0, 0), Vec::new());
            dataset.gather_batch(chunk, &mut batch.0, &mut batch.1);
            batch
        })
        .collect()
}

/// Runs `model` forward over gathered batches. Returns the raw sums
/// `(correct, loss_sum, rows)`: top-1 hits, the per-row loss summed in
/// `f64`, and the rows evaluated.
fn evaluate_chunks(
    model: &mut Sequential,
    loss: &SoftmaxCrossEntropy,
    batches: &[EvalBatch],
) -> (usize, f64, usize) {
    let (mut correct, mut loss_sum, mut rows) = (0usize, 0.0f64, 0usize);
    for (x, y) in batches {
        let logits = model.forward(x);
        correct += (skiptrain_nn::loss::accuracy(logits, y) * y.len() as f32).round() as usize;
        loss_sum += loss.loss(logits, y) as f64 * y.len() as f64;
        rows += y.len();
    }
    (correct, loss_sum, rows)
}

/// `(top-1 accuracy, mean loss)` from [`evaluate_chunks`]' sums, `(0, 0)`
/// on no rows.
fn per_row((correct, loss_sum, rows): (usize, f64, usize)) -> (f32, f32) {
    if rows == 0 {
        return (0.0, 0.0);
    }
    (
        correct as f32 / rows as f32,
        (loss_sum / rows as f64) as f32,
    )
}

/// Evaluates `model` (already loaded with the parameters of interest) on
/// `dataset`, restricted to `indices` when given. Returns `(top-1 accuracy,
/// mean loss)`.
pub fn evaluate_model(
    model: &mut Sequential,
    loss: &SoftmaxCrossEntropy,
    dataset: &Dataset,
    indices: Option<&[usize]>,
) -> (f32, f32) {
    let owned: Vec<usize>;
    let idx: &[usize] = match indices {
        Some(idx) => idx,
        None => {
            owned = (0..dataset.len()).collect();
            &owned
        }
    };
    per_row(evaluate_chunks(model, loss, &gather_chunks(dataset, idx)))
}

/// Evaluates every node's row of `params` on the same `indices` of
/// `dataset`, in parallel over the blocks of nodes [`train_fleet`] trains
/// ([`rayon::block_len`] nodes each): a block's rows are lent in turn to
/// the replica that trains them, its first node's, so evaluation-batch
/// activations grow once per block, not once per node, and the rows come
/// back untouched, in the same buffers. The rows are gathered once and
/// shared — per-node results equal [`evaluate_model`]'s exactly (same
/// rows, same chunking, same recombination).
///
/// [`train_fleet`]: crate::node::train_fleet
pub(crate) fn evaluate_fleet(
    nodes: &mut [Node],
    params: &mut [Vec<f32>],
    loss: &SoftmaxCrossEntropy,
    dataset: &Dataset,
    indices: &[usize],
) -> Vec<(f32, f32)> {
    let batches = gather_chunks(dataset, indices);
    let block = rayon::block_len(nodes.len());
    let mut results = vec![(0.0, 0.0); nodes.len()];
    let blocks = nodes.chunks_mut(block).zip(params.chunks_mut(block));
    let parts = blocks.zip(results.chunks_mut(block));
    rayon::for_each_part(parts, |((nodes, params), results)| {
        let model = nodes[0].model_mut();
        for (p, result) in params.iter_mut().zip(results) {
            model.swap_params(p);
            *result = per_row(evaluate_chunks(model, loss, &batches));
            model.swap_params(p);
        }
    });
    results
}

/// Top-1 accuracy of one parameter vector `params` (the fleet's mean
/// model) on the same `indices` of `dataset`. The rows are gathered once
/// and the batches split into at most one contiguous group per block of
/// nodes (as [`evaluate_fleet`] blocks them); each group runs on a copy of
/// `params` lent to its block's first replica, in parallel, and the copy
/// is dropped after scoring. The hits are summed in group order, so the
/// result is the accuracy one replica reports over all the batches.
pub(crate) fn evaluate_across(
    nodes: &mut [Node],
    params: &[f32],
    loss: &SoftmaxCrossEntropy,
    dataset: &Dataset,
    indices: &[usize],
) -> f32 {
    let batches = gather_chunks(dataset, indices);
    if batches.is_empty() {
        return 0.0;
    }
    let block = rayon::block_len(nodes.len());
    let groups = batches.chunks(batches.len().div_ceil(nodes.len().div_ceil(block)));
    let mut correct = vec![0; groups.len()];
    let parts = nodes.chunks_mut(block).zip(groups).zip(&mut correct);
    rayon::for_each_part(parts, |((nodes, group), hits)| {
        let model = nodes[0].model_mut();
        let mut copy = params.to_vec();
        model.swap_params(&mut copy);
        *hits = evaluate_chunks(model, loss, group).0;
        model.swap_params(&mut copy);
    });
    (correct.iter().sum::<usize>() as f64 / indices.len() as f64) as f32
}

/// A fixed, seed-deterministic subsample of `0..n` of size `max` (or all of
/// `0..n` when `max >= n`). Using the *same* subset at every evaluation
/// round keeps accuracy curves smooth and comparable.
pub fn fixed_subsample(n: usize, max: usize, seed: u64) -> Vec<usize> {
    if max >= n {
        return (0..n).collect();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = stream_rng(seed, 0xE7A1);
    idx.shuffle(&mut rng);
    idx.truncate(max);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_data::synth::{MixtureSpec, MixtureTask};

    #[test]
    fn perfect_model_scores_one() {
        // Logistic model with huge weights pointing at the right class for a
        // trivially separable 2-class task.
        let task = MixtureTask::new(
            MixtureSpec {
                num_classes: 2,
                feature_dim: 2,
                modes_per_class: 1,
                separation: 10.0,
                noise: 0.01,
            },
            3,
        );
        let data = task.sample(100, 1);
        let mut model = skiptrain_nn::zoo::mlp(&[2, 2], 1);
        let loss = SoftmaxCrossEntropy::new(2);
        // train briefly — separable task should reach 100%
        let mut node = crate::node::Node::new(
            0,
            skiptrain_nn::zoo::mlp(&[2, 2], 1),
            data.clone(),
            16,
            skiptrain_nn::sgd::SgdConfig::plain(0.5),
            1,
        );
        let mut trained = model.flat_params();
        node.train_in_place(&mut trained, 80);
        model.load_params(&trained);
        let (acc, _) = evaluate_model(&mut model, &loss, &data, None);
        assert!(acc > 0.97, "separable task should be ~perfect, got {acc}");
    }

    #[test]
    fn chunking_does_not_change_result() {
        let task = MixtureTask::new(MixtureSpec::cifar_like(6), 5);
        let data = task.sample(EVAL_CHUNK + 37, 1); // forces 2 chunks
        let mut model = skiptrain_nn::zoo::mlp(&[6, 8, 10], 2);
        let loss = SoftmaxCrossEntropy::new(10);
        let (acc_all, loss_all) = evaluate_model(&mut model, &loss, &data, None);
        // manual single pass
        let logits = model.forward(data.features());
        let acc_ref = skiptrain_nn::loss::accuracy(logits, data.labels());
        assert!((acc_all - acc_ref).abs() < 1e-3, "{acc_all} vs {acc_ref}");
        assert!(loss_all > 0.0);
    }

    #[test]
    fn subsample_is_fixed_and_bounded() {
        let a = fixed_subsample(100, 10, 5);
        let b = fixed_subsample(100, 10, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&i| i < 100));
        let all = fixed_subsample(5, 10, 5);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_indices_yield_zero() {
        let task = MixtureTask::new(MixtureSpec::cifar_like(4), 1);
        let data = task.sample(10, 1);
        let mut model = skiptrain_nn::zoo::mlp(&[4, 10], 1);
        let loss = SoftmaxCrossEntropy::new(10);
        assert_eq!(
            evaluate_model(&mut model, &loss, &data, Some(&[])),
            (0.0, 0.0)
        );
    }
}
