//! Non-IID data partitioners.
//!
//! The paper's CIFAR-10 setting uses the 2-shard partition of McMahan et
//! al.: sort samples by label, slice into `shards_per_node · n` contiguous
//! shards, deal `shards_per_node` shards to each node. With 2 shards per
//! node and 10 classes, most nodes end up with only two distinct labels —
//! the extreme label skew visible in Figure 7 (left).

use crate::rng::sin_cos;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Partitioning strategy for a shared sample pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Partition {
    /// Sort-by-label sharding (`shards_per_node = 2` is the paper's CIFAR-10
    /// setting).
    Shards {
        /// Shards dealt to each node.
        shards_per_node: usize,
    },
    /// Uniform shuffle split (the IID control).
    Iid,
    /// Dirichlet(α) label skew: for each class, node shares are drawn from
    /// a Dirichlet distribution. Small α → high skew; large α → IID-like.
    Dirichlet {
        /// Concentration parameter.
        alpha: f32,
    },
}

/// Computes per-node sample index lists for a pool with these `labels`
/// under `partition`; row `i` of the pool has label `labels[i]`, below
/// `num_classes`.
///
/// All strategies are deterministic in `seed` and cover every sample exactly
/// once.
///
/// # Panics
/// Panics if `n_nodes == 0` or the pool has fewer samples than nodes.
pub fn partition_indices(
    labels: &[u32],
    num_classes: usize,
    n_nodes: usize,
    partition: &Partition,
    seed: u64,
) -> Vec<Vec<usize>> {
    partition_rows(
        labels.len(),
        || labels,
        num_classes,
        n_nodes,
        partition,
        seed,
    )
}

/// [`partition_indices`] over a pool of `n` rows whose labels are only
/// asked for by the partitions that read them: the IID deal places rows
/// from its shuffle alone.
pub(crate) fn partition_rows<L: AsRef<[u32]>>(
    n: usize,
    labels: impl FnOnce() -> L,
    num_classes: usize,
    n_nodes: usize,
    partition: &Partition,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(n_nodes > 0, "need at least one node");
    assert!(n >= n_nodes, "dataset has {n} samples for {n_nodes} nodes");
    match partition {
        Partition::Shards { shards_per_node } => {
            shard_partition(labels().as_ref(), n_nodes, *shards_per_node, seed)
        }
        Partition::Iid => iid_partition(n, n_nodes, seed),
        Partition::Dirichlet { alpha } => {
            dirichlet_partition(labels().as_ref(), num_classes, n_nodes, *alpha, seed)
        }
    }
}

/// A shuffle of rows `0..n` dealt round-robin.
fn iid_partition(n: usize, n_nodes: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut out = vec![Vec::with_capacity(n / n_nodes + 1); n_nodes];
    for (k, i) in idx.into_iter().enumerate() {
        out[k % n_nodes].push(i);
    }
    out
}

fn shard_partition(
    labels: &[u32],
    n_nodes: usize,
    shards_per_node: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(shards_per_node >= 1, "need at least one shard per node");
    // Sort indices by label (stable: ties keep original order).
    let mut by_label: Vec<usize> = (0..labels.len()).collect();
    by_label.sort_by_key(|&i| labels[i]);

    let n_shards = n_nodes * shards_per_node;
    assert!(
        labels.len() >= n_shards,
        "dataset has {} samples for {} shards",
        labels.len(),
        n_shards
    );

    // Slice into contiguous shards of (almost) equal size.
    let base = labels.len() / n_shards;
    let extra = labels.len() % n_shards;
    let mut shards: Vec<&[usize]> = Vec::with_capacity(n_shards);
    let mut start = 0usize;
    for s in 0..n_shards {
        let len = base + usize::from(s < extra);
        shards.push(&by_label[start..start + len]);
        start += len;
    }

    // Deal shards_per_node shuffled shards to each node.
    let mut order: Vec<usize> = (0..n_shards).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut out = vec![Vec::new(); n_nodes];
    for (k, &shard_id) in order.iter().enumerate() {
        out[k / shards_per_node].extend_from_slice(shards[shard_id]);
    }
    out
}

/// Samples from Gamma(α, 1) via the Marsaglia–Tsang method (with the
/// boosting trick for α < 1), enough for Dirichlet draws.
fn gamma_sample(rng: &mut SmallRng, alpha: f32) -> f32 {
    if alpha < 1.0 {
        // boost: Gamma(α) = Gamma(α+1) · U^{1/α}
        let u: f32 = rng.random::<f32>().max(1e-7);
        return gamma_sample(rng, alpha + 1.0) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // standard normal via Box–Muller on the fly
        let u1: f32 = (1.0 - rng.random::<f32>()).max(1e-7);
        let u2: f32 = rng.random::<f32>();
        let z = (-2.0 * u1.ln()).sqrt() * sin_cos(std::f32::consts::TAU * u2).1;
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.random::<f32>().max(1e-7);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

fn dirichlet_partition(
    labels: &[u32],
    num_classes: usize,
    n_nodes: usize,
    alpha: f32,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(alpha > 0.0, "dirichlet alpha must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    // Group indices per class, shuffled.
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        per_class[l as usize].push(i);
    }
    let mut out = vec![Vec::new(); n_nodes];
    for class_idx in per_class.iter_mut() {
        class_idx.shuffle(&mut rng);
        // Node shares ~ Dirichlet(alpha).
        let shares: Vec<f32> = (0..n_nodes)
            .map(|_| gamma_sample(&mut rng, alpha))
            .collect();
        let total: f32 = shares.iter().sum::<f32>().max(1e-9);
        // Convert shares to contiguous cut points over the class samples.
        let n = class_idx.len();
        let mut start = 0usize;
        let mut acc = 0.0f32;
        for (node, &share) in shares.iter().enumerate() {
            acc += share / total;
            let cut = ((n as f32) * acc).round() as usize;
            let end = if node + 1 == n_nodes { n } else { cut }.clamp(start, n);
            out[node].extend_from_slice(&class_idx[start..end]);
            start = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `per_class · classes` labels cycling through the classes.
    fn labelled_pool(per_class: usize, classes: usize) -> Vec<u32> {
        (0..per_class * classes)
            .map(|i| (i % classes) as u32)
            .collect()
    }

    /// Each node's class histogram.
    fn histograms(labels: &[u32], classes: usize, parts: &[Vec<usize>]) -> Vec<Vec<usize>> {
        parts
            .iter()
            .map(|part| {
                let mut h = vec![0; classes];
                for &i in part {
                    h[labels[i] as usize] += 1;
                }
                h
            })
            .collect()
    }

    fn mean_distinct(labels: &[u32], classes: usize, parts: &[Vec<usize>]) -> f32 {
        let distinct = histograms(labels, classes, parts)
            .iter()
            .map(|h| h.iter().filter(|&&c| c > 0).count() as f32)
            .sum::<f32>();
        distinct / parts.len() as f32
    }

    fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for part in parts {
            for &i in part {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not all samples assigned");
    }

    #[test]
    fn iid_covers_all_samples_evenly() {
        let labels = labelled_pool(10, 10);
        let parts = partition_indices(&labels, 10, 4, &Partition::Iid, 1);
        assert_exact_cover(&parts, labels.len());
        for p in &parts {
            assert_eq!(p.len(), 25);
        }
    }

    #[test]
    fn two_shard_limits_distinct_labels() {
        // 10 classes, 2 shards/node, 20 nodes: most nodes see ≤ 3 labels
        // (a shard can straddle one class boundary).
        let labels = labelled_pool(100, 10);
        let shards = Partition::Shards { shards_per_node: 2 };
        let parts = partition_indices(&labels, 10, 20, &shards, 7);
        assert_exact_cover(&parts, labels.len());
        let avg_distinct = mean_distinct(&labels, 10, &parts);
        assert!(
            avg_distinct <= 4.0,
            "2-shard should induce strong label skew, got avg {avg_distinct} classes"
        );
    }

    #[test]
    fn shard_partition_is_deterministic() {
        let labels = labelled_pool(50, 10);
        let shards = Partition::Shards { shards_per_node: 2 };
        let a = partition_indices(&labels, 10, 10, &shards, 3);
        let b = partition_indices(&labels, 10, 10, &shards, 3);
        assert_eq!(a, b);
        let c = partition_indices(&labels, 10, 10, &shards, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn dirichlet_covers_everything() {
        let labels = labelled_pool(40, 5);
        let parts = partition_indices(&labels, 5, 8, &Partition::Dirichlet { alpha: 0.3 }, 5);
        assert_exact_cover(&parts, labels.len());
    }

    #[test]
    fn dirichlet_small_alpha_skews_more_than_large() {
        let labels = labelled_pool(200, 5);
        let skewed = partition_indices(&labels, 5, 10, &Partition::Dirichlet { alpha: 0.05 }, 9);
        let smooth = partition_indices(&labels, 5, 10, &Partition::Dirichlet { alpha: 100.0 }, 9);
        let (skewed, smooth) = (
            mean_distinct(&labels, 5, &skewed),
            mean_distinct(&labels, 5, &smooth),
        );
        assert!(
            skewed < smooth,
            "alpha=0.05 ({skewed}) should be more skewed than alpha=100 ({smooth})"
        );
    }

    #[test]
    fn iid_keeps_label_balance_per_node() {
        let labels = labelled_pool(100, 4);
        let parts = partition_indices(&labels, 4, 4, &Partition::Iid, 11);
        for h in histograms(&labels, 4, &parts) {
            // each node has 100 samples over 4 classes; expect ~25/class
            for c in h {
                assert!(
                    (c as f32 - 25.0).abs() < 15.0,
                    "IID class count {c} too skewed"
                );
            }
        }
    }

    #[test]
    fn iid_reads_no_labels() {
        // the IID deal places rows from its shuffle alone
        let parts = partition_rows(
            12,
            || -> Vec<u32> { panic!("the IID deal asked for labels") },
            3,
            4,
            &Partition::Iid,
            2,
        );
        assert_eq!(parts, partition_indices(&[0; 12], 3, 4, &Partition::Iid, 2));
    }

    #[test]
    #[should_panic(expected = "samples for")]
    fn rejects_more_shards_than_samples() {
        let labels = labelled_pool(1, 4); // 4 samples
        let _ = partition_indices(&labels, 4, 4, &Partition::Shards { shards_per_node: 2 }, 1);
    }
}
