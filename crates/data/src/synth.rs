//! Synthetic dataset generators.
//!
//! Two generators mirror the paper's datasets (see the crate docs for the
//! substitution rationale):
//!
//! * [`cifar_partitioned`] — a shared Gaussian-mixture task. All nodes
//!   sample from the *same* distribution; heterogeneity comes from how the
//!   [`crate::partition`] module deals the shared pool (2-shard label skew,
//!   as in §4.2).
//! * [`femnist_like`] — per-writer data: one global mixture pushed through a
//!   per-writer affine "style" transform, so label distributions are close
//!   to homogeneous while feature distributions differ per node.
//!
//! # Streams
//!
//! Every dataset is one stream of a [`MixtureTask`], walked row by row:
//! stream 1 is the CIFAR-like training pool, stream 2 its evaluation pool,
//! stream 3 the FEMNIST-like evaluation pool and stream `100 + w` writer
//! `w`'s training set. A row draws its class and its mode from the
//! stream's uniform RNG, then its `feature_dim` Gaussians in one block
//! ([`GaussianSampler::fill`]).
//!
//! # Drawing in place
//!
//! A pool is never held whole. A label-dependent partition (shards,
//! Dirichlet) first runs a *labels walk*: each row's class and mode, its
//! Gaussians skipped exactly ([`GaussianSampler::skip`]); the IID deal and
//! the validation/test split place rows from their shuffle alone. The full
//! walk then writes each row into its node's dataset or evaluation half
//! through a placement table of `(dataset, row)` pairs. One private
//! function draws or skips a row, so every row gets the bits it had in the
//! pool.

use crate::dataset::Dataset;
use crate::partition::{partition_rows, Partition};
use crate::rng::{sin_cos, GaussianSampler};
use crate::split::{split_rows, EvalSplits};
use rand::RngExt;
use skiptrain_linalg::rng::derive_seed;
use skiptrain_linalg::Matrix;

/// Configuration for a Gaussian-mixture classification task.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MixtureSpec {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Sub-clusters per class; more modes make the task less linearly
    /// separable.
    pub modes_per_class: usize,
    /// Distance scale between class centers.
    pub separation: f32,
    /// Within-cluster noise standard deviation. The ratio
    /// `separation / noise` controls the Bayes accuracy of the task.
    pub noise: f32,
}

impl MixtureSpec {
    /// The CIFAR-10-like default: 10 classes, moderate overlap so accuracy
    /// plateaus well below 100 % (as CIFAR-10 does for small CNNs).
    pub fn cifar_like(feature_dim: usize) -> Self {
        Self {
            num_classes: 10,
            feature_dim,
            modes_per_class: 3,
            separation: 1.0,
            noise: 0.85,
        }
    }

    /// The FEMNIST-like default: 47 classes (digits + letters in the
    /// balanced split), somewhat easier per-class structure.
    pub fn femnist_like(feature_dim: usize) -> Self {
        Self {
            num_classes: 47,
            feature_dim,
            modes_per_class: 2,
            separation: 1.3,
            noise: 0.75,
        }
    }
}

/// The frozen ground-truth structure of a mixture task: per-class,
/// per-mode cluster centers.
///
/// Keeping the generator around lets callers draw any number of additional
/// i.i.d. datasets (train pools, test sets, per-writer sets) from the same
/// task.
pub struct MixtureTask {
    spec: MixtureSpec,
    /// `num_classes × modes_per_class` centers, each of `feature_dim`.
    centers: Vec<Vec<f32>>,
    seed: u64,
}

impl MixtureTask {
    /// Samples the task structure (cluster centers) for `spec`.
    pub fn new(spec: MixtureSpec, seed: u64) -> Self {
        assert!(spec.num_classes >= 2, "need at least two classes");
        assert!(spec.feature_dim >= 1, "need at least one feature");
        assert!(
            spec.modes_per_class >= 1,
            "need at least one mode per class"
        );
        let mut g = GaussianSampler::for_stream(seed, 0xC0FFEE);
        let mut centers = Vec::with_capacity(spec.num_classes * spec.modes_per_class);
        for _ in 0..spec.num_classes * spec.modes_per_class {
            let mut c = vec![0.0f32; spec.feature_dim];
            g.fill(&mut c);
            // Scale to `separation` so class distances are controlled
            // independently of dimension.
            let norm = skiptrain_linalg::ops::norm(&c).max(1e-6);
            for v in &mut c {
                *v *= spec.separation / norm * (spec.feature_dim as f32).sqrt();
            }
            centers.push(c);
        }
        Self {
            spec,
            centers,
            seed,
        }
    }

    /// Draws `n` labelled samples with uniform class priors on stream
    /// `stream` (distinct streams are independent).
    pub fn sample(&self, n: usize, stream: u64) -> Dataset {
        self.deal(stream, vec![(0..n).collect()], None).remove(0)
    }

    fn sampler(&self, stream: u64) -> GaussianSampler {
        GaussianSampler::for_stream(self.seed, stream.wrapping_add(1))
    }

    /// The next row of `g`'s stream: draws its class and mode, then its
    /// Gaussians into `row` as one block and turns each `z` into
    /// `center + noise·z` in place, or skips them when there is no row.
    fn row(&self, g: &mut GaussianSampler, row: Option<&mut [f32]>) -> u32 {
        let class = g.rng_mut().random_range(0..self.spec.num_classes);
        let mode = g.rng_mut().random_range(0..self.spec.modes_per_class);
        match row {
            Some(row) => {
                g.fill(row);
                let center = &self.centers[class * self.spec.modes_per_class + mode];
                for (x, &c) in row.iter_mut().zip(center) {
                    *x = c + self.spec.noise * *x;
                }
            }
            None => g.skip(self.spec.feature_dim),
        }
        class as u32
    }

    /// The labels walk: the classes of the first `n` rows of `stream`.
    fn labels(&self, n: usize, stream: u64) -> Vec<u32> {
        let mut g = self.sampler(stream);
        (0..n).map(|_| self.row(&mut g, None)).collect()
    }

    /// The full walk: draws `stream` into one dataset per index list, row
    /// `parts[j][p]` of the stream becoming row `p` of dataset `j`, through
    /// a placement table of `(j, p)` per stream row. The lists must name
    /// every row exactly once; they are freed as the table fills.
    fn deal(
        &self,
        stream: u64,
        parts: Vec<Vec<usize>>,
        style: Option<&WriterStyle>,
    ) -> Vec<Dataset> {
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        // a row no list names keeps an out-of-range dataset and panics below
        let mut place = vec![(u32::MAX, 0u32); sizes.iter().sum()];
        for (j, part) in parts.into_iter().enumerate() {
            for (p, i) in part.into_iter().enumerate() {
                place[i] = (j as u32, p as u32);
            }
        }
        let d = self.spec.feature_dim;
        let mut features: Vec<Matrix> = sizes.iter().map(|&n| Matrix::zeros(n, d)).collect();
        let mut labels: Vec<Vec<u32>> = sizes.iter().map(|&n| vec![0; n]).collect();
        let mut g = self.sampler(stream);
        for (j, p) in place {
            let (j, p) = (j as usize, p as usize);
            let row = features[j].row_mut(p);
            labels[j][p] = self.row(&mut g, Some(&mut *row));
            if let Some(style) = style {
                style.apply(row);
            }
        }
        features
            .into_iter()
            .zip(labels)
            .map(|(f, l)| Dataset::new(f, l, self.spec.num_classes))
            .collect()
    }

    /// Draws `stream`'s `n` rows straight into disjoint validation/test
    /// halves (§4.2: half the test set is held out for tuning).
    fn eval_splits(&self, n: usize, stream: u64, seed: u64) -> EvalSplits {
        let mut halves = self.deal(stream, split_rows(n, 0.5, derive_seed(seed, 0xE0A1)), None);
        let validation = halves.remove(0);
        let test = halves.remove(0);
        EvalSplits { validation, test }
    }
}

/// A per-writer affine feature transform: a sparse random rotation (sequence
/// of Givens rotations) plus a bias, modelling a writer's "handwriting
/// style" in feature space.
pub struct WriterStyle {
    /// Givens rotations as `(i, j, cos, sin)` tuples.
    rotations: Vec<(usize, usize, f32, f32)>,
    bias: Vec<f32>,
}

impl WriterStyle {
    /// Samples a style of the given strength for feature dimension `d`.
    ///
    /// `strength` ∈ [0, 1]: 0 is the identity; 1 applies `d` rotations of up
    /// to ~0.5 rad and a bias of ~0.5 σ. Angles are taken modulo 2π, which
    /// leaves those of a strength up to 2 as they are and keeps any other
    /// inside the range where `sin_cos` holds.
    pub fn sample(d: usize, strength: f32, seed: u64, stream: u64) -> Self {
        let mut g = GaussianSampler::for_stream(seed, stream.wrapping_add(0x57717E));
        let n_rot = ((d as f32) * strength).round() as usize;
        let mut rotations = Vec::with_capacity(n_rot);
        for _ in 0..n_rot {
            let i = g.rng_mut().random_range(0..d);
            let mut j = g.rng_mut().random_range(0..d);
            if i == j {
                j = (j + 1) % d;
            }
            let (sin, cos) = sin_cos(g.sample() * 0.5 * strength % std::f32::consts::TAU);
            rotations.push((i, j, cos, sin));
        }
        let mut bias = vec![0.0f32; d];
        g.fill(&mut bias);
        for b in &mut bias {
            *b *= 0.5 * strength;
        }
        Self { rotations, bias }
    }

    /// Applies the style in place to one feature row.
    pub fn apply(&self, row: &mut [f32]) {
        for &(i, j, c, s) in &self.rotations {
            let (xi, xj) = (row[i], row[j]);
            row[i] = c * xi - s * xj;
            row[j] = s * xi + c * xj;
        }
        for (x, &b) in row.iter_mut().zip(&self.bias) {
            *x += b;
        }
    }
}

/// Generates the CIFAR-10-like data: one shared training pool of
/// `n_nodes · samples_per_node` rows dealt to the nodes by `partition`, and
/// an evaluation pool of `test_n` rows halved into validation and test.
/// Neither pool is ever held whole (see the module docs).
///
/// # Panics
/// Panics if `n_nodes == 0`, or as [`crate::partition::partition_indices`]
/// does for a partition the pool cannot satisfy.
pub fn cifar_partitioned(
    spec: &MixtureSpec,
    n_nodes: usize,
    samples_per_node: usize,
    test_n: usize,
    partition: &Partition,
    seed: u64,
) -> (Vec<Dataset>, EvalSplits) {
    let task = MixtureTask::new(spec.clone(), seed);
    let rows = n_nodes * samples_per_node;
    let parts = partition_rows(
        rows,
        || task.labels(rows, 1),
        spec.num_classes,
        n_nodes,
        partition,
        derive_seed(seed, 0x5A4D),
    );
    (task.deal(1, parts, None), task.eval_splits(test_n, 2, seed))
}

/// Generates FEMNIST-like per-writer data: one train dataset per node (each
/// through its own style) and a style-free evaluation pool of `test_n` rows
/// halved into validation and test.
///
/// `samples_per_writer` may vary per node in reality; the paper selects the
/// top-256 writers by sample count, which we model as a uniform count.
pub fn femnist_like(
    spec: &MixtureSpec,
    n_writers: usize,
    samples_per_writer: usize,
    test_n: usize,
    style_strength: f32,
    seed: u64,
) -> (Vec<Dataset>, EvalSplits) {
    let task = MixtureTask::new(spec.clone(), seed);
    let writers = (0..n_writers)
        .map(|w| {
            let style = WriterStyle::sample(spec.feature_dim, style_strength, seed, w as u64);
            let rows = vec![(0..samples_per_writer).collect()];
            task.deal(100 + w as u64, rows, Some(&style)).remove(0)
        })
        .collect();
    (writers, task.eval_splits(test_n, 3, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_indices;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The construction drawing in place replaced: each pool drawn whole,
    /// then copied out.
    fn pool(task: &MixtureTask, n: usize, stream: u64, style: Option<&WriterStyle>) -> Dataset {
        let spec = &task.spec;
        let mut g = GaussianSampler::for_stream(task.seed, stream.wrapping_add(1));
        let mut features = Matrix::zeros(n, spec.feature_dim);
        let mut labels = Vec::with_capacity(n);
        let mut buf = vec![0.0f32; spec.feature_dim];
        for r in 0..n {
            let class = g.rng_mut().random_range(0..spec.num_classes);
            let mode = g.rng_mut().random_range(0..spec.modes_per_class);
            let center = &task.centers[class * spec.modes_per_class + mode];
            g.fill(&mut buf);
            let row = features.row_mut(r);
            for ((x, &c), &z) in row.iter_mut().zip(center).zip(&buf) {
                *x = c + spec.noise * z;
            }
            if let Some(style) = style {
                style.apply(row);
            }
            labels.push(class as u32);
        }
        Dataset::new(features, labels, spec.num_classes)
    }

    /// The old `split_eval`: the pool's rows shuffled, then copied into
    /// halves.
    fn split_eval(pool: &Dataset, seed: u64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        idx.shuffle(&mut SmallRng::seed_from_u64(seed));
        let cut = ((pool.len() as f64) * 0.5).round() as usize;
        let cut = cut.clamp(
            usize::from(pool.len() >= 2),
            pool.len().saturating_sub(1).max(1),
        );
        (pool.subset(&idx[..cut]), pool.subset(&idx[cut..]))
    }

    fn assert_same_bits(got: &Dataset, want: &Dataset, what: &str) {
        let bits = |d: &Dataset| -> Vec<u32> {
            d.features()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(got.features().shape(), want.features().shape(), "{what}");
        assert_eq!(got.num_classes(), want.num_classes(), "{what}");
        assert_eq!(got.labels(), want.labels(), "{what}: labels");
        assert!(bits(got) == bits(want), "{what}: feature bits differ");
    }

    fn assert_same_eval(got: &EvalSplits, task: &MixtureTask, n: usize, stream: u64, seed: u64) {
        let (validation, test) =
            split_eval(&pool(task, n, stream, None), derive_seed(seed, 0xE0A1));
        assert_same_bits(&got.validation, &validation, "validation");
        assert_same_bits(&got.test, &test, "test");
    }

    #[test]
    fn drawing_in_place_gives_the_pool_and_copy_bits() {
        // An odd feature_dim ends every other row on a spare Gaussian; 6
        // nodes of 7 samples are 42 rows, which 12 or 18 shards do not
        // divide; 41 evaluation rows halve unevenly.
        let (nodes, samples, test_n, seed) = (6, 7, 41, 13);
        let spec = MixtureSpec::cifar_like(5);
        let task = MixtureTask::new(spec.clone(), seed);
        let train = pool(&task, nodes * samples, 1, None);
        for partition in [
            Partition::Shards { shards_per_node: 2 },
            Partition::Shards { shards_per_node: 3 },
            Partition::Iid,
            Partition::Dirichlet { alpha: 0.5 },
        ] {
            let (got, eval) = cifar_partitioned(&spec, nodes, samples, test_n, &partition, seed);
            let parts = partition_indices(
                train.labels(),
                spec.num_classes,
                nodes,
                &partition,
                derive_seed(seed, 0x5A4D),
            );
            assert_eq!(got.len(), nodes);
            for (j, (node, idx)) in got.iter().zip(&parts).enumerate() {
                assert_same_bits(node, &train.subset(idx), &format!("{partition:?} node {j}"));
            }
            assert_same_eval(&eval, &task, test_n, 2, seed);
        }

        let spec = MixtureSpec::femnist_like(5);
        let (writers, eval) = femnist_like(&spec, nodes, samples, test_n, 0.7, seed);
        let task = MixtureTask::new(spec.clone(), seed);
        assert_eq!(writers.len(), nodes);
        for (w, writer) in writers.iter().enumerate() {
            let style = WriterStyle::sample(5, 0.7, seed, w as u64);
            let want = pool(&task, samples, 100 + w as u64, Some(&style));
            assert_same_bits(writer, &want, &format!("writer {w}"));
        }
        assert_same_eval(&eval, &task, test_n, 3, seed);
    }

    #[test]
    fn labels_walk_reads_the_full_walks_classes() {
        // odd and even feature_dim: the skip must leave the spare where
        // drawing the features would
        for d in [5, 6] {
            let task = MixtureTask::new(MixtureSpec::cifar_like(d), 4);
            assert_eq!(task.labels(57, 1), task.sample(57, 1).labels());
        }
    }

    #[test]
    fn mixture_is_deterministic_per_seed() {
        let spec = MixtureSpec::cifar_like(8);
        let a = MixtureTask::new(spec.clone(), 7).sample(20, 1);
        let b = MixtureTask::new(spec, 7).sample(20, 1);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn different_streams_are_different() {
        let spec = MixtureSpec::cifar_like(8);
        let task = MixtureTask::new(spec, 7);
        let a = task.sample(20, 1);
        let b = task.sample(20, 2);
        assert_ne!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn class_priors_are_roughly_uniform() {
        let spec = MixtureSpec::cifar_like(4);
        let task = MixtureTask::new(spec, 3);
        let d = task.sample(5000, 1);
        for count in d.class_histogram() {
            assert!(
                (count as f64 - 500.0).abs() < 150.0,
                "class count {count} far from 500"
            );
        }
    }

    #[test]
    fn task_is_learnable_by_nearest_center() {
        // Sanity: with separation >> noise a nearest-center classifier must
        // beat random guessing by a wide margin.
        let spec = MixtureSpec {
            num_classes: 4,
            feature_dim: 16,
            modes_per_class: 1,
            separation: 2.0,
            noise: 0.5,
        };
        let task = MixtureTask::new(spec.clone(), 11);
        let d = task.sample(400, 5);
        let mut correct = 0usize;
        for r in 0..d.len() {
            let row = d.features().row(r);
            let mut best = (f32::INFINITY, 0usize);
            for class in 0..spec.num_classes {
                let c = &task.centers[class]; // modes_per_class == 1
                let dist = skiptrain_linalg::ops::squared_distance(row, c);
                if dist < best.0 {
                    best = (dist, class);
                }
            }
            if best.1 == d.labels()[r] as usize {
                correct += 1;
            }
        }
        let acc = correct as f32 / d.len() as f32;
        assert!(acc > 0.9, "nearest-center accuracy {acc} too low");
    }

    #[test]
    fn writer_style_changes_features_but_not_labels() {
        let spec = MixtureSpec::femnist_like(12);
        let task = MixtureTask::new(spec.clone(), 5);
        let plain = task.sample(50, 9);
        let style = WriterStyle::sample(12, 0.8, 5, 1);
        let styled = task
            .deal(9, vec![(0..50).collect()], Some(&style))
            .remove(0);
        assert_eq!(plain.labels(), styled.labels());
        assert_ne!(plain.features().as_slice(), styled.features().as_slice());
    }

    #[test]
    fn a_style_far_above_strength_one_still_rotates() {
        // most of its 6 000 angles lie far outside `sin_cos`'s |x| < 120
        let style = WriterStyle::sample(6, 1000.0, 1, 1);
        for &(_, _, c, s) in &style.rotations {
            assert!((c * c + s * s - 1.0).abs() < 1e-5, "({c}, {s})");
        }
    }

    #[test]
    fn zero_strength_style_is_identity() {
        let style = WriterStyle::sample(6, 0.0, 1, 1);
        let mut row = vec![1.0, -2.0, 3.0, 0.5, 0.0, -1.0];
        let orig = row.clone();
        style.apply(&mut row);
        assert_eq!(row, orig);
    }

    #[test]
    fn femnist_like_produces_writers_and_test() {
        let spec = MixtureSpec::femnist_like(8);
        let (writers, eval) = femnist_like(&spec, 5, 30, 101, 0.5, 2);
        assert_eq!(writers.len(), 5);
        assert!(writers.iter().all(|w| w.len() == 30));
        // the 101-row evaluation pool is halved, the odd row to validation
        assert_eq!((eval.validation.len(), eval.test.len()), (51, 50));
        // writer label distributions are near-homogeneous (all writers see
        // every class with the same prior), unlike 2-shard CIFAR
        for w in &writers {
            assert!(w.distinct_classes() > spec.num_classes / 3);
        }
    }

    #[test]
    fn styles_differ_across_writers() {
        let spec = MixtureSpec::femnist_like(8);
        let (writers, _) = femnist_like(&spec, 2, 40, 10, 0.8, 4);
        assert_ne!(
            writers[0].features().as_slice(),
            writers[1].features().as_slice()
        );
    }
}
