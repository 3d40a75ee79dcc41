//! Dataset substrate for the SkipTrain reproduction.
//!
//! The paper evaluates on CIFAR-10 (under a pathological 2-shard label
//! partition) and FEMNIST (naturally partitioned by writer). Neither dataset
//! is redistributable inside this repository, so this crate generates
//! *synthetic* datasets that preserve the statistical mechanisms the paper
//! studies:
//!
//! * [`synth::cifar_partitioned`] — a Gaussian-mixture classification task
//!   whose difficulty is tunable, one shared pool dealt to the nodes; under
//!   [`partition::Partition::Shards`] it reproduces the extreme label skew
//!   of §4.2 (most nodes hold 2 of 10 classes).
//! * [`synth::femnist_like`] — a per-writer task where every node draws the
//!   same label distribution but through a private affine "handwriting
//!   style", reproducing FEMNIST's feature-skew/label-homogeneous regime
//!   (Figure 7's contrast).
//!
//! Both also draw an evaluation pool and halve it into validation and test
//! ([`split`], §4.2). Each dataset is one seeded stream of the task, and
//! every row is drawn once, straight into the dataset it ends in: no pool
//! is held whole and copied out (see [`synth`] for the streams, the labels
//! walk and the placement table).
//!
//! The [`dataset::Dataset`] container and [`dataset::MinibatchSampler`] are
//! shared by the training engine; [`stats`] computes the per-node class
//! histograms behind Figure 7.

pub mod dataset;
pub mod partition;
pub mod rng;
pub mod split;
pub mod stats;
pub mod synth;

pub use dataset::{Dataset, MinibatchSampler};
pub use partition::Partition;
pub use rng::GaussianSampler;
