//! Neural-network training substrate for the SkipTrain reproduction.
//!
//! The paper trains CNNs with PyTorch; this crate provides the equivalent
//! machinery from scratch:
//!
//! * [`layer`] — the [`Layer`](layer::Layer) abstraction with manual,
//!   gradient-checked backpropagation. A layer is a shape: it owns neither
//!   parameters nor gradients (both passes are handed its span of the
//!   model's flat vectors) and caches no activations (`backward` is handed
//!   the forward input and output it needs, and an input-gradient buffer
//!   only when somebody reads that gradient),
//! * [`dense`], [`conv`], [`activations`] — the layer implementations used by
//!   the paper's model family (fully-connected, 2-D convolution with im2col,
//!   max-pooling, ReLU),
//! * [`loss`] — fused softmax cross-entropy (the paper's loss) and top-1
//!   accuracy,
//! * [`model`] — [`Sequential`](model::Sequential) models over **one** flat
//!   parameter vector and one flat gradient vector: decentralized learning
//!   shares and averages *flattened* parameter vectors, so that vector is
//!   what the model holds, and a caller that keeps it elsewhere lends it in
//!   O(1) instead of copying it in and out. The model owns every
//!   activation and its backward sweep stops at the lowest layer that has
//!   parameters,
//! * [`sgd`] — plain SGD, the paper's optimizer (Table 1),
//! * [`zoo`] — the model family of the evaluation (Table 1): the FEMNIST CNN
//!   reproduces the paper's 1,690,046-parameter model exactly,
//! * [`gradcheck`] — finite-difference gradient verification used by the test
//!   suite.

pub mod activations;
pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod model;
pub mod sgd;
pub mod zoo;

pub use layer::Layer;
pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
pub use sgd::Sgd;
