//! Neural-network training substrate for the SkipTrain reproduction.
//!
//! The paper trains CNNs on CIFAR-10 and FEMNIST; this reproduction trains
//! what a run actually builds — an MLP or a softmax regression over the
//! synthetic feature vectors of `data::synth` — with machinery written from
//! scratch. The paper's model sizes (Table 1) enter the energy model as
//! numbers, through the energy crate's `WorkloadSpec`, not as networks:
//!
//! * [`layer`] — the [`Layer`] abstraction with manual, gradient-checked
//!   backpropagation. A layer is a shape: it owns neither parameters nor
//!   gradients (both passes are handed its span of the model's flat
//!   vectors) and caches no activations (`backward` is handed the forward
//!   input and output it needs, and an input-gradient buffer only when
//!   somebody reads that gradient),
//! * [`dense`], [`activations`] — the two layer kinds a model is built from
//!   (fully-connected, ReLU),
//! * [`loss`] — fused softmax cross-entropy (the paper's loss) and top-1
//!   accuracy,
//! * [`model`] — [`Sequential`] models over **one** flat parameter vector
//!   and one flat gradient vector: decentralized learning shares and
//!   averages *flattened* parameter vectors, so that vector is what the
//!   model holds, and a caller that keeps it elsewhere lends it in O(1)
//!   instead of copying it in and out. The model owns every activation and
//!   its backward sweep stops at the lowest layer that has parameters,
//! * [`sgd`] — plain SGD, the paper's optimizer (Table 1),
//! * [`zoo`] — the models a configuration names (MLP, softmax regression),
//! * [`gradcheck`] — finite-difference gradient verification used by the test
//!   suite.

pub mod activations;
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
