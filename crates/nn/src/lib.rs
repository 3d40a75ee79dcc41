//! Neural-network training substrate for the SkipTrain reproduction.
//!
//! The paper trains CNNs on CIFAR-10 and FEMNIST; this reproduction trains
//! what a run actually builds — an MLP (a softmax regression is the MLP
//! with no hidden layer) over the synthetic feature vectors of
//! `data::synth` — with machinery written from scratch. The paper's model
//! sizes (Table 1) enter the energy model as numbers, through the energy
//! crate's `WorkloadSpec`, not as networks:
//!
//! * [`model`] — [`Sequential`], the MLP described by its widths, with
//!   manual, gradient-checked backpropagation over **one** flat parameter
//!   vector and one flat gradient vector: decentralized learning shares and
//!   averages *flattened* parameter vectors, so that vector is what the
//!   model holds, and a caller that keeps it elsewhere lends it in O(1)
//!   instead of copying it in and out. The model owns every activation,
//!   applies each hidden layer's ReLU in the pass that adds its bias, and
//!   its backward sweep computes no input gradient for the first layer,
//! * [`loss`] — fused softmax cross-entropy (the paper's loss) and top-1
//!   accuracy,
//! * [`sgd`] — plain SGD, the paper's optimizer (Table 1),
//! * [`zoo`] — the models a configuration names ([`zoo::ModelKind`]) and
//!   [`zoo::mlp`], the one constructor,
//! * [`gradcheck`] — finite-difference gradient verification used by the test
//!   suite.

pub mod gradcheck;
pub mod loss;
pub mod model;
pub mod sgd;
pub mod zoo;

pub use loss::SoftmaxCrossEntropy;
pub use model::Sequential;
pub use sgd::Sgd;
