//! Model zoo: the models an experiment configuration names.
//!
//! A run trains an MLP with ReLU between dense layers on the synthetic
//! feature vectors of `data::synth`; a softmax regression is the MLP with
//! no hidden layer. The paper's CNNs are not built here; their sizes from
//! Table 1 (|x| = 89 834 for CIFAR-10, 1 690 046 for FEMNIST) enter the
//! energy model through the energy crate's `WorkloadSpec`.

use crate::model::Sequential;
use serde::{Deserialize, Serialize};

/// Declarative model description, serializable for experiment configs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Multi-layer perceptron with ReLU between dense layers;
    /// `dims = [input, hidden..., classes]`.
    Mlp { dims: Vec<usize> },
    /// Softmax regression: the MLP `[input_dim, classes]`.
    Logistic { input_dim: usize, classes: usize },
}

impl ModelKind {
    /// Instantiates the model with deterministic per-seed initialization.
    pub fn build(&self, seed: u64) -> Sequential {
        match self {
            ModelKind::Mlp { dims } => mlp(dims, seed),
            ModelKind::Logistic { input_dim, classes } => mlp(&[*input_dim, *classes], seed),
        }
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        match self {
            ModelKind::Mlp { dims } => dims[0],
            ModelKind::Logistic { input_dim, .. } => *input_dim,
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        match self {
            ModelKind::Mlp { dims } => dims.last().copied().unwrap_or(0),
            ModelKind::Logistic { classes, .. } => *classes,
        }
    }
}

/// Builds an MLP `dims[0] -> dims[1] -> ... -> dims[last]` with ReLU between
/// dense layers: He-uniform weights drawn from one stream of `seed`, zero
/// biases.
///
/// # Panics
/// Panics if fewer than two dims are given.
pub fn mlp(dims: &[usize], seed: u64) -> Sequential {
    Sequential::new(dims, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_dims_chain_correctly() {
        let m = mlp(&[8, 16, 4], 1);
        assert_eq!(m.input_dim(), 8);
        assert_eq!(m.output_dim(), 4);
        assert_eq!(m.param_count(), (8 * 16 + 16) + (16 * 4 + 4));
    }

    #[test]
    fn logistic_is_single_layer() {
        let m = ModelKind::Logistic {
            input_dim: 10,
            classes: 3,
        }
        .build(1);
        // one dense layer and nothing else: 10·3 weights + 3 biases
        assert_eq!(m.param_count(), 33);
    }

    #[test]
    fn logistic_and_a_two_width_mlp_draw_the_same_bits() {
        for (input_dim, classes) in [(1, 2), (2, 2), (10, 3), (32, 10), (88, 23)] {
            for seed in [0, 1, 42, 90, u64::MAX] {
                let logistic = ModelKind::Logistic { input_dim, classes }.build(seed);
                let mlp = ModelKind::Mlp {
                    dims: vec![input_dim, classes],
                }
                .build(seed);
                let bits = |m: &Sequential| -> Vec<u32> {
                    m.flat_params().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(&logistic),
                    bits(&mlp),
                    "{input_dim}×{classes}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn model_kind_builds_consistent_shapes() {
        for kind in [
            ModelKind::Mlp {
                dims: vec![6, 12, 5],
            },
            ModelKind::Logistic {
                input_dim: 6,
                classes: 5,
            },
        ] {
            let m = kind.build(3);
            assert_eq!(m.input_dim(), kind.input_dim());
            assert_eq!(m.output_dim(), kind.num_classes());
        }
    }

    #[test]
    fn same_seed_same_model_different_seed_different_model() {
        let a = mlp(&[4, 8, 2], 7);
        let b = mlp(&[4, 8, 2], 7);
        let c = mlp(&[4, 8, 2], 8);
        assert_eq!(a.flat_params(), b.flat_params());
        assert_ne!(a.flat_params(), c.flat_params());
    }
}
