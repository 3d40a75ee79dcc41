//! Model zoo: the models an experiment configuration names.
//!
//! A run trains one of two models on the synthetic feature vectors of
//! `data::synth`: an MLP with ReLU between dense layers, or a softmax
//! regression. The paper's CNNs are not built here; their sizes from
//! Table 1 (|x| = 89 834 for CIFAR-10, 1 690 046 for FEMNIST) enter the
//! energy model through the energy crate's `WorkloadSpec`.

use crate::activations::Relu;
use crate::dense::Dense;
use crate::model::Sequential;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Deterministic initializer RNG: a model hands one stream to its layers'
/// [`init_params`](crate::Layer::init_params), in flatten order.
pub struct InitRng {
    rng: SmallRng,
}

impl InitRng {
    /// Creates an initializer stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.random_range(lo..hi)
    }

    /// He-uniform weights for `fan_in` inputs per unit: every element of
    /// `weights`, in order, uniform in `±sqrt(6 / fan_in)`.
    pub fn he_uniform(&mut self, weights: &mut [f32], fan_in: usize) {
        let bound = (6.0f32 / fan_in as f32).sqrt();
        for w in weights {
            *w = self.uniform(-bound, bound);
        }
    }
}

/// Declarative model description, serializable for experiment configs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Multi-layer perceptron with ReLU between dense layers;
    /// `dims = [input, hidden..., classes]`.
    Mlp { dims: Vec<usize> },
    /// Softmax regression (a single dense layer).
    Logistic { input_dim: usize, classes: usize },
}

impl ModelKind {
    /// Instantiates the model with deterministic per-seed initialization.
    pub fn build(&self, seed: u64) -> Sequential {
        match self {
            ModelKind::Mlp { dims } => mlp(dims, seed),
            ModelKind::Logistic { input_dim, classes } => {
                logistic_regression(*input_dim, *classes, seed)
            }
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
/// dense layers.
///
/// # Panics
/// Panics if fewer than two dims are given.
pub fn mlp(dims: &[usize], seed: u64) -> Sequential {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut layers: Vec<Box<dyn crate::Layer>> = Vec::new();
    for (i, pair) in dims.windows(2).enumerate() {
        layers.push(Box::new(Dense::new(pair[0], pair[1])));
        if i + 2 < dims.len() {
            layers.push(Box::new(Relu::new(pair[1])));
        }
    }
    Sequential::new(layers, seed)
}

/// Softmax regression: one dense layer from inputs to class logits.
pub fn logistic_regression(input_dim: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new(vec![Box::new(Dense::new(input_dim, classes))], seed)
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
        let m = logistic_regression(10, 3, 1);
        // one dense layer and nothing else: 10·3 weights + 3 biases
        assert_eq!(m.param_count(), 33);
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
