//! Communication topologies for decentralized learning.
//!
//! The paper runs 256 nodes on random d-regular graphs (d ∈ {6, 8, 10}) and
//! mixes models with Metropolis–Hastings weights (§2.2), which are symmetric
//! and doubly stochastic — the conditions D-PSGD needs for convergence.
//!
//! * [`graph`] — undirected simple graphs with validated invariants,
//! * [`regular`] — random d-regular generation (pairing model with a
//!   connected-circulant fallback),
//! * [`weights`] — sparse mixing matrices (Metropolis–Hastings, uniform
//!   all-reduce, and degenerate variants for testing),
//! * [`schedule`] — time-varying topologies: round→graph generators
//!   ([`TopologySchedule`]) with per-round Metropolis–Hastings weights,
//!   kept by position in the period for periodic schedules
//!   ([`ScheduledTopology`]).

pub mod graph;
pub mod matching;
pub mod regular;
pub mod schedule;
pub mod weights;

pub use graph::Graph;
pub use schedule::{ScheduledTopology, TopologySchedule};
pub use weights::MixingMatrix;

#[cfg(test)]
mod erdos {
    //! Erdős–Rényi random graphs: the irregular degree distributions the
    //! mixing-weight and schedule property tests draw.

    use crate::graph::Graph;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// Samples `G(n, p)`: every possible edge is present independently with
    /// probability `p`.
    pub(crate) fn gnp(n: usize, p: f64, seed: u64) -> Graph {
        assert!(
            (0.0..=1.0).contains(&p),
            "edge probability must be in [0, 1]"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Graph::empty(n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.random::<f64>() < p {
                    g.add_edge(i as u32, j as u32);
                }
            }
        }
        g
    }

    mod tests {
        use super::*;

        #[test]
        fn extreme_probabilities() {
            let none = gnp(10, 0.0, 1);
            assert_eq!(none.edge_count(), 0);
            let all = gnp(10, 1.0, 1);
            assert_eq!(all.edge_count(), 45);
        }

        #[test]
        fn edge_count_tracks_probability() {
            let g = gnp(60, 0.3, 5);
            let expected = 0.3 * (60.0 * 59.0 / 2.0);
            let got = g.edge_count() as f64;
            assert!(
                (got - expected).abs() < expected * 0.25,
                "edges {got} vs expected {expected}"
            );
            g.validate().unwrap();
        }

        #[test]
        fn deterministic_per_seed() {
            assert_eq!(gnp(20, 0.4, 9), gnp(20, 0.4, 9));
            assert_ne!(gnp(20, 0.4, 9), gnp(20, 0.4, 10));
        }
    }
}
