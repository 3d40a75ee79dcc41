//! Sparse mixing (gossip) matrices.
//!
//! D-PSGD's aggregation step is `x_i ← Σ_j W_ji x_j` where `W` must be
//! symmetric and doubly stochastic (§2.2). We store `W` row-wise and
//! sparsely: row `i` holds `(j, W_ij)` pairs over `{i} ∪ N(i)`, which is all
//! the engine needs to aggregate a node's neighborhood.

use crate::graph::Graph;
use serde::{Deserialize, Serialize};

/// A sparse, row-stored mixing matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixingMatrix {
    n: usize,
    /// `rows[i]` = sorted `(j, weight)` entries of row `i` (self included).
    rows: Vec<Vec<(u32, f32)>>,
}

impl MixingMatrix {
    /// Metropolis–Hastings weights for a graph (§2.2 of the paper):
    ///
    /// * `W_ij = 1 / (max(deg i, deg j) + 1)` for each edge `(i, j)`,
    /// * `W_ii = 1 − Σ_{j≠i} W_ij`,
    /// * `W_ij = 0` otherwise.
    ///
    /// The result is symmetric and doubly stochastic for any undirected
    /// simple graph.
    pub fn metropolis_hastings(graph: &Graph) -> Self {
        let mut out = Self {
            n: 0,
            rows: Vec::new(),
        };
        Self::metropolis_hastings_into(graph, &mut out);
        out
    }

    /// In-place form of [`MixingMatrix::metropolis_hastings`]: rebuilds
    /// `out` for `graph`, reusing its row allocations. Produces exactly
    /// the matrix the allocating constructor would (asserted by tests);
    /// this is what keeps per-round weight regeneration allocation-free
    /// at steady state for time-varying topology schedules.
    pub fn metropolis_hastings_into(graph: &Graph, out: &mut MixingMatrix) {
        let n = graph.len();
        out.n = n;
        out.rows.truncate(n);
        while out.rows.len() < n {
            out.rows.push(Vec::new());
        }
        for (i, row) in out.rows.iter_mut().enumerate() {
            row.clear();
            row.reserve(graph.degree(i) + 1);
            let mut off_diagonal = 0.0f64;
            for &j in graph.neighbors(i) {
                let w = 1.0 / (graph.degree(i).max(graph.degree(j as usize)) as f64 + 1.0);
                row.push((j, w as f32));
                off_diagonal += w;
            }
            row.push((i as u32, (1.0 - off_diagonal) as f32));
            // unstable: keys are unique (neighbors + self), and the
            // stable sort may allocate a merge buffer on larger rows
            row.sort_unstable_by_key(|&(j, _)| j);
        }
    }

    /// The uniform complete-mixing matrix `W_ij = 1/n` (the all-reduce
    /// operator of Figure 1).
    pub fn uniform_complete(n: usize) -> Self {
        assert!(n > 0, "empty mixing matrix");
        let w = 1.0 / n as f32;
        let rows = (0..n)
            .map(|_| (0..n as u32).map(|j| (j, w)).collect())
            .collect();
        Self { n, rows }
    }

    /// The identity matrix (no mixing) — a degenerate baseline for tests and
    /// ablations.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "empty mixing matrix");
        let rows = (0..n as u32).map(|i| vec![(i, 1.0f32)]).collect();
        Self { n, rows }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix is 0×0 (never constructible via public API).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted `(column, weight)` entries of row `i`.
    pub fn row(&self, i: usize) -> &[(u32, f32)] {
        &self.rows[i]
    }

    /// Looks up `W_ij` (0 when absent).
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.rows[i]
            .binary_search_by_key(&(j as u32), |&(c, _)| c)
            .map(|pos| self.rows[i][pos].1)
            .unwrap_or(0.0)
    }

    /// Rebuilds `out` as this matrix masked to a participating subset of
    /// nodes, node `i` active iff `active(i)`, preserving symmetry and
    /// double stochasticity: an inactive node's row collapses to the
    /// identity (`W_ii = 1`), and every active row folds the weight of its
    /// inactive neighbors back into its self entry. This is the
    /// participation mask the battery gating feeds into the effective-edge
    /// mixing path — an inactive node neither sends nor receives, so the
    /// per-edge energy accounting over the masked matrix charges it
    /// nothing.
    ///
    /// For a symmetric input the output is symmetric (the inactive column
    /// entries removed from active rows mirror the inactive rows' removed
    /// entries), and each row still sums to the original row sum. With
    /// every node active the output equals the input exactly.
    ///
    /// Reuses `out`'s row allocations (the allocation-free per-round path,
    /// as in [`Self::metropolis_hastings_into`]).
    pub fn masked_into(&self, active: impl Fn(usize) -> bool, out: &mut MixingMatrix) {
        out.n = self.n;
        out.rows.truncate(self.n);
        while out.rows.len() < self.n {
            out.rows.push(Vec::new());
        }
        for (i, row_out) in out.rows.iter_mut().enumerate() {
            row_out.clear();
            if !active(i) {
                row_out.push((i as u32, 1.0));
                continue;
            }
            row_out.reserve(self.rows[i].len());
            // fold the self weight and every inactive neighbor's weight
            // into one self entry, keeping column order sorted
            let mut self_weight = 0.0f32;
            let mut had_self = false;
            for &(j, w) in &self.rows[i] {
                if j as usize == i {
                    self_weight += w;
                    had_self = true;
                } else if active(j as usize) {
                    row_out.push((j, w));
                } else {
                    self_weight += w;
                }
            }
            if had_self || self_weight != 0.0 {
                let pos = row_out.partition_point(|&(j, _)| j < i as u32);
                row_out.insert(pos, (i as u32, self_weight));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::random_regular;
    use proptest::prelude::*;
    use skiptrain_oracle::mixing::{
        apply_scalar, is_nonnegative, masked, stochasticity_error, symmetry_error,
    };

    /// The matrix as the oracle's plain rows.
    fn rows_of(w: &MixingMatrix) -> Vec<Vec<(u32, f32)>> {
        w.rows.clone()
    }

    #[test]
    fn mh_on_ring_matches_hand_computation() {
        let g = Graph::ring(4);
        let w = MixingMatrix::metropolis_hastings(&g);
        // all degrees 2 → off-diagonal weights 1/3, self 1/3
        for i in 0..4 {
            for &(j, v) in w.row(i) {
                assert!((v - 1.0 / 3.0).abs() < 1e-6, "W[{i}][{j}] = {v}");
            }
        }
    }

    #[test]
    fn mh_into_reuses_buffers_and_matches_the_allocating_form() {
        // overwrite a slot across graphs of different sizes/degrees; the
        // result must be bit-identical to a fresh construction each time
        let mut slot = MixingMatrix::metropolis_hastings(&Graph::ring(3));
        for graph in [
            random_regular(16, 4, 1),
            Graph::ring(5),
            Graph::complete(9),
            random_regular(12, 6, 2),
        ] {
            MixingMatrix::metropolis_hastings_into(&graph, &mut slot);
            assert_eq!(slot, MixingMatrix::metropolis_hastings(&graph));
        }
    }

    #[test]
    fn mh_is_symmetric_doubly_stochastic_on_paper_graphs() {
        for d in [6usize, 8, 10] {
            let g = random_regular(256, d, 1);
            let w = rows_of(&MixingMatrix::metropolis_hastings(&g));
            assert!(symmetry_error(&w) < 1e-6);
            assert!(stochasticity_error(&w) < 1e-4);
            assert!(is_nonnegative(&w));
        }
    }

    #[test]
    fn mh_handles_irregular_degrees() {
        // star graph: center degree n-1, leaves degree 1
        let mut g = Graph::empty(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf as u32);
        }
        let w = MixingMatrix::metropolis_hastings(&g);
        assert!(symmetry_error(&rows_of(&w)) < 1e-6);
        assert!(stochasticity_error(&rows_of(&w)) < 1e-5);
        // leaf-center weight = 1/(max(4,1)+1) = 0.2; leaf self = 0.8
        assert!((w.get(1, 0) - 0.2).abs() < 1e-6);
        assert!((w.get(1, 1) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn uniform_complete_averages() {
        let w = rows_of(&MixingMatrix::uniform_complete(4));
        let y = apply_scalar(&w, &[1.0, 2.0, 3.0, 6.0]);
        for v in y {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_is_noop() {
        let w = rows_of(&MixingMatrix::identity(3));
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(apply_scalar(&w, &x), x);
    }

    #[test]
    fn apply_scalar_preserves_mean() {
        let g = random_regular(32, 4, 3);
        let w = rows_of(&MixingMatrix::metropolis_hastings(&g));
        let x: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let before: f64 = x.iter().sum();
        let after: f64 = apply_scalar(&w, &x).iter().sum();
        assert!(
            (before - after).abs() < 1e-6,
            "doubly stochastic mixing must preserve the sum"
        );
    }

    #[test]
    fn mixing_contracts_variance() {
        let g = random_regular(32, 4, 4);
        let w = rows_of(&MixingMatrix::metropolis_hastings(&g));
        let x: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|a| (a - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        let y = apply_scalar(&w, &x);
        assert!(var(&y) < var(&x), "gossip step must contract variance");
    }

    #[test]
    fn pairwise_averages_matched_nodes_only() {
        // MH on a matching graph: matched pairs average ½/½, the rest
        // keep their model
        let w = rows_of(&MixingMatrix::metropolis_hastings(&Graph::from_edges(
            5,
            &[(0, 3), (1, 4)],
        )));
        assert!(symmetry_error(&w) < 1e-7);
        assert!(stochasticity_error(&w) < 1e-6);
        let y = apply_scalar(&w, &[10.0, 2.0, 7.0, 0.0, 4.0]);
        assert_eq!(y, vec![5.0, 3.0, 7.0, 5.0, 3.0]);
    }

    #[test]
    fn pairwise_empty_matching_is_identity() {
        let w = rows_of(&MixingMatrix::metropolis_hastings(&Graph::empty(3)));
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(apply_scalar(&w, &x), x);
    }

    #[test]
    fn masked_with_all_active_is_the_original_matrix() {
        let mut slot = MixingMatrix::identity(1);
        for graph in [random_regular(12, 4, 5), Graph::ring(7), Graph::complete(5)] {
            let w = MixingMatrix::metropolis_hastings(&graph);
            w.masked_into(|_| true, &mut slot);
            assert_eq!(slot, w);
        }
        // rows without a self entry (swap matrix) must survive unchanged
        let swap: MixingMatrix =
            serde_json::from_str(r#"{"n":2,"rows":[[[1,1.0]],[[0,1.0]]]}"#).unwrap();
        swap.masked_into(|_| true, &mut slot);
        assert_eq!(slot, swap);
    }

    #[test]
    fn masked_isolates_inactive_nodes_and_folds_their_weight() {
        let g = Graph::ring(4);
        let w = MixingMatrix::metropolis_hastings(&g);
        let mut m = MixingMatrix::identity(1);
        w.masked_into(|i| i != 1, &mut m);
        // inactive row collapses to identity
        assert_eq!(m.row(1), &[(1, 1.0)]);
        // no active row references the inactive column
        for i in [0usize, 2, 3] {
            assert_eq!(m.get(i, 1), 0.0, "row {i} must drop the inactive column");
        }
        // node 0's lost 1/3 toward node 1 folds into its self weight
        assert!((m.get(0, 0) - 2.0 / 3.0).abs() < 1e-6);
        assert!((m.get(0, 3) - 1.0 / 3.0).abs() < 1e-6);
        assert!(symmetry_error(&rows_of(&m)) < 1e-6);
        assert!(stochasticity_error(&rows_of(&m)) < 1e-6);
    }

    #[test]
    fn masked_into_reuses_buffers_and_matches_the_allocating_form() {
        let mut slot = MixingMatrix::metropolis_hastings(&Graph::ring(3));
        for (graph, pattern) in [
            (random_regular(16, 4, 1), 3usize),
            (Graph::ring(5), 2),
            (Graph::complete(9), 4),
        ] {
            let w = MixingMatrix::metropolis_hastings(&graph);
            let active: Vec<bool> = (0..graph.len()).map(|i| i % pattern != 0).collect();
            w.masked_into(|i| active[i], &mut slot);
            assert_eq!(rows_of(&slot), masked(&rows_of(&w), |i| active[i]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_masked_preserves_mixing_invariants(
            n in 4usize..32, p in 0.2f64..0.9, seed in 0u64..200, mask_mod in 2usize..5
        ) {
            let g = crate::erdos::gnp(n, p, seed);
            let w = MixingMatrix::metropolis_hastings(&g);
            let active: Vec<bool> = (0..n).map(|i| !(i + seed as usize).is_multiple_of(mask_mod)).collect();
            let mut m = MixingMatrix::identity(1);
            w.masked_into(|i| active[i], &mut m);
            prop_assert_eq!(rows_of(&m), masked(&rows_of(&w), |i| active[i]));
            prop_assert!(symmetry_error(&rows_of(&m)) < 1e-5);
            prop_assert!(stochasticity_error(&rows_of(&m)) < 1e-4);
            prop_assert!(is_nonnegative(&rows_of(&m)));
            // inactive nodes are fully isolated: identity row, zero column
            for (i, &a) in active.iter().enumerate() {
                if !a {
                    prop_assert_eq!(m.row(i), &[(i as u32, 1.0f32)][..]);
                    for j in 0..n {
                        if j != i {
                            prop_assert_eq!(m.get(j, i), 0.0);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_mh_invariants_on_random_graphs(n in 4usize..40, p in 0.15f64..0.9, seed in 0u64..200) {
            let g = crate::erdos::gnp(n, p, seed);
            let w = rows_of(&MixingMatrix::metropolis_hastings(&g));
            prop_assert!(symmetry_error(&w) < 1e-5);
            prop_assert!(stochasticity_error(&w) < 1e-4);
            prop_assert!(is_nonnegative(&w));
        }

        #[test]
        fn prop_pairwise_from_matchings_is_doubly_stochastic(
            n in 4usize..40, d in 2usize..5, seed in 0u64..200
        ) {
            let d = d * 2; // even degree keeps n·d even for any n
            prop_assume!(d < n);
            let g = crate::regular::random_regular(n, d, seed);
            let m = crate::matching::random_maximal_matching(&g, seed ^ 0x99);
            let w = rows_of(&MixingMatrix::metropolis_hastings(&Graph::from_edges(n, &m)));
            prop_assert!(symmetry_error(&w) < 1e-6);
            prop_assert!(stochasticity_error(&w) < 1e-5);
            // pairwise mixing never increases variance
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64).collect();
            let var = |v: &[f64]| {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                v.iter().map(|a| (a - mean).powi(2)).sum::<f64>()
            };
            let y = apply_scalar(&w, &x);
            prop_assert!(var(&y) <= var(&x) + 1e-9);
        }

        #[test]
        fn prop_mixing_preserves_sum(n in 4usize..30, p in 0.2f64..0.8, seed in 0u64..100) {
            let g = crate::erdos::gnp(n, p, seed);
            let w = rows_of(&MixingMatrix::metropolis_hastings(&g));
            let x: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 13) as f64).collect();
            let before: f64 = x.iter().sum();
            let after: f64 = apply_scalar(&w, &x).iter().sum();
            // weights are stored as f32, so each row carries ~1e-7 relative
            // rounding; bound the drift accordingly
            prop_assert!((before - after).abs() < 1e-3 * before.abs().max(1.0));
        }
    }
}
