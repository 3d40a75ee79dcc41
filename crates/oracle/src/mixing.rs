//! The participation mask and the mixing invariants, over plain rows.

use crate::Row;

/// The mixing restricted to the nodes `active` admits.
///
/// An inactive node keeps only itself: its row is `[(i, 1)]`. An active
/// row drops every inactive column, and its self entry becomes the sum,
/// in row order from `0`, of the weights it kept for itself: its own
/// weight and every inactive neighbour's. A row with neither a self entry
/// nor a nonzero folded weight gets no self entry.
pub fn masked(rows: &[Row], active: impl Fn(usize) -> bool) -> Vec<Row> {
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        if !active(i) {
            out.push(vec![(i as u32, 1.0)]);
            continue;
        }
        let stays_home = |j: u32| j as usize == i || !active(j as usize);
        let home = row
            .iter()
            .filter(|&&(j, _)| stays_home(j))
            .fold(0.0f32, |sum, &(_, w)| sum + w);
        let had_self = row.iter().any(|&(j, _)| j as usize == i);
        let mut kept: Row = row
            .iter()
            .copied()
            .filter(|&(j, _)| !stays_home(j))
            .collect();
        if had_self || home != 0.0 {
            kept.push((i as u32, home));
            kept.sort_by_key(|&(j, _)| j);
        }
        out.push(kept);
    }
    out
}

/// Largest deviation of any row sum or column sum from 1: zero for a
/// doubly stochastic matrix. Sums are taken in `f64`.
pub fn stochasticity_error(rows: &[Row]) -> f64 {
    let mut columns = vec![0.0f64; rows.len()];
    let mut worst = 0.0f64;
    for row in rows {
        let mut sum = 0.0f64;
        for &(j, w) in row {
            sum += w as f64;
            if let Some(column) = columns.get_mut(j as usize) {
                *column += w as f64;
            }
        }
        worst = worst.max((sum - 1.0).abs());
    }
    columns
        .into_iter()
        .fold(worst, |worst, sum| worst.max((sum - 1.0).abs()))
}

/// `W_ij`, zero when row `i` has no entry for column `j`.
fn entry(rows: &[Row], i: usize, j: usize) -> f32 {
    rows.get(i)
        .and_then(|row| row.iter().find(|&&(c, _)| c as usize == j))
        .map_or(0.0, |&(_, w)| w)
}

/// Largest `|W_ij − W_ji|`: zero for a symmetric matrix.
pub fn symmetry_error(rows: &[Row]) -> f64 {
    let mut worst = 0.0f64;
    for (i, row) in rows.iter().enumerate() {
        for &(j, w) in row {
            worst = worst.max((w - entry(rows, j as usize, i)).abs() as f64);
        }
    }
    worst
}

/// True when no entry is negative.
pub fn is_nonnegative(rows: &[Row]) -> bool {
    rows.iter().flatten().all(|&(_, w)| w >= 0.0)
}

/// `y_i = Σ_j W_ij x_j` for one scalar per node, in `f64`: a doubly
/// stochastic `W` keeps `Σ y = Σ x`.
pub fn apply_scalar(rows: &[Row], x: &[f64]) -> Vec<f64> {
    rows.iter()
        .map(|row| {
            row.iter().fold(0.0f64, |acc, &(j, w)| {
                acc + w as f64 * x.get(j as usize).copied().unwrap_or(0.0)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metropolis–Hastings on the 4-ring: every degree is 2, so every
    /// entry, self included, is 1/3.
    fn ring4() -> Vec<Row> {
        let third = 1.0f32 / 3.0;
        vec![
            vec![(0, third), (1, third), (3, third)],
            vec![(0, third), (1, third), (2, third)],
            vec![(1, third), (2, third), (3, third)],
            vec![(0, third), (2, third), (3, third)],
        ]
    }

    #[test]
    fn an_inactive_node_folds_back_into_its_neighbours_self_weights() {
        let third = 1.0f32 / 3.0;
        let m = masked(&ring4(), |i| i != 1);
        assert_eq!(m[1], vec![(1, 1.0)]);
        assert_eq!(m[0], vec![(0, third + third), (3, third)]);
        assert_eq!(m[2], vec![(2, third + third), (3, third)]);
        assert_eq!(m[3], ring4()[3], "node 3 has no inactive neighbour");
        assert!((m[0][0].1 - 2.0 / 3.0).abs() < 1e-7);
        assert!(symmetry_error(&m) < 1e-7);
        assert!(stochasticity_error(&m) < 1e-6);
        assert!(is_nonnegative(&m));
    }

    #[test]
    fn a_row_without_a_self_entry_gets_one_only_for_folded_weight() {
        let swap = vec![vec![(1, 1.0f32)], vec![(0, 1.0)]];
        assert_eq!(masked(&swap, |_| true), swap);
        assert_eq!(
            masked(&swap, |i| i == 0),
            vec![vec![(0, 1.0)], vec![(1, 1.0)]]
        );
    }

    #[test]
    fn the_invariants_read_hand_values() {
        let lopsided = vec![vec![(0, 0.5f32), (1, 0.5)], vec![(0, 0.25), (1, 0.75)]];
        assert_eq!(symmetry_error(&lopsided), 0.25);
        assert_eq!(stochasticity_error(&lopsided), 0.25);
        assert!(!is_nonnegative(&[vec![(0, -0.5f32), (1, 1.5)]]));
        assert_eq!(apply_scalar(&lopsided, &[4.0, 8.0]), vec![6.0, 7.0]);
    }
}
