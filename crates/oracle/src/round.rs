//! One dense mixing round, the naive way.

use crate::Row;

/// Every node's model after one mixing round over `half`, the half-step
/// models `x^{t−½}` (Algorithms 1–2: a training node's model after its
/// local steps, a sync-only node's model as it was).
///
/// Receiver `i` walks its row in order and builds a list of terms: its
/// self entry where the row has it, then each neighbour `j` whose message
/// `arrived(j, i)`. The weight of every message that did not arrive is
/// added to the self term, which is appended at the end of the list when
/// the row has no self entry. The output starts as the first term's
/// weight times its model (a scaled copy) and adds each further term as
/// `out += w · x` in list order. With `gamma ≠ 1` every coordinate is
/// then blended back toward the receiver's own half-step model:
/// `b + γ (o − b)`.
///
/// Fresh vectors throughout, one receiver at a time.
pub fn mix(
    half: &[Vec<f32>],
    rows: &[Row],
    arrived: impl Fn(usize, usize) -> bool,
    gamma: f32,
) -> Vec<Vec<f32>> {
    let mut next = Vec::with_capacity(half.len());
    for (i, (row, own)) in rows.iter().zip(half).enumerate() {
        let mut terms: Vec<(usize, f32)> = Vec::new();
        let (mut fallback, mut self_at) = (0.0f32, None);
        for &(j, w) in row {
            let j = j as usize;
            if j == i {
                self_at = Some(terms.len());
                terms.push((i, w));
            } else if arrived(j, i) {
                terms.push((j, w));
            } else {
                fallback += w;
            }
        }
        match self_at.and_then(|at| terms.get_mut(at)) {
            Some(term) => term.1 += fallback,
            None if fallback > 0.0 => terms.push((i, fallback)),
            None => {}
        }
        let mut out = vec![0.0f32; own.len()];
        for (k, &(j, w)) in terms.iter().enumerate() {
            for (o, &x) in out.iter_mut().zip(&half[j]) {
                if k == 0 {
                    *o = w * x;
                } else {
                    *o += w * x;
                }
            }
        }
        if gamma != 1.0 {
            for (o, &b) in out.iter_mut().zip(own) {
                *o = b + gamma * (*o - b);
            }
        }
        next.push(out);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_nodes_average_then_blend_halfway_back() {
        let rows = vec![vec![(0, 0.5f32), (1, 0.5)], vec![(0, 0.5), (1, 0.5)]];
        let half = vec![vec![1.0f32, -2.0], vec![3.0, 6.0]];
        let mixed = mix(&half, &rows, |_, _| true, 1.0);
        assert_eq!(mixed, vec![vec![2.0, 2.0], vec![2.0, 2.0]]);
        let blended = mix(&half, &rows, |_, _| true, 0.5);
        assert_eq!(blended, vec![vec![1.5, 0.0], vec![2.5, 4.0]]);
    }

    #[test]
    fn a_swap_without_self_entries_appends_the_fallback_weight() {
        let swap = vec![vec![(1, 1.0f32)], vec![(0, 1.0)]];
        let half = vec![vec![1.0f32, 2.0], vec![5.0, 7.0]];
        let swapped = mix(&half, &swap, |_, _| true, 1.0);
        assert_eq!(swapped, vec![vec![5.0, 7.0], vec![1.0, 2.0]]);
        // 1 → 0 is lost: node 0's whole weight falls back onto itself
        let lost = mix(&half, &swap, |src, _| src == 0, 1.0);
        assert_eq!(lost, vec![vec![1.0, 2.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn a_lost_message_folds_its_weight_into_an_existing_self_entry() {
        let rows = vec![
            vec![(0, 0.5f32), (1, 0.25), (2, 0.25)],
            vec![(1, 1.0)],
            vec![(2, 1.0)],
        ];
        let half = vec![vec![4.0f32], vec![8.0], vec![16.0]];
        // 2 → 0 is lost: node 0 mixes 0.75 · 4 + 0.25 · 8
        let next = mix(&half, &rows, |src, _| src != 2, 1.0);
        assert_eq!(next, vec![vec![5.0], vec![8.0], vec![16.0]]);
    }
}
