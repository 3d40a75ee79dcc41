//! Softmax cross-entropy loss (the paper's training objective) and top-1
//! accuracy. Both losses run blocks of `ROWS` rows through one
//! [`exp_in_place`] call (`f32::exp` bit for bit) and sum each row in column
//! order, so they equal the per-logit libm loop the tests keep as an oracle.

use skiptrain_linalg::{exp_in_place, Matrix};

/// Rows per block, and interleaved max and sum chains.
const ROWS: usize = 8;
/// Widest column chunk of evaluation's stack block of `ROWS × COLS` floats.
const COLS: usize = 64;

/// Fused softmax + cross-entropy.
///
/// The fused formulation is numerically stable (log-sum-exp with max
/// subtraction) and has the famously simple gradient
/// `(softmax(logits) - onehot(label)) / batch`.
pub struct SoftmaxCrossEntropy {
    num_classes: usize,
}

impl SoftmaxCrossEntropy {
    /// Creates the loss for `num_classes`-way classification.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self { num_classes }
    }

    /// Computes the mean loss over the batch and writes the logit gradient.
    ///
    /// `logits` is `batch × num_classes`; `labels` holds one class id per
    /// sample; `grad` is resized to the logits shape.
    ///
    /// # Panics
    /// Panics on shape mismatch or an out-of-range label.
    pub fn loss_and_grad(&self, logits: &Matrix, labels: &[u32], grad: &mut Matrix) -> f32 {
        let (batch, c) = self.shape(logits, labels);
        crate::model::ensure_shape(grad, batch, c);
        let (inv_b, mut total) = (1.0 / batch as f32, 0.0f64);
        let grads = grad.as_mut_slice().chunks_mut(ROWS * c);
        let blocks = logits.as_slice().chunks(ROWS * c).zip(grads);
        for ((x, g), labels) in blocks.zip(labels.chunks(ROWS)) {
            let sums = exp_rows(x, labels, c, g, &mut total);
            for ((grow, &label), sum) in g.chunks_exact_mut(c).zip(labels).zip(sums) {
                grow.iter_mut().for_each(|v| *v *= 1.0 / sum * inv_b);
                grow[label as usize] -= inv_b;
            }
        }
        (total * inv_b as f64) as f32
    }

    /// Mean loss only (no gradient), for evaluation. Allocates nothing.
    pub fn loss(&self, logits: &Matrix, labels: &[u32]) -> f32 {
        let (batch, c) = self.shape(logits, labels);
        let (mut total, mut block) = (0.0f64, [0.0f32; ROWS * COLS]);
        for (x, labels) in logits.as_slice().chunks(ROWS * c).zip(labels.chunks(ROWS)) {
            exp_rows(x, labels, c, &mut block, &mut total);
        }
        (total / batch as f64) as f32
    }

    /// `(batch, num_classes)`, once the shapes agree.
    fn shape(&self, logits: &Matrix, labels: &[u32]) -> (usize, usize) {
        let c = self.num_classes;
        assert_eq!(logits.cols(), c, "logit width != num_classes");
        assert_eq!(labels.len(), logits.rows(), "labels length != batch");
        assert!(!labels.is_empty(), "empty batch");
        (labels.len(), c)
    }
}

/// One block, the `labels.len() ≤ ROWS` rows of `x` (`c` wide): adds each
/// row's loss to `total`, returns its `Σ exp(v − max)`, leaves `out` holding
/// the last column chunk's `exp(v − max)`. Spare lanes shadow the last row.
fn exp_rows(x: &[f32], labels: &[u32], c: usize, out: &mut [f32], total: &mut f64) -> [f32; ROWS] {
    let (last, mut max) = (labels.len() - 1, [f32::NEG_INFINITY; ROWS]);
    for j in 0..c {
        for (r, m) in max.iter_mut().enumerate() {
            let v = x[r.min(last) * c + j];
            *m = if v > *m { v } else { *m };
        }
    }
    let (mut sums, width) = ([0.0f32; ROWS], (out.len() / labels.len()).min(c));
    for j0 in (0..c).step_by(width) {
        let w = width.min(c - j0);
        let out = &mut out[..labels.len() * w];
        for ((o, x), m) in out.chunks_exact_mut(w).zip(x.chunks(c)).zip(max) {
            o.iter_mut().zip(&x[j0..]).for_each(|(o, v)| *o = v - m);
        }
        exp_in_place(out);
        for j in 0..w {
            for (r, s) in sums.iter_mut().enumerate() {
                *s += out[r.min(last) * w + j];
            }
        }
    }
    for (r, &label) in labels.iter().enumerate() {
        assert!((label as usize) < c, "label {label} out of range");
        *total += -((x[r * c + label as usize] - max[r]) as f64 - (sums[r] as f64).ln());
    }
    sums
}

/// Fraction of samples whose argmax logit equals the label (top-1 accuracy).
///
/// # Panics
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[u32]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "labels length != batch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        if skiptrain_linalg::reduce::argmax(row) == Some(label as usize) {
            correct += 1;
        }
    }
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-logit libm loop `loss_and_grad` ran before the block path:
    /// the oracle it must equal bit for bit.
    fn oracle_loss_and_grad(logits: &Matrix, labels: &[u32], grad: &mut Matrix) -> f32 {
        let batch = logits.rows();
        *grad = Matrix::zeros(batch, logits.cols());
        let inv_b = 1.0 / batch as f32;
        let mut total = 0.0f64;
        for (r, &raw_label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let label = raw_label as usize;
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum_exp = 0.0f32;
            let grow = grad.row_mut(r);
            for (g, &v) in grow.iter_mut().zip(row) {
                let e = (v - max).exp();
                *g = e;
                sum_exp += e;
            }
            let inv_sum = 1.0 / sum_exp;
            for g in grow.iter_mut() {
                *g *= inv_sum * inv_b;
            }
            grow[label] -= inv_b;
            total += -((row[label] - max) as f64 - (sum_exp as f64).ln());
        }
        (total * inv_b as f64) as f32
    }

    /// The per-logit libm loop `loss` ran before the block path.
    fn oracle_loss(logits: &Matrix, labels: &[u32]) -> f32 {
        let mut total = 0.0f64;
        for (r, &raw_label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let label = raw_label as usize;
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let sum_exp: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            total += -((row[label] - max) as f64 - (sum_exp as f64).ln());
        }
        (total / logits.rows() as f64) as f32
    }

    /// Bitwise equality, a NaN equal to any NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Logits and labels for `rows × classes`, from `seed`. `specials`
    /// logits in 256 are ±0, ±∞, NaN or `|x| ≥ 88`; every third row
    /// repeats its first logit at a second place, which then ties for the
    /// maximum when that logit is largest; every fifth row is `±0` and
    /// negatives only, so its maximum is a zero of either sign.
    fn batch(rows: usize, classes: usize, specials: u64, seed: u64) -> (Matrix, Vec<u32>) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut logits = Matrix::zeros(rows, classes);
        let mut labels = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = logits.row_mut(r);
            for v in row.iter_mut() {
                let z = next();
                let unit = (z >> 40) as f32 / (1u64 << 24) as f32;
                *v = if z & 0xff < specials {
                    match (z >> 8) % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f32::INFINITY,
                        3 => f32::NEG_INFINITY,
                        4 => f32::NAN,
                        5 => 88.0 + 100.0 * unit,
                        _ => -88.0 - 100.0 * unit,
                    }
                } else {
                    24.0 * unit - 12.0
                };
            }
            if r % 5 == 4 {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = if j % 3 == 0 {
                        [0.0, -0.0][j % 2]
                    } else {
                        -v.abs()
                    };
                }
            }
            if r % 3 == 0 {
                row[(next() % classes as u64) as usize] = row[0];
            }
            labels.push((next() % classes as u64) as u32);
        }
        (logits, labels)
    }

    #[test]
    fn block_path_equals_the_per_logit_loop_bit_for_bit() {
        // batch 1–40 straddles the 8-row block, classes 2–70 the 64-value
        // exp block and (at 65–70, full blocks) evaluation's column chunk
        let (mut grad, mut want_grad) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for rows in 1..=40 {
            for classes in 2..=70 {
                let loss = SoftmaxCrossEntropy::new(classes);
                for specials in [0, 3, 40] {
                    let seed = (rows * 1000 + classes) as u64 * 7 + specials;
                    let (logits, labels) = batch(rows, classes, specials, seed);
                    let what = format!("{rows}x{classes}, specials {specials}");
                    let (got, want) = (
                        loss.loss_and_grad(&logits, &labels, &mut grad),
                        oracle_loss_and_grad(&logits, &labels, &mut want_grad),
                    );
                    assert!(same(got, want), "loss_and_grad {what}: {got} vs {want}");
                    let grads = grad.as_slice().iter().zip(want_grad.as_slice());
                    for (i, (&g, &w)) in grads.enumerate() {
                        assert!(same(g, w), "grad[{i}] {what}: {g} vs {w}");
                    }
                    let (got, want) = (loss.loss(&logits, &labels), oracle_loss(&logits, &labels));
                    assert!(same(got, want), "loss {what}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn evaluation_loss_equals_the_per_logit_loop_up_to_600_rows() {
        // classes past evaluation's 64-column chunk take several chunks
        for rows in 1..=600 {
            let classes = [2, 3, 10, 47, 63, 64, 65, 70, 129, 200][rows % 10];
            let loss = SoftmaxCrossEntropy::new(classes);
            for specials in [0, 3] {
                let (logits, labels) = batch(rows, classes, specials, rows as u64 ^ specials << 32);
                let (got, want) = (loss.loss(&logits, &labels), oracle_loss(&logits, &labels));
                assert!(
                    same(got, want),
                    "{rows}x{classes}, specials {specials}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let loss = SoftmaxCrossEntropy::new(4);
        let logits = Matrix::zeros(3, 4);
        let labels = [0u32, 1, 2];
        let mut grad = Matrix::zeros(0, 0);
        let l = loss.loss_and_grad(&logits, &labels, &mut grad);
        assert!((l - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let loss = SoftmaxCrossEntropy::new(3);
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let labels = [2u32, 0];
        let mut grad = Matrix::zeros(0, 0);
        loss.loss_and_grad(&logits, &labels, &mut grad);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let loss = SoftmaxCrossEntropy::new(2);
        let logits = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        let l = loss.loss(&logits, &[0]);
        assert!(l < 1e-3, "loss {l} not small");
        let l_wrong = loss.loss(&logits, &[1]);
        assert!(l_wrong > 5.0, "wrong-label loss {l_wrong} not large");
    }

    #[test]
    fn loss_is_shift_invariant() {
        let loss = SoftmaxCrossEntropy::new(3);
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        assert!((loss.loss(&a, &[1]) - loss.loss(&b, &[1])).abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = SoftmaxCrossEntropy::new(3);
        let base = vec![0.3f32, -0.2, 0.9];
        let labels = [1u32];
        let mut grad = Matrix::zeros(0, 0);
        loss.loss_and_grad(&Matrix::from_vec(1, 3, base.clone()), &labels, &mut grad);
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut plus = base.clone();
            plus[j] += eps;
            let mut minus = base.clone();
            minus[j] -= eps;
            let lp = loss.loss(&Matrix::from_vec(1, 3, plus), &labels);
            let lm = loss.loss(&Matrix::from_vec(1, 3, minus), &labels);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.row(0)[j]).abs() < 1e-3,
                "logit {j}: numeric {num} vs analytic {}",
                grad.row(0)[j]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Matrix::from_vec(3, 2, vec![2.0, 1.0, 0.0, 5.0, 1.0, 1.5]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        let loss = SoftmaxCrossEntropy::new(2);
        let logits = Matrix::zeros(1, 2);
        let mut grad = Matrix::zeros(0, 0);
        loss.loss_and_grad(&logits, &[5], &mut grad);
    }
}
