//! Reductions and summary statistics over slices.

/// Index of the maximum element (first occurrence wins); `None` when empty.
/// NaNs are ignored unless all elements are NaN, in which case index 0 is
/// returned.
pub fn argmax(x: &[f32]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    if x[0].is_nan() {
        // `v > NaN` is never true, so a NaN seed would win against
        // everything after it: scan from the first non-NaN element
        let Some(first) = x.iter().position(|v| !v.is_nan()) else {
            return Some(0);
        };
        return argmax(&x[first..]).map(|i| first + i);
    }
    let mut best = 0;
    let mut best_v = x[0];
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    Some(best)
}

/// Maximum element; `None` when empty. NaNs are ignored unless all elements
/// are NaN, in which case the first element is returned.
pub fn max(x: &[f32]) -> Option<f32> {
    argmax(x).map(|i| x[i])
}

/// Minimum element; `None` when empty.
pub fn min(x: &[f32]) -> Option<f32> {
    if x.is_empty() {
        return None;
    }
    let mut best = x[0];
    for &v in &x[1..] {
        if v < best {
            best = v;
        }
    }
    Some(best)
}

/// Mean and standard deviation in one pass over `f64` accumulators, used for
/// metrics aggregation where `f32` accumulation error would be visible across
/// hundreds of nodes.
pub fn mean_std(x: &[f32]) -> (f32, f32) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let n = x.len() as f64;
    let mut s = 0.0f64;
    let mut s2 = 0.0f64;
    for &v in x {
        let v = v as f64;
        s += v;
        s2 += v * v;
    }
    let m = s / n;
    let var = (s2 / n - m * m).max(0.0);
    (m as f32, var.sqrt() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean_basics() {
        assert_eq!(mean_std(&[1.0, 2.0, 3.0]).0, 2.0);
        assert_eq!(mean_std(&[-1.5, 1.5]).0, 0.0);
        assert_eq!(mean_std(&[]).0, 0.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(mean_std(&[5.0; 10]).1, 0.0);
        assert_eq!(mean_std(&[1.0]).1, 0.0);
    }

    #[test]
    fn variance_known_value() {
        // var([1,2,3,4]) = 1.25 (population)
        let (_, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s * s - 1.25).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_occurrence() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_and_max_ignore_nans_wherever_they_sit() {
        let nan = f32::NAN;
        // leading: `v > NaN` is never true, so a NaN seed would never lose
        assert_eq!(argmax(&[nan, 1.0]), Some(1));
        assert_eq!(max(&[nan, 1.0]), Some(1.0));
        assert_eq!(argmax(&[nan, nan, -2.0, 5.0, 5.0]), Some(3));
        // trailing and interior
        assert_eq!(argmax(&[1.0, 4.0, nan]), Some(1));
        assert_eq!(argmax(&[1.0, nan, 4.0, nan, 2.0]), Some(2));
        assert_eq!(max(&[1.0, nan, 4.0, nan, 2.0]), Some(4.0));
        assert_eq!(argmax(&[nan, f32::NEG_INFINITY]), Some(1));
        // all NaN: index 0, and `max` hands the NaN back
        assert_eq!(argmax(&[nan, nan, nan]), Some(0));
        assert!(max(&[nan, nan]).is_some_and(f32::is_nan));
        assert_eq!(argmax(&[nan]), Some(0));
    }

    #[test]
    fn degenerate_slices_give_the_documented_values() {
        assert_eq!((max(&[]), min(&[]), argmax(&[])), (None, None, None));
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.5; 9]), (3.5, 0.0));
        assert_eq!(argmax(&[2.0; 4]), Some(0), "constant: first occurrence");
        // ±0 compare equal: the first one stays
        assert_eq!(argmax(&[0.0, -0.0]), Some(0));
        assert_eq!(
            max(&[-0.0, 0.0]).map(f32::to_bits),
            Some((-0.0f32).to_bits())
        );
        assert_eq!(min(&[0.0, -0.0]).map(f32::to_bits), Some(0));
        let extremes = [f32::MAX, -f32::MAX, f32::INFINITY, f32::NEG_INFINITY];
        assert_eq!(argmax(&extremes), Some(2));
        assert_eq!(min(&extremes), Some(f32::NEG_INFINITY));
        assert_eq!(max(&extremes[..2]), Some(f32::MAX));
        // f32::MAX² overflows an f32 accumulator but not mean_std's f64 one
        let (m, s) = mean_std(&[f32::MAX, -f32::MAX]);
        assert_eq!(m, 0.0);
        assert_eq!(s, f32::MAX);
    }

    #[test]
    fn min_max_roundtrip() {
        let x = [3.0, -1.0, 7.0, 0.0];
        assert_eq!(max(&x), Some(7.0));
        assert_eq!(min(&x), Some(-1.0));
    }

    #[test]
    fn mean_std_matches_two_pass() {
        let x: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let (m, s) = mean_std(&x);
        let mean = x.iter().sum::<f32>() / x.len() as f32;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / x.len() as f32;
        assert!((m - mean).abs() < 1e-5);
        assert!((s - var.sqrt()).abs() < 1e-4);
    }
}
