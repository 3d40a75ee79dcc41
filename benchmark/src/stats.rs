//! Estimators: fastest-of-K, median, quartiles, percentiles.
//!
//! On a shared host the *speed* of the machine drifts between runs (README,
//! "Estimator"), so every timed end-to-end metric is taken from the fastest
//! repeat; median and quartiles are printed beside it as dispersion.

/// Smallest value (the fastest repeat when `xs` are wall times).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 100]` by linear interpolation between closest
/// ranks; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so the spreads printed here are the
/// ones the driver computes. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |i: usize| {
        // position i·(n+1)/4 in 1-based ranks, clamped to the data
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest percentile that still has at least ten samples beyond it
/// among `n` samples, capped at `cap`; never below the median. With fewer
/// than twenty samples no tail percentile is supported and this is 50.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_and_median() {
        let xs = [3.0, 1.5, 2.0, 9.0, 2.5];
        assert_eq!(min(&xs), 1.5);
        assert_eq!(max(&xs), 9.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // two values: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 2000 samples: p99.5 has exactly ten beyond it, capped at 95
        assert_eq!(tail_percentile(2000, 95.0), 95.0);
        assert_eq!(tail_percentile(2000, 100.0), 99.5);
        // 64 samples: 54/64
        assert_eq!(tail_percentile(64, 95.0), 84.375);
        // 200 samples: exactly p95
        assert_eq!(tail_percentile(200, 95.0), 95.0);
        // too few samples for any tail
        assert_eq!(tail_percentile(19, 95.0), 50.0);
        assert_eq!(tail_percentile(20, 95.0), 50.0);
        for n in [20usize, 24, 64, 1000] {
            let p = tail_percentile(n, 100.0);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n = {n}");
        }
    }
}
