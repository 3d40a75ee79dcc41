//! The Gaussian sampler every synthetic dataset is drawn from.
//!
//! Streams come from [`skiptrain_linalg::rng::derive_seed`], so a dataset
//! depends on its seed and stream index alone, never on a global RNG.

use rand::rngs::SmallRng;
use rand::RngExt;
use skiptrain_linalg::rng::stream_rng;

/// Standard normal sampler using the Box–Muller transform.
///
/// `rand` alone only provides uniform sampling; rather than pulling in
/// `rand_distr`, the two-value Box–Muller recurrence is implemented here and
/// caches its spare value.
pub struct GaussianSampler {
    rng: SmallRng,
    spare: Option<f32>,
}

impl GaussianSampler {
    /// Creates a sampler on a derived stream (see
    /// [`derive_seed`](skiptrain_linalg::rng::derive_seed)).
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        Self {
            rng: stream_rng(seed, stream),
            spare: None,
        }
    }

    /// Draws one sample from `N(0, 1)`.
    pub fn sample(&mut self) -> f32 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let (r, theta) = self.polar();
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Advances the stream past `k` samples: the same uniform draws and
    /// the same spare as `k` calls of [`sample`](Self::sample), without
    /// the transcendentals of the pairs whose values are never read.
    pub fn skip(&mut self, mut k: usize) {
        if k > 0 && self.spare.take().is_some() {
            k -= 1;
        }
        for _ in 0..k / 2 {
            self.rng.random::<f32>();
            self.rng.random::<f32>();
        }
        if k % 2 == 1 {
            let (r, theta) = self.polar();
            self.spare = Some(r * theta.sin());
        }
    }

    /// One Box–Muller pair's radius and angle: u1 in (0,1], u2 in [0,1).
    fn polar(&mut self) -> (f32, f32) {
        let u1: f32 = 1.0 - self.rng.random::<f32>();
        let u2: f32 = self.rng.random::<f32>();
        ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f32::consts::PI * u2)
    }

    /// Fills `out` with i.i.d. `N(0, 1)` samples.
    pub fn fill(&mut self, out: &mut [f32]) {
        for v in out {
            *v = self.sample();
        }
    }

    /// Access to the underlying uniform RNG (for mixed workloads).
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skiptrain_linalg::reduce::mean_std;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut g = GaussianSampler::for_stream(7, 0);
        let xs: Vec<f32> = (0..20_000).map(|_| g.sample()).collect();
        let (mean, std) = mean_std(&xs);
        assert!(mean.abs() < 0.03, "mean {mean} too far from 0");
        assert!((std - 1.0).abs() < 0.03, "std {std} too far from 1");
    }

    #[test]
    fn gaussian_tail_mass_is_bounded() {
        let mut g = GaussianSampler::for_stream(11, 0);
        let beyond_3: usize = (0..50_000).filter(|_| g.sample().abs() > 3.0).count();
        // P(|Z| > 3) ≈ 0.27%; allow generous slack.
        assert!(beyond_3 < 500, "too many 3-sigma outliers: {beyond_3}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = GaussianSampler::for_stream(99, 3);
        let mut b = GaussianSampler::for_stream(99, 3);
        for _ in 0..100 {
            assert_eq!(a.sample().to_bits(), b.sample().to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_skip_then_sample_is_k_plus_one_samples_bitwise(
            seed in 0u64..u64::MAX,
            stream in 0u64..1024,
            k in 0usize..70,
            spare_first in 0u8..2
        ) {
            // one sample first leaves a spare behind; none leaves the
            // sampler at a pair boundary
            let mut sampled = GaussianSampler::for_stream(seed, stream);
            let mut skipped = GaussianSampler::for_stream(seed, stream);
            if spare_first == 1 {
                prop_assert_eq!(sampled.sample().to_bits(), skipped.sample().to_bits());
                prop_assert!(skipped.spare.is_some());
            }
            for _ in 0..k {
                sampled.sample();
            }
            skipped.skip(k);
            prop_assert_eq!(sampled.spare.map(f32::to_bits), skipped.spare.map(f32::to_bits));
            prop_assert_eq!(sampled.sample().to_bits(), skipped.sample().to_bits());
            // the uniform stream is in step too, not only the spare
            prop_assert_eq!(
                sampled.rng_mut().random::<u64>(),
                skipped.rng_mut().random::<u64>()
            );
        }
    }
}
