//! Deterministic random sampling helpers.
//!
//! The simulator requires reproducibility across runs *and* across thread
//! counts, so every random stream in the workspace is derived from explicit
//! 64-bit seeds via [`derive_seed`]; nothing ever touches a global RNG.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Derives an independent child seed from a parent seed and a stream index.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mix — child
/// streams for different `(seed, stream)` pairs are uncorrelated in practice.
#[inline]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convenience: a [`SmallRng`] for a derived stream.
#[inline]
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, stream))
}

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
    /// Creates a sampler on a derived stream (see [`derive_seed`]).
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
        // Box–Muller: u1 in (0,1], u2 in [0,1)
        let u1: f32 = 1.0 - self.rng.random::<f32>();
        let u2: f32 = self.rng.random::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
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
    use crate::reduce::mean_std;

    #[test]
    fn derive_seed_differs_per_stream() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // deterministic
        assert_eq!(a, derive_seed(42, 0));
    }

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
}
