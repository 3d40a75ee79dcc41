//! Deterministic random sampling helpers.
//!
//! The simulator requires reproducibility across runs *and* across thread
//! counts, so every random stream in the workspace is derived from explicit
//! 64-bit seeds via [`derive_seed`]; nothing ever touches a global RNG.

use rand::rngs::SmallRng;
use rand::SeedableRng;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
