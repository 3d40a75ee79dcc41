//! The one place the workspace picks a compilation, and its library `unsafe`:
//! a kernel worth a wider build, here or in `skiptrain-data`, is an
//! `#[inline(always)]` body run through a dispatcher here. No intrinsics, so
//! both compilations agree bit for bit; each module's tests check its own.

/// Runs `f` compiled for AVX2 when the CPU has it, as written otherwise:
/// the GEMM tiles, the weighted-sum groups and the codec kernels. Callers
/// pass an `#[inline(always)]` closure around an `#[inline(always)]` kernel
/// body, so `wide` holds a second compilation (no FMA: the same separate
/// multiply and add in the same order). `#[inline]` gives each caller's
/// codegen unit its own `wide`, beside the closures the body calls.
#[inline(always)]
pub(crate) fn with_avx2<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn wide<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `wide` requires only that the CPU supports AVX2,
            // which `is_x86_feature_detected!("avx2")` just confirmed.
            return unsafe { wide(f) };
        }
    }
    f()
}

/// `with_avx2` for a body whose only fused operations are its explicit
/// `mul_add`s (exp's and the Gaussian sampler's blocks): compiled for
/// AVX2 and FMA where the CPU has both. Rust rounds a `mul_add` once in
/// either compilation (libm's `fma` in the baseline), so the bits agree.
#[inline(always)]
pub fn with_avx2_fma<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn wide<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `wide` requires only that the CPU supports AVX2 and
            // FMA, which the two checks just confirmed.
            return unsafe { wide(f) };
        }
    }
    f()
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    /// The next float of the stream `state`, drawn to expose a changed
    /// order of operations or a sign-of-zero slip: ±0, subnormals,
    /// magnitudes whose products absorb or cancel one another (`1e17`,
    /// `1e−20`; forty products of them stay finite), ordinary values in
    /// `(−8, 8)`, and, when `non_finite`, NaN, ±∞, ±`f32::MAX` and
    /// arbitrary bit patterns (1 in 16).
    pub(crate) fn hostile(state: &mut u64, non_finite: bool) -> f32 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 40) as f32 / (1u64 << 24) as f32;
        let v = match (z >> 1) % 64 {
            0..=5 => 0.0,
            6..=11 => f32::from_bits(1 + ((z >> 8) as u32 & 0x007f_fffe)),
            12..=19 => unit * 1e17,
            20..=27 => unit * 1e-20,
            60 if non_finite => f32::NAN,
            61 if non_finite => f32::INFINITY,
            62 if non_finite => f32::MAX,
            63 if non_finite => f32::from_bits((z >> 32) as u32),
            _ => unit * 8.0,
        };
        if z & 1 == 0 {
            v
        } else {
            -v
        }
    }

    /// `len` values of [`hostile`] from `seed`.
    pub(crate) fn hostile_vec(len: usize, seed: u64, non_finite: bool) -> Vec<f32> {
        let mut state = seed;
        (0..len).map(|_| hostile(&mut state, non_finite)).collect()
    }

    /// The longest tail the rows walk, and the widest `n` of its GEMM
    /// shapes.
    pub(crate) const TAILS: usize = 80;

    /// Where the rows read the pool: three disjoint spans, then scalars
    /// (weights, β, a map).
    pub(crate) const A: usize = 0;
    pub(crate) const B: usize = 200;
    pub(crate) const C: usize = 1600;
    pub(crate) const PARAMS: usize = 2400;
    const POOL: usize = 2410;

    /// A row: a twice-compiled kernel on the pool at tail length `len`, its
    /// outputs as written (`wide` false; tests compile for the baseline) or
    /// through its dispatcher. The tests of each module define the rows of
    /// its kernels and check them with [`rows_agree_bitwise`].
    pub(crate) type Row = fn(&[f32], usize, bool) -> Vec<f32>;

    /// Bits, with every NaN as one: which NaN operand an add propagates is
    /// not specified, and a compilation may commute an add.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Every row of `rows`, at every tail length below [`TAILS`] on the
    /// [`hostile`] pool of `seed`, gives the bits of its baseline.
    pub(crate) fn rows_agree_bitwise(
        rows: &[(&str, Row)],
        seed: u64,
        non_finite: bool,
    ) -> Result<(), TestCaseError> {
        let pool = hostile_vec(POOL, seed, non_finite);
        for &(name, row) in rows {
            for len in 0..TAILS {
                let (base, wide) = (row(&pool, len, false), row(&pool, len, true));
                prop_assert!(bits(&base) == bits(&wide), "{name} at tail {len}");
            }
        }
        Ok(())
    }
}
