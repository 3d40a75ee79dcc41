//! [`exp_in_place`]: `exp` over a slice, with glibc's `expf` bits.

/// `x ← exp(x)` for every element: `f32::exp`'s bits where libm is a glibc
/// `expf` checked as below, and `f32::exp` itself everywhere else.
///
/// glibc (2.27 and later) computes `expf(x)` as ARM's optimized-routines
/// do. In `f64`: `z = x·32/ln 2`; adding `0x1.8p52` rounds `z` to the
/// integer `k` held in the low bits of the sum; `r = z − k ∈ [−½, ½]`; and
/// `exp(x) = 2^(k/32)·2^(r/32) ≈ s·((C0·r + C1)·r² + (C2·r + 1))`, where
/// `s = 2^(k/32)` is a 32-entry table entry with `k div 32` added to its
/// exponent bits. One rounding to `f32` ends it. On `x86_64` glibc builds
/// it twice and picks one build per CPU: with fused multiply-adds where the
/// CPU has AVX2 and FMA, with separate multiplies and adds (SSE2) otherwise.
/// The two differ on two of the 2³² inputs.
///
/// This kernel copies the FMA build and evaluates it 64 values at a time so
/// the compiler vectorizes it. The copy runs only on `x86_64` glibc targets,
/// on a CPU with AVX2 and FMA, and once libm's `expf` has agreed with it on
/// a dozen probe inputs, the first of them one where the SSE2 build differs
/// (asked once per process). Anywhere else this is `f32::exp` per element.
///
/// The probes tell glibc's two builds apart; they cannot catch a libm that
/// rounds some rare input differently. The copy was checked equal to glibc
/// 2.36's FMA `expf` on all 2³² inputs, and that check is the ignored test
/// `matches_libm_on_every_f32`: CI runs it on its own glibc, and it must be
/// rerun whenever glibc changes.
///
/// glibc leaves `|x| ≥ 88`, `±∞` and NaN to a special branch (overflow,
/// underflow, `x + x`): a block of 64 holding any of them goes through
/// `f32::exp` element by element.
pub fn exp_in_place(xs: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    if glibc::fma_build_is_libm() {
        // SAFETY: `fma_build_is_libm` holds only where
        // `is_x86_feature_detected!` found AVX2 and FMA, the features
        // `exp_fma` is compiled for.
        return unsafe { glibc::exp_fma(xs) };
    }
    xs.iter_mut().for_each(|x| *x = x.exp());
}

/// The copy of glibc's FMA `expf` build.
#[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
mod glibc {
    use std::sync::OnceLock;

    /// Values per block: a block is all on the polynomial or all on
    /// `f32::exp`.
    pub(super) const BLOCK: usize = 64;

    /// `TAB[i] = bits(2^(i/32)) − (i << 47)`, so `TAB[k mod 32] + (k << 47)`
    /// is `bits(2^(k/32))` for any integer `|k| < 150·32` (glibc's table).
    #[rustfmt::skip]
    pub(super) const TAB: [u64; 32] = [
        0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
        0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
        0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
        0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
        0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
        0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
        0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
    ];

    /// `32 / ln 2`.
    const INV_LN2_32: f64 = f64::from_bits(0x40471547652b82fe);

    /// `0x1.8p52`: adding it rounds an `f64` below `2^51` to an integer.
    const SHIFT: f64 = f64::from_bits(0x4338000000000000);

    /// `2^(r/32) ≈ C[0]·r³ + C[1]·r² + C[2]·r + 1` on `r ∈ [−½, ½]`.
    const C: [f64; 3] = [
        f64::from_bits(0x3ebc6af84b912394),
        f64::from_bits(0x3f2ebfce50fac4f3),
        f64::from_bits(0x3f962e42ff0c52d6),
    ];

    /// Inputs libm is checked against the copy on: the two where glibc's
    /// builds differ first, then values across the polynomial's range.
    const PROBES: [u32; 12] = [
        0xc27c65d9, 0x4202422f, 0x3f800000, 0xbf800000, 0x3f000000, 0x41200000, 0xc1200000,
        0x42afffff, 0xc2afffff, 0x33d6bf95, 0x3e9a209b, 0xc0490fdb,
    ];

    /// Whether the CPU has AVX2 and FMA (glibc's own condition for its FMA
    /// build) and libm's `expf` equals [`exp_one`] on every probe, asked
    /// once per process.
    pub(super) fn fma_build_is_libm() -> bool {
        static FMA_BUILD: OnceLock<bool> = OnceLock::new();
        *FMA_BUILD.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
                && PROBES.iter().all(|&b| {
                    let x = f32::from_bits(b);
                    // `black_box`: the reference is libm's run-time answer,
                    // not a compile-time constant fold.
                    exp_one(x).to_bits() == std::hint::black_box(x).exp().to_bits()
                })
        })
    }

    /// [`exp_one`] over `xs`, one [`BLOCK`] at a time, compiled for AVX2 +
    /// FMA as glibc's FMA build is; a block holding any `|x| ≥ 88`, `±∞` or
    /// NaN (glibc's test, `abstop ≥ top12(88)`) goes through `f32::exp`
    /// instead.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn exp_fma(xs: &mut [f32]) {
        for block in xs.chunks_mut(BLOCK) {
            let top = block
                .iter()
                .fold(0, |m, x| m.max(x.to_bits() & 0x7fff_ffff));
            if top >= 88f32.to_bits() {
                block.iter_mut().for_each(|x| *x = x.exp());
            } else {
                block.iter_mut().for_each(|x| *x = exp_one(*x));
            }
        }
    }

    /// glibc's FMA `expf` for `|x| < 88`: each `a·b + c` of the reduction
    /// and the polynomial is one fused multiply-add. Outside `exp_fma`,
    /// `mul_add` is libm's exactly rounded `fma`, so the bits are the same.
    #[inline(always)]
    pub(super) fn exp_one(x: f32) -> f32 {
        let xd = f64::from(x);
        let kd = INV_LN2_32.mul_add(xd, SHIFT);
        let ki = kd.to_bits();
        let r = INV_LN2_32.mul_add(xd, -(kd - SHIFT));
        let s = f64::from_bits(TAB[(ki % 32) as usize].wrapping_add(ki << 47));
        let y = C[0].mul_add(r, C[1]).mul_add(r * r, C[2].mul_add(r, 1.0));
        (y * s) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// `exp_in_place` against `f32::exp` element by element, by bits, a
    /// NaN equal to any NaN.
    fn assert_libm(xs: &[f32]) {
        let mut got = xs.to_vec();
        exp_in_place(&mut got);
        for (&x, &y) in xs.iter().zip(&got) {
            let want = black_box(x).exp();
            assert!(
                y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                "exp({x:e} = {:#010x}) = {:#010x}, libm {:#010x}",
                x.to_bits(),
                y.to_bits(),
                want.to_bits()
            );
        }
    }

    /// A deterministic stream of values in `(−100, 100)`, a few of them
    /// special.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32;
                match (state >> 20) % 97 {
                    0 => f32::NAN,
                    1 => f32::NEG_INFINITY,
                    2 => -0.0,
                    _ => 200.0 * unit - 100.0,
                }
            })
            .collect()
    }

    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    #[test]
    fn the_table_is_two_to_the_i_over_32() {
        for (i, &t) in glibc::TAB.iter().enumerate() {
            let want = (i as f64 / 32.0).exp2().to_bits() - ((i as u64) << 47);
            assert_eq!(t, want, "entry {i}");
        }
    }

    /// The copy gives the FMA build's values where glibc's builds differ
    /// (the SSE2 build gives `0x11fa2992` and `0x56fc9f1b`).
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    #[test]
    fn the_copy_is_the_fma_build_where_glibcs_builds_differ() {
        for (bits, fma) in [(0xc27c65d9u32, 0x11fa2993u32), (0x4202422f, 0x56fc9f1c)] {
            assert_eq!(
                glibc::exp_one(f32::from_bits(bits)).to_bits(),
                fma,
                "{bits:#010x}"
            );
        }
    }

    /// The copy runs exactly where libm is glibc's FMA build on an AVX2 +
    /// FMA CPU. Under `GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`, glibc
    /// uses its SSE2 build, so the kernel must fall back to `f32::exp`; the
    /// printed line says which ran.
    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    #[test]
    fn the_copy_runs_exactly_where_libm_is_glibcs_fma_build() {
        let libm = black_box(f32::from_bits(0xc27c65d9)).exp().to_bits();
        assert!(
            libm == 0x11fa2993 || libm == 0x11fa2992,
            "libm's expf is neither glibc build: {libm:#010x}"
        );
        let cpu = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        let copy = glibc::fma_build_is_libm();
        println!("exp kernel: {}", if copy { "FMA copy" } else { "f32::exp" });
        assert_eq!(copy, cpu && libm == 0x11fa2993, "libm gives {libm:#010x}");
    }

    #[test]
    fn matches_libm_on_every_4099th_bit_pattern() {
        let sweep: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        assert_libm(&sweep);
    }

    #[test]
    fn matches_libm_at_special_and_boundary_inputs() {
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 88.0, -88.0];
        // subnormal inputs and NaN payloads (quiet, signalling, negative)
        xs.extend(
            [
                1, 0x7fffff, 0x400000, 0x80000001, 0x807fffff, 0x7fc00000, 0xffc00000, 0x7f800001,
                0x7fa5a5a5, 0xffffffff,
            ]
            .map(f32::from_bits),
        );
        // the overflow and underflow thresholds, ±88, the edge of a
        // normal result (2^−126) and of a subnormal one (2^−149), the two
        // inputs glibc's builds differ on: each with 32 neighbours either side
        for centre in [
            0x42b17217u32,
            0xc2cff1b4,
            0x42b00000,
            0xc2b00000,
            0xc2aeac50,
            0xc2ce8ed0,
            0xc27c65d9,
            0x4202422f,
        ] {
            xs.extend((centre - 32..=centre + 32).map(f32::from_bits));
        }
        assert_libm(&xs);
        // and each alone, so no block's other values decide its path
        for &x in &xs {
            assert_libm(&[x]);
        }
        assert_libm(&values(4000, 7));
    }

    #[cfg(all(target_arch = "x86_64", target_env = "gnu"))]
    #[test]
    fn the_blocked_copy_equals_its_scalar_form_at_every_length() {
        // `exp_fma` against `exp_one` called per element of each 64-value
        // block without a special value, and `f32::exp` in the others
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return;
        }
        for len in 0..=130 {
            for seed in [1, 2] {
                let xs = values(len, seed * 1000 + len as u64);
                // special values only in the second seed's blocks
                let xs: Vec<f32> = if seed == 1 {
                    xs.iter()
                        .map(|x| if x.is_finite() { *x } else { 0.5 })
                        .collect()
                } else {
                    xs
                };
                let mut got = xs.clone();
                // SAFETY: the CPU has AVX2 and FMA, checked above.
                unsafe { glibc::exp_fma(&mut got) };
                let mut want = xs.clone();
                for block in want.chunks_mut(glibc::BLOCK) {
                    let special = block.iter().any(|x| x.abs() >= 88.0 || x.is_nan());
                    for x in block {
                        *x = if special { x.exp() } else { glibc::exp_one(*x) };
                    }
                }
                for ((&x, &y), &w) in xs.iter().zip(&got).zip(&want) {
                    assert!(
                        y.to_bits() == w.to_bits() || (y.is_nan() && w.is_nan()),
                        "exp({x:e}) of {len}"
                    );
                }
                assert_libm(&xs);
            }
        }
    }

    /// Every `f32`, in slices of 2¹⁶ over the available cores: ≈ 22 s on
    /// two cores in release (`cargo test --release -p skiptrain-linalg --
    /// --ignored`).
    #[test]
    #[ignore = "all 2^32 inputs; run in release"]
    fn matches_libm_on_every_f32() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let misses: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut misses = 0;
                        for hi in (w..1 << 16).step_by(workers as usize) {
                            let xs: Vec<f32> = (0..1u32 << 16)
                                .map(|lo| f32::from_bits(hi << 16 | lo))
                                .collect();
                            let mut got = xs.clone();
                            exp_in_place(&mut got);
                            misses += xs
                                .iter()
                                .zip(&got)
                                .filter(|&(&x, &y)| {
                                    let want = x.exp();
                                    y.to_bits() != want.to_bits() && !(y.is_nan() && want.is_nan())
                                })
                                .count();
                        }
                        misses
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(misses, 0, "inputs where exp_in_place differs from f32::exp");
    }
}
