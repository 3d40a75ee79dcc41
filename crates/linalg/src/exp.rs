//! [`exp_in_place`]: `exp` over a slice, with glibc's FMA `expf` bits on
//! every host.

/// Values per block: a block is all on the polynomial or all on [`expf`].
const BLOCK: usize = 64;

/// `TAB[i] = bits(2^(i/32)) − (i << 47)`, so `TAB[k mod 32] + (k << 47)`
/// is `bits(2^(k/32))` for any integer `|k| < 150·32` (glibc's table).
#[rustfmt::skip]
const TAB: [u64; 32] = [
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

/// glibc's overflow threshold, just below `ln 2^128`: `exp` of anything
/// above it is `+∞`.
const OVERFLOW: f32 = f32::from_bits(0x42b17217);

/// glibc's underflow threshold, just below `ln 2^−150`: `exp` of anything
/// below it is `+0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);

/// `x ← exp(x)` for every element, with glibc's FMA `expf` bits on every
/// host.
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
/// This kernel is a copy of the FMA build, evaluated 64 values at a time so
/// the compiler vectorizes it, compiled for AVX2 + FMA where the CPU has
/// them and as written elsewhere: every fused step is an explicit
/// `mul_add`, which rounds once in either compilation, so the bits do not
/// depend on the CPU or on the host's libm. A block of 64 holding any
/// `|x| ≥ 88`, `±∞` or NaN runs glibc's special branch per element. The
/// copy was checked equal to glibc 2.36's FMA `expf` on all 2³² inputs, and
/// that check is the ignored test `matches_libm_on_every_f32`: CI runs it on
/// its own glibc.
///
/// Never inlined: callers hold a call, not a second copy of the blocks.
#[inline(never)]
pub fn exp_in_place(xs: &mut [f32]) {
    crate::simd::with_avx2_fma(
        #[inline(always)]
        || exp_blocks(xs),
    );
}

/// [`exp_one`] over `xs`, one [`BLOCK`] at a time; a block holding any
/// `|x| ≥ 88`, `±∞` or NaN (glibc's test, `abstop ≥ top12(88)`) goes
/// through [`expf`] instead.
#[inline(always)]
fn exp_blocks(xs: &mut [f32]) {
    for block in xs.chunks_mut(BLOCK) {
        let top = block
            .iter()
            .fold(0, |m, x| m.max(x.to_bits() & 0x7fff_ffff));
        if top >= 88f32.to_bits() {
            block.iter_mut().for_each(|x| *x = expf(*x));
        } else {
            block.iter_mut().for_each(|x| *x = exp_one(*x));
        }
    }
}

/// glibc's `expf` for any `x`: its special branch (`−∞ → +0`, NaN and
/// `+∞ → x + x`, overflow to `+∞`, underflow to `+0`), then [`exp_one`].
#[inline(always)]
fn expf(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        0.0
    } else if !x.is_finite() {
        x + x
    } else if x > OVERFLOW {
        f32::INFINITY
    } else if x < UNDERFLOW {
        0.0
    } else {
        exp_one(x)
    }
}

/// glibc's FMA `expf` for `x` in `[UNDERFLOW, OVERFLOW]`: each `a·b + c` of
/// the reduction and the polynomial is one fused multiply-add. Compiled
/// without FMA, `mul_add` is libm's exactly rounded `fma`, so the bits are
/// the same.
#[inline(always)]
fn exp_one(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_32.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let r = INV_LN2_32.mul_add(xd, -(kd - SHIFT));
    let s = f64::from_bits(TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C[0].mul_add(r, C[1]).mul_add(r * r, C[2].mul_add(r, 1.0));
    (y * s) as f32
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simd::tests as table;
    use proptest::prelude::*;
    use std::hint::black_box;

    /// The two inputs where glibc's builds differ, with the FMA build's
    /// bits (the SSE2 build gives `0x11fa2992` and `0x56fc9f1b`).
    const BUILDS_DIFFER: [(u32, u32); 2] = [(0xc27c65d9, 0x11fa2993), (0x4202422f, 0x56fc9f1c)];

    /// libm's `expf(x)`, except the FMA build's bits where glibc's builds
    /// differ, so glibc's SSE2 build serves as a reference too.
    fn libm(x: f32) -> f32 {
        match BUILDS_DIFFER.iter().find(|&&(b, _)| b == x.to_bits()) {
            Some(&(_, fma)) => f32::from_bits(fma),
            // `black_box`: libm's run-time answer, not a constant fold
            None => black_box(x).exp(),
        }
    }

    /// Bitwise equality, a NaN equal to any NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `exp_in_place` against [`libm`] element by element.
    fn assert_libm(xs: &[f32]) {
        let mut got = xs.to_vec();
        exp_in_place(&mut got);
        for (&x, &y) in xs.iter().zip(&got) {
            let want = libm(x);
            assert!(
                same(y, want),
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

    #[test]
    fn the_table_is_two_to_the_i_over_32() {
        for (i, &t) in TAB.iter().enumerate() {
            let want = (i as f64 / 32.0).exp2().to_bits() - ((i as u64) << 47);
            assert_eq!(t, want, "entry {i}");
        }
    }

    /// The copy gives the FMA build's values where glibc's builds differ.
    #[test]
    fn the_copy_is_the_fma_build_where_glibcs_builds_differ() {
        for (bits, fma) in BUILDS_DIFFER {
            assert_eq!(exp_one(f32::from_bits(bits)).to_bits(), fma, "{bits:#010x}");
        }
    }

    /// Pinned bits, whatever the host's libm: the inputs where glibc's
    /// builds differ, both thresholds and their neighbours, `±∞`, NaN
    /// payloads and a few ordinary values; each alone (an ordinary value
    /// alone runs the polynomial) and all in one block of 64 (the special
    /// branch).
    #[test]
    fn exp_in_place_gives_pinned_bits_on_every_host() {
        const PINS: [(u32, u32); 17] = [
            (0xc27c65d9, 0x11fa2993),
            (0x4202422f, 0x56fc9f1c),
            (0x00000000, 0x3f800000),
            (0x80000000, 0x3f800000),
            (0x3f800000, 0x402df854),
            (0xbf800000, 0x3ebc5ab2),
            (0x42b17216, 0x7f7fff04),
            (0x42b17217, 0x7f7fff84),
            (0x42b17218, 0x7f800000),
            (0xc2cff1b3, 0x00000001),
            (0xc2cff1b4, 0x00000001),
            (0xc2cff1b5, 0x00000000),
            (0x7f800000, 0x7f800000),
            (0xff800000, 0x00000000),
            (0x7fc00000, 0x7fc00000),
            (0x7fa5a5a5, 0x7fe5a5a5),
            (0xffc00001, 0xffc00001),
        ];
        let check = |pins: &[(u32, u32)]| {
            let mut xs: Vec<f32> = pins.iter().map(|&(x, _)| f32::from_bits(x)).collect();
            exp_in_place(&mut xs);
            for (&(x, want), y) in pins.iter().zip(xs) {
                assert_eq!(y.to_bits(), want, "exp({x:#010x}) of {}", pins.len());
            }
        };
        for pin in PINS {
            check(&[pin]);
        }
        let block: Vec<(u32, u32)> = PINS.iter().copied().cycle().take(BLOCK).collect();
        check(&block);
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

    #[test]
    fn the_blocked_copy_equals_its_scalar_form_at_every_length() {
        // `exp_in_place` against `expf` per element, at every length
        // across two blocks, with and without non-finite values
        for len in 0..=130 {
            for seed in [1, 2] {
                let mut xs = values(len, seed * 1000 + len as u64);
                if seed == 1 {
                    xs.iter_mut()
                        .filter(|x| !x.is_finite())
                        .for_each(|x| *x = 0.5);
                }
                let mut got = xs.clone();
                exp_in_place(&mut got);
                for (&x, &y) in xs.iter().zip(&got) {
                    assert!(same(y, expf(x)), "exp({x:e}) of {len}");
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
                                .filter(|&(&x, &y)| !same(y, libm(x)))
                                .count();
                        }
                        misses
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(misses, 0, "inputs where exp_in_place differs from libm");
    }

    /// The rows for exp's blocks ([`ROWS`]): the pool, or the
    /// pool `FOLDED` into `(−88, 88)`, where a block runs the polynomial
    /// unless a non-finite value sits in it.
    fn row_blocks<const FOLDED: bool>(pool: &[f32], len: usize, wide: bool) -> Vec<f32> {
        // `v % 88` is `v` itself wherever `|v| < 88`
        let fold = |&v: &f32| if FOLDED { v % 88.0 } else { v };
        let mut xs: Vec<f32> = pool[table::A..][..len].iter().map(fold).collect();
        if wide {
            exp_in_place(&mut xs);
        } else {
            exp_blocks(&mut xs);
        }
        xs
    }

    /// exp's blocks, as written and through the AVX2 + FMA dispatcher.
    const ROWS: [(&str, table::Row); 2] = [
        ("exp blocks in (−88, 88)", row_blocks::<true>),
        ("exp blocks", row_blocks::<false>),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_avx2_and_baseline_blocks_agree_bitwise(
            seed in 0u64..u64::MAX,
            non_finite in 0u8..2
        ) {
            table::rows_agree_bitwise(&ROWS, seed, non_finite == 1)?;
        }
    }
}
