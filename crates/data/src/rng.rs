//! The Gaussian sampler every synthetic dataset is drawn from.
//!
//! Streams come from [`skiptrain_linalg::rng::derive_seed`], so a dataset
//! depends on its seed and stream index alone, never on a global RNG. A
//! row's Gaussians are one block: its uniforms in stream order, then every
//! Box–Muller pair in one pass through [`with_avx2_fma`], with a copy of
//! glibc's `sinf`/`cosf` that gives glibc's bits on every host.

use rand::rngs::SmallRng;
use rand::RngExt;
use skiptrain_linalg::rng::stream_rng;
use skiptrain_linalg::simd::with_avx2_fma;

/// Box–Muller pairs per block: 256 B of uniforms on the stack.
const PAIRS: usize = 32;

/// `2^24 · 2/π`, `π/2` and the `sin` (`S`) and `cos` (`C`) polynomials of
/// glibc's `sinf`/`cosf` (its `__sincosf_table`).
const HPI_INV: f64 = f64::from_bits(0x41645f306dc9c883);
const HPI: f64 = f64::from_bits(0x3ff921fb54442d18);
const S: [u64; 3] = [0xbfc555545995a603, 0x3f81107605230bc4, 0xbf2994eb3774cf24];
#[rustfmt::skip]
const C: [u64; 5] = [0x3ff0000000000000, 0xbfdffffffd0c621c, 0x3fa55553e1068f19,
    0xbf56c087e89a359d, 0x3ef99343027bf8c3];

/// `(sin x, cos x)` with the bits of glibc 2.36's FMA `sinf` and `cosf`,
/// for `|x| < 120` (the sampler's angles lie in `[0, 2π)`, the writer
/// styles' within ±2π). In `f64`: `x` reduced by the nearest multiple
/// `n·π/2` (`n = 0` below `|x| = 0.75`), one odd and one even polynomial of
/// the remainder with every `a·b + c` fused, the signs of quadrant `n`,
/// one rounding to `f32`, and the two swapped in odd quadrants. glibc's
/// `cos` table negates every coefficient in quadrants 2 and 3; that
/// negates the result exactly, which is never 0.
#[inline(always)]
pub(crate) fn sin_cos(x: f32) -> (f32, f32) {
    let top = (x.to_bits() >> 20) & 0x7ff;
    let xd = f64::from(x);
    let q = ((xd * HPI_INV) as i32 + (1 << 23)) >> 24;
    let n = if top < 0x3f4 { 0 } else { q };
    let xr = (-f64::from(n)).mul_add(HPI, xd);
    let x2 = xr * xr;
    let xs = if (n + 1) & 2 != 0 { -xr } else { xr };
    let x3 = xs * x2;
    let [s1, s2, s3] = S.map(f64::from_bits);
    let [c0, c1, c2, c3, c4] = C.map(f64::from_bits);
    let sin = (x3 * x2).mul_add(x2.mul_add(s3, s2), x3.mul_add(s1, xs)) as f32;
    let x4 = x2 * x2;
    let cos = (x4 * x2).mul_add(x2.mul_add(c4, c3), x4.mul_add(c2, x2.mul_add(c1, c0)));
    let cos = if n & 2 != 0 { -cos } else { cos } as f32;
    let (sin, cos) = if n & 1 != 0 { (cos, sin) } else { (sin, cos) };
    let tiny = top < 0x398;
    (if tiny { x } else { sin }, if tiny { 1.0 } else { cos })
}

/// Standard normal sampler: the Box–Muller transform of a uniform stream
/// (`rand` has no `rand_distr`), one spare value cached.
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
        let mut v = [0.0];
        self.fill(&mut v);
        v[0]
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
            self.fill(&mut [0.0]);
        }
    }

    /// Fills `out` with i.i.d. `N(0, 1)` samples: the spare first, then
    /// blocks of up to 32 pairs `r·cos θ, r·sin θ` with
    /// `r = √(−2 ln(1 − u₁))` and `θ = 2π·u₂`, each pair's `u₁, u₂` drawn in
    /// stream order; an odd tail keeps its last sine as the spare.
    pub fn fill(&mut self, out: &mut [f32]) {
        let spare = self.spare.take_if(|_| !out.is_empty());
        if let Some(v) = spare {
            out[0] = v;
        }
        for chunk in out[usize::from(spare.is_some())..].chunks_mut(2 * PAIRS) {
            let pairs = chunk.len().div_ceil(2);
            let mut u = [[0.0f32; PAIRS]; 2];
            let [r, theta] = &mut u;
            let (r, theta) = (&mut r[..pairs], &mut theta[..pairs]);
            for (u1, u2) in r.iter_mut().zip(theta.iter_mut()) {
                (*u1, *u2) = (1.0 - self.rng.random::<f32>(), self.rng.random::<f32>());
            }
            with_avx2_fma(
                #[inline(always)]
                || {
                    r.iter_mut().for_each(|v| *v = (-2.0 * v.ln()).sqrt());
                    for (r, u2) in r.iter_mut().zip(theta) {
                        let (sin, cos) = sin_cos(std::f32::consts::TAU * *u2);
                        (*r, *u2) = (*r * cos, *r * sin);
                    }
                },
            );
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = u[i % 2][i / 2];
            }
            if chunk.len() % 2 == 1 {
                self.spare = Some(u[1][pairs - 1]);
            }
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
    use std::f32::consts::TAU;
    use std::hint::black_box;

    /// libm's `(sinf x, cosf x)`; `black_box`: its run-time answer, not a
    /// constant fold.
    fn libm(x: f32) -> (f32, f32) {
        let x = black_box(x);
        (x.sin(), x.cos())
    }

    /// [`sin_cos`] of every `x`, through the sampler's dispatcher (`wide`)
    /// or as written.
    fn sin_cos_of(xs: &[f32], wide: bool) -> Vec<(f32, f32)> {
        if wide {
            with_avx2_fma(
                #[inline(always)]
                || xs.iter().map(|&x| sin_cos(x)).collect(),
            )
        } else {
            xs.iter().map(|&x| sin_cos(x)).collect()
        }
    }

    /// How many of `xs` get other bits from [`sin_cos`] than from libm, in
    /// any of the compilations `wide` names.
    fn misses(xs: &[f32], wide: &[bool]) -> usize {
        let bits = |(s, c): (f32, f32)| (s.to_bits(), c.to_bits());
        let mut miss = vec![false; xs.len()];
        for &w in wide {
            for ((m, &x), got) in miss.iter_mut().zip(xs).zip(sin_cos_of(xs, w)) {
                *m |= bits(got) != bits(libm(x));
            }
        }
        miss.into_iter().filter(|&m| m).count()
    }

    #[test]
    fn sin_cos_is_libms_at_every_angle_the_sampler_draws() {
        // θ = 2π·u₂ with u₂ = k/2²⁴, as the sampler rounds it
        let scale = 1.0 / (1u32 << 24) as f32;
        let angles: Vec<f32> = (0..1u32 << 24).map(|k| TAU * (k as f32 * scale)).collect();
        let misses = misses(&angles, &[false, true]);
        assert_eq!(misses, 0, "grid angles where sin_cos differs from libm");
    }

    /// Pinned bits, whatever the host's libm: `0`, both sides of `2⁻¹²`
    /// (below it `(x, 1)`) and of `0.75` (from there on `x` is reduced),
    /// one angle in each quadrant `n = 0 … 4`, the last grid angle and a
    /// writer style's negative one.
    #[test]
    fn sin_cos_gives_pinned_bits_on_every_host() {
        #[rustfmt::skip]
        const PINS: [(u32, u32, u32); 12] = [
            (0x00000000, 0x00000000, 0x3f800000),
            (0x397fffff, 0x397fffff, 0x3f800000),
            (0x39800000, 0x39800000, 0x3f800000),
            (0x3f3fffff, 0x3f2e7fe0, 0x3f3b4ff7),
            (0x3f400000, 0x3f2e7fe1, 0x3f3b4ff6),
            (0x3f451eb8, 0x3f3235eb, 0x3f37c8ff), // 0.77, n = 0
            (0x3fc00000, 0x3f7f5bd5, 0x3d90deaa), // 1.5, n = 1
            (0x40400000, 0x3e1081c3, 0xbf7d7026), // 3.0, n = 2
            (0x40966666, 0xbf7ffaf8, 0xbc4afa9f), // 4.7, n = 3
            (0x40c66666, 0xbdaa2ae0, 0x3f7f1d62), // 6.2, n = 4
            (0x40c90fda, 0xb4a22169, 0x3f800000), // 2π·(1 − 2⁻²⁴)
            (0xc039999a, 0xbe74fdc1, 0xbf7890b7), // −2.9, n = −2
        ];
        let xs: Vec<f32> = PINS.iter().map(|&(x, ..)| f32::from_bits(x)).collect();
        for wide in [false, true] {
            for (&(x, sin, cos), (s, c)) in PINS.iter().zip(sin_cos_of(&xs, wide)) {
                assert_eq!(
                    (s.to_bits(), c.to_bits()),
                    (sin, cos),
                    "{x:#010x}, wide {wide}"
                );
            }
        }
    }

    /// Every `f32` in `(−8, 2π)`, in slices of 2¹⁶ over the available
    /// cores: ≈ 35 s on two cores in release (`cargo test --release -p
    /// skiptrain-data -- --ignored`).
    #[test]
    #[ignore = "2.2·10⁹ inputs; run in release"]
    fn sin_cos_matches_libm_on_every_f32_in_range() {
        // −0 to the last float above −8, and +0 to the last float below 2π
        let (neg, pos) = (0x8000_0000..(-8f32).to_bits(), 0..TAU.to_bits());
        let slices: Vec<(u32, u32)> = (neg.step_by(1 << 16).map(|a| (a, (-8f32).to_bits())))
            .chain(pos.step_by(1 << 16).map(|a| (a, TAU.to_bits())))
            .map(|(a, end)| (a, end.min(a + (1 << 16))))
            .collect();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let misses: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let slices = &slices;
                    s.spawn(move || {
                        (slices.iter().skip(w).step_by(workers))
                            .map(|&(a, b)| {
                                misses(&(a..b).map(f32::from_bits).collect::<Vec<_>>(), &[true])
                            })
                            .sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(misses, 0, "inputs where sin_cos differs from libm");
    }

    /// The sampler as it drew before blocks: one pair at a time, through
    /// libm's `sinf`/`cosf`.
    struct Oracle {
        rng: SmallRng,
        spare: Option<f32>,
    }

    impl Oracle {
        fn sample(&mut self) -> f32 {
            if let Some(v) = self.spare.take() {
                return v;
            }
            let u1: f32 = 1.0 - self.rng.random::<f32>();
            let u2: f32 = self.rng.random::<f32>();
            let (r, theta) = ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f32::consts::PI * u2);
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        }
    }

    #[test]
    fn fill_is_the_one_pair_at_a_time_libm_sampler() {
        // every length across two blocks and a tail, with and without a
        // spare pending, each fill followed by an odd and an even skip
        for len in 0..=67 {
            for spare_first in [false, true] {
                let stream = 2 * len as u64 + u64::from(spare_first);
                let mut g = GaussianSampler::for_stream(5, stream);
                let mut oracle = Oracle {
                    rng: stream_rng(5, stream),
                    spare: None,
                };
                if spare_first {
                    assert_eq!(g.sample().to_bits(), oracle.sample().to_bits());
                }
                let mut buf = vec![0.0f32; len];
                for skip in [3, 2] {
                    g.fill(&mut buf);
                    for (i, v) in buf.iter().enumerate() {
                        let want = oracle.sample();
                        assert_eq!(v.to_bits(), want.to_bits(), "{i} of {len}, {spare_first}");
                    }
                    g.skip(skip);
                    (0..skip).for_each(|_| {
                        oracle.sample();
                    });
                }
                assert_eq!(g.spare.map(f32::to_bits), oracle.spare.map(f32::to_bits));
            }
        }
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
