//! Lossy model-compression kernels: affine quantization, magnitude
//! (top-k) sparsification, and CHOCO-SGD-style error feedback.
//!
//! These are the numeric primitives behind the engine's `ModelCodec`
//! transport layer. They are deliberately transport-agnostic: the engine
//! decides how codes travel on the wire; this module only defines the
//! value ↔ code maps and their reconstruction error contracts:
//!
//! * **Affine quantization** maps a tensor to `levels` evenly spaced codes
//!   over `[min, max]`; reconstruction error is bounded by half a step,
//!   `|x − dequant(quant(x))| ≤ scale / 2` (plus f32 rounding). Codes are
//!   `W`-byte little-endian integers, the form they travel in, so the
//!   wire's encoder and decoder run one kernel per width ([`quantize_le`],
//!   [`QuantizedRef::dequantize_into`]). Both the fit and the quantiser
//!   are written so every element is independent — a lane-parallel range
//!   scan, and a code computed by clamping *then* rounding in float adds
//!   and compares only (`code_of` has the identity and the 2²³ rounding
//!   with its valid range) — and produce the bits of the scalar
//!   definitions the tests keep as oracles.
//! * **Top-k selection** returns the indices of the `k` largest-magnitude
//!   entries (deterministic tie-break: lower index wins), sorted ascending
//!   so downstream scatter kernels stream through memory in order.
//! * **Error feedback** ([`accumulate_delta`], then [`scatter_axpy`] or a
//!   dense `axpy`, composed around the wire codec by the engine's
//!   per-edge aggregation) maintains a per-link
//!   *replica* — the receiver's last-delivered estimate of the sender's
//!   model — and compresses the residual `delta = model − replica`
//!   instead of the raw model, folding the delivered part back:
//!   `replica += β · recon(compress(delta))`. Whatever the codec failed
//!   to deliver stays inside the next residual (`delta' = model' −
//!   replica'` carries the unsent coordinates plus new model drift), so
//!   every coordinate's deferred discrepancy keeps growing until it wins
//!   a top-k slot. Plain top-k discards the unsent coordinates every
//!   round, which biases gossip aggregation systematically toward the
//!   frequently-transmitted coordinates; the replica construction
//!   (CHOCO-SGD, Koloskova et al.) bounds that bias. Note the naive
//!   alternative — compressing `model + accumulated-residual` directly
//!   and letting receivers substitute their own coordinates — is
//!   *unstable* under masked gossip: the backlog re-counts the full model
//!   value every deferred round and overshoots on delivery.
//!
//! Every kernel is deterministic and allocation-free at steady state:
//! callers pass reusable output buffers, and all of them retain capacity
//! across calls.
//!
//! # Two compilations
//!
//! The codec kernels — the range scan under [`affine_params`], the
//! quantiser in [`quantize_le`], reconstruction in
//! [`QuantizedRef::dequantize_into`], and the fold of a delivered frame
//! ([`QuantizedRef::fold_into`]) — run on every lossy edge of a round, and
//! compile twice from one source, for the baseline and for AVX2 (through
//! `simd::with_avx2`, as the GEMM tiles and the weighted sum do): the same
//! separate operations in the same order, so the two agree bit for bit,
//! and the tests hold the baseline one as the reference. Each body is a
//! plain loop the loop vectoriser takes at the width of the build (4
//! lanes, 8 under AVX2). The range scan is one too, which is why it keeps
//! no lanes of its own: it reduces integer order keys, and an integer
//! `min` / `max` is a reduction the vectoriser takes as written. A float `min` / `max` is one only under fast-math, so
//! a float scan needs explicit lanes, which only the SLP vectoriser packs,
//! and whether it does depends on the build. On the 1 042 floats of the
//! fleet model (Intel Xeon, AVX2), 16 float lanes ran ≈ 320 ns compiled
//! for the baseline but ≈ 650 ns for AVX2, the lanes kept in memory behind
//! masked stores; 32 lanes were fast in one build context and masked in
//! another. The key scan runs ≈ 210 ns under AVX2 and ≈ 600 ns for the
//! baseline, which has no packed 32-bit `min`.

use crate::simd::with_avx2;

/// Affine (asymmetric) quantization parameters for one tensor:
/// `value ≈ min + scale · code`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineParams {
    /// Reconstruction offset (the tensor minimum).
    pub min: f32,
    /// Reconstruction step between adjacent codes.
    pub scale: f32,
}

/// Smallest and largest finite entries of `src`; `(+∞, −∞)` when it has
/// none. The scan runs on order keys: a float's bits as an `i32`, the low
/// 31 flipped when the sign is set, order finite floats exactly as their
/// values do and put `−0.0` just below `+0.0`; a non-finite entry counts as
/// `i32::MAX` for the minimum and `i32::MIN` for the maximum, which never
/// win. An integer minimum over a set is one value whatever the order it
/// is taken in, so the sign of a zero minimum — it travels in the frame —
/// is pinned: `−0.0` whenever `src` holds one. (Both zeros reconstruct the
/// same values, and the sign of a zero maximum reaches no result.)
#[inline(always)]
fn finite_range(src: &[f32]) -> (f32, f32) {
    // the key map is its own inverse
    let key = |bits: i32| bits ^ ((bits >> 31) & 0x7FFF_FFFF);
    let (mut lo, mut hi) = (i32::MAX, i32::MIN);
    for &v in src {
        let bits = v.to_bits() as i32;
        let finite = bits & 0x7FFF_FFFF < 0x7F80_0000;
        lo = lo.min(if finite { key(bits) } else { i32::MAX });
        hi = hi.max(if finite { key(bits) } else { i32::MIN });
    }
    if lo == i32::MAX {
        return (f32::INFINITY, f32::NEG_INFINITY);
    }
    let value = |k: i32| f32::from_bits(key(k) as u32);
    (value(lo), value(hi))
}

/// Computes affine parameters for quantizing `src` to `levels` codes
/// (`levels ≥ 2`). A constant tensor gets `scale = 0` so every code
/// reconstructs exactly to the constant.
///
/// Non-finite entries are ignored when fitting the range (and clamp to
/// its edges when encoded), so a numerically diverged model degrades the
/// reconstruction instead of aborting the run.
///
/// # Panics
/// Panics if `levels < 2`.
pub fn affine_params(src: &[f32], levels: u32) -> AffineParams {
    assert!(levels >= 2, "affine quantization needs at least 2 levels");
    with_avx2(
        #[inline(always)]
        || fit(src, levels),
    )
}

/// [`affine_params`] as written.
#[inline(always)]
fn fit(src: &[f32], levels: u32) -> AffineParams {
    // the scan runs in f32 and is widened once: f32 → f64 is exact and
    // monotone, so these are the extremes an f64 scan would have found
    let (lo, hi) = finite_range(src);
    let (lo, hi) = (lo as f64, hi as f64);
    // lo >= hi covers empty/constant/all-non-finite inputs (lo = +∞ then)
    if lo >= hi {
        return AffineParams {
            min: if lo.is_finite() { lo as f32 } else { 0.0 },
            scale: 0.0,
        };
    }
    // the range is computed in f64 (hi − lo can exceed f32::MAX when both
    // extremes are near ±f32::MAX) and the step clamped finite, so extreme
    // models degrade in precision rather than dequantizing to NaN
    AffineParams {
        min: lo as f32,
        scale: (((hi - lo) / (levels - 1) as f64) as f32).min(f32::MAX),
    }
}

/// 2²³: adding it to a float in `[0, 2²³)` leaves a value whose spacing is
/// exactly 1, so the sum is the addend rounded to an integer (ties to even)
/// and its low 23 mantissa bits are that integer.
const TWO_POW_23: f32 = 8_388_608.0;

/// The code of `v`: `(v − min) / scale` clamped to `[0, max_code]`, then
/// rounded half away from zero. NaN maps to code 0 and ±∞ saturate, so
/// non-finite inputs cannot panic mid-round.
///
/// Clamp-then-round equals round-then-clamp (the textbook order): rounding
/// is monotone and maps the integers `0` and `max_code` to themselves, so
/// it commutes with a clamp to `[0, max_code]`. After the clamp `q` is in
/// `[0, 65 535]`, far inside `[0, 2²³)`, where rounding needs no libm call
/// and no float → int cast: `r = (q + 2²³) − 2²³` is the nearest integer,
/// `floor = r − [r > q]`, the fraction `q − floor` is exact, the code is
/// `floor + [q − floor ≥ ½]`, and its integer value is the mantissa of
/// `code + 2²³`. Every step is a float add, compare or select, which the
/// vectoriser takes at any lane width.
#[inline(always)]
fn code_of(v: f32, p: AffineParams, max_code: f32) -> u32 {
    let q = (v - p.min) / p.scale;
    let q = if q > 0.0 { q } else { 0.0 };
    let q = if q < max_code { q } else { max_code };
    let r = (q + TWO_POW_23) - TWO_POW_23;
    let floor = r - f32::from(r > q);
    let code = floor + f32::from(q - floor >= 0.5);
    (code + TWO_POW_23).to_bits() & 0x007F_FFFF
}

/// Appends the codes of `src` under `p` to `out` as `W`-byte little-endian
/// integers (`W` = 1: 256 levels, `W` = 2: 65 536) — the form they travel
/// in, so a frame's code section is quantised in place. `p.scale == 0`
/// (constant tensor) encodes every entry as code 0.
pub fn quantize_le<const W: usize>(src: &[f32], p: AffineParams, out: &mut Vec<u8>) {
    const { assert!(W == 1 || W == 2) };
    let start = out.len();
    out.resize(start + W * src.len(), 0);
    if p.scale == 0.0 {
        return;
    }
    let codes = &mut out[start..];
    with_avx2(
        #[inline(always)]
        || encode_codes::<W>(src, p, codes),
    );
}

/// The loop of [`quantize_le`] as written: the codes of `src` into `codes`.
#[inline(always)]
fn encode_codes<const W: usize>(src: &[f32], p: AffineParams, codes: &mut [u8]) {
    let max_code = ((1u32 << (8 * W)) - 1) as f32;
    let (codes, _) = codes.as_chunks_mut::<W>();
    for (code, &v) in codes.iter_mut().zip(src) {
        code.copy_from_slice(&code_of(v, p, max_code).to_le_bytes()[..W]);
    }
}

/// Quantizes `src` to one-byte codes (256 levels) in a reusable buffer
/// (cleared first; capacity retained across calls) and returns the fitted
/// parameters.
pub fn quantize_u8_into(src: &[f32], codes: &mut Vec<u8>) -> AffineParams {
    let p = affine_params(src, 256);
    codes.clear();
    quantize_le::<1>(src, p, codes);
    p
}

/// Quantizes `src` to two-byte little-endian codes (65 536 levels), as
/// [`quantize_u8_into`] does for one byte.
pub fn quantize_u16_into(src: &[f32], codes: &mut Vec<u8>) -> AffineParams {
    let p = affine_params(src, 65_536);
    codes.clear();
    quantize_le::<2>(src, p, codes);
    p
}

/// Reconstructs one value from its affine code. The multiply-add runs in
/// f64 — `scale · code` alone can exceed `f32::MAX` for extreme-range
/// tensors even though the reconstructed value is representable.
#[inline(always)]
pub fn dequantize_one(p: AffineParams, code: u32) -> f32 {
    (p.min as f64 + p.scale as f64 * code as f64) as f32
}

/// The value of one `W`-byte little-endian code under `p`.
#[inline(always)]
fn value_of<const W: usize>(p: AffineParams, code: &[u8; W]) -> f32 {
    let mut word = [0u8; 4];
    word[..W].copy_from_slice(code);
    dequantize_one(p, u32::from_le_bytes(word))
}

/// The loop of [`QuantizedRef::dequantize_into`] as written: one value per
/// code into the equally long `out`.
#[inline(always)]
fn decode_codes<const W: usize>(p: AffineParams, codes: &[[u8; W]], out: &mut [f32]) {
    for (v, code) in out.iter_mut().zip(codes) {
        *v = value_of::<W>(p, code);
    }
}

/// A quantized tensor read where it lies — a frame's code section: `W`-byte
/// little-endian codes under `params`, `W` = 2 when `wide`, else 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizedRef<'a> {
    /// The affine map the codes were taken under.
    pub params: AffineParams,
    /// Two-byte codes (65 536 levels) rather than one-byte (256).
    pub wide: bool,
    /// The codes; bytes past the last whole code are ignored.
    pub codes: &'a [u8],
}

impl QuantizedRef<'_> {
    /// The reconstructed values into `out`, replacing its contents: one
    /// per whole code (what [`quantize_le`] wrote, or a frame's code
    /// section read where it lies).
    pub fn dequantize_into(&self, out: &mut Vec<f32>) {
        let (p, codes) = (self.params, self.codes);
        let len = codes.len() / if self.wide { 2 } else { 1 };
        out.truncate(len);
        out.resize(len, 0.0);
        with_avx2(
            #[inline(always)]
            || {
                if self.wide {
                    decode_codes::<2>(p, codes.as_chunks().0, out);
                } else {
                    decode_codes::<1>(p, codes.as_chunks().0, out);
                }
            },
        );
    }

    /// Folds the reconstruction `v` into an aggregate without storing it:
    /// with `feedback = Some((β, replica))`, `replica += β·v` and then
    /// `out += w·replica` (error feedback's replica step, then the
    /// receiver's weighted sum); with `None`, `out += w·v`. Per element
    /// these are the separate operations of
    /// [`dequantize_into`](Self::dequantize_into) followed by
    /// the [`axpy`](crate::ops::axpy)s, in that order, so the bits are
    /// theirs; the codes are read once.
    ///
    /// Never inlined, so every caller shares one pair of compilations.
    ///
    /// # Panics
    /// Panics unless the view holds exactly `out.len()` codes and the
    /// replica is as long as `out`.
    #[inline(never)]
    pub fn fold_into(&self, feedback: Option<(f32, &mut [f32])>, w: f32, out: &mut [f32]) {
        let (p, codes) = (self.params, self.codes);
        let width = if self.wide { 2 } else { 1 };
        assert_eq!(codes.len(), width * out.len(), "fold length mismatch");
        if let Some((_, replica)) = &feedback {
            assert_eq!(replica.len(), out.len(), "fold replica length mismatch");
        }
        with_avx2(
            #[inline(always)]
            || {
                if self.wide {
                    fold_codes::<2>(p, codes.as_chunks().0, feedback, w, out);
                } else {
                    fold_codes::<1>(p, codes.as_chunks().0, feedback, w, out);
                }
            },
        );
    }
}

/// The loop of [`QuantizedRef::fold_into`] as written.
#[inline(always)]
fn fold_codes<const W: usize>(
    p: AffineParams,
    codes: &[[u8; W]],
    feedback: Option<(f32, &mut [f32])>,
    w: f32,
    out: &mut [f32],
) {
    match feedback {
        Some((beta, replica)) => {
            for ((o, r), code) in out.iter_mut().zip(replica.iter_mut()).zip(codes) {
                *r += beta * value_of::<W>(p, code);
                *o += w * *r;
            }
        }
        None => {
            for (o, code) in out.iter_mut().zip(codes) {
                *o += w * value_of::<W>(p, code);
            }
        }
    }
}

/// Writes the indices of the `k` largest-magnitude entries of `src` into
/// `out`, ascending. The selection runs inside `out` (cleared first;
/// capacity retained), so steady-state callers pay zero heap traffic.
///
/// `k` is clamped to `src.len()`. Ties break toward the lower index so the
/// selection is deterministic across platforms and thread counts. The
/// magnitude order is `f32::total_cmp` on `|v|`, which ranks NaN above
/// every finite value — a diverged coordinate is transmitted (and thus
/// propagates to receivers exactly like the dense codec) instead of
/// panicking mid-round.
pub fn top_k_indices_into(src: &[f32], k: usize, out: &mut Vec<u32>) {
    out.clear();
    let k = k.min(src.len());
    if k == 0 {
        return;
    }
    out.extend(0..src.len() as u32);
    let by_magnitude_desc = |&a: &u32, &b: &u32| {
        let (ma, mb) = (src[a as usize].abs(), src[b as usize].abs());
        mb.total_cmp(&ma).then(a.cmp(&b))
    };
    if k < out.len() {
        out.select_nth_unstable_by(k - 1, by_magnitude_desc);
        out.truncate(k);
    }
    out.sort_unstable();
}

/// Sparse-blend accumulation for masked gossip aggregation:
/// `out[idx] += w · (values[idx] − base[idx])` for each sparse entry.
///
/// Used when a neighbor's model arrives top-k sparsified: the receiver
/// substitutes its own parameters (`base`) for the coordinates the sender
/// did not transmit, so only transmitted coordinates move the aggregate.
///
/// # Panics
/// Panics if `indices.len() != values.len()` or any index is out of range.
pub fn sparse_blend_axpy(out: &mut [f32], base: &[f32], indices: &[u32], values: &[f32], w: f32) {
    assert_eq!(indices.len(), values.len(), "sparse arity mismatch");
    for (&idx, &val) in indices.iter().zip(values) {
        let i = idx as usize;
        out[i] += w * (val - base[i]);
    }
}

/// `delta = model − replica` — the accumulated per-link residual that
/// error feedback compresses. `delta` is cleared first and retains
/// capacity across calls.
///
/// # Panics
/// Panics if `model.len() != replica.len()`.
pub fn accumulate_delta(model: &[f32], replica: &[f32], delta: &mut Vec<f32>) {
    assert_eq!(model.len(), replica.len(), "replica length mismatch");
    delta.clear();
    delta.extend(model.iter().zip(replica).map(|(&m, &r)| m - r));
}

/// Sparse replica update: `replica[idx] += β · values[n]` for each sparse
/// entry — folds a delivered top-k delta payload into the link replica.
/// With `β = 1` the replica lands exactly on the sender's model at the
/// transmitted coordinates (`replica + (model − replica) = model`).
///
/// # Panics
/// Panics if `indices.len() != values.len()` or any index is out of range.
pub fn scatter_axpy(replica: &mut [f32], indices: &[u32], values: &[f32], beta: f32) {
    assert_eq!(indices.len(), values.len(), "sparse arity mismatch");
    for (&idx, &val) in indices.iter().zip(values) {
        replica[idx as usize] += beta * val;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simd::tests as table;
    use crate::simd::tests::hostile_vec;
    use proptest::prelude::*;

    // ---- the loops the bulk kernels replaced, kept as oracles ----------

    /// The serial range fit: one `f64` min/max chain behind an `is_finite`
    /// branch.
    fn affine_params_ref(src: &[f32], levels: u32) -> AffineParams {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in src {
            if v.is_finite() {
                lo = lo.min(v as f64);
                hi = hi.max(v as f64);
            }
        }
        if lo >= hi {
            return AffineParams {
                min: if lo.is_finite() { lo as f32 } else { 0.0 },
                scale: 0.0,
            };
        }
        AffineParams {
            min: lo as f32,
            scale: (((hi - lo) / (levels - 1) as f64) as f32).min(f32::MAX),
        }
    }

    /// Round (libm), then clamp through a saturating cast.
    fn encode_one(v: f32, p: AffineParams, max_code: u32) -> u32 {
        if p.scale == 0.0 {
            return 0;
        }
        let code = ((v - p.min) / p.scale).round();
        (code.max(0.0) as u32).min(max_code)
    }

    /// Per-element little-endian code writer over [`encode_one`].
    fn quantize_ref<const W: usize>(src: &[f32], p: AffineParams) -> Vec<u8> {
        let max_code = (1u32 << (8 * W)) - 1;
        let mut out = Vec::new();
        for &v in src {
            out.extend_from_slice(&encode_one(v, p, max_code).to_le_bytes()[..W]);
        }
        out
    }

    /// Per-element little-endian code reader over [`dequantize_one`].
    fn dequantize_ref<const W: usize>(p: AffineParams, codes: &[u8]) -> Vec<f32> {
        let mut out = Vec::new();
        for code in codes.chunks_exact(W) {
            let code = code.iter().rev().fold(0u32, |c, &b| c << 8 | b as u32);
            out.push(dequantize_one(p, code));
        }
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// [`QuantizedRef::dequantize_into`] at width `W`.
    fn dequantize_le<const W: usize>(p: AffineParams, codes: &[u8], out: &mut Vec<f32>) {
        let view = QuantizedRef {
            params: p,
            wide: W == 2,
            codes,
        };
        view.dequantize_into(out);
    }

    /// Fit, codes and reconstruction of `src` at width `W` against the
    /// oracles, bit for bit. The one licence: when the minimum is a zero
    /// and `src` holds both zeros, the fit pins `−0.0` where the serial
    /// chain kept whichever came first.
    fn check_against_reference<const W: usize>(src: &[f32]) {
        let levels = 1u32 << (8 * W);
        let (got, want) = (affine_params(src, levels), affine_params_ref(src, levels));
        assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{src:?}");
        assert_eq!(got.min, want.min, "{src:?}");
        let neg_zero = src.iter().any(|v| v.to_bits() == (-0.0f32).to_bits());
        if want.min == 0.0 {
            assert_eq!(got.min.is_sign_negative(), neg_zero, "{src:?}");
        } else {
            assert_eq!(got.min.to_bits(), want.min.to_bits(), "{src:?}");
        }
        // dirty prefix: the kernel appends and must leave it alone
        let mut codes = vec![0xAB; 3];
        quantize_le::<W>(src, got, &mut codes);
        assert_eq!(&codes[..3], [0xAB; 3]);
        assert_eq!(&codes[3..], quantize_ref::<W>(src, want), "{src:?}");
        let mut back = vec![f32::NAN; 5];
        dequantize_le::<W>(got, &codes[3..], &mut back);
        assert_eq!(bits(&back), bits(&dequantize_ref::<W>(got, &codes[3..])));
    }

    /// Bits, with every NaN as one: which NaN operand an add propagates is
    /// not specified, and a compilation may commute an add.
    fn bits_nan_as_one(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// The fold of `codes` under `p` against its definition: the values,
    /// then `axpy(β)` into the replica and `axpy(w)` of the replica into
    /// `out` — or `axpy(w)` of the values without a replica — bit for bit.
    fn check_fold_against_axpys<const W: usize>(
        p: AffineParams,
        codes: &[u8],
        replica: &[f32],
        out: &[f32],
        (beta, w): (f32, f32),
    ) {
        let mut values = Vec::new();
        dequantize_le::<W>(p, codes, &mut values);
        let view = QuantizedRef {
            params: p,
            wide: W == 2,
            codes,
        };
        let (mut want, mut got) = (out.to_vec(), out.to_vec());
        crate::ops::axpy(w, &values, &mut want);
        view.fold_into(None, w, &mut got);
        assert_eq!(bits_nan_as_one(&want), bits_nan_as_one(&got), "{p:?}");
        let (mut want_r, mut want_o) = (replica.to_vec(), out.to_vec());
        crate::ops::axpy(beta, &values, &mut want_r);
        crate::ops::axpy(w, &want_r, &mut want_o);
        let (mut r, mut o) = (replica.to_vec(), out.to_vec());
        view.fold_into(Some((beta, &mut r)), w, &mut o);
        assert_eq!(bits_nan_as_one(&want_r), bits_nan_as_one(&r), "{p:?}");
        assert_eq!(bits_nan_as_one(&want_o), bits_nan_as_one(&o), "{p:?}");
    }

    /// The longest tail the fold property walks.
    const TAILS: usize = 80;

    // ---- fresh-buffer calls of the `_into` kernels ---------------------

    fn quantize_u8(src: &[f32]) -> (AffineParams, Vec<u8>) {
        let mut codes = Vec::new();
        let p = quantize_u8_into(src, &mut codes);
        (p, codes)
    }

    fn quantize_u16(src: &[f32]) -> (AffineParams, Vec<u8>) {
        let mut codes = Vec::new();
        let p = quantize_u16_into(src, &mut codes);
        (p, codes)
    }

    fn top_k_indices(src: &[f32], k: usize) -> Vec<u32> {
        let mut order = Vec::new();
        top_k_indices_into(src, k, &mut order);
        order
    }

    #[test]
    fn u8_roundtrip_error_is_half_step_bounded() {
        let src: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 113) as f32 / 7.0 - 8.0)
            .collect();
        let (p, codes) = quantize_u8(&src);
        let mut back = Vec::new();
        dequantize_le::<1>(p, &codes, &mut back);
        let bound = p.scale / 2.0 + 1e-4;
        for (a, b) in src.iter().zip(&back) {
            assert!(
                (a - b).abs() <= bound,
                "error {} > bound {bound}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn u16_roundtrip_is_much_tighter_than_u8() {
        let src: Vec<f32> = (0..500).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let (p8, c8) = quantize_u8(&src);
        let (p16, c16) = quantize_u16(&src);
        let (mut b8, mut b16) = (Vec::new(), Vec::new());
        dequantize_le::<1>(p8, &c8, &mut b8);
        dequantize_le::<2>(p16, &c16, &mut b16);
        let err = |back: &[f32]| -> f32 {
            src.iter()
                .zip(back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max)
        };
        assert!(
            err(&b16) < err(&b8) / 16.0,
            "u16 {} vs u8 {}",
            err(&b16),
            err(&b8)
        );
    }

    #[test]
    fn constant_tensor_reconstructs_exactly() {
        let src = vec![0.75f32; 40];
        let (p, codes) = quantize_u8(&src);
        assert_eq!(p.scale, 0.0);
        let mut back = Vec::new();
        dequantize_le::<1>(p, &codes, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn empty_tensor_quantizes_to_empty() {
        let (p, codes) = quantize_u8(&[]);
        assert_eq!(codes.len(), 0);
        assert_eq!(p.scale, 0.0);
    }

    #[test]
    fn range_extremes_reconstruct_exactly() {
        let src = [-2.0f32, 0.1, 3.0];
        let (p, codes) = quantize_u8(&src);
        let mut back = Vec::new();
        dequantize_le::<1>(p, &codes, &mut back);
        assert_eq!(back[0], -2.0, "minimum must be exact (code 0)");
        assert!(
            (back[2] - 3.0).abs() < 1e-5,
            "maximum lands on the top code"
        );
    }

    #[test]
    fn non_finite_inputs_quantize_without_panicking() {
        let src = [
            1.0f32,
            f32::NAN,
            -2.0,
            f32::INFINITY,
            3.0,
            f32::NEG_INFINITY,
        ];
        let (p, codes) = quantize_u8(&src);
        // range fitted over finite values only
        assert_eq!(p.min, -2.0);
        let mut back = Vec::new();
        dequantize_le::<1>(p, &codes, &mut back);
        assert!(back.iter().all(|v| v.is_finite()));
        assert!((back[4] - 3.0).abs() < 1e-5, "finite max stays on range");
        let all_bad = [f32::NAN, f32::INFINITY];
        let (p, codes) = quantize_u8(&all_bad);
        assert_eq!(p.scale, 0.0);
        assert_eq!(codes, vec![0, 0]);
    }

    #[test]
    fn extreme_finite_range_does_not_poison_with_nan() {
        // hi - lo overflows f32 here; the f64 range math must keep the
        // reconstruction finite and roughly preserve the endpoints
        let src = [-3.0e38f32, 0.0, 3.0e38];
        let (p, codes) = quantize_u8(&src);
        assert!(p.scale.is_finite());
        let mut back = Vec::new();
        dequantize_le::<1>(p, &codes, &mut back);
        assert!(back.iter().all(|v| v.is_finite()), "{back:?}");
        assert!(back[0] < -2.9e38 && back[2] > 2.9e38);
    }

    #[test]
    fn top_k_ranks_nan_first_instead_of_panicking() {
        let src = [1.0f32, f32::NAN, -2.0];
        assert_eq!(top_k_indices(&src, 1), vec![1]);
        assert_eq!(top_k_indices(&src, 2), vec![1, 2]);
    }

    #[test]
    fn top_k_picks_largest_magnitudes() {
        let src = [0.1f32, -5.0, 2.0, 0.0, -2.5, 4.0];
        assert_eq!(top_k_indices(&src, 3), vec![1, 4, 5]);
        assert_eq!(top_k_indices(&src, 1), vec![1]);
    }

    #[test]
    fn top_k_clamps_and_breaks_ties_low_index_first() {
        let src = [1.0f32, -1.0, 1.0];
        assert_eq!(top_k_indices(&src, 10), vec![0, 1, 2]);
        assert_eq!(top_k_indices(&src, 2), vec![0, 1]);
        assert_eq!(top_k_indices(&src, 0), Vec::<u32>::new());
    }

    #[test]
    fn sparse_blend_moves_only_listed_coordinates() {
        let base = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = base;
        sparse_blend_axpy(&mut out, &base, &[1, 3], &[4.0, 0.0], 0.5);
        assert_eq!(out, [1.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let src: Vec<f32> = (0..257)
            .map(|i| ((i * 29) % 61) as f32 * 0.3 - 9.0)
            .collect();
        // reused buffers arrive dirty; a fresh buffer is the reference
        let (mut codes8, mut codes16, mut order) = (vec![7u8; 9], vec![7u8; 600], vec![7u32; 300]);
        assert_eq!(quantize_u8_into(&src, &mut codes8), quantize_u8(&src).0);
        assert_eq!(codes8, quantize_u8(&src).1);
        assert_eq!(quantize_u16_into(&src, &mut codes16), quantize_u16(&src).0);
        assert_eq!(codes16, quantize_u16(&src).1);
        top_k_indices_into(&src, 7, &mut order);
        assert_eq!(order, top_k_indices(&src, 7));
    }

    /// The widest step of a vectorised loop here: 8 lanes, 4 interleaved.
    const STEP: usize = 32;

    #[test]
    fn kernels_match_the_scalar_reference_across_every_tail() {
        // every length up to past four of the widest vector steps: each
        // remainder of the vectorised loops in either compilation
        let src: Vec<f32> = (0..4 * STEP + 9)
            .map(|i| ((i * 37) % 113) as f32 / 7.0 - 8.0)
            .collect();
        for n in 0..=src.len() {
            check_against_reference::<1>(&src[..n]);
            check_against_reference::<2>(&src[n..]);
        }
    }

    #[test]
    fn rounding_ties_and_range_edges_match_the_reference() {
        // min 0, scale 1: entries are their own `q`, so halves are exact
        // ties and the ends sit on and past both clamps
        let mut src = vec![
            0.0f32, 255.0, 0.5, 1.5, 2.5, 253.5, 254.5, 254.49998, 0.49999997,
        ];
        check_against_reference::<1>(&src);
        src.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        check_against_reference::<1>(&src);
        let mut src = vec![0.0f32, 65_535.0, 0.5, 1.5, 65_533.5, 65_534.5, 32_767.5];
        check_against_reference::<2>(&src);
        src.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        check_against_reference::<2>(&src);
        // a fixed step that overshoots the fitted range on both sides
        let p = AffineParams {
            min: 1.0,
            scale: 0.25,
        };
        let far = [-1e30f32, -3.0, 0.9, 1.0, 1.124, 1.125, 70.0, 1e30, f32::NAN];
        let mut codes = Vec::new();
        quantize_le::<1>(&far, p, &mut codes);
        assert_eq!(codes, quantize_ref::<1>(&far, p));
        assert_eq!(codes, [0, 0, 0, 0, 0, 1, 255, 255, 0]);
    }

    #[test]
    fn zero_sign_of_the_minimum_is_pinned() {
        // +0.0 == −0.0, so a min/max chain may keep either; the fit keeps
        // −0.0 whenever one is present, wherever it sits
        let neg = (-0.0f32).to_bits();
        for src in [
            vec![0.0f32, -0.0, 1.0],
            vec![-0.0f32, 0.0, 1.0],
            vec![-0.0f32, 2.0],
            vec![0.0f32, -0.0],
        ] {
            assert_eq!(affine_params(&src, 256).min.to_bits(), neg, "{src:?}");
        }
        let mut wide = vec![0.0f32; 3 * STEP + 5];
        wide[2 * STEP + 3] = -0.0;
        wide[1] = 4.0;
        assert_eq!(affine_params(&wide, 256).min.to_bits(), neg);
        assert_eq!(affine_params(&[0.0, 1.0], 256).min.to_bits(), 0);
        assert_eq!(affine_params(&[0.0, -0.0, -1.0], 256).min, -1.0);
        // either zero decodes to the same values
        let (plus, minus) = (
            AffineParams {
                min: 0.0,
                scale: 0.5,
            },
            AffineParams {
                min: -0.0,
                scale: 0.5,
            },
        );
        for code in [0, 1, 255] {
            assert_eq!(
                dequantize_one(plus, code).to_bits(),
                dequantize_one(minus, code).to_bits()
            );
        }
    }

    #[test]
    fn degenerate_inputs_give_the_reference_values() {
        let all_bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let zeros = [0.0f32, -0.0, 0.0];
        let extremes = [f32::MAX, -f32::MAX, 0.0, f32::MIN_POSITIVE];
        for src in [&[][..], &[2.5; 40], &all_bad, &zeros, &extremes] {
            check_against_reference::<1>(src);
            check_against_reference::<2>(src);
        }
        // the values themselves, not only agreement
        assert_eq!(
            affine_params(&[], 256),
            AffineParams {
                min: 0.0,
                scale: 0.0
            }
        );
        assert_eq!(
            affine_params(&all_bad, 256),
            AffineParams {
                min: 0.0,
                scale: 0.0
            }
        );
        assert_eq!(
            affine_params(&[2.5; 40], 65_536),
            AffineParams {
                min: 2.5,
                scale: 0.0
            }
        );
        let p = affine_params(&extremes, 256);
        assert_eq!(p.min, -f32::MAX);
        assert!(p.scale.is_finite() && p.scale > 2.6e36);
        assert_eq!(quantize_u8(&extremes).1, [255, 0, 128, 128]);
        assert_eq!(quantize_u8(&all_bad).1, [0, 0, 0]);
        let mut back = vec![1.0f32];
        dequantize_le::<1>(p, &[], &mut back);
        assert!(back.is_empty());
        // a trailing half code is not a code
        dequantize_le::<2>(
            AffineParams {
                min: 1.0,
                scale: 1.0,
            },
            &[2, 0, 9],
            &mut back,
        );
        assert_eq!(back, [3.0]);

        // selection: k = 0, k > len, empty source
        let src = [1.0f32, -3.0, 2.0];
        let mut order = vec![9u32];
        top_k_indices_into(&src, 0, &mut order);
        assert!(order.is_empty());
        top_k_indices_into(&src, 99, &mut order);
        assert_eq!(order, [0, 1, 2]);
        top_k_indices_into(&[], 4, &mut order);
        assert!(order.is_empty());
        top_k_indices_into(&[0.0, -0.0, 0.0], 2, &mut order);
        assert_eq!(order, [0, 1], "equal magnitudes: lower index wins");

        // the feedback kernels on nothing, and on the extremes
        let mut out = [1.0f32, 2.0];
        sparse_blend_axpy(&mut out, &[0.0, 0.0], &[], &[], 0.5);
        scatter_axpy(&mut out, &[], &[], 1.0);
        assert_eq!(out, [1.0, 2.0]);
        let mut delta = vec![9.0f32];
        accumulate_delta(&[], &[], &mut delta);
        assert!(delta.is_empty());
        accumulate_delta(&[f32::MAX, 0.0], &[-f32::MAX, -0.0], &mut delta);
        assert_eq!(bits(&delta), bits(&[f32::INFINITY, 0.0]));
        let mut replica = [f32::MAX, -1.0];
        scatter_axpy(&mut replica, &[0, 1], &[f32::MAX, 1.0], 1.0);
        assert_eq!(bits(&replica), bits(&[f32::INFINITY, 0.0]));
    }

    #[test]
    fn fold_rejects_a_view_of_another_length() {
        let p = AffineParams {
            min: 0.0,
            scale: 1.0,
        };
        let view = QuantizedRef {
            params: p,
            wide: true,
            codes: &[1, 0, 2, 0, 3],
        };
        let fold = |len: usize| {
            let mut out = vec![0.0f32; len];
            std::panic::catch_unwind(move || view.fold_into(None, 1.0, &mut out)).is_ok()
        };
        // two whole codes and a stray byte: no length folds it
        assert!(!fold(2) && !fold(3));
        let mut out = [0.5f32; 2];
        let mut replica = [1.0f32; 2];
        let short = QuantizedRef {
            codes: &[1, 0, 2, 0],
            ..view
        };
        short.fold_into(Some((0.5, &mut replica)), 2.0, &mut out);
        assert_eq!((replica, out), ([1.5, 2.0], [3.5, 4.5]));
    }

    #[test]
    fn scatter_axpy_adds_at_listed_coordinates() {
        let mut replica = [1.0f32, 2.0, 3.0];
        scatter_axpy(&mut replica, &[0, 2], &[4.0, -1.0], 0.5);
        assert_eq!(replica, [3.0, 2.0, 2.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_quantization_error_bounded(
            xs in proptest::collection::vec(-100.0f32..100.0, 1..300)
        ) {
            let (p, codes) = quantize_u8(&xs);
            let mut back = Vec::new();
            dequantize_le::<1>(p, &codes, &mut back);
            let bound = p.scale / 2.0 + p.scale * 1e-3 + 1e-5;
            for (a, b) in xs.iter().zip(&back) {
                prop_assert!((a - b).abs() <= bound);
            }
        }

        #[test]
        fn prop_kernels_match_the_scalar_reference_on_hostile_floats(
            len in 0usize..200,
            seed in 0u64..u64::MAX
        ) {
            let src = hostile_vec(len, seed, true);
            check_against_reference::<1>(&src);
            check_against_reference::<2>(&src);
        }

        #[test]
        fn prop_fold_equals_dequantize_then_axpys(seed in 0u64..u64::MAX) {
            let all = hostile_vec(3 * TAILS + 2, seed, true);
            let (src, acc) = all.split_at(TAILS);
            let (replica, out) = acc.split_at(TAILS);
            let factors = (out[TAILS], out[TAILS + 1]);
            for n in 0..TAILS {
                let (src, replica, out) = (&src[..n], &replica[..n], &out[..n]);
                let (p8, p16) = (affine_params(src, 256), affine_params(src, 65_536));
                let (mut c8, mut c16) = (Vec::new(), Vec::new());
                quantize_le::<1>(src, p8, &mut c8);
                quantize_le::<2>(src, p16, &mut c16);
                // the fitted maps, a constant tensor's, and a −0.0 minimum
                for (p, step) in [(p8, p8.scale), (p8, 0.0), (p16, p16.scale), (p16, 0.0)] {
                    for min in [p.min, -0.0] {
                        let p = AffineParams { min, scale: step };
                        check_fold_against_axpys::<1>(p, &c8, replica, out, factors);
                        check_fold_against_axpys::<2>(p, &c16, replica, out, factors);
                    }
                }
            }
        }

        #[test]
        fn prop_top_k_is_sorted_unique_and_maximal(
            xs in proptest::collection::vec(-10.0f32..10.0, 1..200),
            k in 1usize..50
        ) {
            let idx = top_k_indices(&xs, k);
            prop_assert_eq!(idx.len(), k.min(xs.len()));
            prop_assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
            // every selected magnitude >= every unselected magnitude
            let selected: Vec<bool> = {
                let mut s = vec![false; xs.len()];
                for &i in &idx { s[i as usize] = true; }
                s
            };
            let min_in = idx.iter().map(|&i| xs[i as usize].abs()).fold(f32::INFINITY, f32::min);
            for (i, &v) in xs.iter().enumerate() {
                if !selected[i] {
                    prop_assert!(v.abs() <= min_in + 1e-6);
                }
            }
        }
    }

    /// For the codec rows ([`ROWS`]): the fitted map of `src`
    /// at width `W`, and a map from the pool's own values (any scale: zero,
    /// negative, subnormal, non-finite).
    fn maps<const W: usize>(pool: &[f32], src: &[f32]) -> [AffineParams; 2] {
        let (min, scale) = (pool[table::PARAMS], pool[table::PARAMS + 1]);
        [fit(src, 1 << (8 * W)), AffineParams { min, scale }]
    }

    /// `len` codes of `W` bytes, each byte mixed from the bits of one pool
    /// value.
    fn codes<const W: usize>(pool: &[f32], len: usize) -> Vec<u8> {
        let bytes = pool[table::C..][..W * len].iter();
        bytes
            .map(|v| (v.to_bits() ^ v.to_bits() >> 13) as u8)
            .collect()
    }

    fn row_fit(pool: &[f32], len: usize, wide: bool) -> Vec<f32> {
        let src = &pool[table::A..][..len];
        let mut out = Vec::new();
        for levels in [256, 65_536] {
            let p = if wide {
                affine_params(src, levels)
            } else {
                fit(src, levels)
            };
            out.extend([p.min, p.scale]);
        }
        out
    }

    fn row_quantize<const W: usize>(pool: &[f32], len: usize, wide: bool) -> Vec<f32> {
        let src = &pool[table::A..][..len];
        let mut out = Vec::new();
        for p in maps::<W>(pool, src) {
            let mut codes = Vec::new();
            if wide {
                quantize_le::<W>(src, p, &mut codes);
            } else {
                codes.resize(W * len, 0);
                if p.scale != 0.0 {
                    encode_codes::<W>(src, p, &mut codes);
                }
            }
            out.extend(codes.into_iter().map(f32::from));
        }
        out
    }

    fn row_dequantize<const W: usize>(pool: &[f32], len: usize, wide: bool) -> Vec<f32> {
        let codes = codes::<W>(pool, len);
        let mut out = Vec::new();
        for params in maps::<W>(pool, &pool[table::A..][..len]) {
            let mut values = vec![f32::NAN; 3];
            if wide {
                let view = QuantizedRef {
                    params,
                    wide: W == 2,
                    codes: &codes,
                };
                view.dequantize_into(&mut values);
            } else {
                values.resize(len, 0.0);
                decode_codes::<W>(params, codes.as_chunks().0, &mut values);
            }
            out.extend(values);
        }
        out
    }

    /// The fold into an `out` (and a replica, with `FEEDBACK`) that start
    /// from the pool; both, concatenated.
    fn row_fold<const W: usize, const FEEDBACK: bool>(
        pool: &[f32],
        len: usize,
        wide: bool,
    ) -> Vec<f32> {
        let codes = codes::<W>(pool, len);
        let (beta, w) = (pool[table::PARAMS + 2], pool[table::PARAMS + 3]);
        let mut out = Vec::new();
        for params in maps::<W>(pool, &pool[table::A..][..len]) {
            let mut replica = pool[table::B..][..len].to_vec();
            let mut sum = pool[table::C + table::TAILS..][..len].to_vec();
            let feedback = FEEDBACK.then_some((beta, &mut replica[..]));
            if wide {
                let view = QuantizedRef {
                    params,
                    wide: W == 2,
                    codes: &codes,
                };
                view.fold_into(feedback, w, &mut sum);
            } else {
                fold_codes::<W>(params, codes.as_chunks().0, feedback, w, &mut sum);
            }
            out.extend(replica);
            out.extend(sum);
        }
        out
    }

    /// The codec kernels, each as written and through its dispatcher.
    const ROWS: [(&str, table::Row); 9] = [
        ("fit", row_fit),
        ("quantize, W = 1", row_quantize::<1>),
        ("quantize, W = 2", row_quantize::<2>),
        ("dequantize, W = 1", row_dequantize::<1>),
        ("dequantize, W = 2", row_dequantize::<2>),
        ("fold, W = 1", row_fold::<1, false>),
        ("fold, W = 1, replica", row_fold::<1, true>),
        ("fold, W = 2", row_fold::<2, false>),
        ("fold, W = 2, replica", row_fold::<2, true>),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_avx2_and_baseline_codec_kernels_agree_bitwise(
            seed in 0u64..u64::MAX,
            non_finite in 0u8..2
        ) {
            table::rows_agree_bitwise(&ROWS, seed, non_finite == 1)?;
        }
    }
}
