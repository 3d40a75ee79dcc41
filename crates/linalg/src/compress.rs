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
//!   `|x − dequant(quant(x))| ≤ scale / 2` (plus f32 rounding).
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
//! Every feedback kernel is deterministic and allocation-free at steady
//! state: callers pass reusable output buffers, and all of them retain
//! capacity across calls.

/// Affine (asymmetric) quantization parameters for one tensor:
/// `value ≈ min + scale · code`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineParams {
    /// Reconstruction offset (the tensor minimum).
    pub min: f32,
    /// Reconstruction step between adjacent codes.
    pub scale: f32,
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
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in src {
        if v.is_finite() {
            lo = lo.min(v as f64);
            hi = hi.max(v as f64);
        }
    }
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

#[inline]
fn encode_one(v: f32, p: AffineParams, max_code: u32) -> u32 {
    if p.scale == 0.0 {
        return 0;
    }
    let code = ((v - p.min) / p.scale).round();
    // clamp handles f32 rounding at the range edges; NaN maps to code 0
    // and ±∞ saturate, so non-finite inputs cannot panic mid-round
    (code.max(0.0) as u32).min(max_code)
}

/// Quantizes `src` to `u8` codes (256 levels); returns the affine
/// parameters and one code per entry.
pub fn quantize_u8(src: &[f32]) -> (AffineParams, Vec<u8>) {
    let mut codes = Vec::new();
    let p = quantize_u8_into(src, &mut codes);
    (p, codes)
}

/// Allocation-free form of [`quantize_u8`]: writes the codes into a
/// reusable buffer (cleared first; capacity retained across calls).
pub fn quantize_u8_into(src: &[f32], codes: &mut Vec<u8>) -> AffineParams {
    let p = affine_params(src, 256);
    codes.clear();
    codes.extend(src.iter().map(|&v| encode_one(v, p, 255) as u8));
    p
}

/// Quantizes `src` to `u16` codes (65 536 levels).
pub fn quantize_u16(src: &[f32]) -> (AffineParams, Vec<u16>) {
    let mut codes = Vec::new();
    let p = quantize_u16_into(src, &mut codes);
    (p, codes)
}

/// Allocation-free form of [`quantize_u16`].
pub fn quantize_u16_into(src: &[f32], codes: &mut Vec<u16>) -> AffineParams {
    let p = affine_params(src, 65_536);
    codes.clear();
    codes.extend(src.iter().map(|&v| encode_one(v, p, 65_535) as u16));
    p
}

/// Reconstructs one value from its affine code. The multiply-add runs in
/// f64 — `scale · code` alone can exceed `f32::MAX` for extreme-range
/// tensors even though the reconstructed value is representable.
#[inline]
pub fn dequantize_one(p: AffineParams, code: u32) -> f32 {
    (p.min as f64 + p.scale as f64 * code as f64) as f32
}

/// Reconstructs values from `u8` codes into `out` (resized to fit).
pub fn dequantize_u8(p: AffineParams, codes: &[u8], out: &mut Vec<f32>) {
    out.clear();
    out.extend(codes.iter().map(|&c| dequantize_one(p, c as u32)));
}

/// Reconstructs values from `u16` codes into `out` (resized to fit).
pub fn dequantize_u16(p: AffineParams, codes: &[u16], out: &mut Vec<f32>) {
    out.clear();
    out.extend(codes.iter().map(|&c| dequantize_one(p, c as u32)));
}

/// Indices of the `k` largest-magnitude entries of `src`, ascending.
///
/// `k` is clamped to `src.len()`. Ties break toward the lower index so the
/// selection is deterministic across platforms and thread counts. The
/// magnitude order is `f32::total_cmp` on `|v|`, which ranks NaN above
/// every finite value — a diverged coordinate is transmitted (and thus
/// propagates to receivers exactly like the dense codec) instead of
/// panicking mid-round.
pub fn top_k_indices(src: &[f32], k: usize) -> Vec<u32> {
    let mut order = Vec::new();
    top_k_indices_into(src, k, &mut order);
    order
}

/// Allocation-free form of [`top_k_indices`]: the selection runs inside
/// `out` (cleared first; capacity retained), so steady-state callers pay
/// zero heap traffic per selection.
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

/// Gathers `src[indices]` into a dense value list (the top-k payload).
pub fn gather(src: &[f32], indices: &[u32]) -> Vec<f32> {
    let mut out = Vec::new();
    gather_into(src, indices, &mut out);
    out
}

/// Allocation-free form of [`gather`].
pub fn gather_into(src: &[f32], indices: &[u32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(indices.iter().map(|&i| src[i as usize]));
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
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u8_roundtrip_error_is_half_step_bounded() {
        let src: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 113) as f32 / 7.0 - 8.0)
            .collect();
        let (p, codes) = quantize_u8(&src);
        let mut back = Vec::new();
        dequantize_u8(p, &codes, &mut back);
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
        dequantize_u8(p8, &c8, &mut b8);
        dequantize_u16(p16, &c16, &mut b16);
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
        dequantize_u8(p, &codes, &mut back);
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
        dequantize_u8(p, &codes, &mut back);
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
        dequantize_u8(p, &codes, &mut back);
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
        dequantize_u8(p, &codes, &mut back);
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
    fn gather_follows_indices() {
        let src = [10.0f32, 20.0, 30.0];
        assert_eq!(gather(&src, &[2, 0]), vec![30.0, 10.0]);
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
        let (mut codes8, mut codes16, mut order) = (Vec::new(), Vec::new(), Vec::new());
        assert_eq!(quantize_u8_into(&src, &mut codes8), quantize_u8(&src).0);
        assert_eq!(codes8, quantize_u8(&src).1);
        assert_eq!(quantize_u16_into(&src, &mut codes16), quantize_u16(&src).0);
        assert_eq!(codes16, quantize_u16(&src).1);
        top_k_indices_into(&src, 7, &mut order);
        assert_eq!(order, top_k_indices(&src, 7));
        let mut vals = Vec::new();
        gather_into(&src, &order, &mut vals);
        assert_eq!(vals, gather(&src, &order));
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
            dequantize_u8(p, &codes, &mut back);
            let bound = p.scale / 2.0 + p.scale * 1e-3 + 1e-5;
            for (a, b) in xs.iter().zip(&back) {
                prop_assert!((a - b).abs() <= bound);
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
}
