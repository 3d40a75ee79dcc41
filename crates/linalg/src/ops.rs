//! Fused vector kernels used on the hot paths of training and gossip
//! aggregation.
//!
//! All functions operate on plain slices so the callers (flattened model
//! parameter vectors, matrix buffers) never need to copy into a dedicated
//! type. Every kernel panics on length mismatch — in this codebase a length
//! mismatch is always a programming error, never a data error.

/// Accumulator-lane count of the reduction kernels ([`dot`], and the small
/// `A·Bᵀ` GEMM kernel that reproduces `dot`'s order).
pub(crate) const LANES: usize = 8;

/// `y += alpha * x` (the BLAS `axpy`), the core of gossip aggregation.
///
/// Deliberately a plain element-wise loop: LLVM already emits full-width
/// vector code for this read-modify-write pass over `y`, and carving `y`
/// with `chunks_exact_mut` to unroll it by hand measured *3× slower* on
/// the `gossip_mixing` bench (the chunked mutable iterator blocks
/// vectorization of a loop that loads and stores every element anyway).
/// That is a finding about this loop shape: a kernel that accumulates
/// many inputs in registers and stores once ([`weighted_sum_into`]) is a
/// different shape, and explicit blocks are what make it fast.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = alpha * x` (scaled copy), used to start a weighted aggregation.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn scaled_copy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "scaled_copy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi;
    }
}

/// Dot product of two slices.
///
/// Accumulates in eight independent lanes so the compiler can vectorize
/// (two 4-wide or one 8-wide vector op per block) and the result does not
/// depend on auto-vectorization width. The lane combination order is
/// fixed, so the result is fully deterministic.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = [0.0f32; LANES];
    let full = x.len() - x.len() % LANES;
    for (xc, yc) in x[..full]
        .chunks_exact(LANES)
        .zip(y[..full].chunks_exact(LANES))
    {
        for ((a, &xi), &yi) in acc.iter_mut().zip(xc).zip(yc) {
            *a += xi * yi;
        }
    }
    let mut tail = 0.0f32;
    for (&xi, &yi) in x[full..].iter().zip(&y[full..]) {
        tail += xi * yi;
    }
    let quads = [
        (acc[0] + acc[1]) + (acc[2] + acc[3]),
        (acc[4] + acc[5]) + (acc[6] + acc[7]),
    ];
    quads[0] + quads[1] + tail
}

/// Squared Euclidean distance `‖x − y‖²`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn squared_distance(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "squared_distance length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Weighted sum of many equal-length vectors into `out`:
/// `out = Σ_k weights[k] * inputs[k]`.
///
/// This is the gossip-aggregation kernel (Line 8 of D-PSGD / Line 13 of
/// SkipTrain): node `i` computes `Σ_j W_ji · x_j` over its neighborhood.
/// The sum is register-fused (see `weighted_sum_core`): every
/// `WSUM_BLOCK`-float block of `out` is accumulated over the inputs in
/// registers and stored once, so `out` is written once and never read
/// back, and every input is streamed through exactly once. Each element
/// is `((w₀·x₀) + w₁·x₁) + …` with a separate multiply and add — the
/// order of the plain `scaled_copy` + `axpy` chain, which the tests keep
/// as the bitwise reference.
///
/// # Panics
/// Panics if `weights.len() != inputs.len()`, or if any input length differs
/// from `out.len()`.
pub fn weighted_sum_into(out: &mut [f32], inputs: &[&[f32]], weights: &[f32]) {
    assert_eq!(
        inputs.len(),
        weights.len(),
        "weighted_sum_into arity mismatch"
    );
    weighted_sum_core(out, weights, |t| inputs[t]);
}

/// [`weighted_sum_into`] over an indexed family of vectors: for each `t`,
/// the summed vector is `fetch(indices[t])` with weight `weights[t]`.
///
/// This variant lets callers aggregate straight out of their own storage
/// without materializing a `Vec<&[f32]>` per call.
///
/// # Panics
/// Panics if `indices.len() != weights.len()` or any fetched vector's
/// length differs from `out.len()`.
pub fn weighted_sum_indexed_into<'a, F>(out: &mut [f32], indices: &[u32], weights: &[f32], fetch: F)
where
    F: Fn(u32) -> &'a [f32],
{
    assert_eq!(
        indices.len(),
        weights.len(),
        "weighted_sum_indexed_into arity mismatch"
    );
    weighted_sum_core(out, weights, |t| fetch(indices[t]));
}

/// Parameter-tile length (in `f32`s) of [`weighted_sum_block_into`]: one
/// tile of every sender's model plus one of every receiver's output must
/// stay in a core's L2 while the receivers take turns on it — 8 KiB per
/// vector, 1 MiB for a 64-node fleet. Measured there (64 nodes × 88 970
/// parameters, one thread): 512 / 2048 / 8192 floats run within 2 % of
/// each other, 32 768 (16 MiB of tiles, past L2) loses 16 %. Hence a
/// constant, not a setting; public so callers' tests can straddle a tile
/// boundary.
pub const WSUM_TILE: usize = 2048;

/// [`weighted_sum_indexed_into`] for a whole block of receivers, tiled
/// across them: with `(indices, weights) = &rows[r]`,
/// `outs[r] = Σ_t weights[t] · fetch(r, indices[t])`.
///
/// A fleet's models do not fit the cache, and under gossip every model is
/// read by each of its `degree + 1` neighbours; summing receiver by
/// receiver fetches it from memory that many times. Here the loop is
/// parameter tile outermost, receiver innermost: a [`WSUM_TILE`]-float
/// span of all the senders' models is fetched once and served to all its
/// readers from L2. Each tile of each receiver is one `weighted_sum_core`
/// call, which is element-wise, so neither the tile length nor how
/// receivers are grouped into blocks can change a result bit.
///
/// `fetch` is given the receiver's position in the block along with the
/// sender index, so one sender may resolve to different storage per
/// receiver (the executor reads a node's own model in place of its
/// decoded wire copy).
///
/// # Panics
/// Panics if `outs` and `rows` differ in length, if a receiver's index and
/// weight lists differ in length, or if an output or fetched vector's
/// length differs from `outs[0].len()`.
pub fn weighted_sum_block_into<'a, F>(
    outs: &mut [Vec<f32>],
    rows: &[(Vec<u32>, Vec<f32>)],
    fetch: F,
) where
    F: Fn(usize, u32) -> &'a [f32],
{
    weighted_sum_block_tiled(outs, rows, fetch, WSUM_TILE);
}

/// [`weighted_sum_block_into`] at an explicit tile length (tests sweep it).
fn weighted_sum_block_tiled<'a, F>(
    outs: &mut [Vec<f32>],
    rows: &[(Vec<u32>, Vec<f32>)],
    fetch: F,
    tile: usize,
) where
    F: Fn(usize, u32) -> &'a [f32],
{
    assert_eq!(outs.len(), rows.len(), "weighted_sum_block arity mismatch");
    let n = outs.first().map_or(0, |out| out.len());
    for (r, (out, (indices, weights))) in outs.iter().zip(rows).enumerate() {
        assert_eq!(
            indices.len(),
            weights.len(),
            "weighted_sum_block arity mismatch"
        );
        assert_eq!(out.len(), n, "weighted_sum length mismatch");
        for &j in indices {
            assert_eq!(fetch(r, j).len(), n, "weighted_sum length mismatch");
        }
    }
    for start in (0..n).step_by(tile) {
        let end = (start + tile).min(n);
        for (r, (out, (indices, weights))) in outs.iter_mut().zip(rows).enumerate() {
            weighted_sum_core(&mut out[start..end], weights, |t| {
                &fetch(r, indices[t])[start..end]
            });
        }
    }
}

/// Floats per register block of the fused weighted sum: four SSE or two
/// AVX vectors of accumulators, few enough to stay in registers beside the
/// broadcast weight and the loaded input on baseline x86-64.
const WSUM_BLOCK: usize = 16;

/// Inputs fused per pass over `out`. A gossip neighbourhood (degree + 1,
/// 7 to 11 in the paper's topologies) takes one or two passes.
const WSUM_GROUP: usize = 8;

/// Shared register-fused core of the weighted-sum kernels; `get(t)` is
/// the `t`-th summed vector.
///
/// Inputs are taken [`WSUM_GROUP`] at a time. For the first group each
/// [`WSUM_BLOCK`]-float block of `out` starts as `w₀·x₀`, adds the group's
/// other inputs in order while the block lives in registers, and is stored
/// once — `out` is never read. A later group starts each block from the
/// stored value and adds its inputs in the same order. Every element
/// therefore sees exactly the operations of `scaled_copy` followed by
/// `axpy` per further input, in input order, each a separate `f32`
/// multiply and add: blocks, groups and the scalar tail only decide
/// *where* the running sum is held between two additions, never which
/// additions happen or in what order.
fn weighted_sum_core<'a, G>(out: &mut [f32], weights: &[f32], get: G)
where
    G: Fn(usize) -> &'a [f32],
{
    if weights.is_empty() {
        out.fill(0.0);
        return;
    }
    for (g, ws) in weights.chunks(WSUM_GROUP).enumerate() {
        let mut xs: [&[f32]; WSUM_GROUP] = [&[]; WSUM_GROUP];
        for (t, x) in xs.iter_mut().enumerate().take(ws.len()) {
            *x = get(g * WSUM_GROUP + t);
            assert_eq!(x.len(), out.len(), "weighted_sum length mismatch");
        }
        weighted_sum_group(out, &xs[..ws.len()], ws, g == 0);
    }
}

/// One group of [`weighted_sum_core`]: `out = Σ ws[t]·xs[t]` when `first`,
/// `out += Σ ws[t]·xs[t]` otherwise, inputs added in order per element.
#[inline]
fn weighted_sum_group(out: &mut [f32], xs: &[&[f32]], ws: &[f32], first: bool) {
    let full = out.len() - out.len() % WSUM_BLOCK;
    let (body, tail) = out.split_at_mut(full);
    // the first group's leading input initialises the block
    let skip = usize::from(first);
    for (b, block) in body.chunks_exact_mut(WSUM_BLOCK).enumerate() {
        let at = b * WSUM_BLOCK;
        let mut acc = [0.0f32; WSUM_BLOCK];
        if first {
            let x = &xs[0][at..at + WSUM_BLOCK];
            for (a, &v) in acc.iter_mut().zip(x) {
                *a = ws[0] * v;
            }
        } else {
            acc.copy_from_slice(block);
        }
        for (x, &w) in xs[skip..].iter().zip(&ws[skip..]) {
            let x = &x[at..at + WSUM_BLOCK];
            for (a, &v) in acc.iter_mut().zip(x) {
                *a += w * v;
            }
        }
        block.copy_from_slice(&acc);
    }
    for (e, o) in tail.iter_mut().enumerate() {
        let at = full + e;
        let mut acc = if first { ws[0] * xs[0][at] } else { *o };
        for (x, &w) in xs[skip..].iter().zip(&ws[skip..]) {
            acc += w * x[at];
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-5 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn axpy_matches_manual() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn scaled_copy_overwrites() {
        let x = [1.0, -2.0];
        let mut y = [9.0, 9.0];
        scaled_copy(0.5, &x, &mut y);
        assert_eq!(y, [0.5, -1.0]);
    }

    #[test]
    fn dot_handles_tails() {
        // length 19 exercises both the 8-lane body (two blocks) and the
        // 3-element tail loop
        let x: Vec<f32> = (1..=19).map(|v| v as f32).collect();
        let y: Vec<f32> = (1..=19).map(|v| (v * 2) as f32).collect();
        let expected: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(close(dot(&x, &y), expected));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_of_unit_axis() {
        assert!(close(norm(&[0.0, 1.0, 0.0]), 1.0));
    }

    #[test]
    fn squared_distance_symmetry() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 3.0];
        assert!(close(squared_distance(&x, &y), squared_distance(&y, &x)));
        assert!(close(squared_distance(&x, &y), 25.0));
    }

    #[test]
    fn weighted_sum_matches_manual() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let c = [1.0, 1.0];
        let mut out = [0.0, 0.0];
        weighted_sum_into(&mut out, &[&a, &b, &c], &[0.5, 0.25, 0.25]);
        assert_eq!(out, [0.75, 0.5]);
    }

    #[test]
    fn weighted_sum_empty_inputs_zeroes_out() {
        let mut out = [3.0, 4.0];
        weighted_sum_into(&mut out, &[], &[]);
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    fn weighted_sum_matches_scaled_copy_axpy_chain_bitwise() {
        // The register-blocked kernel must keep the legacy per-element
        // accumulation order (first input scaled, then axpy in order) —
        // length 21 exercises both the 8-wide blocks and the tail.
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|t| (0..21).map(|j| ((t * 31 + j) as f32).sin()).collect())
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let weights = [0.3f32, 0.1, 0.25, 0.15, 0.2];
        let mut blocked = vec![0.0f32; 21];
        weighted_sum_into(&mut blocked, &refs, &weights);
        let mut chain = vec![0.0f32; 21];
        scaled_copy(weights[0], refs[0], &mut chain);
        for (x, &w) in refs.iter().zip(&weights).skip(1) {
            axpy(w, x, &mut chain);
        }
        for (b, c) in blocked.iter().zip(&chain) {
            assert_eq!(b.to_bits(), c.to_bits(), "accumulation order changed");
        }
    }

    /// A value from a palette that stresses sign, rounding and range:
    /// ±0.0, subnormals, tiny, ordinary and large magnitudes (bounded so 40
    /// products cannot reach inf − inf = NaN, whose payload nothing pins).
    fn palette(state: &mut u64) -> f32 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 40) as f32 / (1u64 << 24) as f32;
        let magnitude = match (z >> 1) % 6 {
            0 => 0.0,
            1 => f32::from_bits(1 + ((z >> 8) as u32 & 0x007f_fffe)),
            2 => unit * 1e17,
            3 => unit * 1e-20,
            _ => unit,
        };
        if z & 1 == 0 {
            magnitude
        } else {
            -magnitude
        }
    }

    /// The bitwise reference: `scaled_copy`, then `axpy` per further
    /// input, in order (all zeros at arity 0).
    fn chain(len: usize, inputs: &[&[f32]], weights: &[f32]) -> Vec<u32> {
        let mut out = vec![0.0f32; len];
        if let Some((x0, rest)) = inputs.split_first() {
            scaled_copy(weights[0], x0, &mut out);
            for (x, &w) in rest.iter().zip(&weights[1..]) {
                axpy(w, x, &mut out);
            }
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn prop_fused_weighted_sum_is_the_chain_bitwise(
            arity in 0usize..41,
            len in 0usize..101,
            seed in 0u64..u64::MAX
        ) {
            // arity 0..=40 crosses every WSUM_GROUP boundary, length
            // 0..=100 every WSUM_BLOCK tail
            let mut state = seed;
            let store: Vec<Vec<f32>> = (0..arity + 3)
                .map(|_| (0..len).map(|_| palette(&mut state)).collect())
                .collect();
            let weights: Vec<f32> = (0..arity).map(|_| palette(&mut state)).collect();
            let indices: Vec<u32> = (0..arity)
                .map(|t| ((seed >> (t % 48)) as usize % store.len()) as u32)
                .collect();
            let refs: Vec<&[f32]> = indices.iter().map(|&j| store[j as usize].as_slice()).collect();
            let expected = chain(len, &refs, &weights);
            // stale contents must never leak into the result
            let dirty = vec![f32::NAN; len];

            let mut direct = dirty.clone();
            weighted_sum_into(&mut direct, &refs, &weights);
            prop_assert_eq!(bits(&direct), expected.clone(), "weighted_sum_into");

            let mut indexed = dirty.clone();
            weighted_sum_indexed_into(&mut indexed, &indices, &weights, |j| &store[j as usize]);
            prop_assert_eq!(bits(&indexed), expected.clone(), "weighted_sum_indexed_into");

            // the block entry point over three receivers (the sampled row,
            // an empty row, the row reversed): one tile, many tiles, and a
            // tile length that does not divide the parameter count
            let reversed: (Vec<u32>, Vec<f32>) = (
                indices.iter().rev().copied().collect(),
                weights.iter().rev().copied().collect(),
            );
            let rev_refs: Vec<&[f32]> = refs.iter().rev().copied().collect();
            let block_expected =
                [expected, chain(len, &[], &[]), chain(len, &rev_refs, &reversed.1)];
            let rows = [(indices.clone(), weights.clone()), (Vec::new(), Vec::new()), reversed];
            for tile in [WSUM_TILE, 16, 7, len.max(1), len + 1] {
                let mut outs = vec![dirty.clone(); 3];
                weighted_sum_block_tiled(&mut outs, &rows, |_, j| &store[j as usize], tile);
                for (out, want) in outs.iter().zip(&block_expected) {
                    prop_assert_eq!(&bits(out), want, "block entry point, tile {}", tile);
                }
            }
        }
    }

    #[test]
    fn weighted_sum_block_fetch_sees_the_receivers_position() {
        // receiver r reads sender 0 from its own private store
        let stores = [vec![vec![1.0f32; 5]], vec![vec![2.0f32; 5]]];
        let mut outs = vec![vec![9.0f32; 5]; 2];
        let rows = vec![(vec![0u32, 0], vec![0.5f32, 0.25]); 2];
        weighted_sum_block_into(&mut outs, &rows, |r, j| &stores[r][j as usize]);
        assert_eq!(outs, [vec![0.75f32; 5], vec![1.5f32; 5]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_block_rejects_a_longer_sender() {
        // a per-tile slice would silently truncate it
        let long = vec![1.0f32; 9];
        let mut outs = vec![vec![0.0f32; 5]];
        weighted_sum_block_into(&mut outs, &[(vec![0], vec![1.0])], |_, _| &long);
    }

    #[test]
    fn weighted_sum_indexed_matches_direct() {
        let store: Vec<Vec<f32>> = (0..4)
            .map(|t| (0..10).map(|j| (t * 10 + j) as f32).collect())
            .collect();
        let indices = [2u32, 0, 3];
        let weights = [0.5f32, 0.25, 0.25];
        let mut indexed = vec![0.0f32; 10];
        weighted_sum_indexed_into(&mut indexed, &indices, &weights, |j| &store[j as usize]);
        let refs: Vec<&[f32]> = indices
            .iter()
            .map(|&j| store[j as usize].as_slice())
            .collect();
        let mut direct = vec![0.0f32; 10];
        weighted_sum_into(&mut direct, &refs, &weights);
        assert_eq!(indexed, direct);
    }

    #[test]
    fn weighted_sum_indexed_empty_zeroes_out() {
        let mut out = [5.0f32, 6.0];
        weighted_sum_indexed_into(&mut out, &[], &[], |_| &[]);
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatch() {
        let mut y = [0.0];
        axpy(1.0, &[1.0, 2.0], &mut y);
    }
}
