//! Fused vector kernels used on the hot paths of training and gossip
//! aggregation.
//!
//! All functions operate on plain slices so the callers (flattened model
//! parameter vectors, matrix buffers) never need to copy into a dedicated
//! type. Every kernel panics on length mismatch — in this codebase a length
//! mismatch is always a programming error, never a data error.

use rayon::prelude::*;

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
/// many inputs in registers and stores once
/// ([`weighted_sum_indexed_into`]) is a different shape, and explicit
/// blocks are what make it fast.
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

/// Weighted sum of an indexed family of equal-length vectors into `out`:
/// `out = Σ_t weights[t] · fetch(indices[t])`, straight out of the
/// caller's own storage.
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

/// The consensus step `mixed ← base + γ·(mixed − base)`, element by
/// element; γ = 1 leaves `mixed` as it is.
///
/// # Panics
/// Panics if `base.len() != mixed.len()`.
#[inline]
pub fn consensus_blend(gamma: f32, base: &[f32], mixed: &mut [f32]) {
    assert_eq!(base.len(), mixed.len(), "consensus_blend length mismatch");
    if gamma == 1.0 {
        return;
    }
    for (m, &b) in mixed.iter_mut().zip(base) {
        *m = b + gamma * (*m - b);
    }
}

/// Parameter-tile length (in `f32`s) of [`mix_in_place`]: a tile of every
/// model plus a worker's stage of `rows × WSUM_TILE` floats should stay in
/// a core's L2 while the receivers take turns on it — 4 KiB per model, so
/// 2 × 256 KiB for a 64-node fleet and 2 × 1 MiB for 256 nodes. Measured
/// with 7-entry rows (a relabelled 6-regular ring) × 88 970 parameters,
/// min of 40 interleaved runs, on a 2-vCPU AVX2 host with 2 MiB of L2 per
/// core; the last column is the out-of-place receiver-block sum this
/// kernel replaced, which needed a second model per node:
///
/// | nodes, threads | 512 | 1 024 | 2 048 | out of place, 2 048 |
/// |---|---|---|---|---|
/// | 64, 1 | 6.2 ms | 6.0 ms | 5.9 ms | 5.4 ms |
/// | 64, 2 | 3.7 ms | 3.5 ms | 3.4 ms | 3.7 ms |
/// | 256, 1 | 26.8 ms | 26.5 ms | 32.6 ms | 25.7 ms |
/// | 256, 2 | 16.9 ms | 17.4 ms | 19.8 ms | 15.5 ms |
///
/// 1 024 is within 4 % of the best tile in every row; 2 048 loses 23 % at
/// 256 nodes on one thread (a 2 MiB stage, past L2). Hence a constant,
/// not a setting; public so callers' tests can straddle a tile boundary.
pub const WSUM_TILE: usize = 1024;

/// Mixes a fleet's models in place: with `(indices, weights) = &mix[i]`
/// and every `x` the row as it was on entry,
/// `rows[i] ← x_i + γ·(Σ_t weights[t] · x_{indices[t]} − x_i)`.
///
/// A fleet's models do not fit the cache, and under gossip every model is
/// read by each of its `degree + 1` neighbours; summing receiver by
/// receiver fetches it from memory that many times. Here the loop is
/// parameter tile outermost, receiver innermost: a [`WSUM_TILE`]-float
/// span of every row is fetched once and served to all its readers from
/// L2. Each receiver's span is summed by `weighted_sum_core` into the
/// worker's stage, and the tile is written back over the rows — through
/// [`consensus_blend`] — only once every receiver has read it, so each
/// element sees exactly the operations of an out-of-place sum followed by
/// the blend. Neither the tile length nor the thread budget can change a
/// result bit.
///
/// `stand_in(i, j)` may name a slice receiver `i` reads in place of row
/// `j` (the executor's decoded wire copies); `None` reads the row.
///
/// Worker `c` owns a contiguous range of tiles across **every** row, so
/// no span is read by one worker while another writes it. `stages` holds
/// one stage per worker, grown to `rows × min(WSUM_TILE, len)` floats on
/// first use; its length caps the worker count. At one worker the rows
/// are mixed where they lie; at two or more each worker is handed views
/// of its range of every row.
///
/// # Panics
/// Panics if `rows` and `mix` differ in length, if a receiver's index and
/// weight lists differ in length, if a row or stand-in's length differs
/// from `rows[0].len()`, or if `stages` is empty while there is something
/// to mix.
pub fn mix_in_place<'a, F>(
    rows: &mut [Vec<f32>],
    mix: &[(Vec<u32>, Vec<f32>)],
    gamma: f32,
    stand_in: F,
    stages: &mut [Vec<f32>],
) where
    F: Fn(usize, u32) -> Option<&'a [f32]> + Sync,
{
    mix_in_place_tiled(rows, mix, gamma, stand_in, stages, WSUM_TILE);
}

/// [`mix_in_place`] at an explicit tile length (tests sweep it).
fn mix_in_place_tiled<'a, F>(
    rows: &mut [Vec<f32>],
    mix: &[(Vec<u32>, Vec<f32>)],
    gamma: f32,
    stand_in: F,
    stages: &mut [Vec<f32>],
    tile: usize,
) where
    F: Fn(usize, u32) -> Option<&'a [f32]> + Sync,
{
    assert_eq!(rows.len(), mix.len(), "mix_in_place arity mismatch");
    let len = rows.first().map_or(0, Vec::len);
    for (i, (indices, weights)) in mix.iter().enumerate() {
        assert_eq!(indices.len(), weights.len(), "mix_in_place arity mismatch");
        assert_eq!(rows[i].len(), len, "weighted_sum length mismatch");
        for &j in indices {
            let x = stand_in(i, j).unwrap_or(&rows[j as usize]);
            assert_eq!(x.len(), len, "weighted_sum length mismatch");
        }
    }
    if len == 0 {
        return;
    }
    assert!(!stages.is_empty(), "mix_in_place needs a stage");
    let width = tile.min(len);
    let tiles = len.div_ceil(tile);
    let per = tiles.div_ceil(rayon::current_num_threads().min(stages.len()));
    let workers = tiles.div_ceil(per);
    for stage in &mut stages[..workers] {
        stage.resize(rows.len() * width, 0.0);
    }
    if workers == 1 {
        mix_tile_range(rows, 0, mix, gamma, &stand_in, &mut stages[0], tile);
        return;
    }
    let per = per * tile;
    // lint:allow(hot_path_alloc, "budget ≥ 2 only: each worker's views of its range of every row (16 B per row), the safe way to split rows at the range boundaries")
    let mut views: Vec<Vec<&mut [f32]>> = (0..workers).map(|_| Default::default()).collect();
    for row in rows.iter_mut() {
        for (view, piece) in views.iter_mut().zip(row.chunks_mut(per)) {
            view.push(piece);
        }
    }
    views
        .par_iter_mut()
        .zip(stages.par_iter_mut())
        .enumerate()
        .for_each(|(c, (view, stage))| {
            mix_tile_range(view, c * per, mix, gamma, &stand_in, stage, tile);
        });
}

/// One worker's loop of [`mix_in_place`]: `rows[i]` is row `i`'s elements
/// from `offset` on, walked tile by tile. A tile is summed for every
/// receiver into `stage` (one `tile.min(len)` span per row) from the
/// rows' untouched spans, then written back.
fn mix_tile_range<'a, R, F>(
    rows: &mut [R],
    offset: usize,
    mix: &[(Vec<u32>, Vec<f32>)],
    gamma: f32,
    stand_in: &F,
    stage: &mut [f32],
    tile: usize,
) where
    R: AsRef<[f32]> + AsMut<[f32]>,
    F: Fn(usize, u32) -> Option<&'a [f32]>,
{
    let width = stage.len() / rows.len();
    let len = rows.first().map_or(0, |row| row.as_ref().len());
    for start in (0..len).step_by(tile) {
        let end = (start + tile).min(len);
        let (from, to) = (offset + start, offset + end);
        let read = &*rows;
        for (i, ((indices, weights), out)) in
            mix.iter().zip(stage.chunks_exact_mut(width)).enumerate()
        {
            weighted_sum_core(&mut out[..end - start], weights, |t| {
                match stand_in(i, indices[t]) {
                    Some(x) => &x[from..to],
                    None => &read[indices[t] as usize].as_ref()[start..end],
                }
            });
        }
        for (row, mixed) in rows.iter_mut().zip(stage.chunks_exact_mut(width)) {
            let (x, mixed) = (&mut row.as_mut()[start..end], &mut mixed[..end - start]);
            consensus_blend(gamma, x, mixed);
            x.copy_from_slice(mixed);
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
        let store = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let mut out = [0.0, 0.0];
        weighted_sum_indexed_into(&mut out, &[0, 1, 2], &[0.5, 0.25, 0.25], |j| {
            &store[j as usize]
        });
        assert_eq!(out, [0.75, 0.5]);
    }

    #[test]
    fn weighted_sum_empty_inputs_zeroes_out() {
        // a receiver whose mixing row is empty
        let mut rows = vec![vec![3.0f32, 4.0]];
        let mut stages = vec![Vec::new()];
        mix_in_place(
            &mut rows,
            &[(Vec::new(), Vec::new())],
            1.0,
            |_, _| None,
            &mut stages,
        );
        assert_eq!(rows, [vec![0.0f32; 2]]);
    }

    #[test]
    fn weighted_sum_matches_scaled_copy_axpy_chain_bitwise() {
        // The register-blocked kernel must keep the legacy per-element
        // accumulation order (first input scaled, then axpy in order) —
        // length 21 exercises both the 8-wide blocks and the tail.
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|t| (0..21).map(|j| ((t * 31 + j) as f32).sin()).collect())
            .collect();
        let weights = [0.3f32, 0.1, 0.25, 0.15, 0.2];
        let mut blocked = vec![0.0f32; 21];
        weighted_sum_indexed_into(&mut blocked, &[0, 1, 2, 3, 4], &weights, |j| {
            &inputs[j as usize]
        });
        let mut chain = vec![0.0f32; 21];
        scaled_copy(weights[0], &inputs[0], &mut chain);
        for (x, &w) in inputs.iter().zip(&weights).skip(1) {
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

            let mut indexed = dirty.clone();
            weighted_sum_indexed_into(&mut indexed, &indices, &weights, |j| &store[j as usize]);
            prop_assert_eq!(bits(&indexed), expected.clone(), "weighted_sum_indexed_into");

            // the in-place kernel over the whole store as a fleet: receiver
            // 0 takes the sampled row (with or without a self entry), 1 an
            // empty row, 2 the row reversed, every other k the row shifted
            // by k; some senders are read from stand-ins. Against the chain
            // over the pre-update rows, then the blend, at one tile, many
            // tiles and tile lengths that do not divide the parameter count,
            // and at budgets 1, 2 and 7.
            let m = store.len();
            let alt: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..len).map(|_| palette(&mut state)).collect())
                .collect();
            let mix: Vec<(Vec<u32>, Vec<f32>)> = (0..m)
                .map(|k| match k {
                    1 => (Vec::new(), Vec::new()),
                    2 => (
                        indices.iter().rev().copied().collect(),
                        weights.iter().rev().copied().collect(),
                    ),
                    _ => (
                        indices.iter().map(|&j| ((j as usize + k) % m) as u32).collect(),
                        weights.clone(),
                    ),
                })
                .collect();
            let stand_in = |i: usize, j: u32| {
                let j = j as usize;
                ((i + j).is_multiple_of(3) && i != j).then(|| alt[j].as_slice())
            };
            for gamma in [1.0f32, 0.5] {
                let want: Vec<Vec<u32>> = mix
                    .iter()
                    .enumerate()
                    .map(|(i, (idx, w))| {
                        let refs: Vec<&[f32]> = idx
                            .iter()
                            .map(|&j| stand_in(i, j).unwrap_or(&store[j as usize]))
                            .collect();
                        let mixed = chain(len, &refs, w);
                        store[i]
                            .iter()
                            .zip(mixed)
                            .map(|(&b, o)| {
                                let o = f32::from_bits(o);
                                if gamma == 1.0 { o } else { b + gamma * (o - b) }.to_bits()
                            })
                            .collect()
                    })
                    .collect();
                for tile in [WSUM_TILE, 16, 7, len.max(1), len + 1] {
                    for threads in [1usize, 2, 7] {
                        let mut rows = store.clone();
                        // stale stage contents must never leak either
                        let mut stages = vec![vec![f32::NAN; 5]; 7];
                        rayon::ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .unwrap()
                            .install(|| {
                                mix_in_place_tiled(&mut rows, &mix, gamma, stand_in, &mut stages, tile)
                            });
                        for (i, (row, want)) in rows.iter().zip(&want).enumerate() {
                            prop_assert_eq!(
                                &bits(row), want,
                                "in place: receiver {}, tile {}, {} threads, γ {}", i, tile, threads, gamma
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_sum_block_fetch_sees_the_receivers_position() {
        // receiver r reads sender 0 from its own private store
        let stores = [vec![1.0f32; 5], vec![2.0f32; 5]];
        let mut rows = vec![vec![9.0f32; 5]; 2];
        let mix = vec![(vec![0u32, 0], vec![0.5f32, 0.25]); 2];
        let mut stages = vec![Vec::new()];
        mix_in_place(&mut rows, &mix, 1.0, |r, _| Some(&stores[r]), &mut stages);
        assert_eq!(rows, [vec![0.75f32; 5], vec![1.5f32; 5]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_block_rejects_a_longer_sender() {
        // a per-tile slice would silently truncate it
        let long = [1.0f32; 9];
        let mut rows = vec![vec![0.0f32; 5]];
        let mut stages = vec![Vec::new()];
        mix_in_place(
            &mut rows,
            &[(vec![0], vec![1.0])],
            1.0,
            |_, _| Some(&long[..]),
            &mut stages,
        );
    }

    #[test]
    fn weighted_sum_indexed_matches_direct() {
        // indices out of order, one vector skipped: each element is the
        // directly computed 0.5·(20 + j) + 0.25·j + 0.25·(30 + j), exact
        let store: Vec<Vec<f32>> = (0..4)
            .map(|t| (0..10).map(|j| (t * 10 + j) as f32).collect())
            .collect();
        let mut indexed = vec![0.0f32; 10];
        weighted_sum_indexed_into(&mut indexed, &[2, 0, 3], &[0.5, 0.25, 0.25], |j| {
            &store[j as usize]
        });
        let direct: Vec<f32> = (0..10).map(|j| 17.5 + j as f32).collect();
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
