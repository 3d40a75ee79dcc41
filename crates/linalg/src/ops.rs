//! Fused vector kernels used on the hot paths of training and gossip
//! aggregation.
//!
//! All functions operate on plain slices so the callers (flattened model
//! parameter vectors, matrix buffers) never need to copy into a dedicated
//! type. Every kernel panics on length mismatch — in this codebase a length
//! mismatch is always a programming error, never a data error.

use crate::simd::with_avx2;

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

/// Parameter-tile length (in `f32`s) of a window's mix: the unit a worker
/// owns. Worker `c` takes a contiguous range of tiles across **every** row,
/// so no span is read by one worker while another writes it. With the
/// sub-tile at 512, a tile of 2 048 reads within 2 % of 1 024 in seven of
/// the eight rows of [`MIX_SUB_TILE`]'s table and 5 % slower at 64 nodes,
/// 2 threads, depth 1. Public so callers' tests can straddle a tile
/// boundary.
pub const WSUM_TILE: usize = 1024;

/// Sub-tile length (in `f32`s) of a window's mix: the unit the cache sees.
/// A sub-tile of every row and the worker's stage of `rows × MIX_SUB_TILE`
/// floats go through all of the window's rounds while they stay in a
/// core's L2 — 2 × 128 KiB for a 64-node fleet, 2 × 512 KiB for 256 nodes.
/// Measured per round of a window of `depth` rounds, with 7-entry rows (a
/// relabelled 6-regular ring) × 88 970 parameters, tile 1 024, min of 20
/// interleaved runs, on a 2-vCPU AVX2 host with 2 MiB of L2 per core. The
/// first column is the kernel this one replaced, which mixed one round at
/// a time with the tile as its cache unit:
///
/// | nodes, threads, depth | one round at a time | 256 | 512 | 1 024 |
/// |---|---|---|---|---|
/// | 64, 1, 1 | 5.44 ms | 5.48 ms | 4.92 ms | 4.84 ms |
/// | 64, 1, 8 | 5.30 ms | 3.02 ms | 2.96 ms | 2.99 ms |
/// | 64, 2, 1 | 3.78 ms | 3.18 ms | 2.91 ms | 2.90 ms |
/// | 64, 2, 8 | 3.12 ms | 1.59 ms | 1.56 ms | 1.60 ms |
/// | 256, 1, 1 | 25.9 ms | 24.8 ms | 22.8 ms | 24.1 ms |
/// | 256, 1, 8 | 27.4 ms | 13.9 ms | 13.3 ms | 13.8 ms |
/// | 256, 2, 1 | 14.1 ms | 13.0 ms | 12.0 ms | 12.8 ms |
/// | 256, 2, 8 | 15.5 ms | 7.28 ms | 6.78 ms | 7.71 ms |
///
/// 512 is the best or within 2 % of it in every row. Public so callers'
/// tests can straddle it.
pub const MIX_SUB_TILE: usize = 512;

/// Rounds a [`MixWindow`] holds before it must settle: one SkipTrain
/// period of one training round and seven synchronisation rounds.
pub const MIX_WINDOW: usize = 8;

/// One dense mixing round of a fleet, stored flat: receiver `i`'s senders
/// and weights are the entries `ends[i − 1]..ends[i]` (from 0 for the
/// first), and `gamma` is the round's consensus stepsize.
#[derive(Debug)]
struct MixRound {
    gamma: f32,
    ends: Vec<usize>,
    indices: Vec<u32>,
    weights: Vec<f32>,
}

impl MixRound {
    /// Receiver `i`'s senders and weights.
    #[inline(always)]
    fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let from = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        let to = self.ends[i];
        (&self.indices[from..to], &self.weights[from..to])
    }
}

/// Dense mixing rounds waiting to be applied to a fleet's models, in
/// order, and the per-worker stages that apply them.
///
/// Mixing updates every coordinate on its own, so a run of rounds that
/// only mix can be applied one parameter sub-tile at a time: each
/// [`MIX_SUB_TILE`]-float span of every row goes through all the pending
/// rounds while it is in cache, instead of the whole fleet streaming
/// through memory once per round. Each element still sees, round after
/// round, `scaled_copy` and one `axpy` per input in row order, then the
/// blend `x + γ·(Σ − x)` (skipped at γ = 1) — the operations and order of
/// applying the rounds one at a time, so the window's depth, the tile,
/// the sub-tile and the thread budget cannot change a result bit.
///
/// Whoever owns the rows must [`settle`](MixWindow::settle) the window
/// before anything reads them, and whenever it [is full](MixWindow::is_full).
/// Each slot keeps its entries flat, reserved at construction for the
/// fleet's base entry count; a round with more entries grows its slot
/// once and the slot keeps that capacity.
#[derive(Debug)]
pub struct MixWindow {
    rows: usize,
    rounds: Vec<MixRound>,
    pending: usize,
    /// One stage per worker, grown to `rows × min(MIX_SUB_TILE, len)`
    /// floats on first use; its length caps the worker count.
    stages: Vec<Vec<f32>>,
}

impl MixWindow {
    /// An empty window for a fleet of `rows` models whose rounds hold
    /// `entries` (sender, weight) pairs in all — `Σ (degree_i + 1)` for a
    /// mixing matrix with a self entry per row.
    pub fn new(rows: usize, entries: usize) -> Self {
        let slot = || MixRound {
            gamma: 1.0,
            ends: Vec::with_capacity(rows),
            indices: Vec::with_capacity(entries),
            weights: Vec::with_capacity(entries),
        };
        Self {
            rows,
            rounds: (0..MIX_WINDOW).map(|_| slot()).collect(),
            pending: 0,
            stages: vec![Vec::new(); rows],
        }
    }

    /// Rounds recorded and not yet applied.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when the window holds [`MIX_WINDOW`] rounds and must settle
    /// before the next [`push`](MixWindow::push).
    pub fn is_full(&self) -> bool {
        self.pending == MIX_WINDOW
    }

    /// Records one round with consensus stepsize `gamma`:
    /// `fill(i, indices, weights)` appends receiver `i`'s senders
    /// and weights, in the order they are summed. A row may be empty (the
    /// receiver's model becomes zero) and need not hold its receiver.
    ///
    /// # Panics
    /// Panics if the window is full.
    pub fn push<F>(&mut self, gamma: f32, mut fill: F)
    where
        F: FnMut(usize, &mut Vec<u32>, &mut Vec<f32>),
    {
        assert!(!self.is_full(), "settle a full mixing window first");
        let round = &mut self.rounds[self.pending];
        round.gamma = gamma;
        round.ends.clear();
        round.indices.clear();
        round.weights.clear();
        for i in 0..self.rows {
            fill(i, &mut round.indices, &mut round.weights);
            assert_eq!(
                round.indices.len(),
                round.weights.len(),
                "mix_rounds_in_place arity mismatch"
            );
            round.ends.push(round.indices.len());
        }
        self.pending += 1;
    }

    /// Applies the pending rounds to `rows` in order and empties the
    /// window: with `x` the rows as they are before each round,
    /// `rows[i] ← x_i + γ·(Σ_t weights[t] · x_{indices[t]} − x_i)`.
    ///
    /// `stand_in(i, j)` may name a slice receiver `i` reads in place of
    /// row `j` in the **first** pending round (the executor's decoded wire
    /// copies, on a window of one round); `None` reads the row. Later
    /// rounds read the rows the round before them wrote.
    ///
    /// # Panics
    /// Panics if a round was recorded for another number of rows, if a
    /// sender index is out of range, or if a row or stand-in's length
    /// differs from `rows[0].len()`.
    pub fn settle<'a, F>(&mut self, rows: &mut [Vec<f32>], stand_in: F)
    where
        F: Fn(usize, u32) -> Option<&'a [f32]> + Sync,
    {
        let pending = &self.rounds[..self.pending];
        let (tile, sub) = (WSUM_TILE, MIX_SUB_TILE);
        mix_rounds_in_place(rows, pending, &stand_in, &mut self.stages, tile, sub);
        self.pending = 0;
    }
}

/// Applies `rounds` to a fleet's models in place (see
/// [`MixWindow::settle`]).
///
/// A fleet's models do not fit the cache, and under gossip every model is
/// read by each of its `degree + 1` neighbours, once per round. Here the
/// loop is parameter sub-tile outermost, round next, receiver innermost: a
/// `sub`-float span of every row is fetched once, each round
/// sums every receiver's span from the buffer the previous round wrote
/// into the other one — the rows' span and the worker's stage take turns,
/// so an even number of rounds ends in the rows and an odd one copies the
/// stage back — and the span leaves the cache once every round has run.
/// A receiver's sum is `weighted_sum_core` over its row in order, then
/// [`consensus_blend`] against its own span of the round's input, so each
/// element sees exactly the operations of the rounds applied one at a
/// time. The sums run at a fixed arity per group of inputs, compiled for
/// AVX2 when the CPU has it ([`weighted_sum_group`]).
///
/// Workers split the rows by `tile`, the cache by `sub` ([`WSUM_TILE`] and
/// [`MIX_SUB_TILE`]; tests sweep both). `stand_in` is taken by reference
/// so that every caller shares one compilation of the kernel. At one worker the rows are mixed
/// where they lie; at two or more each worker is handed views of its range
/// of every row, once per call.
fn mix_rounds_in_place<'a>(
    rows: &mut [Vec<f32>],
    rounds: &[MixRound],
    stand_in: &(dyn Fn(usize, u32) -> Option<&'a [f32]> + Sync),
    stages: &mut [Vec<f32>],
    tile: usize,
    sub: usize,
) {
    let len = rows.first().map_or(0, Vec::len);
    for row in rows.iter() {
        assert_eq!(row.len(), len, "weighted_sum length mismatch");
    }
    for (k, round) in rounds.iter().enumerate() {
        assert_eq!(
            round.ends.len(),
            rows.len(),
            "mix_rounds_in_place arity mismatch"
        );
        for i in 0..rows.len() {
            for &j in round.row(i).0 {
                let x: &[f32] = &rows[j as usize];
                let x = if k == 0 {
                    stand_in(i, j).unwrap_or(x)
                } else {
                    x
                };
                assert_eq!(x.len(), len, "weighted_sum length mismatch");
            }
        }
    }
    if len == 0 || rounds.is_empty() {
        return;
    }
    assert!(!stages.is_empty(), "mix_rounds_in_place needs a stage");
    let width = sub.min(len);
    let tiles = len.div_ceil(tile);
    let per = tiles.div_ceil(rayon::current_num_threads().min(stages.len()));
    let workers = tiles.div_ceil(per);
    for stage in &mut stages[..workers] {
        stage.resize(rows.len() * width, 0.0);
    }
    if workers == 1 {
        mix_range(rows, 0, rounds, stand_in, &mut stages[0], sub);
        return;
    }
    let per = per * tile;
    // lint:allow(hot_path_alloc, "budget ≥ 2 only, once per window: each worker's views of its range of every row (16 B per row), the safe way to split rows at the range boundaries")
    let mut views: Vec<Vec<&mut [f32]>> = (0..workers).map(|_| Default::default()).collect();
    for row in rows.iter_mut() {
        for (view, piece) in views.iter_mut().zip(row.chunks_mut(per)) {
            view.push(piece);
        }
    }
    let parts = views.iter_mut().zip(stages).enumerate();
    rayon::for_each_part(parts, |(c, (view, stage))| {
        mix_range(view, c * per, rounds, stand_in, stage, sub);
    });
}

/// One worker's loop of [`mix_rounds_in_place`]: `rows[i]` is row `i`'s
/// elements from `offset` on, walked sub-tile by sub-tile; `stage` holds
/// one `stage.len() / rows.len()`-float span per row. Even rounds read
/// the rows and write the stage, odd rounds the other way round.
fn mix_range<'a, R>(
    rows: &mut [R],
    offset: usize,
    rounds: &[MixRound],
    stand_in: &(dyn Fn(usize, u32) -> Option<&'a [f32]> + Sync),
    stage: &mut [f32],
    sub: usize,
) where
    R: AsRef<[f32]> + AsMut<[f32]>,
{
    let width = stage.len() / rows.len();
    let len = rows.first().map_or(0, |row| row.as_ref().len());
    for start in (0..len).step_by(sub) {
        let end = (start + sub).min(len);
        let span = end - start;
        for (k, round) in rounds.iter().enumerate() {
            if k % 2 == 0 {
                let read = &*rows;
                for (i, out) in stage.chunks_exact_mut(width).enumerate() {
                    let (indices, weights) = round.row(i);
                    let out = &mut out[..span];
                    weighted_sum_core(out, weights, |t| {
                        let j = indices[t];
                        match if k == 0 { stand_in(i, j) } else { None } {
                            Some(x) => &x[offset + start..offset + end],
                            None => &read[j as usize].as_ref()[start..end],
                        }
                    });
                    consensus_blend(round.gamma, &read[i].as_ref()[start..end], out);
                }
            } else {
                let read = &*stage;
                for (i, row) in rows.iter_mut().enumerate() {
                    let (indices, weights) = round.row(i);
                    let out = &mut row.as_mut()[start..end];
                    weighted_sum_core(out, weights, |t| {
                        &read[indices[t] as usize * width..][..span]
                    });
                    consensus_blend(round.gamma, &read[i * width..][..span], out);
                }
            }
        }
        if rounds.len() % 2 == 1 {
            for (row, mixed) in rows.iter_mut().zip(stage.chunks_exact(width)) {
                row.as_mut()[start..end].copy_from_slice(&mixed[..span]);
            }
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
#[inline(always)]
fn weighted_sum_core<'a, G>(out: &mut [f32], weights: &[f32], get: G)
where
    G: Fn(usize) -> &'a [f32],
{
    if weights.is_empty() {
        out.fill(0.0);
        return;
    }
    for (g, ws) in weights.chunks(WSUM_GROUP).enumerate() {
        let mut xs = [&[][..]; WSUM_GROUP];
        for (t, x) in xs.iter_mut().enumerate().take(ws.len()) {
            *x = get(g * WSUM_GROUP + t);
            assert_eq!(x.len(), out.len(), "weighted_sum length mismatch");
        }
        weighted_sum_group(out, &xs, ws, g == 0);
    }
}

/// One group of [`weighted_sum_core`]: `out = Σ ws[t]·xs[t]` when `first`,
/// `out += Σ ws[t]·xs[t]` otherwise, over the first `ws.len()` (1 to
/// [`WSUM_GROUP`]) inputs, each at its own fixed arity so the per-block
/// loop over the inputs unrolls with the weights in registers. Compiled
/// for AVX2 when the CPU has it (no intrinsics, no FMA: the same
/// operations in the same order). Never inlined, so every caller shares
/// the one pair of compilations.
#[inline(never)]
fn weighted_sum_group(out: &mut [f32], xs: &[&[f32]; WSUM_GROUP], ws: &[f32], first: bool) {
    with_avx2(
        #[inline(always)]
        || group_at_arity(out, xs, ws, first),
    );
}

/// [`weighted_sum_group`] as written, dispatched on the arity.
#[inline(always)]
fn group_at_arity(out: &mut [f32], xs: &[&[f32]; WSUM_GROUP], ws: &[f32], first: bool) {
    match ws.len() {
        1 => fixed_arity_group::<1>(out, xs, ws, first),
        2 => fixed_arity_group::<2>(out, xs, ws, first),
        3 => fixed_arity_group::<3>(out, xs, ws, first),
        4 => fixed_arity_group::<4>(out, xs, ws, first),
        5 => fixed_arity_group::<5>(out, xs, ws, first),
        6 => fixed_arity_group::<6>(out, xs, ws, first),
        7 => fixed_arity_group::<7>(out, xs, ws, first),
        _ => fixed_arity_group::<WSUM_GROUP>(out, xs, ws, first),
    }
}

/// [`weighted_sum_group`] at arity `N`.
#[inline(always)]
fn fixed_arity_group<const N: usize>(
    out: &mut [f32],
    xs: &[&[f32]; WSUM_GROUP],
    ws: &[f32],
    first: bool,
) {
    let len = out.len();
    let (mut w, mut x) = ([0.0f32; N], [&[][..]; N]);
    for t in 0..N {
        (w[t], x[t]) = (ws[t], &xs[t][..len]);
    }
    let (body, tail) = out.as_chunks_mut::<WSUM_BLOCK>();
    let blocks: [&[[f32; WSUM_BLOCK]]; N] =
        std::array::from_fn(|t| &x[t].as_chunks::<WSUM_BLOCK>().0[..body.len()]);
    for (b, block) in body.iter_mut().enumerate() {
        let mut acc = [0.0f32; WSUM_BLOCK];
        let x0 = &blocks[0][b];
        if first {
            // the first group's leading input initialises the block
            for e in 0..WSUM_BLOCK {
                acc[e] = w[0] * x0[e];
            }
        } else {
            for e in 0..WSUM_BLOCK {
                acc[e] = block[e] + w[0] * x0[e];
            }
        }
        for t in 1..N {
            let (wt, xt) = (w[t], &blocks[t][b]);
            for e in 0..WSUM_BLOCK {
                acc[e] += wt * xt[e];
            }
        }
        *block = acc;
    }
    let full = len - tail.len();
    for (e, o) in tail.iter_mut().enumerate() {
        let at = full + e;
        let mut acc = if first {
            w[0] * x[0][at]
        } else {
            *o + w[0] * x[0][at]
        };
        for t in 1..N {
            acc += w[t] * x[t][at];
        }
        *o = acc;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simd::tests as table;
    use crate::simd::tests::hostile;
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
        let mut window = MixWindow::new(1, 0);
        window.push(1.0, |_, _, _| {});
        window.settle(&mut rows, |_, _| None);
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

    /// A flat round from one `(indices, weights)` pair per receiver.
    fn flat(gamma: f32, mix: &[(Vec<u32>, Vec<f32>)]) -> MixRound {
        let mut window = MixWindow::new(mix.len(), 0);
        window.push(gamma, |i, indices, weights| {
            indices.extend_from_slice(&mix[i].0);
            weights.extend_from_slice(&mix[i].1);
        });
        window.rounds.swap_remove(0)
    }

    /// `rounds` applied one at a time, the way the engine applied them
    /// before windows: per receiver the chain over the previous round's
    /// rows (the first round reading stand-ins where `stand_in` has one),
    /// then `b + γ (o − b)` against its own previous row when γ ≠ 1.
    fn rounds_one_at_a_time<'a>(
        rows: &[Vec<f32>],
        rounds: &[MixRound],
        stand_in: impl Fn(usize, u32) -> Option<&'a [f32]>,
    ) -> Vec<Vec<u32>> {
        let mut cur: Vec<Vec<f32>> = rows.to_vec();
        for (k, round) in rounds.iter().enumerate() {
            cur = (0..cur.len())
                .map(|i| {
                    let (indices, weights) = round.row(i);
                    let refs: Vec<&[f32]> = indices
                        .iter()
                        .map(|&j| match stand_in(i, j) {
                            Some(x) if k == 0 => x,
                            _ => cur[j as usize].as_slice(),
                        })
                        .collect();
                    let mixed = chain(cur[i].len(), &refs, weights);
                    cur[i]
                        .iter()
                        .zip(mixed)
                        .map(|(&b, o)| {
                            let o = f32::from_bits(o);
                            let g = round.gamma;
                            if g == 1.0 {
                                o
                            } else {
                                b + g * (o - b)
                            }
                        })
                        .collect()
                })
                .collect();
        }
        cur.iter().map(|row| bits(row)).collect()
    }

    /// `rounds` through the window kernel at an explicit tile, sub-tile
    /// and thread budget, from stale (NaN) stages.
    fn through_kernel<'a>(
        rows: &[Vec<f32>],
        rounds: &[MixRound],
        stand_in: impl Fn(usize, u32) -> Option<&'a [f32]> + Sync,
        (tile, sub, threads): (usize, usize, usize),
    ) -> Vec<Vec<u32>> {
        let mut rows = rows.to_vec();
        let mut stages = vec![vec![f32::NAN; 5]; 7];
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| mix_rounds_in_place(&mut rows, rounds, &stand_in, &mut stages, tile, sub));
        rows.iter().map(|row| bits(row)).collect()
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
                .map(|_| (0..len).map(|_| hostile(&mut state, false)).collect())
                .collect();
            let weights: Vec<f32> = (0..arity).map(|_| hostile(&mut state, false)).collect();
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

            // a one-round window over the whole store as a fleet: receiver
            // 0 takes the sampled row (with or without a self entry), 1 an
            // empty row, 2 the row reversed, every other k the row shifted
            // by k; some senders are read from stand-ins. Against the chain
            // over the pre-update rows, then the blend, at one tile, many
            // tiles, tile and sub-tile lengths that do not divide the
            // parameter count, and at budgets 1, 2 and 7.
            let m = store.len();
            let alt: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..len).map(|_| hostile(&mut state, false)).collect())
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
                let round = [flat(gamma, &mix)];
                let want = rounds_one_at_a_time(&store, &round, stand_in);
                for tile in [(WSUM_TILE, MIX_SUB_TILE), (16, 16), (16, 5), (7, 3), (len.max(1), 64), (len + 1, len + 1)] {
                    for threads in [1usize, 2, 7] {
                        let got = through_kernel(&store, &round, stand_in, (tile.0, tile.1, threads));
                        prop_assert_eq!(
                            &got, &want,
                            "in place: tile {:?}, {} threads, γ {}", tile, threads, gamma
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_window_is_its_rounds_one_at_a_time_bitwise(
            m in 2usize..15,
            len in 0usize..90,
            depth in 0usize..5,
            seed in 0u64..u64::MAX
        ) {
            // k rounds of 1–12 entries per row (crossing the 8-input group
            // boundary), with and without a self entry, γ 1 or ½ per
            // round, weights bounded so nine rounds stay finite; against
            // the rounds applied one at a time at tiles and sub-tiles that
            // straddle the lengths, budgets 1, 2 and 7, and the baseline
            // compilation of the worker loop
            let k = [1usize, 2, 3, 8, 9][depth];
            let mut state = seed;
            let store: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..len).map(|_| hostile(&mut state, false)).collect())
                .collect();
            let unit = |state: &mut u64| {
                let v = hostile(state, false);
                if v.abs() > 8.0 { v / 1e17 } else { v / 8.0 }
            };
            let rounds: Vec<MixRound> = (0..k)
                .map(|_| {
                    let mix: Vec<(Vec<u32>, Vec<f32>)> = (0..m)
                        .map(|i| {
                            let entries = 1 + (hostile(&mut state, false).to_bits() as usize) % 12;
                            let own = hostile(&mut state, false).to_bits().is_multiple_of(2);
                            let indices = (0..entries)
                                .map(|e| match e {
                                    0 if own => i as u32,
                                    _ => ((i + 1 + (e + (state >> 7) as usize) % (m - 1)) % m) as u32,
                                })
                                .collect();
                            (indices, (0..entries).map(|_| unit(&mut state)).collect())
                        })
                        .collect();
                    let gamma = if state.is_multiple_of(3) { 0.5 } else { 1.0 };
                    flat(gamma, &mix)
                })
                .collect();
            let alt: Vec<Vec<f32>> = (0..m)
                .map(|_| (0..len).map(|_| hostile(&mut state, false)).collect())
                .collect();
            let stand_in = |i: usize, j: u32| {
                let j = j as usize;
                ((i + j) % 3 == 1 && i != j).then(|| alt[j].as_slice())
            };
            let want = rounds_one_at_a_time(&store, &rounds, stand_in);
            for tile in [(WSUM_TILE, MIX_SUB_TILE), (16, 7), (7, 16), (len.max(1), 5), (len + 1, len + 1)] {
                for threads in [1usize, 2, 7] {
                    let got = through_kernel(&store, &rounds, stand_in, (tile.0, tile.1, threads));
                    prop_assert_eq!(&got, &want, "k {}, tile {:?}, {} threads", k, tile, threads);
                }
            }
        }
    }

    #[test]
    fn a_window_settles_its_rounds_in_order_and_empties() {
        // two rounds on two rows: swap, then average with γ = ½
        let mut rows = vec![vec![1.0f32, 2.0], vec![3.0, 5.0]];
        let mut window = MixWindow::new(2, 2);
        window.push(1.0, |i, indices, weights| {
            indices.push(1 - i as u32);
            weights.push(1.0);
        });
        window.push(0.5, |_, indices, weights| {
            indices.extend([0, 1]);
            weights.extend([0.5, 0.5]);
        });
        assert_eq!(window.pending(), 2);
        assert!(!window.is_full());
        window.settle(&mut rows, |_, _| None);
        assert_eq!(window.pending(), 0);
        assert_eq!(rows, [vec![2.5f32, 4.25], vec![1.5, 2.75]]);
        // an empty window leaves the rows alone
        window.settle(&mut rows, |_, _| None);
        assert_eq!(rows, [vec![2.5f32, 4.25], vec![1.5, 2.75]]);
    }

    #[test]
    fn a_denser_round_grows_its_slot_once() {
        let (n, base) = (6usize, 3usize);
        let mut window = MixWindow::new(n, n * base);
        let dense = |_: usize, indices: &mut Vec<u32>, weights: &mut Vec<f32>| {
            indices.extend(0..n as u32);
            weights.extend(std::iter::repeat_n(1.0 / n as f32, n));
        };
        for _ in 0..MIX_WINDOW {
            window.push(1.0, dense);
        }
        assert!(window.is_full());
        let grown: Vec<usize> = window.rounds.iter().map(|r| r.indices.capacity()).collect();
        assert!(grown.iter().all(|&c| c >= n * n), "{grown:?}");
        let mut rows = vec![vec![1.0f32; 3]; n];
        window.settle(&mut rows, |_, _| None);
        for _ in 0..MIX_WINDOW {
            window.push(1.0, dense);
        }
        let kept: Vec<usize> = window.rounds.iter().map(|r| r.indices.capacity()).collect();
        assert_eq!(kept, grown, "a slot grew again");
    }

    #[test]
    #[should_panic(expected = "settle a full mixing window first")]
    fn a_full_window_refuses_another_round() {
        let mut window = MixWindow::new(1, 1);
        for _ in 0..=MIX_WINDOW {
            window.push(1.0, |_, indices, weights| {
                indices.push(0);
                weights.push(1.0);
            });
        }
    }

    #[test]
    fn weighted_sum_block_fetch_sees_the_receivers_position() {
        // receiver r reads sender 0 from its own private store
        let stores = [vec![1.0f32; 5], vec![2.0f32; 5]];
        let mut rows = vec![vec![9.0f32; 5]; 2];
        let mut window = MixWindow::new(2, 4);
        window.push(1.0, |_, indices, weights| {
            indices.extend([0, 0]);
            weights.extend([0.5, 0.25]);
        });
        window.settle(&mut rows, |r, _| Some(&stores[r]));
        assert_eq!(rows, [vec![0.75f32; 5], vec![1.5f32; 5]]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_sum_block_rejects_a_longer_sender() {
        // a per-tile slice would silently truncate it
        let long = [1.0f32; 9];
        let mut rows = vec![vec![0.0f32; 5]];
        let mut window = MixWindow::new(1, 1);
        window.push(1.0, |_, indices, weights| {
            indices.push(0);
            weights.push(1.0);
        });
        window.settle(&mut rows, |_, _| Some(&long[..]));
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

    /// The message `f` panics with, or `None` when it returns.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        let text = err.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| err.downcast_ref::<String>().cloned())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_degenerate_shapes_return_and_mismatches_panic_by_name(
            len in 0usize..2,
            seed in 0u64..u64::MAX
        ) {
            use crate::compress::*;
            // every public kernel of `ops` and `compress` on vectors of
            // length 0 and 1, zero rows and inputs, k = 0 and k > len
            let mut state = seed;
            let mut draw = |n: usize| (0..n).map(|_| hostile(&mut state, true)).collect::<Vec<f32>>();
            let (x, mut y, w) = (draw(len), draw(len), draw(1)[0]);
            axpy(w, &x, &mut y);
            scaled_copy(w, &x, &mut y);
            let _ = (dot(&x, &y), squared_distance(&x, &y), norm(&x));
            consensus_blend(w, &x, &mut y);
            weighted_sum_indexed_into(&mut y, &[], &[], |_| &x[..]);
            prop_assert!(y.iter().all(|v| v.to_bits() == 0), "no inputs: zeros");
            weighted_sum_indexed_into(&mut y, &[0, 0], &[w, w], |_| &x[..]);
            let mut none: Vec<Vec<f32>> = Vec::new();
            let mut window = MixWindow::new(0, 0);
            window.push(w, |_, _, _| unreachable!("a window of no rows has no row"));
            window.settle(&mut none, |_, _| None);
            let mut rows = vec![x.clone(), y.clone()];
            let mut window = MixWindow::new(2, 1);
            window.push(w, |i, indices, weights| {
                if i == 0 {
                    indices.push(1);
                    weights.push(w);
                }
            });
            window.settle(&mut rows, |_, _| None);
            prop_assert!(rows.iter().all(|row| row.len() == len));
            let p = affine_params(&x, 256);
            let mut codes = Vec::new();
            quantize_le::<1>(&x, p, &mut codes);
            quantize_le::<2>(&x, p, &mut codes);
            prop_assert_eq!(codes.len(), 3 * len);
            let _ = (dequantize_one(p, 0), dequantize_one(p, u32::MAX));
            let mut order = vec![7];
            for k in [0, len, len + 1, usize::MAX] {
                top_k_indices_into(&x, k, &mut order);
                prop_assert_eq!(order.len(), k.min(len));
            }
            let (indices, values) = (&[0u32][..len], &x[..len]);
            sparse_blend_axpy(&mut y, &x, indices, values, w);
            scatter_axpy(&mut y, indices, values, w);
            let mut delta = vec![1.0; 3];
            accumulate_delta(&x, &y, &mut delta);
            prop_assert_eq!(delta.len(), len);

            // a length one longer still panics, naming the kernel
            let (long, mut out) = (draw(len + 1), draw(len));
            type Call<'a> = Box<dyn FnOnce(&mut [f32]) + 'a>;
            let mismatches: [(&str, Call); 10] = [
                ("axpy length mismatch", Box::new(|y| axpy(w, &long, y))),
                ("scaled_copy length mismatch", Box::new(|y| scaled_copy(w, &long, y))),
                ("dot length mismatch", Box::new(|y| _ = dot(&long, y))),
                ("squared_distance length mismatch", Box::new(|y| _ = squared_distance(&long, y))),
                ("consensus_blend length mismatch", Box::new(|y| consensus_blend(w, &long, y))),
                (
                    "weighted_sum_indexed_into arity mismatch",
                    Box::new(|y| weighted_sum_indexed_into(y, &[0], &[], |_| &long[..])),
                ),
                (
                    "weighted_sum length mismatch",
                    Box::new(|y| weighted_sum_indexed_into(y, &[0], &[w], |_| &long[..])),
                ),
                ("sparse arity mismatch", Box::new(|y| sparse_blend_axpy(y, &long, &[], &long, w))),
                ("sparse arity mismatch", Box::new(|y| scatter_axpy(y, &[], &long, w))),
                ("replica length mismatch", Box::new(|y| accumulate_delta(&long, y, &mut Vec::new()))),
            ];
            for (message, kernel) in mismatches {
                let got = panic_message(|| kernel(&mut out));
                prop_assert!(
                    got.as_deref().is_some_and(|m| m.contains(message)),
                    "{}: {:?}", message, got
                );
            }
            let mut window = MixWindow::new(1, 1);
            let got = panic_message(|| window.push(w, |_, indices, _| indices.push(0)));
            prop_assert!(got.is_some_and(|m| m.contains("mix_rounds_in_place arity mismatch")));
            let got = panic_message(|| {
                window.push(w, |_, _, _| {});
                window.settle(&mut [x.clone(), x.clone()], |_, _| None);
            });
            prop_assert!(got.is_some_and(|m| m.contains("mix_rounds_in_place arity mismatch")));
        }
    }

    /// The row for one weighted-sum group of `N` inputs
    /// ([`ROWS`]), into an `out` that starts from the pool,
    /// initialising it and adding to it.
    fn row_group<const N: usize>(pool: &[f32], len: usize, wide: bool) -> Vec<f32> {
        let mut xs = [&[][..]; WSUM_GROUP];
        for (t, x) in xs.iter_mut().take(N).enumerate() {
            *x = &pool[table::B + t * table::TAILS..][..len];
        }
        let ws = &pool[table::PARAMS..][..N];
        let mut outs = Vec::new();
        for first in [true, false] {
            let mut out = pool[table::C..][..len].to_vec();
            if wide {
                weighted_sum_group(&mut out, &xs, ws, first);
            } else {
                group_at_arity(&mut out, &xs, ws, first);
            }
            outs.extend(out);
        }
        outs
    }

    /// The weighted-sum group at every arity, as written and through its
    /// dispatcher.
    const ROWS: [(&str, table::Row); 8] = [
        ("weighted-sum group, arity 1", row_group::<1>),
        ("weighted-sum group, arity 2", row_group::<2>),
        ("weighted-sum group, arity 3", row_group::<3>),
        ("weighted-sum group, arity 4", row_group::<4>),
        ("weighted-sum group, arity 5", row_group::<5>),
        ("weighted-sum group, arity 6", row_group::<6>),
        ("weighted-sum group, arity 7", row_group::<7>),
        ("weighted-sum group, arity 8", row_group::<8>),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_avx2_and_baseline_groups_agree_bitwise(
            seed in 0u64..u64::MAX,
            non_finite in 0u8..2
        ) {
            table::rows_agree_bitwise(&ROWS, seed, non_finite == 1)?;
        }
    }
}
