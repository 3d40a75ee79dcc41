//! Matrix multiplication kernels.
//!
//! Backpropagation through dense layers needs three product shapes:
//!
//! * `C = A · B`       — forward pass (activations × weights),
//! * `C = Aᵀ · B`      — weight gradients (inputs × output gradients),
//! * `C = A · Bᵀ`      — input gradients (output gradients × weights).
//!
//! Each has a dedicated entry point so no explicit transpose is ever
//! materialized by callers. The primitive kernels operate on plain
//! row-major slices ([`gemm_into`], [`gemm_at_b_into`], [`gemm_a_bt_into`])
//! so that callers storing parameters in packed buffers (the NN layers)
//! multiply without any copies.
//!
//! # Blocked kernel design
//!
//! Two drivers share one arithmetic: every output element is a single
//! scalar chain `acc += a · b` over `p = 0..k` in order, so results are
//! bit-identical whichever driver, tiling, thread count or parallel split
//! ran — the workspace's determinism requirement. Size picks the driver:
//!
//! 1. **Direct tile: every serial `A·B` and `Aᵀ·B`** (below
//!    [`PAR_FLOP_THRESHOLD`]). An [`MR`]-row block of accumulators, 8, 4, 2
//!    or 1 columns wide, stays in registers across the whole `k` loop while
//!    both operands are read where they lie; `C` is written once. A
//!    training batch makes `m` 8–32, so a packed `B` would serve 2–8 row
//!    tiles and never repay the copy; reading in place stays ahead while
//!    `B` is cache-resident. No scratch, so no allocation on any thread.
//! 2. **Pack, then tile: the parallel driver** (at or above
//!    [`PAR_FLOP_THRESHOLD`]) and large `A·Bᵀ`. `B` is packed once into
//!    [`NR`]-wide column panels and `A` into [`MR`]-row tiles (zero-padded
//!    tails), in thread-local scratch of the calling thread that workers
//!    only read; a 4×8 register micro-kernel runs per (tile, panel) pair.
//!    Packing normalizes the storage layouts — for `A·Bᵀ` it *is* the
//!    transposition. Rayon splits row blocks, or column panels when
//!    `m == 1`, so a skinny FLOP-heavy multiply is not serialized.
//!
//! Both compile twice from one source, for the baseline and for AVX2
//! (`with_avx2`). `Aᵀ·B` accumulates: the direct tile continues each chain
//! from the `C` it finds, the packed driver adds a from-zero chain to it.
//! They agree bit for bit on a zeroed `C`, which the library caller passes
//! (`Dense::backward` after `zero_grads`), so no pinned result moves when a
//! shape changes driver; the packed order is deliberately left as it is.
//!
//! No kernel skips a zero term, so `0 · ∞` is `NaN` at every size. For
//! finite operands skipping would change no bit: a chain started at `+0.0`
//! never reaches `−0.0` (`+0.0 + −0.0 = +0.0`) and adding `±0.0` to a
//! non-zero sum is exact. On ReLU outputs, zero half the time in no
//! learnable pattern, the test cost more than the multiplies it saved.
//!
//! # Small `A·Bᵀ`
//!
//! `A·Bᵀ` has no row of `B` to stream (each output element is a dot
//! product of two rows). At or below `A_BT_SMALL_FLOP_THRESHOLD` it
//! transposes `B` once into the `B` pack scratch (allocated on first use,
//! so also on a fresh worker of the vendored spawn-per-op rayon) and
//! produces [`NR`] output columns per pass over an `A` row (`small_a_bt`),
//! each in [`ops::dot`](crate::ops::dot)'s order — eight lane sums combined
//! by a fixed tree, then the tail — not the single chain: the small models'
//! output-layer input gradients all take it, so that order is in every
//! pinned result, and `dot` is the reference the tests hold it to, bit for bit.

use crate::matrix::Matrix;
use crate::ops::LANES;
use rayon::prelude::*;
use std::cell::RefCell;

/// Rows per register tile of the micro-kernel.
pub const MR: usize = 4;

/// Columns per register tile (and per packed `B` panel).
pub const NR: usize = 8;

/// Minimum multiply–add count (`m·n·k`) before a multiply is parallelized.
///
/// Below this, thread spawn/join overhead outweighs the parallel speedup
/// (read `nn.sgd_step_us` from `benchmark/run.sh --trace 1`). Gating on
/// FLOPs rather than output elements means a `1 × N` product over a huge
/// inner dimension still parallelizes (over column panels).
///
/// `A·B` and `Aᵀ·B` also change driver here, direct below and packed above:
/// packing pays once `B` has left the cache (README, "Training rounds").
pub const PAR_FLOP_THRESHOLD: usize = 2 * 1024 * 1024;

/// `A·Bᵀ` at or below this multiply–add count runs [`small_a_bt`], above it
/// the packed driver. A pin, not a tuning constant: the two sum in
/// different orders (`ops::dot`'s lane tree, one chain), so moving it moves
/// the bits of every model whose output-layer input gradient crosses it.
const A_BT_SMALL_FLOP_THRESHOLD: usize = 8 * 1024;

thread_local! {
    /// Reusable pack buffer for `A` tiles (tile-major `k × MR` blocks).
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable pack buffer for `B` panels (panel-major `k × NR` blocks).
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Storage layout of the left operand.
#[derive(Clone, Copy)]
enum AStore<'a> {
    /// `m × k` row-major: C row `i` reads A row `i`.
    Rows(&'a [f32]),
    /// `k × m` row-major, logically transposed: C row `i` reads A column `i`.
    Cols(&'a [f32]),
}

/// Storage layout of the right operand.
#[derive(Clone, Copy)]
enum BStore<'a> {
    /// `k × n` row-major.
    Rows(&'a [f32]),
    /// `n × k` row-major, logically transposed.
    Cols(&'a [f32]),
}

/// Runs `f` compiled for AVX2 when the CPU has it, as written otherwise.
/// Callers pass an `#[inline(always)]` closure around an `#[inline(always)]`
/// kernel body, so `wide` holds a second compilation of the same source.
/// No intrinsics, no FMA: the same separate multiply and add in the same
/// order, so the two agree bit for bit and the baseline one is the reference.
#[inline(always)]
fn with_avx2<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
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

/// One `MR × W` block of `C`, operands read where they lie: accumulators in
/// registers across the whole `p = 0..k` loop, `C` written once. Each element
/// is one chain `acc += a · b` over `p` in order, from `+0.0` (`A·B`) or from
/// the `C` it replaces (`from_c`, `Aᵀ·B`); no term is skipped. `a_vals` yields
/// the tile rows' `A` values for each `p`; `c_band` is the `≤ MR` rows of `C`
/// it lies in. Spare rows of a short band shadow its last, start to store.
#[inline(always)]
fn tile<const W: usize>(
    a_vals: impl Iterator<Item = [f32; MR]>,
    b: &[f32],
    n: usize,
    j0: usize,
    c_band: &mut [f32],
    from_c: bool,
) {
    let last = c_band.len() / n - 1;
    let mut acc = [[0.0f32; W]; MR];
    if from_c {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&c_band[r.min(last) * n + j0..][..W]);
        }
    }
    for (a_p, b_p) in a_vals.zip(b.chunks_exact(n)) {
        let b_w = &b_p[j0..j0 + W];
        for (acc_row, &a_v) in acc.iter_mut().zip(&a_p) {
            for (acc_v, &b_v) in acc_row.iter_mut().zip(b_w) {
                *acc_v += a_v * b_v;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c_band[r.min(last) * n + j0..][..W].copy_from_slice(acc_row);
    }
}

/// Four rows of a row-major `m × k` `A` (`AStore::Rows`), walked together.
#[inline(always)]
fn a_rows(a: &[f32], k: usize, idx: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
    let [r0, r1, r2, r3] = idx.map(|i| &a[i * k..][..k]);
    let quads = r0.iter().zip(r1).zip(r2).zip(r3);
    quads.map(|(((&v0, &v1), &v2), &v3)| [v0, v1, v2, v3])
}

/// The same for `A` stored `k × m` (`AStore::Cols`): four entries of each row.
#[inline(always)]
fn a_cols(a: &[f32], m: usize, idx: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
    a.chunks_exact(m).map(move |a_p| idx.map(|i| a_p[i]))
}

/// The direct driver behind every serial `A·B` and `Aᵀ·B`: walks `C` in
/// [`MR`]-row bands and cuts each band's `n` columns into tiles of 8, …, 8,
/// 4, 2, 1. `a_band` turns a band's four row indices (a short tail band
/// repeats its last) into a pass over their `A` values. An empty `m` or `n`
/// leaves nothing to visit, an empty `k` stores the starting accumulators
/// (`+0.0` or `C`): the packed driver's answers, from the loop bounds alone.
#[inline(always)]
fn direct_gemm<I: Iterator<Item = [f32; MR]>>(
    m: usize,
    n: usize,
    a_band: impl Fn([usize; MR]) -> I,
    b: &[f32],
    c: &mut [f32],
    from_c: bool,
) {
    for i0 in (0..m).step_by(MR) {
        let rows = MR.min(m - i0);
        let idx: [usize; MR] = std::array::from_fn(|r| i0 + r.min(rows - 1));
        let c_band = &mut c[i0 * n..(i0 + rows) * n];
        let mut j0 = 0;
        while n - j0 >= NR {
            tile::<NR>(a_band(idx), b, n, j0, c_band, from_c);
            j0 += NR;
        }
        if n - j0 >= 4 {
            tile::<4>(a_band(idx), b, n, j0, c_band, from_c);
            j0 += 4;
        }
        if n - j0 >= 2 {
            tile::<2>(a_band(idx), b, n, j0, c_band, from_c);
            j0 += 2;
        }
        if n - j0 >= 1 {
            tile::<1>(a_band(idx), b, n, j0, c_band, from_c);
        }
    }
}

/// Packs `A` into tile-major layout: tile `t` holds rows
/// `t·MR .. t·MR+MR` as `k` groups of `MR` contiguous values
/// (zero-padded when `m` is not a tile multiple).
fn pack_a(m: usize, k: usize, a: AStore, out: &mut Vec<f32>) {
    let tiles = m.div_ceil(MR);
    out.resize(tiles * k * MR, 0.0);
    for t in 0..tiles {
        let i0 = t * MR;
        let rows = MR.min(m - i0);
        let tile = &mut out[t * k * MR..(t + 1) * k * MR];
        match a {
            AStore::Rows(a) => {
                for ii in 0..rows {
                    let row = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                    for (p, &v) in row.iter().enumerate() {
                        tile[p * MR + ii] = v;
                    }
                }
            }
            AStore::Cols(a) => {
                for (p, dst) in tile.chunks_exact_mut(MR).enumerate() {
                    dst[..rows].copy_from_slice(&a[p * m + i0..p * m + i0 + rows]);
                }
            }
        }
        if rows < MR {
            for dst in tile.chunks_exact_mut(MR) {
                dst[rows..].fill(0.0);
            }
        }
    }
}

/// Packs `B` into panel-major layout: panel `jp` holds columns
/// `jp·NR .. jp·NR+NR` as `k` groups of `NR` contiguous values
/// (zero-padded when `n` is not a panel multiple).
fn pack_b(k: usize, n: usize, b: BStore, out: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    out.resize(panels * k * NR, 0.0);
    for jp in 0..panels {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let panel = &mut out[jp * k * NR..(jp + 1) * k * NR];
        match b {
            BStore::Rows(b) => {
                for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    dst[..cols].copy_from_slice(&b[p * n + j0..p * n + j0 + cols]);
                }
            }
            BStore::Cols(b) => {
                for jj in 0..cols {
                    let row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * NR + jj] = v;
                    }
                }
            }
        }
        if cols < NR {
            for dst in panel.chunks_exact_mut(NR) {
                dst[cols..].fill(0.0);
            }
        }
    }
}

/// The 4×8 register micro-kernel: full-`k` product of one packed `A` tile
/// with one packed `B` panel. Each accumulator is one scalar chain over
/// `p = 0..k` in order (deterministic regardless of tiling or threads).
#[inline(always)]
fn micro_4x8(tile_a: &[f32], panel_b: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (pa, pb) in tile_a.chunks_exact(MR).zip(panel_b.chunks_exact(NR)) {
        for (acc_row, &a) in acc.iter_mut().zip(pa) {
            for (c, &b) in acc_row.iter_mut().zip(pb) {
                *c += a * b;
            }
        }
    }
    acc
}

/// Multiplies one packed `A` row tile against every `B` panel, writing (or
/// accumulating into) `rows` valid rows of `c_rows` (`rows × n`).
#[inline(always)]
fn tile_row(
    k: usize,
    n: usize,
    tile_a: &[f32],
    bpack: &[f32],
    c_rows: &mut [f32],
    rows: usize,
    accumulate: bool,
) {
    for (jp, panel_b) in bpack.chunks_exact(k * NR).enumerate() {
        let acc = micro_4x8(tile_a, panel_b);
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        for (ii, acc_row) in acc.iter().enumerate().take(rows) {
            let dst = &mut c_rows[ii * n + j0..ii * n + j0 + cols];
            if accumulate {
                for (d, &v) in dst.iter_mut().zip(acc_row) {
                    *d += v;
                }
            } else {
                dst.copy_from_slice(&acc_row[..cols]);
            }
        }
    }
}

/// Skinny 1×8 variant for `m == 1`: the single `A` row is contiguous in
/// both layouts, so no `A` packing is needed, and parallelism goes over
/// column panels (each worker owns disjoint `C` columns).
fn gemv_row(
    k: usize,
    n: usize,
    a_row: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    accumulate: bool,
    parallel: bool,
) {
    let kernel = |panel_b: &[f32], dst: &mut [f32]| {
        let mut acc = [0.0f32; NR];
        for (&a, pb) in a_row.iter().zip(panel_b.chunks_exact(NR)) {
            for (c, &b) in acc.iter_mut().zip(pb) {
                *c += a * b;
            }
        }
        if accumulate {
            for (d, &v) in dst.iter_mut().zip(&acc) {
                *d += v;
            }
        } else {
            let cols = dst.len();
            dst.copy_from_slice(&acc[..cols]);
        }
    };
    let full = (n / NR) * NR;
    let (c_main, c_tail) = c.split_at_mut(full);
    if parallel && full > NR {
        c_main
            .par_chunks_exact_mut(NR)
            .zip(bpack.par_chunks_exact(k * NR))
            .for_each(|(dst, panel)| kernel(panel, dst));
    } else {
        for (dst, panel) in c_main.chunks_exact_mut(NR).zip(bpack.chunks_exact(k * NR)) {
            kernel(panel, dst);
        }
    }
    if n > full {
        kernel(&bpack[(n / NR) * k * NR..], c_tail);
    }
}

/// `NR` dot products at once: one `A` row against one packed `B` panel
/// (`k × NR`, as [`pack_b`] lays it out), each in exactly `dot`'s order.
///
/// `dot` keeps eight lane sums `s_l = Σ_c a[8c+l]·b[8c+l]`, every one built
/// by `+=` from `+0.0` (so a `−0.0` first product still yields `+0.0`),
/// and returns `((s₀+s₁)+(s₂+s₃)) + ((s₄+s₅)+(s₆+s₇))` plus a sequentially
/// summed tail. Here the vector axis is the panel's columns instead of the
/// lanes; the lanes are walked in two halves of four, one pass over `k`
/// each, because 8 lanes × `NR` columns of live accumulators spill while
/// 4 × `NR` fit the register file.
#[inline(always)]
fn dot_panel(a_row: &[f32], panel_b: &[f32]) -> [f32; NR] {
    const HALF: usize = LANES / 2;
    let full = a_row.len() - a_row.len() % LANES;
    let (a_main, a_tail) = a_row.split_at(full);
    let (b_main, b_tail) = panel_b.split_at(full * NR);
    let mut quads = [[0.0f32; NR]; 2];
    for (h, quad) in quads.iter_mut().enumerate() {
        let mut acc = [[0.0f32; NR]; HALF];
        for (ac, bc) in a_main
            .chunks_exact(LANES)
            .zip(b_main.chunks_exact(LANES * NR))
        {
            let a_half = &ac[h * HALF..(h + 1) * HALF];
            let b_half = &bc[h * HALF * NR..(h + 1) * HALF * NR];
            for ((lane, &a), pb) in acc.iter_mut().zip(a_half).zip(b_half.chunks_exact(NR)) {
                for (s, &b) in lane.iter_mut().zip(pb) {
                    *s += a * b;
                }
            }
        }
        for (j, q) in quad.iter_mut().enumerate() {
            *q = (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]);
        }
    }
    let mut tail = [0.0f32; NR];
    for (&a, pb) in a_tail.iter().zip(b_tail.chunks_exact(NR)) {
        for (t, &b) in tail.iter_mut().zip(pb) {
            *t += a * b;
        }
    }
    let mut out = [0.0f32; NR];
    for (j, o) in out.iter_mut().enumerate() {
        *o = quads[0][j] + quads[1][j] + tail[j];
    }
    out
}

/// The small `C = A · Bᵀ` kernel (`A` is `m×k`, `B` is `n×k`): transposes
/// `B` once into the thread-local `B` pack scratch, then fills each `C` row
/// [`NR`] columns at a time with [`dot_panel`]. Every element is bit-equal
/// to `ops::dot(a_row, b_row)`.
fn small_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    PACK_B.with(|pb| {
        let mut bpack = pb.borrow_mut();
        pack_b(k, n, BStore::Cols(b), &mut bpack);
        // around the arithmetic only: `LocalKey::with` is not always inlined
        with_avx2(
            #[inline(always)]
            || a_bt_rows(k, n, a, &bpack, c),
        );
    });
}

/// [`small_a_bt`] after the transposition: [`NR`] columns per [`dot_panel`].
#[inline(always)]
fn a_bt_rows(k: usize, n: usize, a: &[f32], bpack: &[f32], c: &mut [f32]) {
    for (c_row, a_row) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (dst, panel_b) in c_row.chunks_mut(NR).zip(bpack.chunks_exact(k * NR)) {
            dst.copy_from_slice(&dot_panel(a_row, panel_b)[..dst.len()]);
        }
    }
}

/// The packed driver (`A·B`, `Aᵀ·B` from [`PAR_FLOP_THRESHOLD`] on, large
/// `A·Bᵀ`): packs both operands, then runs the micro-kernel over row tiles,
/// from that threshold on in parallel (column panels when `m == 1`).
fn blocked_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: AStore<'_>,
    b: BStore<'_>,
    c: &mut [f32],
    accumulate: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    let parallel = m * n * k >= PAR_FLOP_THRESHOLD;
    PACK_B.with(|pb| {
        let mut bpack = pb.borrow_mut();
        pack_b(k, n, b, &mut bpack);
        if m == 1 {
            // a 1×k row and a k×1 column are the same contiguous storage
            let (AStore::Rows(a_row) | AStore::Cols(a_row)) = a;
            gemv_row(k, n, &a_row[..k], &bpack, c, accumulate, parallel);
            return;
        }
        PACK_A.with(|pa| {
            let mut apack = pa.borrow_mut();
            pack_a(m, k, a, &mut apack);
            let tiles = m / MR;
            let (c_full, c_tail) = c.split_at_mut(tiles * MR * n);
            let bpack: &[f32] = &bpack;
            let run = |c_rows: &mut [f32], tile_a: &[f32], rows: usize| {
                with_avx2(
                    #[inline(always)]
                    || tile_row(k, n, tile_a, bpack, c_rows, rows, accumulate),
                )
            };
            if parallel && tiles > 1 {
                c_full
                    .par_chunks_exact_mut(MR * n)
                    .zip(apack.par_chunks_exact(k * MR))
                    .for_each(|(c_rows, tile_a)| run(c_rows, tile_a, MR));
            } else {
                for (c_rows, tile_a) in c_full
                    .chunks_exact_mut(MR * n)
                    .zip(apack.chunks_exact(k * MR))
                {
                    run(c_rows, tile_a, MR);
                }
            }
            let tail_rows = m % MR;
            if tail_rows > 0 {
                run(c_tail, &apack[tiles * k * MR..], tail_rows);
            }
        });
    });
}

/// `C = A · B` on row-major slices: `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
///
/// # Panics
/// Panics if any slice length does not match its shape.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_into: A length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into: B length mismatch");
    assert_eq!(c.len(), m * n, "gemm_into: C length mismatch");

    if m * n * k < PAR_FLOP_THRESHOLD {
        with_avx2(
            #[inline(always)]
            || direct_gemm(m, n, |idx| a_rows(a, k, idx), b, c, false),
        );
    } else {
        blocked_gemm(m, k, n, AStore::Rows(a), BStore::Rows(b), c, false);
    }
}

/// `C += Aᵀ · B` on row-major slices: `A` is `k×m`, `B` is `k×n`, `C` is `m×n`.
///
/// Note this *accumulates* into `C` (the natural mode for gradient sums).
///
/// # Panics
/// Panics if any slice length does not match its shape.
pub fn gemm_at_b_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_at_b_into: A length mismatch");
    assert_eq!(b.len(), k * n, "gemm_at_b_into: B length mismatch");
    assert_eq!(c.len(), m * n, "gemm_at_b_into: C length mismatch");

    if m * n * k < PAR_FLOP_THRESHOLD {
        with_avx2(
            #[inline(always)]
            || direct_gemm(m, n, |idx| a_cols(a, m, idx), b, c, true),
        );
    } else {
        blocked_gemm(m, k, n, AStore::Cols(a), BStore::Rows(b), c, true);
    }
}

/// `C = A · Bᵀ` on row-major slices: `A` is `m×k`, `B` is `n×k`, `C` is `m×n`.
///
/// # Panics
/// Panics if any slice length does not match its shape.
pub fn gemm_a_bt_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_a_bt_into: A length mismatch");
    assert_eq!(b.len(), n * k, "gemm_a_bt_into: B length mismatch");
    assert_eq!(c.len(), m * n, "gemm_a_bt_into: C length mismatch");

    if m * n * k <= A_BT_SMALL_FLOP_THRESHOLD {
        small_a_bt(m, k, n, a, b, c);
    } else {
        blocked_gemm(m, k, n, AStore::Rows(a), BStore::Cols(b), c, false);
    }
}

/// Naive triple-loop reference used by tests and property checks.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (_, n) = b.shape();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `C = A · B` through the slice kernel, shapes read from the matrices.
    fn matmul(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        gemm_into(
            a.rows(),
            a.cols(),
            b.cols(),
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
        );
    }

    /// `C = Aᵀ · B` (`A` is `k×m`): a zeroed `C` plus the accumulating kernel.
    fn matmul_at_b(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        c.as_mut_slice().fill(0.0);
        gemm_at_b_into(
            a.cols(),
            a.rows(),
            b.cols(),
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
        );
    }

    /// `C = A · Bᵀ` (`B` is `n×k`).
    fn matmul_a_bt(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        gemm_a_bt_into(
            a.rows(),
            a.cols(),
            b.rows(),
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
        );
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut c = Matrix::zeros(2, 2);
        matmul(&a, &b, &mut c);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = rand_matrix(5, 5, 42);
        let id = Matrix::identity(5);
        let mut c = Matrix::zeros(5, 5);
        matmul(&a, &id, &mut c);
        assert!(c.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_matches_reference_rectangular() {
        let a = rand_matrix(7, 13, 1);
        let b = rand_matrix(13, 5, 2);
        let mut c = Matrix::zeros(7, 5);
        matmul(&a, &b, &mut c);
        assert!(c.max_abs_diff(&matmul_reference(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_parallel_path_matches_reference() {
        // Large enough to cross PAR_FLOP_THRESHOLD.
        let a = rand_matrix(300, 40, 3);
        let b = rand_matrix(40, 300, 4);
        let mut c = Matrix::zeros(300, 300);
        matmul(&a, &b, &mut c);
        assert!(c.max_abs_diff(&matmul_reference(&a, &b)) < 1e-3);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = rand_matrix(9, 4, 5);
        let b = rand_matrix(9, 6, 6);
        let mut c = Matrix::zeros(4, 6);
        matmul_at_b(&a, &b, &mut c);
        assert!(c.max_abs_diff(&matmul_reference(&a.transposed(), &b)) < 1e-4);
    }

    #[test]
    fn at_b_slice_kernel_accumulates() {
        let a = rand_matrix(3, 2, 11);
        let b = rand_matrix(3, 4, 12);
        let reference = matmul_reference(&a.transposed(), &b);
        let mut c = vec![0.0f32; 8];
        gemm_at_b_into(2, 3, 4, a.as_slice(), b.as_slice(), &mut c);
        gemm_at_b_into(2, 3, 4, a.as_slice(), b.as_slice(), &mut c);
        for (got, want) in c.iter().zip(reference.as_slice()) {
            assert!((got - 2.0 * want).abs() < 1e-4, "accumulation failed");
        }
    }

    #[test]
    fn blocked_at_b_accumulates() {
        // Same accumulation contract on the blocked path (k·m·n above the
        // small-multiply threshold).
        let a = rand_matrix(40, 24, 13);
        let b = rand_matrix(40, 24, 14);
        let reference = matmul_reference(&a.transposed(), &b);
        let mut c = vec![0.0f32; 24 * 24];
        blocked_gemm(
            24,
            40,
            24,
            AStore::Cols(a.as_slice()),
            BStore::Rows(b.as_slice()),
            &mut c,
            true,
        );
        blocked_gemm(
            24,
            40,
            24,
            AStore::Cols(a.as_slice()),
            BStore::Rows(b.as_slice()),
            &mut c,
            true,
        );
        for (got, want) in c.iter().zip(reference.as_slice()) {
            assert!((got - 2.0 * want).abs() < 1e-3, "accumulation failed");
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = rand_matrix(8, 5, 7);
        let b = rand_matrix(3, 5, 8);
        let mut c = Matrix::zeros(8, 3);
        matmul_a_bt(&a, &b, &mut c);
        assert!(c.max_abs_diff(&matmul_reference(&a, &b.transposed())) < 1e-4);
    }

    /// Values that expose a changed summation order or a sign-of-zero
    /// slip: signed zeros, subnormals, magnitudes whose products absorb or
    /// cancel one another (but stay finite), and ordinary fractions.
    fn edge_values(len: usize, seed: u64) -> Vec<f32> {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.random_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.random_range(1..0x0080_0000u32)),
                3 => -f32::from_bits(rng.random_range(1..0x0080_0000u32)),
                4 => rng.random_range(-1.0e18f32..1.0e18),
                5 => rng.random_range(-1.0e-19f32..1.0e-19),
                _ => rng.random_range(-1.0f32..1.0),
            })
            .collect()
    }

    #[test]
    fn small_a_bt_is_dot_bit_for_bit() {
        // The kernel itself, bypassing the threshold: every shape up to
        // 20 × 40 × 40, so k straddles the dot lanes (0, <8, 8, 8c + tail)
        // and n the column panels (1, <NR, NR, NR·c + tail).
        let a_all = edge_values(20 * 40, 71);
        let b_all = edge_values(40 * 40, 72);
        let mut c = vec![0.0f32; 20 * 40];
        for m in 1..=20usize {
            for k in 0..=40usize {
                for n in 1..=40usize {
                    let (a, b) = (&a_all[..m * k], &b_all[..n * k]);
                    let c = &mut c[..m * n];
                    c.fill(f32::NAN);
                    small_a_bt(m, k, n, a, b, c);
                    for i in 0..m {
                        for j in 0..n {
                            let want =
                                crate::ops::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                            assert_eq!(
                                c[i * n + j].to_bits(),
                                want.to_bits(),
                                "a_bt {m}x{k}x{n} [{i},{j}]: {} vs dot {want}",
                                c[i * n + j]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_a_bt_keeps_dots_positive_zero() {
        // dot never returns −0.0: every lane is `+0.0 += product`. A kernel
        // that assigned the first product instead would.
        let a = [-0.0f32; 9];
        let b = [1.0f32; 9];
        let mut c = [f32::NAN];
        small_a_bt(1, 9, 1, &a, &b, &mut c);
        assert_eq!(c[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(crate::ops::dot(&a, &b).to_bits(), 0.0f32.to_bits());
    }

    /// `C (+)= A·B` as one chain per element, `acc += a·b` over `p` in
    /// order, from `+0.0` or from the `C` already there: the order the
    /// direct tile promises. `a_at(i, p)` reads the logical `m × k` left
    /// operand from whichever layout the caller stored.
    fn naive_chain(
        m: usize,
        k: usize,
        n: usize,
        a_at: impl Fn(usize, usize) -> f32,
        b: &[f32],
        c: &mut [f32],
        from_c: bool,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = if from_c { c[i * n + j] } else { 0.0 };
                for p in 0..k {
                    acc += a_at(i, p) * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// Every shape that straddles the row band (0, < MR, MR, two bands and
    /// a tail), the column cut (every mix of 8 / 4 / 2 / 1) and the empty
    /// axes, over `edge_values`.
    fn for_each_tile_shape(mut f: impl FnMut(usize, usize, usize, &[f32], &[f32], &[f32])) {
        let (m_max, k_max, n_max) = (2 * MR + 1, 17, 2 * NR + 3);
        let a_all = edge_values(m_max * k_max, 81);
        let b_all = edge_values(k_max * n_max, 82);
        let c_all = edge_values(m_max * n_max, 83);
        for m in 0..=m_max {
            for k in 0..=k_max {
                for n in 0..=n_max {
                    f(m, k, n, &a_all[..m * k], &b_all[..k * n], &c_all[..m * n]);
                }
            }
        }
    }

    #[test]
    fn direct_tile_is_the_naive_chain_bit_for_bit() {
        for_each_tile_shape(|m, k, n, a, b, c0| {
            // A·B: from +0.0, whatever C held
            let mut got = vec![f32::NAN; m * n];
            direct_gemm(m, n, |idx| a_rows(a, k, idx), b, &mut got, false);
            let mut want = vec![f32::NAN; m * n];
            naive_chain(m, k, n, |i, p| a[i * k + p], b, &mut want, false);
            assert_eq!(bits(&got), bits(&want), "A·B {m}x{k}x{n}");

            // Aᵀ·B: A stored k×m, the chain continues from a non-zero C
            let mut got = c0.to_vec();
            direct_gemm(m, n, |idx| a_cols(a, m, idx), b, &mut got, true);
            let mut want = c0.to_vec();
            naive_chain(m, k, n, |i, p| a[p * m + i], b, &mut want, true);
            assert_eq!(bits(&got), bits(&want), "Aᵀ·B {m}x{k}x{n}");
        });
    }

    #[test]
    fn direct_and_packed_agree_bitwise_on_a_zeroed_target() {
        // The property that lets a shape change path without moving a
        // pinned result: on a zeroed C the packed driver's from-zero chain
        // added to C equals the tile's chain started from C.
        for_each_tile_shape(|m, k, n, a, b, _| {
            let mut direct = vec![f32::NAN; m * n];
            direct_gemm(m, n, |idx| a_rows(a, k, idx), b, &mut direct, false);
            let mut packed = vec![f32::NAN; m * n];
            blocked_gemm(
                m,
                k,
                n,
                AStore::Rows(a),
                BStore::Rows(b),
                &mut packed,
                false,
            );
            assert_eq!(bits(&direct), bits(&packed), "A·B {m}x{k}x{n}");

            let mut direct = vec![0.0f32; m * n];
            direct_gemm(m, n, |idx| a_cols(a, m, idx), b, &mut direct, true);
            let mut packed = vec![0.0f32; m * n];
            blocked_gemm(m, k, n, AStore::Cols(a), BStore::Rows(b), &mut packed, true);
            assert_eq!(bits(&direct), bits(&packed), "Aᵀ·B {m}x{k}x{n}");
        });
    }

    #[test]
    fn avx2_and_baseline_compilations_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        let detected = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        if !detected {
            println!("skipped: this CPU has no AVX2, with_avx2 runs the baseline compilation");
            return;
        }
        // Each dispatched body as written (this test is compiled for the
        // baseline) and through `wide`, from the same starting `C`.
        #[inline(always)]
        fn agree(c0: &[f32], what: &str, body: impl Fn(&mut [f32])) {
            let (mut base, mut wide) = (c0.to_vec(), c0.to_vec());
            body(&mut base);
            with_avx2(
                #[inline(always)]
                || body(&mut wide),
            );
            assert_eq!(bits(&base), bits(&wide), "{what}");
        }
        for_each_tile_shape(|m, k, n, a, b, c0| {
            let shape = format!("{m}x{k}x{n}");
            agree(
                c0,
                &format!("tile, A·B {shape}"),
                #[inline(always)]
                |c| direct_gemm(m, n, |idx| a_rows(a, k, idx), b, c, false),
            );
            agree(
                c0,
                &format!("tile, Aᵀ·B {shape}"),
                #[inline(always)]
                |c| direct_gemm(m, n, |idx| a_cols(a, m, idx), b, c, true),
            );
            if m == 0 || n == 0 || k == 0 {
                return;
            }
            let (mut apack, mut bpack) = (Vec::new(), Vec::new());
            pack_a(m, k, AStore::Rows(a), &mut apack);
            pack_b(k, n, BStore::Rows(b), &mut bpack);
            let rows = MR.min(m);
            for accumulate in [false, true] {
                agree(
                    &c0[..rows * n],
                    &format!("tile_row {shape}"),
                    #[inline(always)]
                    |c| tile_row(k, n, &apack[..k * MR], &bpack, c, rows, accumulate),
                );
            }
            agree(
                c0,
                &format!("a_bt_rows {shape}"),
                #[inline(always)]
                |c| a_bt_rows(k, n, a, &bpack, c),
            );
        });
    }

    #[test]
    fn gemm_a_bt_threshold_is_pinned() {
        // At or below 8 192 multiply–adds every element is `ops::dot`,
        // above it the packed driver's single chain. The two orders give
        // different bits, and benchmark digests hold both (16×10×24 is
        // `train_dpsgd`'s output layer, 8×10×640 `sync_wide64`'s), so an
        // edit of the threshold fails here first.
        let mut orders_differ = false;
        for (m, k, n, small) in [
            (16usize, 10usize, 24usize, true),
            (16, 16, 32, true),
            (16, 16, 33, false),
            (8, 10, 640, false),
        ] {
            assert_eq!(m * k * n <= 8 * 1024, small);
            let a = edge_values(m * k, 91);
            let b = edge_values(n * k, 92);
            let mut c = vec![f32::NAN; m * n];
            gemm_a_bt_into(m, k, n, &a, &b, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let (a_row, b_row) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    let dot = crate::ops::dot(a_row, b_row);
                    let mut chain = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        chain += x * y;
                    }
                    orders_differ |= dot.to_bits() != chain.to_bits();
                    let want = if small { dot } else { chain };
                    assert_eq!(
                        c[i * n + j].to_bits(),
                        want.to_bits(),
                        "a_bt {m}x{k}x{n} [{i},{j}]"
                    );
                }
            }
        }
        assert!(orders_differ, "the operands must tell the two orders apart");
    }

    #[test]
    fn zero_times_nonfinite_propagates_at_every_size() {
        // One shape per path: the direct tile, and the packed driver at
        // PAR_FLOP_THRESHOLD. A ±0.0 in A opposite ∞ or NaN in B is NaN in
        // every element of C, whichever kernel the size selects.
        for (m, k, n) in [(16usize, 24usize, 10usize), (96, 300, 96)] {
            assert_eq!(m * k * n >= PAR_FLOP_THRESHOLD, m == 96);
            let p0 = k / 2;
            for zero in [0.0f32, -0.0] {
                for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let mut b = vec![1.0f32; k * n];
                    b[p0 * n..(p0 + 1) * n].fill(bad);

                    let mut a = vec![1.0f32; m * k];
                    a.iter_mut().skip(p0).step_by(k).for_each(|v| *v = zero);
                    let mut c = vec![0.0f32; m * n];
                    gemm_into(m, k, n, &a, &b, &mut c);
                    assert!(c.iter().all(|v| v.is_nan()), "A·B {m}x{k}x{n} {zero}·{bad}");

                    let mut at = vec![1.0f32; k * m];
                    at[p0 * m..(p0 + 1) * m].fill(zero);
                    let mut c = vec![0.0f32; m * n];
                    gemm_at_b_into(m, k, n, &at, &b, &mut c);
                    assert!(
                        c.iter().all(|v| v.is_nan()),
                        "Aᵀ·B {m}x{k}x{n} {zero}·{bad}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes_return_like_the_blocked_driver() {
        // An empty m or n leaves nothing to write; an empty k writes zeros
        // (A·B, A·Bᵀ) or leaves C as it was (Aᵀ·B accumulates nothing).
        for (m, k, n) in [(0usize, 3usize, 2usize), (2, 0, 2), (2, 3, 0)] {
            let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
            let was = vec![7.0f32; m * n];
            type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
            let kernels: [(Kernel, AStore, BStore, bool); 3] = [
                (gemm_into, AStore::Rows(&a), BStore::Rows(&b), false),
                (gemm_at_b_into, AStore::Cols(&a), BStore::Rows(&b), true),
                (gemm_a_bt_into, AStore::Rows(&a), BStore::Cols(&b), false),
            ];
            for (kernel, a_store, b_store, accumulate) in kernels {
                let mut got = was.clone();
                kernel(m, k, n, &a, &b, &mut got);
                let mut want = was.clone();
                blocked_gemm(m, k, n, a_store, b_store, &mut want, accumulate);
                assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}");
                let fill = if accumulate { 7.0 } else { 0.0f32 };
                assert!(got.iter().all(|v| v.to_bits() == fill.to_bits()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm_into: B length mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        matmul(&a, &b, &mut c);
    }

    /// Runs the blocked driver (bypassing the small-multiply fallback) for
    /// all three shapes and compares against the naive reference.
    fn check_blocked_all_shapes(m: usize, k: usize, n: usize, seed: u64) {
        let tol = 1e-3 * (1.0 + k as f32 / 8.0);

        // C = A·B
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed.wrapping_add(1));
        let mut c = vec![0.0f32; m * n];
        blocked_gemm(
            m,
            k,
            n,
            AStore::Rows(a.as_slice()),
            BStore::Rows(b.as_slice()),
            &mut c,
            false,
        );
        let reference = matmul_reference(&a, &b);
        for (got, want) in c.iter().zip(reference.as_slice()) {
            assert!(
                (got - want).abs() < tol,
                "gemm {m}x{k}x{n}: {got} vs {want}"
            );
        }

        // C = Aᵀ·B (A stored k×m)
        let at = rand_matrix(k, m, seed.wrapping_add(2));
        let mut c = vec![0.0f32; m * n];
        blocked_gemm(
            m,
            k,
            n,
            AStore::Cols(at.as_slice()),
            BStore::Rows(b.as_slice()),
            &mut c,
            true,
        );
        let reference = matmul_reference(&at.transposed(), &b);
        for (got, want) in c.iter().zip(reference.as_slice()) {
            assert!(
                (got - want).abs() < tol,
                "at_b {m}x{k}x{n}: {got} vs {want}"
            );
        }

        // C = A·Bᵀ (B stored n×k)
        let bt = rand_matrix(n, k, seed.wrapping_add(3));
        let mut c = vec![0.0f32; m * n];
        blocked_gemm(
            m,
            k,
            n,
            AStore::Rows(a.as_slice()),
            BStore::Cols(bt.as_slice()),
            &mut c,
            false,
        );
        let reference = matmul_reference(&a, &bt.transposed());
        for (got, want) in c.iter().zip(reference.as_slice()) {
            assert!(
                (got - want).abs() < tol,
                "a_bt {m}x{k}x{n}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn blocked_kernels_cover_tile_boundaries() {
        // Every combination of m/k/n straddling the MR (4) and NR (8) tile
        // edges, plus the degenerate size-1 axes.
        let edges = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1];
        for (s, &m) in edges.iter().enumerate() {
            for &k in &edges {
                for &n in &edges {
                    check_blocked_all_shapes(m, k, n, 100 + s as u64);
                }
            }
        }
    }

    #[test]
    fn blocked_parallel_is_bit_stable_across_thread_counts() {
        // 96·96·300 ≈ 2.8M flops crosses PAR_FLOP_THRESHOLD, so the row
        // blocks genuinely run under different split counts here; the fixed
        // per-element accumulation order must make every thread count
        // produce bit-identical output.
        let (m, k, n) = (96usize, 300usize, 96usize);
        assert!(m * n * k >= PAR_FLOP_THRESHOLD);
        let a = rand_matrix(m, k, 51);
        let b = rand_matrix(k, n, 52);
        let at = rand_matrix(k, m, 53);
        let bt = rand_matrix(n, k, 54);
        // skinny operands: 1×(k·m) by (k·m)×96 ≈ 2.8M flops, parallel too
        let b_skinny = rand_matrix(k * m, 96, 55);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut c1 = vec![0.0f32; m * n];
                gemm_into(m, k, n, a.as_slice(), b.as_slice(), &mut c1);
                let mut c2 = vec![0.0f32; m * n];
                gemm_at_b_into(m, k, n, at.as_slice(), b.as_slice(), &mut c2);
                let mut c3 = vec![0.0f32; m * n];
                gemm_a_bt_into(m, k, n, a.as_slice(), bt.as_slice(), &mut c3);
                // skinny shape: column-panel parallelism
                let mut c4 = vec![0.0f32; 96];
                gemm_into(1, k * m, 96, at.as_slice(), b_skinny.as_slice(), &mut c4);
                (c1, c2, c3, c4)
            })
        };
        let reference = run(1);
        for threads in [2, 3, 7] {
            let got = run(threads);
            assert!(
                bits(&reference.0) == bits(&got.0)
                    && bits(&reference.1) == bits(&got.1)
                    && bits(&reference.2) == bits(&got.2)
                    && bits(&reference.3) == bits(&got.3),
                "thread count {threads} changed kernel output bits"
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn skinny_row_parallelizes_over_columns() {
        // The PAR_THRESHOLD regression: a 1×N product over a huge inner
        // dimension must take the parallel column-panel path and still
        // match the reference.
        let k = 60_000usize;
        let n = 64usize;
        assert!(k * n >= PAR_FLOP_THRESHOLD);
        let a = rand_matrix(1, k, 61);
        let b = rand_matrix(k, n, 62);
        let mut c = Matrix::zeros(1, n);
        matmul(&a, &b, &mut c);
        // block-summed reference in f64 to keep the tolerance meaningful
        for j in 0..n {
            let want: f64 = (0..k)
                .map(|p| a.as_slice()[p] as f64 * b[(p, j)] as f64)
                .sum();
            assert!(
                (c[(0, j)] as f64 - want).abs() < 0.3,
                "col {j}: {} vs {want}",
                c[(0, j)]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matmul_matches_reference(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000
        ) {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(k, n, seed.wrapping_add(1));
            let mut c = Matrix::zeros(m, n);
            matmul(&a, &b, &mut c);
            prop_assert!(c.max_abs_diff(&matmul_reference(&a, &b)) < 1e-3);
        }

        #[test]
        fn prop_transpose_kernels_agree(
            m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
        ) {
            let a = rand_matrix(k, m, seed);
            let b = rand_matrix(k, n, seed.wrapping_add(9));
            let mut c1 = Matrix::zeros(m, n);
            matmul_at_b(&a, &b, &mut c1);
            let at = a.transposed();
            let mut c2 = Matrix::zeros(m, n);
            matmul(&at, &b, &mut c2);
            prop_assert!(c1.max_abs_diff(&c2) < 1e-3);
        }

        #[test]
        fn prop_a_bt_matches_reference(
            m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
        ) {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(n, k, seed.wrapping_add(17));
            let mut c = Matrix::zeros(m, n);
            matmul_a_bt(&a, &b, &mut c);
            prop_assert!(c.max_abs_diff(&matmul_reference(&a, &b.transposed())) < 1e-3);
        }

        #[test]
        fn prop_blocked_path_matches_reference_at_tile_edges(
            mi in 0usize..7, ki in 0usize..7, ni in 0usize..7, seed in 0u64..500
        ) {
            let edges = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1];
            check_blocked_all_shapes(edges[mi], edges[ki], edges[ni], seed);
        }
    }
}
