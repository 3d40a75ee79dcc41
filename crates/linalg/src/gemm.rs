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
//! multiply without any copies; [`Matrix`] wrappers are provided on top.
//!
//! # Blocked kernel design
//!
//! All three shapes funnel into one cache-blocked, register-tiled driver:
//!
//! 1. **Pack once per multiply.** `B` is packed into [`NR`]-wide column
//!    panels (`k × NR` contiguous, zero-padded tail panel) and `A` into
//!    [`MR`]-row tiles (`k × MR` contiguous, zero-padded tail tile). The
//!    packed buffers live in thread-local scratch on the calling thread
//!    (workers only read them), so steady-state multiplies allocate
//!    nothing as long as the caller thread persists — true for serial
//!    callers and the main thread, but a multiply issued from inside a
//!    parallel region of the vendored spawn-per-op rayon runs on a fresh
//!    worker whose scratch starts empty (see ROADMAP: persistent worker
//!    pool). Packing normalizes both storage layouts (`Aᵀ·B` reads `A`
//!    columns, `A·Bᵀ` reads `B` rows), which is why one micro-kernel
//!    serves all three shapes.
//! 2. **4×8 register micro-kernel.** For each (row tile, column panel)
//!    pair, an `MR × NR` accumulator array is carried in registers across
//!    the whole `k` loop: per step, `MR` contiguous `A` values and `NR`
//!    contiguous `B` values feed `MR·NR` multiply–adds. `C` is written
//!    exactly once per element.
//! 3. **Deterministic accumulation.** Every output element is a single
//!    scalar chain over `p = 0..k` in order, so results are bit-identical
//!    regardless of tiling, thread count, or which parallel split ran —
//!    the workspace's determinism requirement.
//! 4. **Rayon over row blocks** for all three shapes once a multiply
//!    reaches [`PAR_FLOP_THRESHOLD`] multiply–adds. Skinny products
//!    (`m == 1`, e.g. single-sample inference over a huge weight matrix)
//!    parallelize over column panels instead, so FLOP-heavy multiplies
//!    are never serialized just because `m` is small.
//!
//! # Small multiplies
//!
//! Multiplies under [`SMALL_FLOP_THRESHOLD`] skip the blocked driver — at
//! that size packing both operands and dispatching tiles costs more than
//! register tiling saves. `A·B` and `Aᵀ·B` run plain streaming loops over
//! rows of `B`. `A·Bᵀ` has no row of `B` to stream (each output element is
//! a dot product of two rows), so it transposes `B` once into the `B` pack
//! scratch and produces [`NR`] output columns per pass over an `A` row
//! (`small_a_bt`). Its per-element summation order is
//! [`ops::dot`](crate::ops::dot)'s — eight lane partial sums combined by a
//! fixed tree, then the tail — not the blocked driver's single chain:
//! every output-layer input gradient of the small models goes through this
//! kernel, so its order is part of every pinned result (benchmark digests,
//! determinism tests), and `dot` is the independent reference the tests
//! compare it against, bit for bit.

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
pub const PAR_FLOP_THRESHOLD: usize = 2 * 1024 * 1024;

/// Below this multiply–add count the packed path's pack traffic and
/// dispatch overhead beat its register-tiling gains; the small kernels
/// (module docs, "Small multiplies") are used instead.
const SMALL_FLOP_THRESHOLD: usize = 8 * 1024;

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
        for (c_row, a_row) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
            for (dst, panel_b) in c_row.chunks_mut(NR).zip(bpack.chunks_exact(k * NR)) {
                dst.copy_from_slice(&dot_panel(a_row, panel_b)[..dst.len()]);
            }
        }
    });
}

/// The blocked driver behind all three public kernels: packs both
/// operands, then runs the micro-kernel over row tiles — in parallel over
/// row blocks (or column panels when `m == 1`) once the multiply crosses
/// [`PAR_FLOP_THRESHOLD`].
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
            let a_row = match a {
                AStore::Rows(a) => &a[..k],
                AStore::Cols(a) => &a[..k], // k×1 storage is also contiguous
            };
            gemv_row(k, n, a_row, &bpack, c, accumulate, parallel);
            return;
        }
        PACK_A.with(|pa| {
            let mut apack = pa.borrow_mut();
            pack_a(m, k, a, &mut apack);
            let tiles = m / MR;
            let (c_full, c_tail) = c.split_at_mut(tiles * MR * n);
            let bpack: &[f32] = &bpack;
            if parallel && tiles > 1 {
                c_full
                    .par_chunks_exact_mut(MR * n)
                    .zip(apack.par_chunks_exact(k * MR))
                    .for_each(|(c_rows, tile_a)| {
                        tile_row(k, n, tile_a, bpack, c_rows, MR, accumulate)
                    });
            } else {
                for (c_rows, tile_a) in c_full
                    .chunks_exact_mut(MR * n)
                    .zip(apack.chunks_exact(k * MR))
                {
                    tile_row(k, n, tile_a, bpack, c_rows, MR, accumulate);
                }
            }
            let tail_rows = m % MR;
            if tail_rows > 0 {
                tile_row(
                    k,
                    n,
                    &apack[tiles * k * MR..],
                    bpack,
                    c_tail,
                    tail_rows,
                    accumulate,
                );
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

    if m * n * k <= SMALL_FLOP_THRESHOLD {
        // ikj order: for each a[i][p], stream b row p into c row i.
        for (c_row, a_row) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
            c_row.fill(0.0);
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                    *c_v += a_ip * b_v;
                }
            }
        }
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

    if m * n * k <= SMALL_FLOP_THRESHOLD {
        // For every sample p: c[i][j] += a[p][i] * b[p][j].
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                if a_pi == 0.0 {
                    continue;
                }
                let c_row = &mut c[i * n..(i + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                    *c_v += a_pi * b_v;
                }
            }
        }
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

    if m * n * k <= SMALL_FLOP_THRESHOLD {
        small_a_bt(m, k, n, a, b, c);
    } else {
        blocked_gemm(m, k, n, AStore::Rows(a), BStore::Cols(b), c, false);
    }
}

/// `C = A · B` where `A` is `m×k` and `B` is `k×n`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()` or if `C` is not `m×n`.
pub fn matmul(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul inner dimension mismatch: {k} vs {kb}");
    assert_eq!(c.shape(), (m, n), "matmul output shape mismatch");
    gemm_into(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
}

/// `C = Aᵀ · B` where `A` is `k×m` and `B` is `k×n` (so `C` is `m×n`).
///
/// Used for weight gradients: `dW = Xᵀ · dY`. Overwrites `C`.
///
/// # Panics
/// Panics if `A.rows() != B.rows()` or if `C` is not `m×n`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_at_b inner dimension mismatch: {k} vs {kb}");
    assert_eq!(c.shape(), (m, n), "matmul_at_b output shape mismatch");
    c.fill_zero();
    gemm_at_b_into(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
}

/// `C = A · Bᵀ` where `A` is `m×k` and `B` is `n×k` (so `C` is `m×n`).
///
/// Used for input gradients: `dX = dY · Wᵀ`.
///
/// # Panics
/// Panics if `A.cols() != B.cols()` or if `C` is not `m×n`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "matmul_a_bt inner dimension mismatch: {k} vs {kb}");
    assert_eq!(c.shape(), (m, n), "matmul_a_bt output shape mismatch");
    gemm_a_bt_into(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
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

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
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
