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
//! One driver per product shape, and no fork: a product runs on the thread
//! that calls it (in the engine, a worker of `train_fleet` or
//! `evaluate_fleet`, each node block's own). Every output element of `A·B` and `Aᵀ·B`, and of `A·Bᵀ` above
//! `A_BT_SMALL_FLOP_THRESHOLD`, is a single scalar chain `acc += a · b` over
//! `p = 0..k` in order, so results are bit-identical whatever the size,
//! tiling or thread count — the workspace's determinism requirement.
//!
//! 1. **Direct tile: every `A·B` and `Aᵀ·B`.** An [`MR`]-row block of
//!    accumulators, 8, 4, 2 or 1 columns wide, stays in registers across a
//!    block of `KC` rows of `B` while both operands are read where they
//!    lie; `C` is written once per block. `A·B` starts each chain from
//!    `+0.0`, `Aᵀ·B` continues it from the `C` it finds (the library passes
//!    a zeroed `C`: `Sequential::backward` after `zero_grads`). A training
//!    batch makes `m` 8–32, so a packed `B` would serve 2–8 row tiles and
//!    never repay the copy. No scratch, so no allocation on any thread.
//! 2. **Pack, then tile: large `A·Bᵀ`.** It has no row of `B` to stream,
//!    and packing *is* the transposition: `B`'s rows go into [`NR`]-wide
//!    column panels and `A`'s into [`MR`]-row tiles (a short tail's spare
//!    lanes hold stale values that reach no result), in thread-local
//!    scratch; a 4×8 register micro-kernel runs per (tile, panel) pair.
//!
//! Both compile twice from one source, for the baseline and for AVX2
//! (`simd::with_avx2`).
//!
//! **Cold `B`.** A SkipTrain training round follows a window settle that
//! rewrote the whole fleet (22.8 MB on `sync_wide64`), so a node's weights
//! reach its forward pass from L3. A tile's pass over all of `k` reads `B`
//! as `k` strips `4·n` bytes apart (2 560 B in the first layer's
//! `gemm_into(8, 128, 640)`), streams no prefetcher follows; a block of
//! `KC` rows is read by every band and tile before the next. Per multiply,
//! µs, min of 90 samples of 64 / median of six alternating runs' medians,
//! 2-vCPU AVX2 host with 2 MiB of L2 per core; cold reads 64 distinct
//! models, warm one model 64 times; the outputs of every row are equal bit
//! for bit:
//!
//! | `KC` | `(8, 128, 640)` cold | warm | `(8, 640, 10)` cold | warm |
//! |---|---|---|---|---|
//! | one block | 154 / 185 | 37 / 55 | 6.6 / 9.4 | 3.8 / 6.1 |
//! | 16 | 86 / 116 | 42 / 72 | 7.0 / 10.8 | 5.6 / 9.4 |
//! | 32 | 81 / 107 | 39 / 60 | 6.6 / 10.0 | 4.6 / 7.2 |
//! | 64 | 87 / 119 | 37 / 57 | 6.4 / 9.8 | 4.4 / 7.0 |
//!
//! 32 reads a cold `B` fastest. A `B` row within one cache line (`4·n ≤ 64`
//! B) runs all of `k` as one block: no block repays its reload of `C`.
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
//! transposes `B` once into the `B` pack scratch (allocated on a thread's
//! first use, so also on a fresh worker of a fleet fork) and
//! produces [`NR`] output columns per pass over an `A` row (`small_a_bt`),
//! each in [`ops::dot`](crate::ops::dot)'s order — eight lane sums combined
//! by a fixed tree, then the tail — not the single chain: the small models'
//! output-layer input gradients all take it, so that order is in every
//! pinned result, and `dot` is the reference the tests hold it to, bit for bit.

use crate::ops::LANES;
use crate::simd::with_avx2;
use std::cell::RefCell;

/// Rows per register tile: a band of the direct tile, a packed `A` tile.
pub const MR: usize = 4;

/// Columns of the widest direct tile, of a packed `B` panel and of one
/// `small_a_bt` pass over an `A` row.
pub const NR: usize = 8;

/// Rows of `B` per block of the direct tile: the module doc's "Cold `B`".
const KC: usize = 32;

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

/// One `MR × W` block of `C` over one block of `B`'s rows, operands read
/// where they lie: accumulators in registers across the block, `C` written
/// once. Each element continues one chain `acc += a · b` over `p` in order,
/// from `+0.0` or from the `C` it replaces (`from_c`); no term is skipped.
/// `a_vals` yields the tile rows' `A` values for each `p`; `c_band` is the
/// `≤ MR` rows of `C` it lies in, `last` the index of its last row, which
/// spare rows of a short band shadow, start to store.
#[inline(always)]
fn tile<const W: usize>(
    a_vals: impl Iterator<Item = [f32; MR]>,
    b: &[f32],
    n: usize,
    j0: usize,
    c_band: &mut [f32],
    last: usize,
    from_c: bool,
) {
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

/// Four rows of a row-major `m × k` `A` (`A·B`), walked together.
#[inline(always)]
fn a_rows(a: &[f32], k: usize, idx: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
    let [r0, r1, r2, r3] = idx.map(|i| &a[i * k..]);
    let quads = r0.iter().zip(r1).zip(r2).zip(r3);
    quads.map(|(((&v0, &v1), &v2), &v3)| [v0, v1, v2, v3])
}

/// The same for `A` stored `k × m` (`Aᵀ·B`): four entries of each row,
/// named one by one: an `idx.map(..)` per `p` can stay a call in the AVX2
/// build, which made every `Aᵀ·B` shape 1.7× slower.
#[inline(always)]
fn a_cols(a: &[f32], m: usize, idx: [usize; MR]) -> impl Iterator<Item = [f32; MR]> + '_ {
    let [i0, i1, i2, i3] = idx;
    a.chunks_exact(m)
        .map(move |a_p| [a_p[i0], a_p[i1], a_p[i2], a_p[i3]])
}

/// The direct driver behind every `A·B` and `Aᵀ·B`: walks `B` in blocks of
/// [`KC`] rows (one for a narrow `B`), per block `C` in [`MR`]-row bands,
/// each cut into tiles 8, …, 8, 4, 2, 1 columns wide. `a_band` turns a
/// band's four row indices (a short tail band repeats its last) and a
/// block's first `p` into a pass over their `A` values from there on, which
/// a tile stops where the block's rows of `B` end. A chain starts from
/// `+0.0` or `C` in the first block and from the `C` the previous block
/// stored in the others (an `f32` store and reload is exact): one chain over
/// `p` in order. An empty `m` or `n` visits nothing; an empty `k` runs one
/// empty block, storing the starting accumulators (zeros, or `C` as it was).
#[inline(always)]
fn direct_gemm<I: Iterator<Item = [f32; MR]>>(
    m: usize,
    k: usize,
    n: usize,
    a_band: impl Fn([usize; MR], usize) -> I,
    b: &[f32],
    c: &mut [f32],
    from_c: bool,
) {
    let kc = if 4 * n <= 64 { k.max(1) } else { KC };
    for p0 in (0..k.max(1)).step_by(kc) {
        let (b, from_c) = (&b[p0 * n..k.min(p0 + kc) * n], from_c || p0 > 0);
        for i0 in (0..m).step_by(MR) {
            let last = MR.min(m - i0) - 1;
            let idx: [usize; MR] = std::array::from_fn(|r| i0 + r.min(last));
            let c_band = &mut c[i0 * n..(i0 + last + 1) * n];
            let mut j0 = 0;
            while n - j0 >= NR {
                tile::<NR>(a_band(idx, p0), b, n, j0, c_band, last, from_c);
                j0 += NR;
            }
            if n - j0 >= 4 {
                tile::<4>(a_band(idx, p0), b, n, j0, c_band, last, from_c);
                j0 += 4;
            }
            if n - j0 >= 2 {
                tile::<2>(a_band(idx, p0), b, n, j0, c_band, last, from_c);
                j0 += 2;
            }
            if n - j0 >= 1 {
                tile::<1>(a_band(idx, p0), b, n, j0, c_band, last, from_c);
            }
        }
    }
}

/// Transposes an `n × k` row-major operand into panel-major layout: panel
/// `jp` holds its rows `jp·W .. jp·W+W` as `k` groups of `W` contiguous
/// values. When `n` is not a panel multiple, the last panel's spare lanes
/// keep whatever the scratch held: a kernel may load them, but no kernel
/// stores a result computed from one. `B` packs into [`NR`]-wide panels, `A`
/// into [`MR`]-row tiles.
fn pack<const W: usize>(k: usize, n: usize, src: &[f32], out: &mut Vec<f32>) {
    out.resize(n.div_ceil(W) * k * W, 0.0);
    for (j, row) in src.chunks_exact(k).enumerate() {
        let panel = &mut out[j / W * k * W..][..k * W];
        for (dst, &v) in panel.chunks_exact_mut(W).zip(row) {
            dst[j % W] = v;
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

/// Multiplies one packed `A` row tile against every `B` panel, writing the
/// `≤ MR` rows of `c_rows` (`rows × n`).
#[inline(always)]
fn tile_row(k: usize, n: usize, tile_a: &[f32], bpack: &[f32], c_rows: &mut [f32]) {
    for (jp, panel_b) in bpack.chunks_exact(k * NR).enumerate() {
        let acc = micro_4x8(tile_a, panel_b);
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        for (c_row, acc_row) in c_rows.chunks_mut(n).zip(&acc) {
            c_row[j0..j0 + cols].copy_from_slice(&acc_row[..cols]);
        }
    }
}

/// `NR` dot products at once: one `A` row against one packed `B` panel
/// (`k × NR`, as [`pack`] lays it out), each in exactly `dot`'s order.
///
/// `dot` keeps eight lane sums `s_l = Σ_c a[8c+l]·b[8c+l]`, every one built
/// by `+=` from `+0.0` (so a `−0.0` first product still yields `+0.0`),
/// and returns `((s₀+s₁)+(s₂+s₃)) + ((s₄+s₅)+(s₆+s₇))` plus a sequentially
/// summed tail. Here the vector axis is the panel's columns instead of the
/// lanes; the lanes are walked in two halves of four, one pass over `k`
/// each, because 8 lanes × `NR` columns of live accumulators spill while
/// 4 × `NR` fit the register file. A lane reads its `a` by index: zipped
/// with the half's four values, it compiled in some builds to shuffles
/// instead of one broadcast per lane, 1.2× slower.
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
            for (l, lane) in acc.iter_mut().enumerate() {
                let a = ac[h * HALF + l];
                let pb = &bc[(h * HALF + l) * NR..][..NR];
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
        pack::<NR>(k, n, b, &mut bpack);
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

/// The packed `A·Bᵀ` driver, above `A_BT_SMALL_FLOP_THRESHOLD` (so no axis
/// is empty): transposes both operands into panels, then runs the
/// micro-kernel per (row tile, panel) pair.
fn blocked_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    PACK_B.with(|pb| {
        let mut bpack = pb.borrow_mut();
        pack::<NR>(k, n, b, &mut bpack);
        PACK_A.with(|pa| {
            let mut apack = pa.borrow_mut();
            pack::<MR>(k, m, a, &mut apack);
            for (c_rows, tile_a) in c.chunks_mut(MR * n).zip(apack.chunks_exact(k * MR)) {
                with_avx2(
                    #[inline(always)]
                    || tile_row(k, n, tile_a, &bpack, c_rows),
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

    with_avx2(
        #[inline(always)]
        || {
            direct_gemm(
                m,
                k,
                n,
                #[inline(always)]
                |idx, p0| a_rows(&a[p0..], k, idx),
                b,
                c,
                false,
            )
        },
    );
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

    with_avx2(
        #[inline(always)]
        || {
            direct_gemm(
                m,
                k,
                n,
                #[inline(always)]
                |idx, p0| a_cols(&a[p0 * m..], m, idx),
                b,
                c,
                true,
            )
        },
    );
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
        blocked_gemm(m, k, n, a, b, c);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::simd::tests as table;
    use crate::simd::tests::hostile_vec;
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

    /// The transpose of `m`, as a new matrix.
    fn transposed(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols(), m.rows(), |r, c| m[(c, r)])
    }

    /// The largest absolute difference of two equally shaped matrices.
    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
        assert_eq!(a.shape(), b.shape());
        let pairs = a.as_slice().iter().zip(b.as_slice());
        pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    /// Naive triple-loop reference.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
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
        let id = Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut c = Matrix::zeros(5, 5);
        matmul(&a, &id, &mut c);
        assert!(max_abs_diff(&c, &a) < 1e-6);
    }

    #[test]
    fn matmul_matches_reference_rectangular() {
        let a = rand_matrix(7, 13, 1);
        let b = rand_matrix(13, 5, 2);
        let mut c = Matrix::zeros(7, 5);
        matmul(&a, &b, &mut c);
        assert!(max_abs_diff(&c, &matmul_reference(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_parallel_path_matches_reference() {
        // 3.6 Mi multiply–adds, past the 2 Mi where a parallel packed driver
        // once took over: the direct tile runs every size now.
        let a = rand_matrix(300, 40, 3);
        let b = rand_matrix(40, 300, 4);
        let mut c = Matrix::zeros(300, 300);
        matmul(&a, &b, &mut c);
        assert!(max_abs_diff(&c, &matmul_reference(&a, &b)) < 1e-3);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = rand_matrix(9, 4, 5);
        let b = rand_matrix(9, 6, 6);
        let mut c = Matrix::zeros(4, 6);
        matmul_at_b(&a, &b, &mut c);
        assert!(max_abs_diff(&c, &matmul_reference(&transposed(&a), &b)) < 1e-4);
    }

    #[test]
    fn at_b_slice_kernel_accumulates() {
        let a = rand_matrix(3, 2, 11);
        let b = rand_matrix(3, 4, 12);
        let reference = matmul_reference(&transposed(&a), &b);
        let mut c = vec![0.0f32; 8];
        gemm_at_b_into(2, 3, 4, a.as_slice(), b.as_slice(), &mut c);
        gemm_at_b_into(2, 3, 4, a.as_slice(), b.as_slice(), &mut c);
        for (got, want) in c.iter().zip(reference.as_slice()) {
            assert!((got - 2.0 * want).abs() < 1e-4, "accumulation failed");
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = rand_matrix(8, 5, 7);
        let b = rand_matrix(3, 5, 8);
        let mut c = Matrix::zeros(8, 3);
        matmul_a_bt(&a, &b, &mut c);
        assert!(max_abs_diff(&c, &matmul_reference(&a, &transposed(&b))) < 1e-4);
    }

    #[test]
    fn small_a_bt_is_dot_bit_for_bit() {
        // The kernel itself, bypassing the threshold: every shape up to
        // 20 × 40 × 40, so k straddles the dot lanes (0, <8, 8, 8c + tail)
        // and n the column panels (1, <NR, NR, NR·c + tail).
        let a_all = hostile_vec(20 * 40, 71, false);
        let b_all = hostile_vec(40 * 40, 72, false);
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
    /// a tail), the column cut (every mix of 8 / 4 / 2 / 1), the direct
    /// tile's `B` blocks (one short of [`KC`], one, one and a row, two and a
    /// row) and the empty axes, then one of 2.6 Mi multiply–adds (past the
    /// 2 Mi where a packed driver once took over), over finite `hostile_vec`
    /// values.
    fn for_each_tile_shape(mut f: impl FnMut(usize, usize, usize, &[f32], &[f32], &[f32])) {
        let (m_max, k_max, n_max) = (2 * MR + 1, 2 * KC + 1, 2 * NR + 3);
        let big = (96, 300, 96);
        let a_all = hostile_vec(big.0 * big.1, 81, false);
        let b_all = hostile_vec(big.1 * big.2, 82, false);
        let c_all = hostile_vec(big.0 * big.2, 83, false);
        for m in 0..=m_max {
            for k in (0..=17).chain([KC - 1, KC, KC + 1, k_max]) {
                for n in 0..=n_max {
                    f(m, k, n, &a_all[..m * k], &b_all[..k * n], &c_all[..m * n]);
                }
            }
        }
        let (m, k, n) = big;
        f(m, k, n, &a_all, &b_all, &c_all);
    }

    #[test]
    fn direct_tile_is_the_naive_chain_bit_for_bit() {
        // Through the entry points, so at every size: both products run the
        // direct tile, one chain per element.
        for_each_tile_shape(|m, k, n, a, b, c0| {
            // A·B: from +0.0, whatever C held
            let mut got = vec![f32::NAN; m * n];
            gemm_into(m, k, n, a, b, &mut got);
            let mut want = vec![f32::NAN; m * n];
            naive_chain(m, k, n, |i, p| a[i * k + p], b, &mut want, false);
            assert_eq!(bits(&got), bits(&want), "A·B {m}x{k}x{n}");

            // Aᵀ·B: A stored k×m, the chain continues from a non-zero C
            let mut got = c0.to_vec();
            gemm_at_b_into(m, k, n, a, b, &mut got);
            let mut want = c0.to_vec();
            naive_chain(m, k, n, |i, p| a[p * m + i], b, &mut want, true);
            assert_eq!(bits(&got), bits(&want), "Aᵀ·B {m}x{k}x{n}");
        });
    }

    #[test]
    fn a_dirty_pack_scratch_packs_like_a_fresh_one() {
        // A large packed A·Bᵀ leaves both pack buffers of this thread full of
        // its operands, NaN and ∞ included; a smaller one with a partial
        // panel and a partial tile must still be the chain: nothing the
        // large one left reaches a result.
        let (m, k, n) = (48, 128, 640);
        let (a, b) = (hostile_vec(m * k, 101, true), hostile_vec(n * k, 102, true));
        blocked_gemm(m, k, n, &a, &b, &mut vec![0.0f32; m * n]);
        let (m, k, n) = (2 * MR + 1, 20, 2 * NR + 3);
        let a = hostile_vec(m * k, 103, false);
        let b = hostile_vec(k * n, 104, false);
        let b_t: Vec<f32> = (0..n * k).map(|i| b[i % k * n + i / k]).collect();
        let mut want = vec![0.0f32; m * n];
        naive_chain(m, k, n, |i, p| a[i * k + p], &b, &mut want, false);
        let mut got = vec![0.0f32; m * n];
        blocked_gemm(m, k, n, &a, &b_t, &mut got);
        assert_eq!(bits(&got), bits(&want));
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
            let a = hostile_vec(m * k, 91, false);
            let b = hostile_vec(n * k, 92, false);
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
        // Both sizes of every product: small and large A·B and Aᵀ·B, and
        // A·Bᵀ by `small_a_bt` and by the packed driver. A ±0.0 in A
        // opposite ∞ or NaN in B is NaN in every element of C, whichever
        // kernel runs.
        for (m, k, n) in [(16usize, 24usize, 10usize), (96, 300, 96)] {
            assert_eq!(m * k * n > A_BT_SMALL_FLOP_THRESHOLD, m == 96);
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

                    let mut bt = vec![1.0f32; n * k];
                    bt.iter_mut().skip(p0).step_by(k).for_each(|v| *v = bad);
                    let mut c = vec![0.0f32; m * n];
                    gemm_a_bt_into(m, k, n, &a, &bt, &mut c);
                    assert!(
                        c.iter().all(|v| v.is_nan()),
                        "A·Bᵀ {m}x{k}x{n} {zero}·{bad}"
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
            type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
            let kernels: [(Kernel, f32); 3] = [
                (gemm_into, 0.0),
                (gemm_at_b_into, 7.0),
                (gemm_a_bt_into, 0.0),
            ];
            for (kernel, fill) in kernels {
                let mut got = vec![7.0f32; m * n];
                kernel(m, k, n, &a, &b, &mut got);
                assert!(
                    got.iter().all(|v| v.to_bits() == fill.to_bits()),
                    "{m}x{k}x{n}"
                );
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

    /// Runs the packed `A·Bᵀ` driver (bypassing the small-multiply
    /// kernel) and compares against the naive reference.
    fn check_packed_a_bt(m: usize, k: usize, n: usize, seed: u64) {
        let tol = 1e-3 * (1.0 + k as f32 / 8.0);
        let a = rand_matrix(m, k, seed);
        let bt = rand_matrix(n, k, seed.wrapping_add(3));
        let mut c = vec![0.0f32; m * n];
        blocked_gemm(m, k, n, a.as_slice(), bt.as_slice(), &mut c);
        let reference = matmul_reference(&a, &transposed(&bt));
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
                    check_packed_a_bt(m, k, n, 100 + s as u64);
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
            prop_assert!(max_abs_diff(&c, &matmul_reference(&a, &b)) < 1e-3);
        }

        #[test]
        fn prop_transpose_kernels_agree(
            m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
        ) {
            let a = rand_matrix(k, m, seed);
            let b = rand_matrix(k, n, seed.wrapping_add(9));
            let mut c1 = Matrix::zeros(m, n);
            matmul_at_b(&a, &b, &mut c1);
            let at = transposed(&a);
            let mut c2 = Matrix::zeros(m, n);
            matmul(&at, &b, &mut c2);
            prop_assert!(max_abs_diff(&c1, &c2) < 1e-3);
        }

        #[test]
        fn prop_a_bt_matches_reference(
            m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
        ) {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(n, k, seed.wrapping_add(17));
            let mut c = Matrix::zeros(m, n);
            matmul_a_bt(&a, &b, &mut c);
            prop_assert!(max_abs_diff(&c, &matmul_reference(&a, &transposed(&b))) < 1e-3);
        }

        #[test]
        fn prop_blocked_path_matches_reference_at_tile_edges(
            mi in 0usize..7, ki in 0usize..7, ni in 0usize..7, seed in 0u64..500
        ) {
            let edges = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1];
            check_packed_a_bt(edges[mi], edges[ki], edges[ni], seed);
        }
    }

    /// For the GEMM rows ([`ROWS`]): `body(m, k, a, b, c)` on
    /// the shapes `m × k × n`, `C` starting from the pool; the `C`s,
    /// concatenated. `m` crosses two row bands and a tail. `k` crosses two
    /// dot-lane blocks and a tail: every `k` while `n` is below `2·NR + 4`
    /// (every cut of the column tiles), then the one `k ≡ n (mod 18)`.
    /// Below `2·NR + 4`, `MR + 1` rows also run `KC + 1` deep.
    fn shapes(
        pool: &[f32],
        n: usize,
        body: impl Fn(usize, usize, &[f32], &[f32], &mut [f32]),
    ) -> Vec<f32> {
        let ks = if n < 2 * NR + 4 {
            0..18
        } else {
            n % 18..n % 18 + 1
        };
        let m_ks = (0..=2 * MR + 1).flat_map(|m| ks.clone().map(move |k| (m, k)));
        // while `B` fits the pool: a band and a tail over two `KC` blocks
        let two_blocks = (n < 2 * NR + 4).then_some((MR + 1, KC + 1));
        let mut out = Vec::new();
        for (m, k) in m_ks.chain(two_blocks) {
            let mut c = pool[table::C..][..m * n].to_vec();
            body(
                m,
                k,
                &pool[table::A..][..m * k],
                &pool[table::B..][..k * n],
                &mut c,
            );
            out.extend(c);
        }
        out
    }

    /// The direct tile, as `gemm_into` (`A·B`) and `gemm_at_b_into` (`Aᵀ·B`,
    /// `A` stored `k × m`, continuing from `C`) run it.
    fn row_direct<const AT_B: bool>(pool: &[f32], n: usize, wide: bool) -> Vec<f32> {
        shapes(pool, n, |m, k, a, b, c| match (AT_B, wide) {
            (false, false) => direct_gemm(m, k, n, |idx, p0| a_rows(&a[p0..], k, idx), b, c, false),
            (false, true) => gemm_into(m, k, n, a, b, c),
            (true, false) => {
                direct_gemm(m, k, n, |idx, p0| a_cols(&a[p0 * m..], m, idx), b, c, true)
            }
            (true, true) => gemm_at_b_into(m, k, n, a, b, c),
        })
    }

    /// The packed micro-kernel over a shape's first row tile (`B` stored
    /// `n × k`).
    fn row_tile_row(pool: &[f32], n: usize, wide: bool) -> Vec<f32> {
        shapes(pool, n, |m, k, a, b, c| {
            if m * n * k == 0 {
                return;
            }
            let (mut apack, mut bpack) = (Vec::new(), Vec::new());
            pack::<MR>(k, m, a, &mut apack);
            pack::<NR>(k, n, b, &mut bpack);
            let (tile_a, rows) = (&apack[..k * MR], MR.min(m));
            let c = &mut c[..rows * n];
            if wide {
                with_avx2(
                    #[inline(always)]
                    || tile_row(k, n, tile_a, &bpack, c),
                );
            } else {
                tile_row(k, n, tile_a, &bpack, c);
            }
        })
    }

    /// The small `A·Bᵀ` kernel after its transposition, and `small_a_bt`.
    fn row_a_bt(pool: &[f32], n: usize, wide: bool) -> Vec<f32> {
        shapes(pool, n, |m, k, a, b, c| {
            if m * n * k == 0 {
                return;
            }
            if wide {
                small_a_bt(m, k, n, a, b, c);
            } else {
                let mut bpack = Vec::new();
                pack::<NR>(k, n, b, &mut bpack);
                a_bt_rows(k, n, a, &bpack, c);
            }
        })
    }

    /// The GEMM kernels, each as written and through its dispatcher.
    const ROWS: [(&str, table::Row); 4] = [
        ("direct tile, A·B", row_direct::<false>),
        ("direct tile, Aᵀ·B", row_direct::<true>),
        ("tile_row", row_tile_row),
        ("a_bt_rows", row_a_bt),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn avx2_and_baseline_compilations_agree_bitwise(
            seed in 0u64..u64::MAX,
            non_finite in 0u8..2
        ) {
            table::rows_agree_bitwise(&ROWS, seed, non_finite == 1)?;
        }
    }
}
