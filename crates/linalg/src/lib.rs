//! Dense `f32` linear-algebra kernels for the SkipTrain decentralized-learning
//! simulator.
//!
//! The neural-network substrate (`skiptrain-nn`), the synthetic dataset
//! generators and the gossip-aggregation kernels of the execution engine are
//! all built on the row-major [`Matrix`] type and the fused vector kernels in
//! [`ops`]. The design goals, in order:
//!
//! 1. **Correctness** — every kernel has a naive reference implementation and
//!    is tested against it (including property tests).
//! 2. **Cache-friendliness** — [`gemm`] keeps a 4-row block of accumulators in
//!    registers across the whole inner dimension and reads `B` a contiguous
//!    row at a time, with a separate multiply and add per term (no FMA, by
//!    design: one rounding per operation on every CPU, so the bits repeat);
//!    large multiplies are packed and parallelized over row blocks with rayon.
//!    [`exp_in_place`] is the one FMA build: its reference is not an order
//!    but glibc's `expf`, which glibc itself builds with FMA on such CPUs.
//! 3. **Zero allocation on hot paths** — all kernels write into caller-provided
//!    buffers; the NN layers above keep workhorse buffers across rounds.
//!
//! This crate deliberately supports only what the reproduction needs: it is a
//! substrate, not a general-purpose BLAS.

pub mod compress;
mod exp;
pub mod gemm;
pub mod matrix;
pub mod ops;
pub mod reduce;
pub mod rng;

pub use exp::exp_in_place;
pub use gemm::{gemm_a_bt_into, gemm_at_b_into, gemm_into};
pub use matrix::Matrix;
pub use rng::GaussianSampler;
