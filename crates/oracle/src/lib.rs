//! Naive reference answers the engine and the topology are checked against.
//!
//! Every function here is the slowest obvious way to compute something the
//! engine computes fast: no scratch reuse, no tiling, no window, one pass
//! written from the definition. The crate takes plain data and returns
//! plain values, and it never asserts: a test compares what it returns.
//!
//! * [`mixing`] — the participation mask and the four mixing invariants
//!   (row/column sums, symmetry, non-negativity, the scalar product);
//! * [`round`] — one dense mixing round over half-step models;
//! * [`ledger`] — the per-edge energy ledger of a round, event by event;
//! * [`queue`] — the event engine's timeline, replayed on a `(time, seq)`
//!   priority queue.
//!
//! A mixing matrix is its rows: `rows[i]` holds row `i`'s
//! `(column, weight)` entries in ascending column order, the row itself
//! included when it has a self weight. Everything random (which message
//! arrives, a link's latency, a churn draw) comes in as a value or a
//! predicate, so the reference draws nothing itself.
//!
//! The crate depends on nothing but `std`, and no workspace crate may
//! depend on it except as a dev-dependency: a crate that used the engine's
//! or the topology's own types could not serve those crates' unit tests,
//! where Cargo builds the library under test a second time and its types
//! differ from the ones a dependency sees (E0308, "multiple different
//! versions of crate").

pub mod ledger;
pub mod mixing;
pub mod queue;
pub mod round;

/// One mixing row: `(column, weight)` entries in ascending column order.
pub type Row = Vec<(u32, f32)>;
