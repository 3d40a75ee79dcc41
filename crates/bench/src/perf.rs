//! The allocation-counting global allocator.
//!
//! [`CountingAllocator`] counts every heap byte a process requests and
//! [`allocated_bytes`] reads the counter, so a test can bracket a window
//! of work and assert what it allocated: `tests/alloc_pins.rs` pins the
//! steady-state hot paths at 0 B per step, `tests/replica_bound.rs` pins
//! the error-feedback replica state flat. It also keeps the bytes
//! currently *live* ([`live_bytes`]), which `tests/resident_models.rs`
//! reads to pin how many model-sized vectors a fleet holds. Timings are the repo
//! benchmark's job (`benchmark/run.sh`: medians with quartiles, at one
//! thread and at machine parallelism).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that keeps two counters: every
/// heap byte requested (allocations and growth; frees are not subtracted,
/// so it is a monotone *allocation pressure* proxy) and the bytes
/// currently live (requested minus freed).
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// and read deltas via [`allocated_bytes`] and [`live_bytes`].
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are relaxed
// atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged, so `System`'s contract
        // (non-zero size, valid alignment) is exactly our caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from our caller, who per the
        // `GlobalAlloc` contract obtained `ptr` from `alloc` above — which
        // is `System.alloc` — with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        } else {
            LIVE_BYTES.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        // SAFETY: arguments are forwarded unchanged; `ptr` was produced by
        // `System.alloc`/`System.realloc` with `layout` per the caller's
        // `GlobalAlloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap bytes requested so far through [`CountingAllocator`]
/// (zero when the counting allocator is not installed).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Heap bytes currently live through [`CountingAllocator`]: requested and
/// not yet freed (zero when the counting allocator is not installed).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
