//! The allocation-counting global allocator.
//!
//! [`CountingAllocator`] counts every heap byte a process requests and
//! [`allocated_bytes`] reads the counter, so a test can bracket a window
//! of work and assert what it allocated: `tests/alloc_pins.rs` pins the
//! steady-state hot paths at 0 B per step, `tests/replica_bound.rs` pins
//! the error-feedback replica state flat. It also keeps the bytes
//! currently *live* ([`live_bytes`]), which `tests/resident_models.rs`
//! reads to pin how many model-sized vectors a fleet holds, and their
//! high-water mark ([`peak_live_bytes`], restarted by [`reset_peak`]),
//! which `tests/setup_peak.rs` reads to pin what data set-up holds at its
//! peak. Timings are the repo
//! benchmark's job (`benchmark/run.sh`: medians with quartiles, at one
//! thread and at machine parallelism).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Adds `bytes` to the live count and raises the high-water mark to it.
fn grow_live(bytes: u64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// A [`System`]-backed global allocator that keeps three counters: every
/// heap byte requested (allocations and growth; frees are not subtracted,
/// so it is a monotone *allocation pressure* proxy), the bytes currently
/// live (requested minus freed), and the most bytes live at once since
/// the last [`reset_peak`].
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// and read deltas via [`allocated_bytes`], [`live_bytes`] and
/// [`peak_live_bytes`].
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are relaxed
// atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size() as u64);
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
            grow_live((new_size - layout.size()) as u64);
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

/// The most heap bytes live at once through [`CountingAllocator`] since
/// the last [`reset_peak`] (or since start).
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts [`peak_live_bytes`] from the bytes live now.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}
