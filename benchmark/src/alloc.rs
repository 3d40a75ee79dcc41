//! Benchmark-local counting allocator behind
//! `engine.alloc_bytes_per_round_*`: heap bytes *requested*, monotone (frees
//! are not subtracted), so a delta across a round is that round's
//! allocation pressure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// `System` plus one relaxed counter.
pub struct CountingAllocator;

// SAFETY: every operation is forwarded unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a relaxed
// atomic that publishes no other data and cannot affect allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // Forwarded explicitly: the default `alloc_zeroed` is `alloc` + memset,
    // which would turn `System`'s lazily zeroed pages into touched ones
    // and change what the timed runs measure.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: per the `GlobalAlloc` contract `ptr` came from `alloc`
        // above, which is `System.alloc`, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: arguments forwarded unchanged; `ptr` was produced by
        // `System` with `layout` per the caller's obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes requested so far by this process.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}
