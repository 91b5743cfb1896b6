//! The system allocator, counting live and peak heap bytes, for the tests
//! that pin a session's heap. Each declares it as its binary's
//! `#[global_allocator]` and holds a single test, so that no other test
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// The system allocator, counting live heap bytes in [`LIVE_BYTES`] and
/// their high-water mark in [`PEAK_BYTES`].
pub struct CountingAlloc;

/// Live heap bytes allocated through [`CountingAlloc`].
pub static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The most [`LIVE_BYTES`] has held since the last [`reset_peak`].
#[allow(dead_code, reason = "only the binaries that pin a peak read it")]
pub static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Restarts [`PEAK_BYTES`] from the live heap, and returns the live heap.
#[allow(dead_code, reason = "only the binaries that pin a peak call it")]
pub fn reset_peak() -> i64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Adds `delta` to the live heap and raises the peak to match.
fn grow(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only additions are relaxed counter updates, which touch
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
