//! A global allocator that counts, per thread, `alloc`/`realloc` calls and
//! live bytes, for the tests that hold a code path to an allocation budget.
//! The test harness runs each test on a thread of its own, so a test counts
//! only its own work.
// Each test binary reads only part of what this module offers.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// `alloc` and `realloc` calls this thread has made.
pub fn allocs() -> u64 {
    ALLOCS.get()
}

/// The highest live-byte count of this thread since [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.get()
}

/// Starts a new high-water window at the current live bytes.
pub fn reset_peak() {
    PEAK.set(LIVE.get());
}

fn note(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // which always allocates with `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: arguments are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
