//! The counting allocator: heap allocations, live bytes and the live-heap
//! high-water mark, for all threads, with every allocation attributed to
//! the layer whose span is innermost on the allocating thread.
//!
//! This is the one module of the benchmark that needs `unsafe` (a
//! `GlobalAlloc` impl cannot be written without it); it only forwards to
//! [`System`] and counts.
#![allow(unsafe_code)]

use crate::trace::LAYERS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and counts.
pub struct CountingAlloc;

// Statistics only: no counter publishes other data, so `Relaxed` is exact
// for totals and the high-water mark can lag a racing thread by one
// allocation at most.
static ALLOCS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Index of the layer whose span is innermost on this thread. Const
    /// initialised and without a destructor, so reading it from inside the
    /// allocator never allocates.
    static LAYER: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let layer = LAYER.try_with(Cell::get).unwrap_or(0);
    ALLOCS[layer].fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting around the calls touches
// only atomics and a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, passed through
        // unchanged; the caller guarantees `ptr` came from this allocator,
        // which always allocates with `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        // SAFETY: arguments are the caller's, passed through unchanged; see
        // `dealloc` for why `ptr` belongs to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Makes `layer` the one new allocations on this thread are charged to and
/// returns the layer that was charged before.
pub fn set_layer(layer: usize) -> usize {
    LAYER.with(|l| l.replace(layer))
}

/// A reading of the heap counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heap {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) so far, per layer.
    pub allocs: [u64; LAYERS],
    /// Highest number of live bytes since the last [`reset_peak`].
    pub peak_bytes: u64,
}

impl Heap {
    /// Allocations so far, all layers.
    pub fn total(&self) -> u64 {
        self.allocs.iter().sum()
    }

    /// Allocations per layer since the `earlier` reading.
    pub fn allocs_since(&self, earlier: &Heap) -> [u64; LAYERS] {
        std::array::from_fn(|l| self.allocs[l] - earlier.allocs[l])
    }
}

/// Reads the counters.
pub fn heap() -> Heap {
    let mut allocs = [0; LAYERS];
    for (out, counter) in allocs.iter_mut().zip(&ALLOCS) {
        *out = counter.load(Relaxed);
    }
    Heap {
        allocs,
        peak_bytes: PEAK.load(Relaxed),
    }
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
