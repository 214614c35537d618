//! Counting global allocator: live bytes, their high-water mark, and the
//! number of allocations. The peak is restarted at the beginning of every
//! repeat, so each workload's heap figure is its own rather than the
//! process-wide maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus the counters above. The counters are
/// statistics only and publish no other data, so `Relaxed` suffices.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only atomics and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: our caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: our caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this allocator)
        // with `layout`, as our caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: our caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                ALLOCS.fetch_add(1, Relaxed);
            }
        }
        p
    }
}

/// One reading of the counters.
#[derive(Clone, Copy, Debug)]
pub struct Heap {
    /// Bytes currently allocated.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Allocations (and reallocations) since process start.
    pub allocs: u64,
}

/// Read the counters.
pub fn snapshot() -> Heap {
    Heap { live: LIVE.load(Relaxed), peak: PEAK.load(Relaxed), allocs: ALLOCS.load(Relaxed) }
}

/// Restart the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
