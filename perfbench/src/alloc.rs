//! A counting global allocator.
//!
//! It forwards every request to the system allocator and keeps four
//! process-wide counters: bytes live now, the peak of live bytes since the
//! last [`reset_peak`], allocations made and bytes requested. The benchmark
//! runs on one thread, so the counters see only its own work and repeat
//! exactly across runs of one seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main`.
pub struct Counting;

// Statistics only: no other data is published through these, so relaxed
// ordering is enough.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counters are
// updated only after the forwarded call and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as `dealloc`'s contract requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grow(new_size as u64);
        }
        p
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Bytes live now.
    pub live: u64,
    /// Peak of live bytes since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations (a reallocation counts as one) since process start.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Reads the counters.
pub fn now() -> Heap {
    Heap {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// Starts a new peak window at the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
