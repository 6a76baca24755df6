//! Heap bytes in use, counted by the benchmark's global allocator.
//!
//! The memory metric is the most heap one request needs beyond what was in
//! use when it was sent. The process-wide peaks depend on request order,
//! which `--seed` sets: the peak resident set (`VmHWM`) moved by up to 20%
//! because freed solver memory stays mapped and the order decides how
//! fragmented the heap is when the largest solve runs, and the peak of live
//! bytes moved by 25% on exact-proof because it depends on how many cached
//! certificates are held at that moment. Both are printed as diagnostics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`] plus two statistics counters.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters publish no other data, so relaxed
// ordering suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation goes through this type).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is valid per the caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

const MB: f64 = 1024.0 * 1024.0;

/// The most bytes that were allocated at once since start-up, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / MB
}

/// Measures the most heap in use while `f` runs, beyond what was in use
/// when it started, in MB. The process-wide peak is kept.
pub fn growth_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let overall = PEAK.load(Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.fetch_max(overall, Ordering::Relaxed);
    (out, peak.saturating_sub(base) as f64 / MB)
}
