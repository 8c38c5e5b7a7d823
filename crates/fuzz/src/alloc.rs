//! High-water-mark allocation gauge.
//!
//! The harness's third invariant — "never over-allocation" — needs a
//! number: how much heap did one fuzz iteration touch at its peak? Rust
//! only exposes that through the global allocator, so this module
//! provides [`CountingAlloc`], a `System` wrapper keeping live-byte and
//! peak-byte counters, which binaries that want allocation-capped
//! fuzzing install with `#[global_allocator]` (the `casbn` binary and
//! the corpus-replay test binary both do).
//!
//! When the wrapper is *not* installed the gauge reads zero forever;
//! [`gauge_active`] lets the engine detect that and skip the cap check
//! instead of reporting meaningless zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System` wrapper tracking live and peak heap bytes with relaxed
/// atomics (an add + a `fetch_max` per allocation — cheap enough to
/// leave installed in a production binary).
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn grow(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn shrink(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counters are plain
// atomics and never affect the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::shrink(layout.size());
            Self::grow(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::shrink(layout.size());
    }
}

/// Whether a [`CountingAlloc`] is installed in this process (i.e. the
/// gauge has ever seen an allocation).
pub fn gauge_active() -> bool {
    PEAK.load(Ordering::Relaxed) > 0
}

/// Reset the peak to the current live level and return the live level —
/// call before a measured region.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
