//! Counting global allocator: live and peak heap bytes of this process.
//!
//! `peak_heap_mb` is read from here rather than from RSS because RSS
//! moved 10 % run to run on the same code (allocator retention, page
//! cache, THP), while live heap bytes are a property of the program.
//! The cost is two relaxed atomic operations per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live/peak byte accounting.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics that publish no data, so
// relaxed ordering suffices and no allocator invariant depends on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest `live_bytes` seen since the last [`set_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Overwrites the peak: with [`live_bytes`] to start a measured section,
/// or with a saved value to forget an untimed excursion (output checks).
pub fn set_peak(bytes: usize) {
    PEAK.store(bytes, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (see main.rs), and tests run
    // on parallel threads, so assertions are one-sided: a 64 MiB excursion
    // dwarfs anything the other tests allocate.
    const BIG: usize = 64 << 20;

    #[test]
    fn peak_tracks_an_excursion_and_survives_the_free() {
        set_peak(live_bytes());
        let before = peak_bytes();
        let v = vec![1u8; BIG];
        std::hint::black_box(&v);
        assert!(live_bytes() >= BIG);
        drop(v);
        assert!(peak_bytes() >= before.max(BIG), "peak forgot the excursion");
        assert!(live_bytes() < peak_bytes());
    }

    #[test]
    fn realloc_counts_the_difference() {
        let mut v: Vec<u8> = Vec::with_capacity(BIG);
        let live_small = live_bytes();
        v.reserve_exact(2 * BIG);
        std::hint::black_box(&v);
        assert!(live_bytes() >= live_small + BIG / 2);
        v.shrink_to(BIG);
        drop(v);
    }
}
