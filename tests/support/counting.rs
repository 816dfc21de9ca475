//! The counting allocator of the memory tests: it wraps `System` and counts
//! allocator calls, the bytes live and their peak, and the largest size a
//! `realloc` grew a block to. A test file installs it as its
//! `#[global_allocator]`, so it is its own test binary and no other test
//! sees it; the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

/// Allocator calls (`alloc`, `alloc_zeroed` and `realloc`).
pub static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Largest size a `realloc` grew a block to.
pub static MAX_GROWN: AtomicUsize = AtomicUsize::new(0);
/// Bytes live now, and the most live since the last reset.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
pub static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size > layout.size() {
            MAX_GROWN.fetch_max(new_size, Ordering::Relaxed);
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}
