//! Modeled halos cost no memory. LULESH's face messages are modeled
//! payloads — a length, never a buffer — so the live heap of a run does not
//! depend on how many bytes each face stands for.
//!
//! A counting allocator wraps `System`. This file is its own test binary so
//! the `#[global_allocator]` cannot leak into any other test, and it holds a
//! single `#[test]` because the counters are process-wide.

use charm_rs::apps::lulesh::{run, LuleshConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Bytes of face data one rank sends per iteration with `elements` each
/// (six faces at most; eight ranks on a 2³ grid have three neighbours).
fn face_bytes(elements: usize) -> usize {
    3 * (elements as f64).powf(2.0 / 3.0) as usize * 24
}

/// Peak live heap above the start, over one eight-PE LULESH run.
fn peak_heap(elements_per_rank: usize) -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let r = run(LuleshConfig {
        elements_per_rank,
        ..LuleshConfig::default()
    });
    assert_eq!(r.iter_times.len(), 8);
    PEAK.load(Ordering::Relaxed) - live
}

#[test]
fn lulesh_heap_does_not_grow_with_face_bytes() {
    // Warm the arena's pools, so both measured runs start alike.
    peak_heap(27_000);
    let small = peak_heap(27_000);
    let large = peak_heap(2_700_000);
    // With a real buffer per face the large run held ≈ 11 MB more: eight
    // ranks' faces of 465 KB each in flight at once.
    let one_rank_small = face_bytes(27_000);
    assert!(
        large <= small + one_rank_small,
        "peak live heap {large} B at 2.7 M elements per rank, {small} B at 27 K \
         (one rank's faces at 27 K are {one_rank_small} B)"
    );
}
