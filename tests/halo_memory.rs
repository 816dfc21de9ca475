//! Modeled halos cost no memory. LULESH's face messages are modeled
//! payloads — a length, never a buffer — so the live heap of a run does not
//! depend on how many bytes each face stands for.
//!
//! The counting allocator (`support/counting.rs`) wraps `System`. This file
//! is its own test binary so the `#[global_allocator]` cannot leak into any
//! other test, and it holds a single `#[test]` because the counters are
//! process-wide.

#[path = "support/counting.rs"]
mod counting;

use charm_rs::apps::lulesh::{run, LuleshConfig};
use counting::{Counting, LIVE, PEAK};
use std::sync::atomic::Ordering;

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
