//! A simulated PE is light. The bytes a run holds per PE — scheduler
//! state, location caches, the tracer's communication matrix, the event
//! queue — set how many PEs one host can simulate, so a one-step stencil
//! with one chare per PE must stay under a per-PE heap budget.
//!
//! A counting allocator wraps `System`. This file is its own test binary so
//! the `#[global_allocator]` cannot leak into any other test, and it holds a
//! single `#[test]` because the counters are process-wide.

use charm_rs::apps::stencil::{self, StencilConfig};
use charm_rs::core::{CountingSink, TraceConfig, TraceSink};
use charm_rs::machine::presets;
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

const PES: usize = 4096;

#[test]
fn a_simulated_pe_costs_under_its_heap_budget() {
    let mut cfg = StencilConfig::cloud_4k(presets::cloud(PES), 1);
    cfg.steps = 1;
    cfg.trace = Some(TraceConfig {
        log_capacity: 0,
        comm_fanout_cap: 8,
    });
    cfg.trace_sinks = vec![Box::new(CountingSink::new()) as Box<dyn TraceSink>];
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let (run, rt) = stencil::run_with_runtime(cfg);
    let per_pe = (PEAK.load(Ordering::Relaxed) - live) / PES;
    assert_eq!(run.step_times.len(), 1);
    assert!(rt.summary().trace_sinks[0].records > 0, "the sink saw the run");
    // 1 050 B here. It was 1 118 B while every timestamp with more than one
    // event owned a deque (and the hash map a 48-byte slot per timestamp),
    // and 1 540 B while a PE's scheduler state was 184 bytes, each PE's
    // location cache was a hash map of its own, the comm matrix hashed its
    // pairs into a map beside a doubling cell array, and the event heap was
    // pre-sized at eight timestamps per PE.
    assert!(
        per_pe <= 1_100,
        "peak live heap {per_pe} B per PE over a {PES}-PE one-step stencil"
    );
}
