//! A simulated PE is light. The bytes a run holds per PE — scheduler
//! state, location caches, the tracer's communication matrix, the event
//! queue — set how many PEs one host can simulate, so a one-step stencil
//! with one chare per PE must stay under a per-PE heap budget.
//!
//! The counting allocator (`support/counting.rs`) wraps `System`. This file
//! is its own test binary so the `#[global_allocator]` cannot leak into any
//! other test. The counters are process-wide, so its tests take a lock, and
//! the 1 M-PE twin is `#[ignore]`d: run it alone with
//! `cargo test --release --test pe_memory -- --ignored`.

#[path = "support/counting.rs"]
mod counting;

use charm_rs::apps::stencil::{self, StencilConfig};
use charm_rs::core::{CountingSink, TraceConfig, TraceSink};
use charm_rs::machine::presets;
use counting::{Counting, LIVE, PEAK};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

#[global_allocator]
static COUNTER: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Peak live heap per PE over a one-step stencil with one chare per PE on
/// `pes` simulated PEs, traced into a counting sink with empty rings.
fn peak_heap_per_pe(pes: usize) -> usize {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = StencilConfig::cloud_4k(presets::cloud(pes), 1);
    cfg.steps = 1;
    cfg.trace = Some(TraceConfig {
        log_capacity: 0,
        comm_fanout_cap: 8,
    });
    cfg.trace_sinks = vec![Box::new(CountingSink::new()) as Box<dyn TraceSink>];
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let (run, rt) = stencil::run_with_runtime(cfg);
    let per_pe = (PEAK.load(Ordering::Relaxed) - live) / pes;
    assert_eq!(run.step_times.len(), 1);
    let s = rt.summary();
    assert!(s.trace_sinks[0].records > 0, "the sink saw the run");
    assert!(s.trace_dropped > 0, "the capacity-0 rings shed every record");
    per_pe
}

/// The budget, in bytes of peak live heap per simulated PE.
const BUDGET: usize = 1_100;

#[test]
fn a_simulated_pe_costs_under_its_heap_budget() {
    let per_pe = peak_heap_per_pe(4096);
    // 1 050 B here. It was 1 118 B while every timestamp with more than one
    // event owned a deque (and the hash map a 48-byte slot per timestamp),
    // and 1 540 B while a PE's scheduler state was 184 bytes, each PE's
    // location cache was a hash map of its own, the comm matrix hashed its
    // pairs into a map beside a doubling cell array, and the event heap was
    // pre-sized at eight timestamps per PE.
    assert!(per_pe <= BUDGET, "peak live heap {per_pe} B per PE over 4 096 PEs");
}

/// The same budget at 1 048 576 PEs (931 B/PE, 18 s in release).
#[test]
#[ignore = "1 M PEs: run alone, in release"]
fn a_million_simulated_pes_cost_under_the_same_budget() {
    let per_pe = peak_heap_per_pe(1 << 20);
    assert!(per_pe <= BUDGET, "peak live heap {per_pe} B per PE over 1 048 576 PEs");
}
