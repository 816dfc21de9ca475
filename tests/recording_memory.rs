//! Recording memory at wire density. The replay recorder encodes the log
//! into fixed-capacity byte chunks as the run goes (`.rlog` v2), so a
//! recording costs the same in every run of a process — no block grows by
//! copying itself — building the log holds no second copy of it, and the
//! log holds a few tens of bytes per exec.
//!
//! The counting allocator (`support/counting.rs`) wraps `System`. This file
//! is its own test binary so the `#[global_allocator]` cannot leak into any
//! other test, and it holds a single `#[test]` because the counters are
//! process-wide.

#[path = "support/counting.rs"]
mod counting;

use charm_rs::apps::stencil;
use charm_rs::core::replay::CHUNK_BYTES;
use charm_rs::core::ReplayConfig;
use charm_rs::machine::presets;
use charm_rs::{ArrayProxy, Chare, Ctx, Ix, MachineConfig, Pup, Puper, Runtime};
use counting::{Counting, CALLS, LIVE, MAX_GROWN, PEAK};
use std::sync::atomic::Ordering;

#[global_allocator]
static COUNTER: Counting = Counting;

/// Passes a token around a ring until its hop budget runs out.
#[derive(Default)]
struct Relay {
    n: i64,
}

impl Pup for Relay {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.n);
    }
}

impl Chare for Relay {
    type Msg = u64; // hops remaining
    fn on_message(&mut self, hops: u64, ctx: &mut Ctx<'_>) {
        if hops > 0 {
            let Ix::I1(me) = ctx.my_index() else {
                panic!("a ring is one-dimensional")
            };
            let proxy = ArrayProxy::<Relay>::from_id(ctx.my_id().array);
            ctx.send(proxy, Ix::i1((me + 1) % self.n), hops - 1);
        }
    }
}

const RING: i64 = 16;
const TOKENS: i64 = 8;
const HOPS: u64 = 2_500;

/// Run the ring, recorded or not, and return the execs its log holds and
/// the heap bytes the log holds (what dropping it frees).
fn ring(record: bool) -> (usize, usize) {
    let mut b = Runtime::builder(MachineConfig::homogeneous(4));
    if record {
        b = b.record(ReplayConfig::default());
    }
    let mut rt = b.build();
    let arr = rt.create_array::<Relay>("relay");
    for i in 0..RING {
        rt.insert(arr, Ix::i1(i), Relay { n: RING }, Some(i as usize % 4));
    }
    for t in 0..TOKENS {
        rt.send(arr, Ix::i1(t * 2), HOPS);
    }
    rt.run();
    let Some(log) = rt.take_replay_log() else {
        return (0, 0);
    };
    let (execs, live) = (log.execs.len(), LIVE.load(Ordering::Relaxed));
    drop(log);
    (execs, live - LIVE.load(Ordering::Relaxed))
}

/// Allocator calls, the largest `realloc` growth and the log's bytes of one
/// recorded ring, from building the runtime to dropping the log.
fn record_ring() -> (usize, usize, usize) {
    MAX_GROWN.store(0, Ordering::Relaxed);
    let before = CALLS.load(Ordering::Relaxed);
    let (execs, held) = ring(true);
    assert_eq!(execs, (TOKENS as usize) * (HOPS as usize + 1));
    (
        CALLS.load(Ordering::Relaxed) - before,
        MAX_GROWN.load(Ordering::Relaxed),
        held,
    )
}

/// Allocator calls `take_replay_log` makes on a recorded `stencil2d` run,
/// the most bytes it holds beyond what was live before it, and the bytes
/// of encoded records in the log it builds.
fn build_stencil_log() -> (usize, usize, usize) {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 8);
    cfg.steps = 240;
    cfg.record = Some(ReplayConfig::default());
    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let before = CALLS.load(Ordering::Relaxed);
    let log = rt.take_replay_log().expect("recording was on");
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let held = PEAK.load(Ordering::Relaxed) - live;
    (calls, held, log.execs.encoded_bytes())
}

#[test]
fn recording_grows_by_chunks_and_never_copies() {
    // Warm the arena's pools, so both recordings below start alike.
    ring(false);
    let (first, first_grown, first_held) = record_ring();
    let (second, second_grown, _) = record_ring();
    assert_eq!(
        first, second,
        "the second recording made {second} allocator calls, the first {first}"
    );
    // A doubling `Vec` of 20 008 execs reallocated itself up to 32 768 × 72
    // bytes; an encoded chunk is allocated once at its full capacity.
    let grown = first_grown.max(second_grown);
    assert!(
        grown <= CHUNK_BYTES,
        "a realloc grew a block to {grown} bytes, past one {CHUNK_BYTES}-byte chunk"
    );
    // A 72-byte exec and a 32-byte send held 104 bytes per exec here.
    let execs = (TOKENS * (HOPS as i64 + 1)) as usize;
    let per_exec = first_held as f64 / execs as f64;
    assert!(
        per_exec <= 40.0,
        "the ring's log holds {first_held} bytes, {per_exec:.1} per exec"
    );

    // Building the log seals the last chunks and moves them. Each
    // reduction's fold sends route after the run's other sends, into late
    // chunks in key order, so nothing is sorted or encoded again: the log
    // holds no chunk beyond those the recorder held, and makes a handful of
    // allocator calls (the final state digest, the chunk tables).
    let (calls, held, bytes) = build_stencil_log();
    let chunks = bytes.div_ceil(CHUNK_BYTES);
    assert!(chunks >= 8, "a real log: {bytes} bytes of records");
    assert!(calls <= 8, "take_replay_log made {calls} allocator calls");
    assert!(
        held < CHUNK_BYTES,
        "take_replay_log held {held} more bytes, against {CHUNK_BYTES}-byte chunks"
    );
}
