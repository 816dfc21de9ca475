//! Steady-state allocation discipline: once the arena pools and queue
//! capacities are warm, the engine's message hot path must not touch the
//! global allocator at all — and neither must the two observation paths
//! when they are switched on. A counting allocator wraps `System`; two
//! identical simulations differing only in *length* must then differ by at
//! most a trickle of allocations:
//!
//! * **bare** — every envelope reuses a freed slot of the runtime's slab,
//!   a message of up to 16 bytes rides inside it, a larger one's box is
//!   served from the arena's recycled pool, and every queue push reuses
//!   retained capacity;
//! * **streaming sinks** — every record formatted into a Chrome and a CSV
//!   file goes straight into each sink's fixed buffer: no allocator call
//!   per record;
//! * **replay recorder** — allocator calls grow by one per 4 096-record
//!   chunk of the log's arrays, not per exec or per message, and building
//!   the log at the end moves those chunks.
//!
//! A run driven in `run_for` slices is held to the stricter bar: once warm,
//! a slice makes no allocator call at all. A chare `broadcast` may make one
//! call, the box of its message-making closure: the walk over the array's
//! elements builds no index list.
//!
//! The counts are exact under a seed, so they serve as a deterministic cost
//! proxy next to the noisy wall-clock numbers of `benchmark/`.
//!
//! This file is its own integration-test binary so the `#[global_allocator]`
//! override cannot leak into any other test, and it holds a single `#[test]`
//! because the counter is process-wide: checks must not run concurrently.

use charm_core::{
    ArrayProxy, Chare, ChromeStreamSink, CsvStreamSink, Ctx, Ix, MachineConfig, ReplayConfig,
    Runtime, SimTime, TraceConfig,
};
use charm_pup::{Pup, Puper};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Passes a token around a ring until its hop budget runs out.
#[derive(Default)]
struct Relay {
    n: i64,
    seen: u64,
}

impl Pup for Relay {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.n);
        p.p(&mut self.seen);
    }
}

impl Chare for Relay {
    type Msg = u64; // hops remaining
    fn on_message(&mut self, hops: u64, ctx: &mut Ctx<'_>) {
        self.seen += 1;
        if hops > 0 {
            let me = match ctx.my_index() {
                Ix::I1(i) => i,
                other => panic!("unexpected index {other:?}"),
            };
            let proxy = ArrayProxy::<Relay>::from_id(ctx.my_id().array);
            ctx.send(proxy, Ix::i1((me + 1) % self.n), hops - 1);
        }
    }
}

/// What is switched on while the ring runs.
#[derive(Clone, Copy)]
enum Observe {
    Nothing,
    /// Summary tracing plus a Chrome and a CSV file sink.
    FileSinks,
    /// The replay recorder.
    Recorder,
}

fn sink_path(ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("charm_{}_steady_state.{ext}", std::process::id()))
}

const N: i64 = 16;

/// `TOKENS` concurrent ring walkers, each about to make `hops` hops across
/// 4 PEs.
fn ring(hops: u64, observe: Observe) -> (Runtime, ArrayProxy<Relay>) {
    const TOKENS: i64 = 8;
    let mut b = Runtime::builder(MachineConfig::homogeneous(4));
    match observe {
        Observe::Nothing => {}
        Observe::FileSinks => {
            b = b
                .tracing(TraceConfig::summary_only())
                .trace_sink(Box::new(ChromeStreamSink::create(sink_path("json")).unwrap()))
                .trace_sink(Box::new(CsvStreamSink::create(sink_path("csv")).unwrap()));
        }
        Observe::Recorder => b = b.record(ReplayConfig::default()),
    }
    let mut rt = b.build();
    let arr = rt.create_array::<Relay>("relay");
    for i in 0..N {
        rt.insert(arr, Ix::i1(i), Relay { n: N, seen: 0 }, Some(i as usize % 4));
    }
    for t in 0..TOKENS {
        rt.send(arr, Ix::i1(t * 2), hops);
    }
    (rt, arr)
}

/// One full simulation of the ring. Returns total deliveries (sanity).
fn run_ring(hops: u64, observe: Observe) -> u64 {
    let (mut rt, arr) = ring(hops, observe);
    rt.run();
    // Dropping the runtime finishes the sinks. The recorder's log is built:
    // it takes over the recorder's encoded chunks.
    if let Observe::Recorder = observe {
        let log = rt.take_replay_log().expect("recording was on");
        let sends: usize = log.execs.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(sends, log.execs.len() - 8, "one send per hop");
    }
    (0..N)
        .map(|i| rt.inspect(arr, &Ix::i1(i), |r| r.seen).unwrap())
        .sum()
}

/// Allocator calls a 10× longer run makes beyond a short one, and the
/// messages it delivers beyond it. Two fresh, identical runtimes: startup,
/// capacity growth, and teardown costs are identical by determinism — the
/// difference isolates the extra steady-state traffic.
fn extra_allocs(observe: Observe) -> (u64, u64) {
    // Warm the thread-local arena pools and libc internals.
    run_ring(500, observe);

    let snap = ALLOCS.load(Ordering::Relaxed);
    let short_seen = run_ring(500, observe);
    let short_allocs = ALLOCS.load(Ordering::Relaxed) - snap;

    let snap = ALLOCS.load(Ordering::Relaxed);
    let long_seen = run_ring(5000, observe);
    let long_allocs = ALLOCS.load(Ordering::Relaxed) - snap;

    let extra_msgs = long_seen - short_seen;
    assert!(extra_msgs >= 30_000, "expected a real workload, got {extra_msgs}");
    (long_allocs.saturating_sub(short_allocs), extra_msgs)
}

/// On each tick, element 0 broadcasts a no-op to all `N` elements and
/// sends itself the next tick.
#[derive(Default)]
struct Caster;

impl Pup for Caster {
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Chare for Caster {
    type Msg = u64; // ticks remaining; 0 is the broadcast itself
    fn on_message(&mut self, ticks: u64, ctx: &mut Ctx<'_>) {
        if ticks > 0 {
            let all = ArrayProxy::<Caster>::from_id(ctx.my_id().array);
            ctx.broadcast(all, 0);
            ctx.send(all, Ix::i1(0), ticks - 1);
        }
    }
}

/// Allocator calls `ticks` chare broadcasts make, counted over a whole run.
fn broadcast_allocs(ticks: u64) -> u64 {
    let mut rt = Runtime::homogeneous(4);
    let arr = rt.create_array::<Caster>("casters");
    for i in 0..N {
        rt.insert(arr, Ix::i1(i), Caster, Some(i as usize % 4));
    }
    rt.send(arr, Ix::i1(0), ticks);
    let snap = ALLOCS.load(Ordering::Relaxed);
    let s = rt.run();
    assert_eq!(s.entries, 1 + ticks * (N as u64 + 1));
    ALLOCS.load(Ordering::Relaxed) - snap
}

/// Allocator calls made by 200 `run_for` slices of an endless ring after
/// 20 warm-up slices, and the events those slices processed.
fn sliced_allocs() -> (u64, u64) {
    let (mut rt, _) = ring(u64::MAX, Observe::Nothing);
    let slice = SimTime::from_micros(50);
    let mut slices = |n| (0..n).map(|_| rt.run_for(slice).events).last();
    let warm = slices(20).expect("slices");
    let snap = ALLOCS.load(Ordering::Relaxed);
    let done = slices(200).expect("slices");
    (ALLOCS.load(Ordering::Relaxed) - snap, done - warm)
}

#[test]
fn steady_state_paths_bypass_the_global_allocator() {
    // Without the arena this difference tracks the message count (two boxes
    // per delivery — envelope and payload — ≈ 70k+ allocations here).
    let (extra, msgs) = extra_allocs(Observe::Nothing);
    assert!(
        extra < 200,
        "steady state leaked {extra} global allocations for {msgs} extra messages"
    );

    // ~7 records per message, each formatted twice. The `format!`-based
    // formatters made 841 673 calls here; what remains (7) is the tracer's
    // own summary state growing.
    let (extra, msgs) = extra_allocs(Observe::FileSinks);
    for ext in ["json", "csv"] {
        let _ = std::fs::remove_file(sink_path(ext));
    }
    assert!(
        extra < 32,
        "streaming to file sinks leaked {extra} global allocations for {msgs} extra messages"
    );

    // One exec and one send per message, and the log built at the end. With
    // a `Vec` of sends per exec the recorder made 36 014 calls here, one per
    // exec, and so did building the log; doubling flat buffers made 33.
    // Encoded chunks make 46: about 15 64 KiB chunks of execs with their
    // sends, 9 chunks of the exec-to-chare table and 16 of message lanes
    // (4 096 entries each), and the growths of the chunk tables. The log
    // moves the encoded chunks.
    let (extra, msgs) = extra_allocs(Observe::Recorder);
    assert!(
        extra <= 48,
        "recording made {extra} global allocations for {msgs} extra execs"
    );

    // `run_until` used to allocate its dispatch batch on every call and
    // free it on return: one allocator call per slice.
    let (allocs, events) = sliced_allocs();
    assert!(events >= 30_000, "expected a real workload, got {events}");
    assert_eq!(allocs, 0, "{allocs} allocator calls in 200 warm slices");

    // The one call a chare `broadcast` needs is the box of its
    // message-making closure; collecting a sorted index list per broadcast
    // made four at 16 elements (the list and its regrowths). The first run
    // warms the arena and the slab.
    broadcast_allocs(200);
    let extra = broadcast_allocs(400) - broadcast_allocs(200);
    assert!(
        extra <= 200,
        "200 extra chare broadcasts made {extra} allocator calls (at most one each)"
    );
}
