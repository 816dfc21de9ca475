//! engine_bench — wall-clock throughput of the discrete-event engine.
//!
//! Every figure driver, the fault-injection campaign, race hunting, and
//! what-if re-simulation sit on the same hot loop: pop an event, dispatch
//! it, schedule its consequences. This binary measures that loop in
//! *wall-clock* terms (`events/sec`, `msgs/sec`) over a fixed workload
//! matrix and writes `BENCH_engine.json` at the repo root, so every future
//! PR has a perf trajectory to improve against.
//!
//! Workloads:
//! - `stencil2d`  — halo exchange + reduction per step (charm-apps stencil)
//! - `leanmd`     — 3-D cells + 6-D computes force loop (charm-apps leanmd)
//! - `pdes`       — PHOLD over YAWNS windows (charm-apps pdes)
//! - `tram_flood` — fine-grained item flood through the TRAM aggregator
//! - `ping_pipe`  — pure scheduler stressor: many chare pairs ping-ponging
//!   with zero declared work, so *only* engine overhead is on the clock
//!
//! Each workload runs several times with the same seed (three in full
//! mode, two in smoke and scaling modes); all final PUP state digests
//! must agree (the engine is deterministic — a perf change that breaks
//! this fails the bench), and the reported wall time is the fastest run
//! (less scheduler noise — the recording hosts are noisy 1-core VMs).
//!
//! `--smoke` runs a ~1 s budget version of the matrix (CI); it self-checks
//! but does not rewrite `BENCH_engine.json`.

use charm_apps::{leanmd, pdes, stencil};
use charm_core::{ArrayProxy, Chare, Ctx, Ix, Runtime, RunSummary};
use charm_machine::presets;
use charm_pup::{Pup, Puper};
use charm_tram::{Tram, TramBuf, TramConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// events/sec recorded on this workload matrix *before* the PR 4 hot-path
/// optimizations (SipHash maps, no dense-index store, per-event heap pops),
/// same machine presets and seeds. The committed `BENCH_engine.json` keeps
/// these numbers next to the current ones so the speedup is auditable.
/// Recorded on the seed of PR 4 (commit b816ac2), release build, same
/// matrix sizes as below.
const PRE_OPT_BASELINE: &[(&str, f64)] = &[
    ("ping_pipe", 3_731_083.0),
    ("tram_flood", 1_424_757.0),
    ("stencil2d", 688_692.0),
    ("leanmd", 2_484_746.0),
    ("pdes", 1_917_809.0),
];

fn baseline_for(name: &str) -> Option<f64> {
    PRE_OPT_BASELINE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

// ---------------------------------------------------------------------------
// measurement plumbing
// ---------------------------------------------------------------------------

struct Measured {
    name: &'static str,
    events: u64,
    entries: u64,
    messages: u64,
    wall_s: f64,
    digest: u64,
    went_parallel: bool,
    barriers_waited: u64,
    barriers_elided: u64,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn msgs_per_sec(&self) -> f64 {
        self.messages as f64 / self.wall_s
    }
}

/// Fold the per-chare state digests into one order-sensitive FNV-1a value.
fn fold_digest(pairs: &[(charm_core::ObjId, u64)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };
    for (obj, d) in pairs {
        mix(obj.ix.stable_hash());
        mix(*d);
    }
    h
}

/// Run `build` + `run` `runs` times under the wall clock; check
/// determinism across every repetition and keep the fastest run. With
/// `threads > 1` the workload also runs once on the sequential engine and
/// the final state digests must agree — the parallel engine's
/// byte-identical contract, enforced on every bench run.
fn measure(
    name: &'static str,
    threads: usize,
    runs: usize,
    run_once: impl Fn(usize) -> (RunSummary, u64, bool),
) -> Measured {
    assert!(runs >= 2, "need >= 2 runs for the determinism check");
    let t0 = Instant::now();
    let (s1, d1, p1) = run_once(threads);
    let w1 = t0.elapsed().as_secs_f64();
    let mut wall = w1;
    for _ in 1..runs {
        let t = Instant::now();
        let (s, d, _) = run_once(threads);
        let w = t.elapsed().as_secs_f64();
        assert_eq!(
            d1, d,
            "{name}: same-seed final state digests diverged — engine nondeterminism"
        );
        assert_eq!(s1.events, s.events, "{name}: same-seed event counts diverged");
        wall = wall.min(w);
    }
    if threads > 1 {
        let (_, d_seq, _) = run_once(1);
        assert_eq!(
            d1, d_seq,
            "{name}: parallel ({threads} threads) digest diverged from sequential"
        );
    }
    Measured {
        name,
        events: s1.events,
        entries: s1.entries,
        messages: s1.messages,
        wall_s: wall.max(1e-9),
        digest: d1,
        went_parallel: p1,
        barriers_waited: s1.barriers_waited,
        barriers_elided: s1.barriers_elided,
    }
}

// ---------------------------------------------------------------------------
// ping_pipe — the pure scheduler stressor
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Ping {
    count: u64,
    limit: u64,
    peer: i64,
}

impl Pup for Ping {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.count, self.limit, self.peer);
    }
}

impl Chare for Ping {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.count += 1;
        if self.count < self.limit {
            let arr = ArrayProxy::<Ping>::from_id(ctx.my_id().array);
            ctx.send(arr, Ix::i1(self.peer), 0u8);
        }
    }
}

/// `pairs` chare pairs spread over `pes` PEs, each pair exchanging `limit`
/// zero-work messages per endpoint. Nothing but envelopes, queues, and the
/// event heap: the closest thing to a syscall benchmark the engine has.
fn run_ping_pipe(pes: usize, pairs: usize, limit: u64, threads: usize) -> (RunSummary, u64, bool) {
    let mut rt = Runtime::homogeneous(pes);
    rt.set_parallel_threads(threads);
    let arr = rt.create_array::<Ping>("ping");
    for k in 0..pairs {
        let a = (2 * k) as i64;
        let b = a + 1;
        rt.insert(arr, Ix::i1(a), Ping { count: 0, limit, peer: b }, Some((2 * k) % pes));
        rt.insert(arr, Ix::i1(b), Ping { count: 0, limit, peer: a }, Some((2 * k + 1) % pes));
    }
    for k in 0..pairs {
        rt.send(arr, Ix::i1((2 * k) as i64), 0u8);
    }
    let s = rt.run();
    let d = fold_digest(&rt.state_digest());
    (s, d, rt.last_run_parallel())
}

// ---------------------------------------------------------------------------
// tram_flood — fine-grained items through the aggregation layer
// ---------------------------------------------------------------------------

const SINKS_PER_PE: u64 = 4;

#[derive(Default)]
struct Sink {
    received: u64,
    checksum: u64,
}

impl Pup for Sink {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.received, self.checksum);
    }
}

#[derive(Default, Clone)]
struct Item(u64);
impl Pup for Item {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.0);
    }
}

impl Chare for Sink {
    type Msg = Item;
    fn on_message(&mut self, Item(v): Item, _ctx: &mut Ctx<'_>) {
        self.received += 1;
        self.checksum = self.checksum.wrapping_add(v.wrapping_mul(0x9E3779B9));
    }
}

#[derive(Default)]
struct Source {
    tram: Tram<Sink>,
    buf: TramBuf<Sink>,
    num_pes: u64,
    items: u64,
}

impl Pup for Source {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.tram, self.buf, self.num_pes, self.items);
    }
}

#[derive(Default, Clone)]
struct Spray;
impl Pup for Spray {
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Chare for Source {
    type Msg = Spray;
    fn on_message(&mut self, _m: Spray, ctx: &mut Ctx<'_>) {
        for k in 0..self.items {
            let h = k
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((ctx.my_pe() as u64) << 32);
            let dst_pe = (h >> 17) % self.num_pes;
            let sink_ix = (dst_pe * SINKS_PER_PE + (h % SINKS_PER_PE)) as i64;
            let tram = self.tram;
            tram.send_via(ctx, &mut self.buf, dst_pe as usize, Ix::i1(sink_ix), Item(k));
        }
        let tram = self.tram;
        tram.flush_via(ctx, &mut self.buf);
    }
}

fn run_tram_flood(pes: usize, items_per_source: u64, threads: usize) -> (RunSummary, u64, bool) {
    let mut rt = Runtime::homogeneous(pes);
    rt.set_parallel_threads(threads);
    let sinks = rt.create_array::<Sink>("sinks");
    for pe in 0..pes {
        for s in 0..SINKS_PER_PE {
            rt.insert(
                sinks,
                Ix::i1((pe as u64 * SINKS_PER_PE + s) as i64),
                Sink::default(),
                Some(pe),
            );
        }
    }
    let tram = Tram::attach(&mut rt, "tram", sinks, TramConfig::default());
    let sources = rt.create_array::<Source>("sources");
    for pe in 0..pes {
        rt.insert(
            sources,
            Ix::i1(pe as i64),
            Source {
                tram,
                buf: TramBuf::default(),
                num_pes: pes as u64,
                items: items_per_source,
            },
            Some(pe),
        );
    }
    for pe in 0..pes {
        rt.send(sources, Ix::i1(pe as i64), Spray);
    }
    let s = rt.run();
    let d = fold_digest(&rt.state_digest());
    (s, d, rt.last_run_parallel())
}

// ---------------------------------------------------------------------------
// app workloads
// ---------------------------------------------------------------------------

fn run_stencil(pes: usize, chares_per_pe: usize, steps: u64, threads: usize) -> (RunSummary, u64, bool) {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(pes), chares_per_pe);
    cfg.steps = steps;
    cfg.threads = threads;
    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    let d = fold_digest(&rt.state_digest());
    let p = rt.last_run_parallel();
    (rt.summary(), d, p)
}

fn run_leanmd(steps: u64, threads: usize) -> (RunSummary, u64, bool) {
    let cfg = leanmd::LeanMdConfig {
        steps,
        threads,
        ..Default::default()
    };
    let (_run, mut rt) = leanmd::run_with_runtime(cfg);
    let d = fold_digest(&rt.state_digest());
    let p = rt.last_run_parallel();
    (rt.summary(), d, p)
}

fn run_pdes(lps_per_pe: usize, windows: u64, threads: usize) -> (RunSummary, u64, bool) {
    let cfg = pdes::PdesConfig {
        lps_per_pe,
        windows,
        threads,
        ..Default::default()
    };
    let (_run, mut rt) = pdes::run_with_runtime(cfg);
    let d = fold_digest(&rt.state_digest());
    let p = rt.last_run_parallel();
    (rt.summary(), d, p)
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

/// One point of the multi-worker scaling matrix.
struct ScalePoint {
    threads: usize,
    events_per_sec: f64,
    speedup_vs_seq: f64,
    went_parallel: bool,
    /// Blocking waits per thousand events on the adaptive engine (parks of
    /// a starved shard; the sequential point records 0).
    barriers_per_kevent: f64,
    barriers_elided: u64,
}

struct Scaling {
    name: &'static str,
    points: Vec<ScalePoint>,
}

const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Measure the workloads at 1/2/4/8 worker threads. Digest equality vs
/// the sequential engine is asserted inside `measure` for every threaded
/// point, so a scaling number can never come from a wrong answer.
type WorkloadFn = Box<dyn Fn(usize) -> (RunSummary, u64, bool)>;

fn scaling_matrix() -> Vec<Scaling> {
    let apps: Vec<(&'static str, WorkloadFn)> = vec![
        ("ping_pipe", Box::new(|t| run_ping_pipe(8, 32, 2_000, t))),
        ("tram_flood", Box::new(|t| run_tram_flood(8, 6_000, t))),
        ("stencil2d", Box::new(|t| run_stencil(8, 4, 40, t))),
        ("leanmd", Box::new(|t| run_leanmd(20, t))),
        ("pdes", Box::new(|t| run_pdes(64, 16, t))),
    ];
    println!("== parallel scaling (events/s at 1/2/4/8 worker threads)");
    println!(
        "  {:<12} {:>3} {:>14} {:>8} {:>10} {:>10} {:>5}",
        "workload", "thr", "events/s", "speedup", "waits/kev", "elided", "par"
    );
    let mut out = Vec::new();
    for (name, run) in apps {
        let mut points: Vec<ScalePoint> = Vec::new();
        for t in SCALING_THREADS {
            let m = measure(name, t, 2, &run);
            let kev = m.events as f64 / 1_000.0;
            let seq_eps = points.first().map_or(m.events_per_sec(), |p| p.events_per_sec);
            let point = ScalePoint {
                threads: t,
                events_per_sec: m.events_per_sec(),
                speedup_vs_seq: m.events_per_sec() / seq_eps,
                went_parallel: m.went_parallel,
                barriers_per_kevent: m.barriers_waited as f64 / kev,
                barriers_elided: m.barriers_elided,
            };
            assert_eq!(
                m.went_parallel,
                t > 1,
                "{name} at {t} threads: unexpected engine selection"
            );
            println!(
                "  {:<12} {:>3} {:>14.0} {:>7.2}x {:>10.2} {:>10} {:>5}",
                name,
                t,
                point.events_per_sec,
                point.speedup_vs_seq,
                point.barriers_per_kevent,
                point.barriers_elided,
                if point.went_parallel { "yes" } else { "no" },
            );
            points.push(point);
        }
        out.push(Scaling { name, points });
    }
    out
}

fn write_json(results: &[Measured], scaling: &[Scaling]) -> std::io::Result<std::path::PathBuf> {
    // CARGO_MANIFEST_DIR = crates/bench → ../../BENCH_engine.json
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::PathBuf::from(m).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let path = root.join("BENCH_engine.json");
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"engine\",");
    let _ = writeln!(j, "  \"mode\": \"full\",");
    let _ = writeln!(
        j,
        "  \"note\": \"wall-clock engine throughput; baseline_events_per_sec was recorded on the same workload matrix before the PR 4 hot-path optimizations; parallel_scaling measures the sharded multi-worker engine (byte-identical results, digest-checked) and is bounded by host_cores\","
    );
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"workloads\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let base = baseline_for(m.name);
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(j, "      \"events\": {},", m.events);
        let _ = writeln!(j, "      \"entries\": {},", m.entries);
        let _ = writeln!(j, "      \"messages\": {},", m.messages);
        let _ = writeln!(j, "      \"wall_s\": {:.6},", m.wall_s);
        let _ = writeln!(j, "      \"events_per_sec\": {:.1},", m.events_per_sec());
        let _ = writeln!(j, "      \"msgs_per_sec\": {:.1},", m.msgs_per_sec());
        match base {
            Some(b) => {
                let _ = writeln!(j, "      \"baseline_events_per_sec\": {:.1},", b);
                let _ = writeln!(j, "      \"speedup_vs_baseline\": {:.2},", m.events_per_sec() / b);
            }
            None => {
                let _ = writeln!(j, "      \"baseline_events_per_sec\": null,");
                let _ = writeln!(j, "      \"speedup_vs_baseline\": null,");
            }
        }
        let _ = writeln!(j, "      \"final_state_digest\": \"{:#018x}\"", m.digest);
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"parallel_scaling\": [");
    for (i, sc) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", sc.name);
        let _ = writeln!(j, "      \"points\": [");
        for (k, p) in sc.points.iter().enumerate() {
            let pc = if k + 1 < sc.points.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "        {{\"threads\": {}, \"events_per_sec\": {:.1}, \"speedup_vs_seq\": {:.3}, \"barriers_per_kevent\": {:.3}, \"barriers_elided\": {}, \"went_parallel\": {}}}{pc}",
                p.threads,
                p.events_per_sec,
                p.speedup_vs_seq,
                p.barriers_per_kevent,
                p.barriers_elided,
                p.went_parallel
            );
        }
        let _ = writeln!(j, "      ]");
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    std::fs::write(&path, j)?;
    Ok(path)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or(1);

    let results: Vec<Measured> = if smoke {
        vec![
            measure("ping_pipe", threads, 2, |t| run_ping_pipe(8, 8, 400, t)),
            measure("tram_flood", threads, 2, |t| run_tram_flood(8, 800, t)),
            measure("stencil2d", threads, 2, |t| run_stencil(8, 2, 4, t)),
            measure("leanmd", threads, 2, |t| run_leanmd(2, t)),
            measure("pdes", threads, 2, |t| run_pdes(32, 4, t)),
        ]
    } else {
        vec![
            measure("ping_pipe", threads, 3, |t| run_ping_pipe(8, 64, 10_000, t)),
            measure("tram_flood", threads, 3, |t| run_tram_flood(16, 30_000, t)),
            measure("stencil2d", threads, 3, |t| run_stencil(16, 8, 120, t)),
            measure("leanmd", threads, 3, |t| run_leanmd(60, t)),
            measure("pdes", threads, 3, |t| run_pdes(192, 40, t)),
        ]
    };

    println!(
        "== engine_bench ({}, {} thread{}) — wall-clock engine throughput",
        if smoke { "smoke" } else { "full" },
        threads,
        if threads == 1 { "" } else { "s" },
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>9} {:>14} {:>14} {:>9} {:>5}",
        "workload", "events", "messages", "wall", "events/s", "msgs/s", "vs base", "par"
    );
    for m in &results {
        let speedup = baseline_for(m.name)
            .map(|b| format!("{:.2}x", m.events_per_sec() / b))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:<12} {:>12} {:>12} {:>9} {:>14.0} {:>14.0} {:>9} {:>5}",
            m.name,
            m.events,
            m.messages,
            charm_bench::fmt_s(m.wall_s),
            m.events_per_sec(),
            m.msgs_per_sec(),
            speedup,
            if m.went_parallel { "yes" } else { "no" },
        );
    }
    if threads > 1 {
        assert!(
            results.iter().any(|m| m.went_parallel),
            "--threads {threads}: no workload took the parallel path — eligibility regressed"
        );
        println!("  (digest equality vs sequential engine verified for every workload)");
    }

    if smoke {
        println!("  (smoke mode: BENCH_engine.json not rewritten)");
        return;
    }
    if threads > 1 {
        println!("  (--threads {threads}: BENCH_engine.json not rewritten; sequential fields stay canonical)");
        return;
    }

    // Multi-worker scaling matrix on the app workloads (smaller sizes than
    // the throughput matrix so the full bench stays tractable): events/s at
    // 1/2/4/8 workers plus speedup over the same-size sequential run, with
    // the byte-identical digest contract asserted at every point.
    let scaling = scaling_matrix();

    match write_json(&results, &scaling) {
        Ok(p) => println!("  -> {}", p.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_engine.json: {e}");
            std::process::exit(1);
        }
    }
}
