//! Cross-crate integration tests: the facade crate, interop between host
//! code and multiple runtime libraries, determinism across the full stack,
//! a committed golden recording, and the frozen benchmark's compile surface.

use charm_rs::sort::{hist_sort, skewed_keys, verify_sorted};
use charm_rs::{ArrayProxy, Callback, Chare, Ctx, Ix, Pup, Puper, RedOp, RedValue, Runtime, SysEvent};

#[derive(Default)]
struct Acc {
    total: i64,
}
impl Pup for Acc {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.total);
    }
}
impl Chare for Acc {
    type Msg = i64;
    fn on_message(&mut self, v: i64, ctx: &mut Ctx<'_>) {
        self.total += v;
        ctx.work(1e4);
        let me = ArrayProxy::<Acc>::from_id(ctx.my_id().array);
        ctx.contribute(
            me,
            7,
            RedValue::I64(v),
            RedOp::Sum,
            Callback::ToChare {
                array: ctx.my_id().array,
                ix: Ix::i1(0),
            },
        );
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { value, .. } = ev {
            ctx.log_metric("acc_total", value.as_i64() as f64);
        }
    }
}

/// The facade re-exports compose into a working program.
#[test]
fn facade_end_to_end() {
    let mut rt = Runtime::homogeneous(4);
    let arr = rt.create_array::<Acc>("acc");
    for i in 0..16 {
        rt.insert(arr, Ix::i1(i), Acc::default(), None);
    }
    for i in 0..16 {
        rt.send(arr, Ix::i1(i), i + 1);
    }
    rt.run();
    let total = rt.metric("acc_total").last().expect("reduced").1;
    assert_eq!(total as i64, (1..=16).sum::<i64>());
}

/// Interop (§III-G): one runtime hosts an application *and* serves repeated
/// sorting-library invocations, with the application's arrays untouched.
#[test]
fn interop_sort_inside_an_application_runtime() {
    let mut rt = Runtime::homogeneous(8);
    let arr = rt.create_array::<Acc>("acc");
    for i in 0..8 {
        rt.insert(arr, Ix::i1(i), Acc::default(), None);
    }
    // Application phase.
    for i in 0..8 {
        rt.send(arr, Ix::i1(i), 10);
    }
    rt.run();
    rt.clear_exit();
    let app_total = rt.metric("acc_total").last().expect("phase 1").1;

    // Library phase: two sorts on the same runtime (CharmLibInit pattern).
    for seed in [1u64, 2] {
        let keys = skewed_keys(8, 200, seed);
        let orig = keys.clone();
        let r = hist_sort(&mut rt, keys, 0.05);
        verify_sorted(&orig, &r.buckets).expect("library sort valid");
    }

    // Application continues; its array is intact.
    for i in 0..8 {
        rt.send(arr, Ix::i1(i), 1);
    }
    rt.run();
    let app_total2 = rt.metric("acc_total").last().expect("phase 2").1;
    assert_eq!(app_total as i64, 80);
    assert_eq!(app_total2 as i64, 8);
}

/// Whole-stack determinism: LeanMD + HybridLB + checkpoints replay
/// bit-identically for a fixed seed.
#[test]
fn full_stack_determinism() {
    use charm_rs::apps::leanmd::{run, LeanMdConfig};
    let mk = || LeanMdConfig {
        machine: charm_rs::MachineConfig::homogeneous(8),
        cells_per_dim: 5,
        atoms_per_cell: 40,
        density_peak: 5.0,
        steps: 8,
        lb_every: 3,
        strategy: Some(Box::new(charm_lb::HybridLb::default())),
        ckpt_at: Some(4),
        ..LeanMdConfig::default()
    };
    let a = run(mk());
    let b = run(mk());
    assert_eq!(a.step_times, b.step_times);
    assert_eq!(a.messages, b.messages);
}

/// The eight names the frozen `benchmark/` package's 2-thread pass compiles
/// against still exist and do nothing: any `threads` value runs the one
/// engine, so results are equal and the sharded engine's counters read zero.
#[test]
fn benchmark_compat_surface_is_inert() {
    let run = |threads: usize| {
        let mut rt = Runtime::builder(charm_rs::MachineConfig::homogeneous(4))
            .threads(threads)
            .build();
        let arr = rt.create_array::<Acc>("acc");
        for i in 0..12 {
            rt.insert(arr, Ix::i1(i), Acc::default(), None);
        }
        for i in 0..12 {
            rt.send(arr, Ix::i1(i), (i + 1) * (i + 1));
        }
        let s = rt.run();
        assert!(!rt.last_run_parallel());
        assert_eq!((s.barriers_waited, s.barriers_elided), (0, 0));
        let total = rt.metric("acc_total").last().expect("reduced").1 as i64;
        (rt.state_digest(), s.events, total)
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one, four);
    assert_eq!(one.2, (1..=12).map(|i| i * i).sum::<i64>());

    use charm_rs::apps::{kv, leanmd, pdes, stencil};
    let mut c = stencil::StencilConfig::cloud_4k(charm_rs::machine::presets::cloud(2), 1);
    c.threads = 2;
    let _ = leanmd::LeanMdConfig { threads: 2, ..Default::default() };
    let _ = pdes::PdesConfig { threads: 2, ..Default::default() };
    let mut k = kv::KvConfig::service(charm_rs::MachineConfig::homogeneous(2), 1);
    k.threads = 2;
}

/// The default gate compares a recording with a committed golden: the
/// 5-step stencil's v1 encoding is byte-equal to `stencil.rlog`, its v2 file
/// loads back to it, and state points appear exactly when the recording
/// asks for them.
#[test]
fn recording_reproduces_the_committed_golden() {
    use charm_rs::apps::stencil::{run_with_runtime, StencilConfig};
    use charm_rs::core::ReplayConfig;

    let record = |rc: ReplayConfig| {
        let mut c = StencilConfig::cloud_4k(charm_rs::machine::presets::cloud(8), 2);
        c.steps = 5;
        c.record = Some(rc);
        let mut log = run_with_runtime(c).1.take_replay_log().expect("recording was on");
        log.app = "stencil".to_string();
        log
    };
    assert!(record(ReplayConfig::default()).state_points.is_empty());
    let log = record(ReplayConfig::with_digest_every(64));
    assert!(!log.state_points.is_empty());

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/replay/tests/golden/stencil.rlog");
    assert!(
        v1::v1_file(&log) == std::fs::read(golden).unwrap(),
        "stencil.rlog bytes differ from the fresh log's v1 encoding"
    );
    // The log itself goes to disk as v2 and comes back as it was.
    let fresh = std::env::temp_dir().join(format!("charm_rs_{}_golden.rlog", std::process::id()));
    charm_replay::save(&log, &fresh).unwrap();
    let back = charm_replay::load(&fresh).unwrap();
    let _ = std::fs::remove_file(&fresh);
    assert!(back == log, "the v2 file does not load back to the log");
}

#[path = "../crates/replay/tests/support/v1.rs"]
mod v1;

/// PUP round-trips compose across crate boundaries (facade types).
#[test]
fn pup_across_crates() {
    let mut ix = Ix::i6([1, 2, 3], [4, 5, 6]);
    assert_eq!(charm_rs::pup::roundtrip(&mut ix), ix);
    let mut blob = charm_rs::apps::util::SyntheticBlob::new(5000);
    assert_eq!(charm_rs::pup::roundtrip(&mut blob), blob);
}

/// A 4×4 periodic halo-exchange block whose state is almost entirely
/// *modeled* bytes, like the stencil app's blocks.
#[derive(Default)]
struct HaloBlock {
    at: [i32; 2],
    step: u64,
    /// Ghosts received for the current and the next step (by step parity:
    /// a neighbour is never more than one step ahead).
    got: [u8; 2],
    data: charm_rs::apps::util::SyntheticBlob,
}

/// One ghost edge for `step`; `HALO_KICK` starts the exchange.
#[derive(Default, Clone)]
struct Ghost {
    step: u64,
    edge: charm_rs::apps::util::SyntheticBlob,
}

const HALO_SIDE: i32 = 4;
const HALO_STEPS: u64 = 6;
const HALO_KICK: u64 = u64::MAX;

impl Pup for HaloBlock {
    fn pup(&mut self, p: &mut Puper) {
        charm_rs::pup::pup_all!(p; self.at, self.step, self.got, self.data);
    }
}
impl Pup for Ghost {
    fn pup(&mut self, p: &mut Puper) {
        charm_rs::pup::pup_all!(p; self.step, self.edge);
    }
}
impl HaloBlock {
    fn send_ghosts(&self, ctx: &mut Ctx<'_>) {
        let me = ArrayProxy::<HaloBlock>::from_id(ctx.my_id().array);
        for (dx, dy) in [(-1, 0), (1, 0), (0, -1), (0, 1)] {
            let to = Ix::i2(
                (self.at[0] + dx).rem_euclid(HALO_SIDE),
                (self.at[1] + dy).rem_euclid(HALO_SIDE),
            );
            let edge = charm_rs::apps::util::SyntheticBlob::new(512);
            ctx.send(me, to, Ghost { step: self.step, edge });
        }
    }
}
impl Chare for HaloBlock {
    type Msg = Ghost;
    fn on_message(&mut self, g: Ghost, ctx: &mut Ctx<'_>) {
        if g.step == HALO_KICK {
            self.send_ghosts(ctx);
            return;
        }
        self.got[(g.step % 2) as usize] += 1;
        while self.step < HALO_STEPS && self.got[(self.step % 2) as usize] == 4 {
            self.got[(self.step % 2) as usize] = 0;
            self.step += 1;
            ctx.work(1e5);
            // The block "refines": its modeled footprint changes per step.
            self.data.set_len(self.data.len() + 1024);
            if self.step < HALO_STEPS {
                self.send_ghosts(ctx);
            }
        }
    }
}

/// State capture end to end on modeled bytes: the digest walk, the disk
/// checkpoint (pack) and the restore (unpack) of a stencil whose blocks hold
/// `SyntheticBlob`s agree — on a different PE count — and a blob's
/// closed-form digest is the FNV-1a of the bytes packing materialises.
#[test]
fn modeled_state_digest_survives_disk_checkpoint_and_restore() {
    use charm_rs::apps::util::SyntheticBlob;

    let mut blob = SyntheticBlob::new(70_000);
    assert_eq!(
        charm_rs::pup::digest_of(&mut blob),
        charm_rs::pup::fnv1a(&charm_rs::pup::to_bytes(&mut blob))
    );

    let mut rt = Runtime::homogeneous(8);
    let blocks = rt.create_array::<HaloBlock>("halo");
    for x in 0..HALO_SIDE {
        for y in 0..HALO_SIDE {
            let block = HaloBlock {
                at: [x, y],
                data: SyntheticBlob::new(32 << 10),
                ..HaloBlock::default()
            };
            rt.insert(blocks, Ix::i2(x, y), block, None);
        }
    }
    rt.broadcast(blocks, Ghost { step: HALO_KICK, ..Ghost::default() });
    rt.run();
    let before = rt.state_digest();
    assert_eq!(before.len(), (HALO_SIDE * HALO_SIDE) as usize);

    let path = std::env::temp_dir().join(format!("charm_rs_{}_halo.ckpt", std::process::id()));
    let written = rt.checkpoint_to_disk(&path).expect("write checkpoint");
    // Every block finished all steps: 32 KiB grown by 1 KiB per step.
    let modeled = (HALO_SIDE * HALO_SIDE) as usize * ((32 << 10) + HALO_STEPS as usize * 1024);
    assert!(written.bytes > modeled, "{} bytes on disk", written.bytes);
    assert_eq!(rt.state_digest(), before, "capturing state does not change it");

    let mut fresh = Runtime::homogeneous(3);
    fresh.create_array::<HaloBlock>("halo");
    let restored = fresh.restore_from_disk(&path);
    let _ = std::fs::remove_file(&path);
    restored.expect("restore");
    assert_eq!(fresh.state_digest(), before);
}

/// A machine preset drives an app through the facade without surprises.
#[test]
fn presets_compose_with_apps() {
    use charm_rs::apps::stencil::{run, StencilConfig};
    let mut c = StencilConfig::cloud_4k(charm_rs::machine::presets::cloud(8), 2);
    c.steps = 5;
    let r = run(c);
    assert_eq!(r.step_times.len(), 5);
    assert!(r.avg_utilization > 0.0);
}

/// Observation end to end: the stencil app streams every trace record into
/// Chrome and CSV files while the replay recorder writes. The streamed bytes
/// equal the in-memory arrival-order exports, and two same-seed recordings
/// verify against each other.
#[test]
fn streamed_traces_and_replay_logs_match_their_in_memory_forms() {
    use charm_rs::apps::stencil::{run_with_runtime, StencilConfig};
    use charm_rs::core::{ChromeStreamSink, CsvStreamSink, ReplayConfig, TraceConfig};

    let record_once = |tag: &str| {
        let path = |ext: &str| {
            std::env::temp_dir().join(format!("charm_rs_{}_{tag}.trace.{ext}", std::process::id()))
        };
        let (json, csv) = (path("json"), path("csv"));
        let mut c = StencilConfig::cloud_4k(charm_rs::machine::presets::cloud(8), 2);
        c.steps = 5;
        // Rings large enough to retain everything, so the in-memory
        // exporters see the same stream the sinks did.
        c.trace = Some(TraceConfig {
            log_capacity: 1 << 20,
            ..TraceConfig::default()
        });
        c.trace_sinks = vec![
            Box::new(ChromeStreamSink::create(&json).unwrap()),
            Box::new(CsvStreamSink::create(&csv).unwrap()),
        ];
        c.record = Some(ReplayConfig::with_digest_every(200));
        let (_, mut rt) = run_with_runtime(c);

        let stats = rt.finish_trace();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.records > 0 && s.dropped == 0));
        assert_eq!(rt.tracer().unwrap().dropped_events(), 0);
        let streamed = |p: &std::path::Path| {
            let text = std::fs::read_to_string(p).unwrap();
            let _ = std::fs::remove_file(p);
            text
        };
        assert_eq!(streamed(&json), rt.trace_chrome_json_arrival().unwrap());
        assert_eq!(streamed(&csv), rt.trace_csv_arrival().unwrap());
        rt.take_replay_log().expect("recording was on")
    };

    let (a, b) = (record_once("a"), record_once("b"));
    let sends = a.execs.iter().map(|(_, s)| s.len()).sum::<usize>();
    assert!(sends > 0, "the log carries sends");
    assert!(!a.state_points.is_empty(), "periodic digests were taken");
    let report = charm_replay::verify(&a, &b);
    assert!(report.ok(), "{report}");
}

#[path = "../crates/core/tests/campaign/mod.rs"]
mod campaign;

/// Tier-1 slice of `crates/core/tests/service_paths.rs`: shrink 8 → 4 then
/// expand → 8 must reproduce the fingerprint (simulated time, counters,
/// placement, service costs, `NetCounters`, trace hash) committed before
/// the services were moved onto shared mechanisms.
#[test]
fn shrink_then_expand_matches_its_committed_fingerprint() {
    let got = campaign::shrink_expand_run(Box::new(charm_rs::lb::GreedyLb));
    assert_eq!(got, campaign::SHRINK_EXPAND_PIN);
}
