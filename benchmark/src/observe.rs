//! `observe`: the `storm` stencil re-run with the tracer, a streaming sink
//! and the replay recorder *writing*, plus the cloud stencil at 16 384 PEs
//! streaming every record into Chrome and CSV files.
//!
//! Why: it is the same engine run with the layers `storm` leaves idle
//! switched on, and the scale point takes the hashed location-cache path
//! (> 256 PEs) and the O(PE) memory that 8–16 PE workloads never touch.
//! Each scale repetition is its own process, because `VmHWM` only grows.

use crate::harness::{
    fresh_dir, mix, ratio, run_arm, run_arms, run_child, sample_secs, span, timed, trace_overhead,
    Args, Arm, ArmSpec, Ledger, Outcome, Rep,
};
use crate::json::Json;
use crate::patterns::{Graph, Pattern};
use crate::stats::{floor, median};
use charm_apps::stencil::{self, StencilConfig};
use charm_core::{
    ChromeStreamSink, CountingSink, CsvStreamSink, ReplayConfig, Runtime, TraceConfig, TraceSink,
};
use charm_machine::presets;
use std::path::Path;
use std::time::{Duration, Instant};

/// PEs of the scale point. The issue asked for 65 536; one repetition of
/// that takes 5 s and writes 250 MB, and the driver's time cap leaves this
/// arm about five seconds a run, so the point is a quarter of it.
const SCALE_PES: usize = 16_384;
const SCALE_PES_SMOKE: usize = 2_048;

fn graph(args: &Args) -> Graph {
    let mut g = crate::storm::graph(Pattern::Stencil1d, args);
    // A recorded task costs several bare ones; a third of the storm's
    // length keeps every arm's repetition near a tenth of a second.
    g.steps = (g.steps / 3).max(4);
    g
}

fn sink_records(rt: &mut Runtime, rep: &mut Rep) {
    let stats = span("finish_trace", || rt.finish_trace());
    rep.extra.insert(
        "sink_records",
        stats.iter().map(|s| s.records).sum::<u64>() as f64,
    );
    rep.extra.insert(
        "sink_bytes",
        stats.iter().map(|s| s.bytes_written).sum::<u64>() as f64,
    );
    rep.extra.insert(
        "sink_dropped",
        stats.iter().map(|s| s.dropped).sum::<u64>() as f64,
    );
}

pub fn run(args: &Args, l: &mut Ledger) -> Outcome {
    let g = graph(args);
    let arms_share = if args.trace { 0.6 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * arms_share);
    let min_reps = args.min_reps(8);
    let scratch = args
        .out_dir()
        .join(format!("observe-{}", std::process::id()));
    l.check(fresh_dir(&scratch).is_ok(), || {
        format!("cannot create {}", scratch.display())
    });
    let pes = if args.smoke {
        SCALE_PES_SMOKE
    } else {
        SCALE_PES
    };

    let specs = vec![
        ArmSpec::new("summary", || {
            g.run(|b| b.tracing(TraceConfig::summary_only()), |_, _| ())
        }),
        ArmSpec::new("stream", || {
            g.run(
                |b| {
                    b.tracing(TraceConfig::summary_only())
                        .trace_sink(Box::new(CountingSink::new()))
                },
                sink_records,
            )
        }),
        ArmSpec::new("record", || {
            g.run(
                |b| b.record(ReplayConfig::with_digest_every(1 << 20)),
                |rt, rep| {
                    let log = span("take_replay_log", || rt.take_replay_log());
                    rep.extra
                        .insert("execs", log.map_or(0, |lg| lg.execs.len()) as f64);
                },
            )
        }),
        ArmSpec::new("scale", || scale_rep(args, &scratch, pes, true)),
    ];
    let arms = run_arms(l, budget, min_reps, args.trace, specs);
    let [summary, stream, record, scale] =
        <[Arm; 4]>::try_from(arms).expect("four arms in, four arms out");
    // Observation must not change what is observed.
    for arm in [&stream, &record] {
        let (a, s) = (&arm.first, &summary.first);
        l.check(
            a.digest == s.digest && a.tasks == s.tasks && a.sim_end_s == s.sim_end_s,
            || {
                format!(
                    "{}: digest, task count or simulated end time differ from the summary arm",
                    arm.name
                )
            },
        );
    }
    l.check(
        stream
            .first
            .extra
            .get("sink_records")
            .is_some_and(|&r| r > 0.0),
        || "stream: the sink saw no record".into(),
    );
    l.check(
        record.first.extra.get("execs") == Some(&(record.first.tasks as f64)),
        || "record: the log does not hold one exec per task".into(),
    );

    let x = |k: &'static str| scale.first.extra.get(k).copied().unwrap_or(0.0);
    l.check(x("sink_records") > 0.0 && x("sink_dropped") == 0.0, || {
        "scale: file sinks lost or saw no records".into()
    });
    l.check(x("trace_dropped") > 0.0, || {
        "scale: capacity-0 rings must report what they shed".into()
    });
    let peak_rss = child_peak_rss(&scale);
    l.check(peak_rss > 0.0, || {
        "scale: the child's peak RSS is unavailable".into()
    });
    for a in [&summary, &stream, &record, &scale] {
        println!(
            "  {:<8} {:>9} events  {:>11.0} events/s  run {}",
            a.name,
            a.first.events,
            a.events_per_s(),
            a.run_summary()
        );
    }

    if args.trace {
        per_layer(
            args,
            l,
            &g,
            [&summary, &stream, &record],
            &scale,
            pes,
            &scratch,
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Outcome {
        arms: [&summary, &stream, &record, &scale]
            .iter()
            .map(|a| a.stat())
            .collect(),
        child_peak_rss: peak_rss as u64,
    }
}

// -- the scale point -----------------------------------------------------------

/// Largest `VmHWM` any repetition's scale child reached.
fn child_peak_rss(scale: &Arm) -> f64 {
    std::iter::once(&scale.first)
        .chain(&scale.reps)
        .filter_map(|r| r.extra.get("peak_rss").copied())
        .fold(0.0, f64::max)
}

/// Child mode (`--child-scale <pes> <seed> <dir> <sinks>`): one stencil
/// step at `pes` PEs, one chare per PE, rings at capacity 0, every record
/// streamed to Chrome and CSV files under `dir` when `sinks` is 1. Prints
/// one JSON object.
pub fn scale_child(pes: usize, seed: u64, dir: &Path, sinks: bool) {
    let t0 = Instant::now();
    let mut cfg = StencilConfig::cloud_4k(presets::cloud(pes), 1);
    cfg.steps = 1;
    cfg.seed = seed;
    if sinks {
        cfg.trace = Some(TraceConfig {
            log_capacity: 0,
            comm_fanout_cap: 8,
            ..TraceConfig::default()
        });
        let chrome =
            ChromeStreamSink::create(dir.join("scale.trace.json")).expect("chrome sink file");
        let csv = CsvStreamSink::create(dir.join("scale.trace.csv")).expect("csv sink file");
        cfg.trace_sinks = vec![Box::new(chrome) as Box<dyn TraceSink>, Box::new(csv)];
    }
    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    let call_s = t0.elapsed().as_secs_f64();
    let s = rt.summary();
    let stats = rt.finish_trace();
    let total_s = t0.elapsed().as_secs_f64();
    let digest = crate::harness::fold_digest(&rt.state_digest());
    let sum = |f: fn(&charm_core::SinkStats) -> u64| stats.iter().map(f).sum::<u64>() as i64;
    let out = Json::obj(vec![
        ("setup_s", Json::Num((call_s - s.wall_time_s).max(0.0))),
        ("run_s", Json::Num(s.wall_time_s)),
        ("total_s", Json::Num(total_s)),
        ("events", Json::Int(s.events as i64)),
        ("tasks", Json::Int(s.entries as i64)),
        ("messages", Json::Int(s.messages as i64)),
        ("sim_end_s", Json::Num(s.end_time.as_secs_f64())),
        // as a string: a u64 digest does not fit JSON's integers
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("trace_dropped", Json::Int(s.trace_dropped as i64)),
        ("sink_records", Json::Int(sum(|s| s.records))),
        ("sink_bytes", Json::Int(sum(|s| s.bytes_written))),
        ("sink_dropped", Json::Int(sum(|s| s.dropped))),
    ]);
    println!("{}", out.render());
}

fn scale_rep(args: &Args, scratch: &Path, pes: usize, sinks: bool) -> Rep {
    let dir = scratch.join("scale");
    fresh_dir(&dir).expect("scratch directory for the scale point");
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("own path"));
    cmd.args([
        "--child-scale",
        &pes.to_string(),
        &mix(args.seed, 30).to_string(),
    ])
    .arg(&dir)
    .arg(if sinks { "1" } else { "0" });
    let child = span("scale subprocess", || run_child(cmd, scratch));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(child.ok, "scale child exited with an error");
    let j = Json::parse(child.stdout.lines().last().unwrap_or(""))
        .expect("scale child prints one JSON object");
    let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut rep = Rep {
        setup_s: num("setup_s"),
        run_s: num("run_s"),
        total_s: child.wall_s,
        events: num("events") as u64,
        tasks: num("tasks") as u64,
        messages: num("messages") as u64,
        sim_end_s: num("sim_end_s"),
        digest: j
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .unwrap_or(0),
        ..Rep::default()
    };
    for k in [
        "trace_dropped",
        "sink_records",
        "sink_bytes",
        "sink_dropped",
    ] {
        rep.extra.insert(k, num(k));
    }
    rep.extra.insert("peak_rss", child.peak_rss_bytes as f64);
    rep
}

// -- per-layer -----------------------------------------------------------------

fn per_layer(
    args: &Args,
    l: &mut Ledger,
    g: &Graph,
    arms: [&Arm; 3],
    scale: &Arm,
    pes: usize,
    scratch: &Path,
) {
    let [summary, stream, record] = arms;
    let tasks = summary.first.tasks as f64;
    // Each differencing arm below gets this long.
    let half = Duration::from_secs_f64(args.seconds * 0.05);

    // Absolute throughput per arm; the ratios below are computed from them.
    for a in [summary, stream, record, scale] {
        l.set(format!("observe.{}_events_per_s", a.name), a.events_per_s());
    }
    l.set(
        "observe.sim_makespan_s",
        [summary, stream, record, scale]
            .iter()
            .map(|a| a.first.sim_end_s)
            .sum(),
    );
    let scale_rss: Vec<f64> = scale
        .reps
        .iter()
        .filter_map(|r| r.extra.get("peak_rss").copied())
        .collect();
    l.set(
        "observe.scale_rss_bytes_per_pe",
        median(&scale_rss) / pes as f64,
    );

    // The untraced baselines the slowdowns are taken against.
    let bare = run_arm(l, "bare", half, 3, || g.run(|b| b, |_, _| ()));
    l.check(bare.first.digest == summary.first.digest, || {
        "tracing changed the final state".into()
    });
    let slowdown = |a: &Arm| ratio(a.ns_per_task(), bare.ns_per_task());
    l.set("core.trace.summary_slowdown", slowdown(summary));
    l.set("core.trace.stream_slowdown", slowdown(stream));
    l.set("core.trace.record_slowdown", slowdown(record));
    l.set(
        "core.trace.summary_ns_per_task",
        summary.ns_per_task() - bare.ns_per_task(),
    );
    l.set(
        "core.replay.record_ns_per_task",
        record.ns_per_task() - bare.ns_per_task(),
    );
    let scale_bare = run_arm(l, "scale/untraced", half, 2, || {
        scale_rep(args, scratch, pes, false)
    });
    l.set(
        "core.trace.scale_stream_slowdown",
        ratio(scale_bare.events_per_s(), scale.events_per_s()),
    );

    // Sinks, differenced against the summary arm: same tracer, plus a sink.
    let records = stream
        .first
        .extra
        .get("sink_records")
        .copied()
        .unwrap_or(0.0);
    let per_record = |a: &Arm| ratio((a.ns_per_task() - summary.ns_per_task()) * tasks, records);
    l.set("core.tsink.counting_ns_per_record", per_record(stream));
    let file_arm = |l: &mut Ledger, name: &str, make: &dyn Fn(&Path) -> Box<dyn TraceSink>| {
        let path = scratch.join(name);
        run_arm(l, name, half, 3, || {
            let sink = make(&path);
            g.run(
                |b| b.tracing(TraceConfig::summary_only()).trace_sink(sink),
                sink_records,
            )
        })
    };
    let chrome = file_arm(l, "chrome_sink", &|p| {
        Box::new(ChromeStreamSink::create(p).expect("chrome sink file"))
    });
    let csv = file_arm(l, "csv_sink", &|p| {
        Box::new(CsvStreamSink::create(p).expect("csv sink file"))
    });
    l.set("core.tsink.chrome_ns_per_record", per_record(&chrome));
    l.set("core.tsink.csv_ns_per_record", per_record(&csv));
    let bytes = |a: &Arm| a.first.extra.get("sink_bytes").copied().unwrap_or(0.0);
    l.set(
        "core.tsink.bytes_per_record",
        ratio(bytes(&chrome) + bytes(&csv), 2.0 * records),
    );

    // The replay tools on one recorded log.
    let mut log = None;
    g.run(
        |b| b.record(ReplayConfig::with_digest_every(1 << 20)),
        |rt, _| log = rt.take_replay_log(),
    );
    let mut again = None;
    g.run(
        |b| b.record(ReplayConfig::with_digest_every(1 << 20)),
        |rt, _| again = rt.take_replay_log(),
    );
    let (Some(log), Some(again)) = (log, again) else {
        l.check(false, || "recording produced no replay log".into());
        return;
    };
    let execs = log.execs.len() as f64;
    let path = scratch.join("probe.rlog");
    let each = Duration::from_secs_f64(args.seconds * 0.01);
    let mut saved = true;
    let save = sample_secs(each, 3, || {
        let (r, s) = timed(|| span("logfile::save", || charm_replay::save(&log, &path)));
        saved &= r.is_ok();
        s
    });
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    l.check(saved && file_bytes > 0.0, || "logfile::save failed".into());
    l.check(
        charm_replay::load(&path).is_ok_and(|back| back.execs.len() == log.execs.len()),
        || "logfile::load does not read back what save wrote".into(),
    );
    l.set(
        "replay.logfile_save_ns_per_byte",
        ratio(floor(&save) * 1e9, file_bytes),
    );
    l.set("core.replay.log_bytes_per_exec", ratio(file_bytes, execs));
    let mut verified = true;
    let verify = sample_secs(each, 3, || {
        let (r, s) = timed(|| charm_replay::verify(&log, &again));
        verified &= r.ok();
        s
    });
    l.check(verified, || {
        "verify: two same-seed recordings diverge".into()
    });
    l.set(
        "replay.verify_ns_per_exec",
        ratio(floor(&verify) * 1e9, execs),
    );
    let mut found = true;
    let crit = sample_secs(each, 3, || {
        let (r, s) = timed(|| charm_replay::critical_path(&log));
        found &= r.is_some();
        s
    });
    l.check(found, || {
        "critical_path found no path in a recorded log".into()
    });
    l.set(
        "replay.critpath_ns_per_exec",
        ratio(floor(&crit) * 1e9, execs),
    );

    l.set(
        "bench.trace_overhead_share",
        trace_overhead([summary, stream, record, scale]),
    );
}
