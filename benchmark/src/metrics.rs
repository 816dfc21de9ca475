//! The metric and workload registry: the one place a name, unit,
//! direction and bound is declared. `BENCHMARK.json` is generated from it
//! (`--emit-benchmark-json`) and a unit test keeps the committed file equal.

use crate::json::Json;

/// What a number is made of — named so host time and simulated time are
/// never mistaken for each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time, or a rate over host time: what the simulator costs.
    /// Subject to the sandbox's noise.
    Host,
    /// Simulated time: what the modelled machine would take. Repeats
    /// exactly under a seed. The model is not validated against hardware.
    Sim,
    /// A count the program made. Repeats exactly under a seed.
    Count,
    /// Not measured but computed from other metrics (ratios, estimates).
    Computed,
    /// Host memory.
    Bytes,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Storm,
    Apps,
    Observe,
    Figs,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Storm,
    Workload::Apps,
    Workload::Observe,
    Workload::Figs,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Apps => "apps",
            Workload::Observe => "observe",
            Workload::Figs => "figs",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists: which layers it puts on the
    /// clock and which it leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Storm => "zero-work Task-Bench dependence patterns on 8 PEs: only the event queue, routing, PE scheduler and arena are on the clock; pup, lb, collectives and tracer do nothing",
            Workload::Apps => "stencil2d, leanmd, pdes, tram_flood and kv on the sequential engine: reductions, multicast, TRAM, priorities, LB rounds, PUP migration and location-cache invalidation do the work storm bypasses",
            Workload::Observe => "the storm stencil re-run with tracer summaries, a streaming sink and the replay recorder writing, plus a 16384-PE stencil into file sinks: the layers storm leaves idle, and O(PE) memory",
            Workload::Figs => "the paper-figure binaries at demo scale as subprocesses, CSVs compared byte for byte with results/: the product, where app compute and RTS services dominate the engine",
        }
    }
}

/// Which workload's traced run measures a per-layer metric. A per-layer
/// metric reads 0 in every other workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    All,
    Only(Workload),
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    pub kind: Kind,
    pub home: Home,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// Exact under a seed: two runs of the same code must agree bit for bit.
    pub fn exact(&self) -> bool {
        matches!(self.kind, Kind::Sim | Kind::Count)
    }

    /// Does workload `w` measure this metric (otherwise it prints 0)?
    pub fn measured_in(&self, w: Workload) -> bool {
        self.home == Home::All || self.home == Home::Only(w)
    }
}

fn e2e(name: &str, unit: &'static str, higher: bool, kind: Kind, bound: f64) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher,
        kind,
        home: Home::All,
        bound: Some(bound),
    }
}

/// The end-to-end metrics: what a user of the simulator sees. Every
/// workload reports every one of them.
///
/// * `setup_s` — host seconds one repetition spends before its measured
///   region (runtime construction, array creation, inserts, injection;
///   for `figs` preparing the scratch tree and reading the reference
///   CSVs): per arm the fastest repetition, summed over arms.
/// * `wall_s` — host seconds for one pass over the workload's fixed work,
///   set-up included: per arm the fastest repetition, summed.
/// * `work_per_s` — geometric mean over the arms of work per host second
///   inside the measured region. Work is simulator events (`storm`,
///   `apps`, `observe`) or figure CSV rows (`figs`, whose binaries expose
///   no event count).
/// * `peak_rss_bytes` — `VmHWM` of the workload process, or the largest
///   child for `observe` and `figs`.
///
/// The three host-time bounds are the widest the driver allows. Ten runs
/// on the sandbox this was written on spread 8–20 % (interquartile range
/// over median) on them whatever the estimator, because the host switches
/// for minutes at a time between a quiet and a busy regime about 20 %
/// apart; a tighter bound would reject changes at random.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("setup_s", "s", false, Kind::Host, 0.25),
        e2e("wall_s", "s", false, Kind::Host, 0.25),
        e2e("work_per_s", "1/s", true, Kind::Host, 0.25),
        e2e("peak_rss_bytes", "bytes", false, Kind::Bytes, 0.10),
    ]
}

pub const APPS: [&str; 5] = ["stencil2d", "leanmd", "pdes", "tram_flood", "kv"];
pub const LB_STRATEGIES: [&str; 5] = ["greedy", "refine", "hybrid", "orb", "distributed"];
/// Figure binaries every `figs` run times, several passes each: the ones
/// that finish in under three seconds, so that a 20 s run sees each one
/// several times and the fastest pass lands in a quiet phase of the host.
pub const FIGS_TIMED: [&str; 6] = [
    "fig04_dvfs",
    "fig06_control_points",
    "fig13_changa",
    "fig14_lulesh",
    "fig16_cloud_stencil",
    "fig17_cloud_leanmd",
];

/// Figure binaries only the traced `figs` run executes, once each: 3–7 s
/// processes whose wall time follows the host's mood (19–38 s for the set
/// over ten runs), so they are checked and reported per layer but kept out
/// of the end-to-end metrics. `fig08_amr`, `fig11_namd`, `fig12_barneshut`
/// and `fig15_pdes` (70 s together) are not run at all.
pub const FIGS_LONG: [&str; 4] = [
    "fig05_shrink_expand",
    "fig07_interop_sort",
    "fig09_leanmd_scale",
    "fig10_leanmd_ckpt",
];

/// Every figure binary the benchmark needs built.
pub fn figs() -> impl Iterator<Item = &'static str> {
    FIGS_TIMED.into_iter().chain(FIGS_LONG)
}

/// `fig04_dvfs` → `fig04`.
pub fn fig_id(bin: &str) -> &str {
    bin.split('_').next().unwrap_or(bin)
}

struct Layer {
    out: Vec<MetricDef>,
    home: Home,
}

impl Layer {
    fn add(&mut self, name: impl Into<String>, unit: &'static str, higher: bool, kind: Kind) {
        self.out.push(MetricDef {
            name: name.into(),
            unit,
            higher,
            kind,
            home: self.home,
            bound: None,
        });
    }
    fn host_ns(&mut self, name: impl Into<String>) {
        self.add(name, "ns", false, Kind::Host);
    }
    fn count(&mut self, name: impl Into<String>) {
        self.add(name, "count", false, Kind::Count);
    }
}

/// The per-layer metrics, prefix = module. Each is measured in the traced
/// run of its home workload only (README.md has the layer → end-to-end
/// table: which end-to-end metric each should move, on which workload).
pub fn per_layer() -> Vec<MetricDef> {
    let mut l = Layer {
        out: Vec::new(),
        home: Home::Only(Workload::Storm),
    };

    // -- storm: machine and core hot path ---------------------------------
    l.host_ns("machine.events.push_pop_ns");
    l.host_ns("machine.events.tie_push_pop_ns");
    l.host_ns("machine.events.batch_pop_ns");
    l.host_ns("machine.prioqueue.push_pop_ns");
    l.count("machine.events.ops_per_event");
    l.host_ns("machine.network.torus_delay_ns");
    l.host_ns("machine.network.cloud_delay_ns");
    l.count("core.alloc.calls_per_event");
    l.count("core.arena.bypass_per_event");
    l.count("core.arena.bytes_per_event");
    l.count("core.runtime.msgs_per_event");
    l.count("core.runtime.bytes_per_msg");
    l.host_ns("core.runtime.send_host_ns");
    l.host_ns("core.runtime.setup_ns_per_chare");
    l.host_ns("core.runtime.state_digest_ns_per_chare");
    l.host_ns("core.routing.cache_off_ns_per_task");
    for p in crate::patterns::Pattern::ALL {
        l.host_ns(format!("core.storm.{}.ns_per_task", p.name()));
    }
    l.add("core.ledger.queue_est_ns", "ns", false, Kind::Computed);
    l.add("core.ledger.alloc_est_ns", "ns", false, Kind::Computed);
    l.add("core.ledger.residual_ns", "ns", false, Kind::Computed);
    l.add("storm.sim_makespan_s", "sim_s", false, Kind::Sim);
    l.count("storm.events");

    // -- apps: collectives, LB, FT, PUP, parallel engine -------------------
    l.home = Home::Only(Workload::Apps);
    l.host_ns("core.collectives.reduction_ns_per_contrib");
    l.host_ns("core.lbframework.round_host_ns");
    l.host_ns("core.ft.ckpt_disk_ns_per_byte");
    l.host_ns("core.ft.restore_disk_ns_per_byte");
    l.add("core.ft.ckpt_bytes", "bytes", false, Kind::Count);
    for a in APPS {
        l.add(
            format!("core.parallel.{a}.par2_speedup"),
            "x",
            true,
            Kind::Computed,
        );
    }
    l.add("core.parallel.went_parallel", "count", true, Kind::Count);
    l.add(
        "core.parallel.barriers_waited_per_kevent",
        "count",
        false,
        Kind::Host,
    );
    l.add(
        "core.parallel.windows_per_kevent",
        "count",
        false,
        Kind::Host,
    );
    l.add("core.parallel.counters_sane", "count", true, Kind::Host);
    for op in ["size", "pack", "unpack", "digest"] {
        l.host_ns(format!("pup.{op}_ns_per_byte"));
    }
    for s in LB_STRATEGIES {
        l.host_ns(format!("lb.{s}.assign_ns"));
        l.add(
            format!("lb.{s}.post_imbalance"),
            "ratio",
            false,
            Kind::Count,
        );
    }
    l.host_ns("tram.ns_per_item");
    l.count("tram.items_per_msg");
    l.host_ns("sort.histsort_ns_per_key");
    for a in APPS {
        l.add(format!("apps.{a}.events_per_s"), "1/s", true, Kind::Host);
        l.count(format!("apps.{a}.events"));
        l.add(
            format!("apps.{a}.sim_makespan_s"),
            "sim_s",
            false,
            Kind::Sim,
        );
    }
    l.add("apps.kv.req_per_host_s", "1/s", true, Kind::Host);
    for p in ["p50", "p99", "p999"] {
        l.add(format!("apps.kv.{p}_sim_s"), "sim_s", false, Kind::Sim);
    }
    l.count("apps.kv.lb_rounds");
    l.count("apps.kv.migrations");
    l.count("apps.kv.retries");

    // -- observe: tracer, sinks, recorder, replay tools --------------------
    l.home = Home::Only(Workload::Observe);
    l.host_ns("core.trace.summary_ns_per_task");
    l.host_ns("core.tsink.counting_ns_per_record");
    l.host_ns("core.tsink.chrome_ns_per_record");
    l.host_ns("core.tsink.csv_ns_per_record");
    l.add("core.tsink.bytes_per_record", "bytes", false, Kind::Count);
    l.host_ns("core.replay.record_ns_per_task");
    l.add(
        "core.replay.log_bytes_per_exec",
        "bytes",
        false,
        Kind::Count,
    );
    for arm in ["summary", "stream", "record", "scale_stream"] {
        l.add(
            format!("core.trace.{arm}_slowdown"),
            "x",
            false,
            Kind::Computed,
        );
    }
    l.host_ns("replay.verify_ns_per_exec");
    l.host_ns("replay.critpath_ns_per_exec");
    l.host_ns("replay.logfile_save_ns_per_byte");
    for arm in ["summary", "stream", "record", "scale"] {
        l.add(
            format!("observe.{arm}_events_per_s"),
            "1/s",
            true,
            Kind::Host,
        );
    }
    l.add(
        "observe.scale_rss_bytes_per_pe",
        "bytes",
        false,
        Kind::Bytes,
    );
    l.add("observe.sim_makespan_s", "sim_s", false, Kind::Sim);

    // -- figs: which figure moved the aggregate ----------------------------
    l.home = Home::Only(Workload::Figs);
    for f in figs() {
        let id = fig_id(f);
        l.add(format!("figs.{id}.wall_s"), "s", false, Kind::Host);
        l.add(
            format!("figs.{id}.peak_rss_bytes"),
            "bytes",
            false,
            Kind::Bytes,
        );
    }

    // -- every workload: the host it ran on and the run itself -------------
    l.home = Home::All;
    l.add("host.steal_share", "share", false, Kind::Host);
    l.add("host.load_avg", "load", false, Kind::Host);
    l.add("host.cores", "count", true, Kind::Host);
    l.add("bench.trace_overhead_share", "share", false, Kind::Computed);
    l.add("bench.reps", "count", true, Kind::Host);
    l.add("bench.failed_share", "share", false, Kind::Computed);
    l.out
}

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: i64 = 20;

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let better = |m: &MetricDef| Json::Str(if m.higher { "higher" } else { "lower" }.into());
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end()
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.clone())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                            (
                                "bound",
                                Json::Num(m.bound.expect("end-to-end metrics carry a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.clone())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `benchmark_json()` laid out one entry per line, for a readable diff.
pub fn benchmark_json_pretty() -> String {
    let j = benchmark_json();
    let mut out = String::from("{\n");
    let Json::Obj(pairs) = &j else {
        unreachable!("benchmark_json builds an object")
    };
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        match v {
            Json::Arr(items) if items.iter().any(|x| matches!(x, Json::Obj(_))) => {
                out.push_str(&format!("  \"{k}\": [\n"));
                for (n, item) in items.iter().enumerate() {
                    let c = if n + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{c}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{k}\": {}{comma}\n", other.render())),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let e = end_to_end();
        let p = per_layer();
        assert!((1..=16).contains(&e.len()));
        assert!(
            (1..=128).contains(&p.len()),
            "{} per-layer metrics",
            p.len()
        );
        assert!(e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        let mut seen = std::collections::BTreeSet::new();
        for m in e.iter().chain(&p) {
            assert!(name_ok(&m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        for m in &e {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
            assert!(
                b <= e[0].bound.unwrap(),
                "setup_s carries the largest bound"
            );
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name()) && seen.insert(w.name().into()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.why().len()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(benchmark_json_pretty().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json_pretty(),
            "regenerate with run.sh --emit-benchmark-json"
        );
        assert_eq!(Json::parse(&committed).unwrap(), benchmark_json());
    }

    #[test]
    fn fig_ids() {
        assert_eq!(fig_id("fig04_dvfs"), "fig04");
        assert_eq!(fig_id("fig16_cloud_stencil"), "fig16");
    }
}
