//! What every workload shares: the check ledger, the time-budgeted
//! repetition loop, benchmark-side spans, the counting allocator, host
//! noise counters, and child processes with their resource usage.

use crate::json::Json;
use crate::stats;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// counting allocator

/// Counts this thread's calls into the global allocator, so
/// `core.alloc.calls_per_event` is measured from outside the runtime. The
/// counter is a const-initialised thread-local `Cell` (no lazy init, no
/// destructor), which is what makes it usable inside an allocator; the
/// sequential engine runs on the calling thread, so its count is complete.
pub struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump that neither allocates nor unwinds.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (alloc, alloc_zeroed, realloc) this thread has made.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// command line

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory holding the release figure binaries.
    pub bin_dir: PathBuf,
    /// Root of the checkout (`results/` and `BENCHMARK.json` live there).
    pub root: PathBuf,
}

impl Args {
    /// Scratch space inside the checkout; the benchmark writes nowhere else.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("benchmark/out")
    }

    /// Fewest timed passes a workload accepts: `full` in an untraced run,
    /// half of it in a traced one (which also runs probes), two in smoke.
    pub fn min_reps(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else if self.trace {
            full / 2
        } else {
            full
        }
    }
}

/// splitmix64: one well-mixed value per (seed, stream) pair, so every
/// seeded config gets its own stream from the single `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// spans

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Default)]
struct SpanLog {
    on: bool,
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static SPANS: RefCell<SpanLog> = RefCell::new(SpanLog::default());
}

/// Turn span recording on or off (off: `span` only runs its closure).
pub fn spans_enable(on: bool) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.on = on;
        if s.epoch.is_none() {
            s.epoch = Some(Instant::now());
        }
    });
}

/// Run `f` inside a span named after the layer call it wraps. Spans are
/// kept in memory and written out when the workload ends.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            return None;
        }
        let now = s.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64);
        let parent = s.open.last().copied();
        s.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        let idx = s.spans.len() - 1;
        s.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let now = s.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64);
            s.spans[idx].end_ns = now;
            // A panic inside `f` skips this; `spans_take` closes leftovers.
            while let Some(top) = s.open.pop() {
                if top == idx {
                    break;
                }
            }
        });
    }
    out
}

/// Take every span recorded so far.
pub fn spans_take() -> Vec<Span> {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.open.clear();
        std::mem::take(&mut s.spans)
    })
}

/// Self time per span name: a span's duration minus the part its child
/// spans cover. Returns `(name, calls, total_ns, self_ns)` sorted by self
/// time, largest first.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// The span file: one object per span with name, start, end, parent and
/// the workload id every span of the run shares.
pub fn spans_json(workload: &str, spans: &[Span]) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("unit", Json::Str("ns since the workload started".into())),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Json::obj(vec![
                            ("id", Json::Int(i as i64)),
                            ("name", Json::Str(s.name.into())),
                            ("start", Json::Int(s.start_ns as i64)),
                            ("end", Json::Int(s.end_ns as i64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                            ("workload", Json::Str(workload.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// the ledger of checks and metrics

/// Collects a workload's metrics and its output checks. A failed check is
/// a number in the result (`failed`), never an abort.
#[derive(Default)]
pub struct Ledger {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Timed repetitions run, over all arms.
    pub reps: u64,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Record a metric; a value that is not a finite number is a failed
    /// check and reads 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.check(false, || format!("metric {name} is not finite ({value})"));
            self.metrics.insert(name, 0.0);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// repetitions

/// One repetition of an arm: a runtime built, run and digested.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds before the measured region (build, inserts, injection).
    pub setup_s: f64,
    /// Host seconds inside the measured region (`Runtime::run*`).
    pub run_s: f64,
    /// Host seconds for the whole repetition.
    pub total_s: f64,
    pub events: u64,
    /// Entry methods executed — the "tasks" of ns/task.
    pub tasks: u64,
    pub messages: u64,
    pub bytes: u64,
    pub sim_end_s: f64,
    pub digest: u64,
    pub queue_ops: u64,
    pub arena_bytes: u64,
    pub alloc_bypass: u64,
    /// Global-allocator calls during the measured region.
    pub alloc_calls: u64,
    /// The program's own completion checks failed (steps run, requests
    /// acked, items received); `run_arms` counts it.
    pub incomplete: bool,
    /// Arm-specific extras (sink records, kv percentiles, …).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Fill the counters a `RunSummary` carries.
    pub fn absorb(&mut self, s: &charm_core::RunSummary) {
        self.events = s.events;
        self.tasks = s.entries;
        self.messages = s.messages;
        self.bytes = s.bytes;
        self.sim_end_s = s.end_time.as_secs_f64();
        self.queue_ops = s.queue_ops;
        self.arena_bytes = s.arena_bytes;
        self.alloc_bypass = s.alloc_bypass;
    }
}

/// The timed repetitions of one arm plus what they agree on.
#[derive(Debug, Clone, Default)]
pub struct Arm {
    pub name: String,
    /// The warm-up repetition: untimed reference for digests and counts.
    pub first: Rep,
    pub reps: Vec<Rep>,
}

impl Arm {
    fn col(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }
    /// Host seconds of the measured region (fastest repetition, see
    /// `stats::floor`).
    pub fn run_s(&self) -> f64 {
        stats::floor(&self.col(|r| r.run_s))
    }
    pub fn setup_s(&self) -> f64 {
        stats::floor(&self.col(|r| r.setup_s))
    }
    pub fn total_s(&self) -> f64 {
        stats::floor(&self.col(|r| r.total_s))
    }
    /// Simulator events per host second of the measured region.
    pub fn events_per_s(&self) -> f64 {
        ratio(self.first.events as f64, self.run_s())
    }
    pub fn ns_per_task(&self) -> f64 {
        ratio(self.run_s() * 1e9, self.first.tasks as f64)
    }
    pub fn run_summary(&self) -> stats::Summary {
        stats::summarize(&self.col(|r| r.run_s))
    }
    /// The arm's share of the end-to-end metrics, work counted in events.
    pub fn stat(&self) -> ArmStat {
        ArmStat {
            setup_s: self.setup_s(),
            total_s: self.total_s(),
            work_per_s: self.events_per_s(),
        }
    }
}

/// What one arm contributes to the workload's end-to-end metrics.
#[derive(Debug, Clone)]
pub struct ArmStat {
    /// Host seconds before the measured region (fastest repetition).
    pub setup_s: f64,
    /// Host seconds for a whole repetition, set-up included (fastest).
    pub total_s: f64,
    /// Work units per host second of the measured region.
    pub work_per_s: f64,
}

/// What a workload hands back for the end-to-end metrics.
pub struct Outcome {
    pub arms: Vec<ArmStat>,
    /// Largest peak RSS of any child process (0: the workload had none).
    pub child_peak_rss: u64,
}

/// `a / b`, or 0 when `b` is 0 (the caller's check on `b` reports why).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a fold of per-chare state digests, order-sensitive.
pub fn fold_digest(pairs: &[(charm_core::ObjId, u64)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (obj, d) in pairs {
        for v in [obj.ix.stable_hash(), *d] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

/// One arm of a workload: a name and the closure that runs a repetition.
pub struct ArmSpec<'a> {
    pub name: &'a str,
    pub rep: Box<dyn FnMut() -> Rep + 'a>,
}

impl<'a> ArmSpec<'a> {
    pub fn new(name: &'a str, rep: impl FnMut() -> Rep + 'a) -> Self {
        ArmSpec {
            name,
            rep: Box::new(rep),
        }
    }
}

/// Run a repetition with panics caught and counted, spans on or off.
fn guarded(ledger: &mut Ledger, spec: &mut ArmSpec<'_>, spans: bool) -> Option<Rep> {
    spans_enable(spans);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        span("repetition", &mut spec.rep)
    }));
    spans_enable(false);
    ledger.check(r.is_ok(), || format!("{}: repetition panicked", spec.name));
    r.ok()
}

/// Run a workload's arms round-robin: one warm-up pass, then timed passes
/// (one repetition of every arm each) until `budget` is spent and at
/// least `min_reps` passes are in. Taking turns gives every arm the same
/// number of samples whatever a repetition costs, and spreads a burst of
/// host noise over all of them. Every repetition must reproduce its arm's
/// warm-up digest, event count and simulated end time; a panic inside one
/// is a failed check, not a crash, and retires that arm. In a traced run
/// spans are recorded on every other pass, so the same process yields the
/// traced and the untraced timing.
pub fn run_arms(
    ledger: &mut Ledger,
    budget: Duration,
    min_reps: usize,
    traced: bool,
    mut specs: Vec<ArmSpec<'_>>,
) -> Vec<Arm> {
    let start = Instant::now();
    let mut arms: Vec<Arm> = specs
        .iter()
        .map(|s| Arm {
            name: s.name.into(),
            ..Arm::default()
        })
        .collect();
    let mut alive = vec![true; specs.len()];
    for (i, spec) in specs.iter_mut().enumerate() {
        match guarded(ledger, spec, false) {
            Some(first) => {
                ledger.check(first.events > 0 && first.tasks > 0, || {
                    format!("{}: ran no events", spec.name)
                });
                arms[i].first = first;
            }
            None => alive[i] = false,
        }
    }
    let mut pass = 0usize;
    let mut pass_s = 0.0;
    // Stop when the next pass would overrun the budget.
    while pass < min_reps || start.elapsed().as_secs_f64() + pass_s < budget.as_secs_f64() {
        let t = Instant::now();
        for (i, spec) in specs.iter_mut().enumerate() {
            if !alive[i] {
                continue;
            }
            let Some(r) = guarded(ledger, spec, traced && pass.is_multiple_of(2)) else {
                alive[i] = false;
                continue;
            };
            let (name, f) = (spec.name, &arms[i].first);
            ledger.check(r.digest == f.digest, || {
                format!(
                    "{name}: same-seed digest diverged across repetitions ({:#x} vs {:#x})",
                    r.digest, f.digest
                )
            });
            ledger.check(r.events == f.events && r.tasks == f.tasks, || {
                format!(
                    "{name}: same-seed event/task counts diverged ({}/{} vs {}/{})",
                    r.events, r.tasks, f.events, f.tasks
                )
            });
            ledger.check(!r.incomplete, || {
                format!("{name}: the program's own completion checks failed")
            });
            ledger.check(r.sim_end_s == f.sim_end_s, || {
                format!(
                    "{name}: simulated end time diverged ({} vs {})",
                    r.sim_end_s, f.sim_end_s
                )
            });
            arms[i].reps.push(r);
        }
        pass += 1;
        pass_s = t.elapsed().as_secs_f64();
        if !alive.contains(&true) {
            break;
        }
    }
    ledger.reps += arms.iter().map(|a| a.reps.len() as u64).sum::<u64>();
    arms
}

/// `run_arms` for a single arm.
pub fn run_arm(
    ledger: &mut Ledger,
    name: &str,
    budget: Duration,
    min_reps: usize,
    rep: impl FnMut() -> Rep,
) -> Arm {
    run_arms(
        ledger,
        budget,
        min_reps,
        false,
        vec![ArmSpec::new(name, rep)],
    )
    .pop()
    .expect("one arm in, one arm out")
}

/// In a traced arm even repetitions carried spans and odd ones did not:
/// the share by which spans slowed the traced ones.
pub fn trace_overhead<'a>(arms: impl IntoIterator<Item = &'a Arm>) -> f64 {
    let (mut on, mut off) = (0.0, 0.0);
    for a in arms {
        let t: Vec<f64> = a.reps.iter().step_by(2).map(|r| r.total_s).collect();
        let u: Vec<f64> = a
            .reps
            .iter()
            .skip(1)
            .step_by(2)
            .map(|r| r.total_s)
            .collect();
        if t.is_empty() || u.is_empty() {
            continue;
        }
        on += stats::floor(&t);
        off += stats::floor(&u);
    }
    if off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}

/// Call `f` repeatedly for about `budget` (at least `min` times) and
/// collect the seconds each call reports for the part it timed itself.
pub fn sample_secs(budget: Duration, min: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f());
    }
    out
}

/// `sample_secs` for a call that is timed whole.
pub fn time_samples(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    sample_secs(budget, min, || timed(&mut f).1)
}

/// Run `f` and return its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// host noise

/// `/proc/stat` totals: (all jiffies, steal jiffies).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *f.get(7)?;
    Some((f.iter().take(8).sum(), steal))
}

/// Samples the host around a workload: steal share, load, cores.
pub struct HostProbe {
    at_start: Option<(u64, u64)>,
}

impl HostProbe {
    pub fn start() -> Self {
        HostProbe {
            at_start: cpu_jiffies(),
        }
    }

    /// Record `host.*` into the ledger. Where procfs is missing the
    /// metrics read 0 and no claim about noise can be made.
    pub fn finish(&self, ledger: &mut Ledger) {
        let steal = match (self.at_start, cpu_jiffies()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let load = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| {
                s.split_whitespace()
                    .next()
                    .and_then(|x| x.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        ledger.set("host.steal_share", steal);
        ledger.set("host.load_avg", load);
        ledger.set("host.cores", cores as f64);
    }
}

// ---------------------------------------------------------------------------
// child processes

/// Linux `struct rusage` (x86-64 and aarch64 share this layout: two
/// `timeval`s of two longs, then fourteen longs).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What a finished child cost.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    /// Exited with code 0.
    pub ok: bool,
    pub wall_s: f64,
    /// The child's `VmHWM` as the kernel accounted it (`ru_maxrss`).
    pub peak_rss_bytes: u64,
    pub stdout: String,
}

/// Run `cmd` to completion with stdout captured to a file under `scratch`,
/// and reap it with `wait4` so its peak RSS comes back with it — the
/// figure binaries do not report their own.
pub fn run_child(mut cmd: std::process::Command, scratch: &Path) -> ChildRun {
    let out_path = scratch.join("child.stdout");
    let Ok(out_file) = std::fs::File::create(&out_path) else {
        return ChildRun::default();
    };
    cmd.stdin(std::process::Stdio::null())
        .stdout(out_file)
        .stderr(std::process::Stdio::null());
    let start = Instant::now();
    let Ok(child) = cmd.spawn() else {
        return ChildRun::default();
    };
    let mut status: i32 = 0;
    let mut ru = RUsage::default();
    // SAFETY: `status` and `ru` are valid for writes for the whole call and
    // `RUsage` has the kernel's layout; the pid is a child this process
    // just spawned and has not waited for. `child` is not waited on again:
    // dropping a `Child` neither waits nor kills.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    drop(child);
    // WIFEXITED && WEXITSTATUS == 0
    let ok = reaped > 0 && (status & 0x7f) == 0 && ((status >> 8) & 0xff) == 0;
    ChildRun {
        ok,
        wall_s,
        peak_rss_bytes: (ru.maxrss_kib.max(0) as u64) * 1024,
        stdout: std::fs::read_to_string(&out_path).unwrap_or_default(),
    }
}

/// A fresh, empty directory under the benchmark's `out/`.
pub fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "repetition",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "insert",
                start_ns: 0,
                end_ns: 10,
                parent: Some(0),
            },
            Span {
                name: "Runtime::run",
                start_ns: 10,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "repetition",
                start_ns: 100,
                end_ns: 150,
                parent: None,
            },
        ];
        let rows = self_times(&spans);
        assert_eq!(rows[0], ("Runtime::run", 1, 80, 80));
        assert_eq!(rows[1], ("repetition", 2, 150, 60));
        assert_eq!(rows[2], ("insert", 1, 10, 10));
    }

    #[test]
    fn spans_nest_and_can_be_switched_off() {
        spans_enable(true);
        let v = span("outer", || span("inner", || 7));
        spans_enable(false);
        span("ignored", || ());
        let spans = spans_take();
        assert_eq!(v, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let j = spans_json("storm", &spans).render();
        assert!(
            j.contains(r#""name": "inner""#) && j.contains(r#""parent": 0"#),
            "{j}"
        );
    }

    #[test]
    fn ledger_counts_failures_instead_of_aborting() {
        let mut l = Ledger::default();
        l.check(true, || unreachable!());
        l.check(false, || "boom".into());
        l.set("x", f64::NAN);
        l.set("y", 2.0);
        assert_eq!((l.attempted, l.failed), (3, 2));
        assert_eq!((l.get("x"), l.get("y"), l.get("absent")), (0.0, 2.0, 0.0));
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 3), mix(5, 3));
    }

    #[test]
    fn allocator_counts_this_thread() {
        let before = alloc_calls();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(alloc_calls() > before);
        drop(v);
    }
}
