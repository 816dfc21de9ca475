//! Fault-injection campaign driver — §III-B hardening, run against the real
//! mini-apps (LeanMD and Stencil2D) rather than the test suite's synthetic
//! ones (`crates/core/tests/ft_campaign.rs` holds the rigorous version with
//! probed checkpoint windows and sim-time budgets).
//!
//! For each app: generate seeded failure schedules of five kinds (single,
//! simultaneous, cascade, buddy-pair, near-checkpoint), run with automatic
//! periodic checkpointing, and classify the outcome as `correct`,
//! `unrecoverable`, or `INCOMPLETE` (a protocol bug — the process exits
//! non-zero).
//!
//! Every `results/ftcamp.csv` row is reproducible *from the CSV alone*: it
//! carries the app, schedule kind, per-run schedule seed, PE count, and the
//! auto-checkpoint interval (full f64 round-trip precision), which are
//! exactly the inputs of `gen_schedule` — no campaign seed or probe re-run
//! needed. The explicit failure list is also recorded as a cross-check.
//! Whole campaigns rerun with `CHARM_FT_SEED`/`CHARM_FT_RUNS`; schedules
//! depend only on (campaign seed, app, run index).

use charm_apps::leanmd::{self, LeanMdConfig};
use charm_apps::stencil::{self, StencilConfig};
use charm_bench::{pool, results_path, Figure};
use charm_core::{buddy_pe, ReplayConfig, SimTime};
use charm_machine::presets;
use charm_replay::ReplayLog;

/// Stencil runs on single-PE cloud nodes; LeanMD on a 2-node BG/Q (16
/// PEs/node), where one injected failure expands to a whole node and the
/// buddy copies on the surviving node carry the restart.
const STENCIL_PES: usize = 8;
const LEANMD_PES: usize = 32;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

const KINDS: [&str; 5] = ["single", "simultaneous", "cascade", "buddy-pair", "near-ckpt"];

fn schedule_seed(campaign_seed: u64, app: &str, k: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ campaign_seed;
    for b in app.bytes().chain(k.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `t_run`: failure-free duration; `interval`: the auto-checkpoint period
/// (near-ckpt schedules aim just after a multiple of it, where the
/// replication window sits).
fn gen_schedule(
    kind: &str,
    seed: u64,
    t_run: f64,
    interval: f64,
    num_pes: usize,
) -> Vec<(SimTime, usize)> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    match kind {
        "single" => {
            let t = rng.range(0.05, 0.85) * t_run;
            out.push((SimTime::from_secs_f64(t), rng.below(num_pes as u64) as usize));
        }
        "simultaneous" => {
            let t = SimTime::from_secs_f64(rng.range(0.05, 0.85) * t_run);
            let n = 2 + rng.below(2) as usize;
            let mut pes: Vec<usize> = Vec::new();
            while pes.len() < n {
                let pe = rng.below(num_pes as u64) as usize;
                if !pes.contains(&pe) {
                    pes.push(pe);
                }
            }
            out.extend(pes.into_iter().map(|pe| (t, pe)));
        }
        "cascade" => {
            let mut t = rng.range(0.05, 0.6) * t_run;
            for _ in 0..3 {
                out.push((SimTime::from_secs_f64(t), rng.below(num_pes as u64) as usize));
                t += rng.range(0.001, 0.08) * t_run;
            }
        }
        "buddy-pair" => {
            let t = SimTime::from_secs_f64(rng.range(0.05, 0.85) * t_run);
            let pe = rng.below(num_pes as u64) as usize;
            out.push((t, pe));
            out.push((t, buddy_pe(pe, num_pes)));
        }
        _ => {
            // near-ckpt: just after a random checkpoint tick, inside or
            // near the replication window.
            let ticks = ((t_run / interval) as u64).max(1);
            let t = (1 + rng.below(ticks)) as f64 * interval + rng.range(0.0, 0.2) * interval;
            out.push((SimTime::from_secs_f64(t), rng.below(num_pes as u64) as usize));
        }
    }
    out
}

struct Outcome {
    label: &'static str,
    detail: String,
}

fn classify(steps_done: usize, steps_want: u64, unrecoverable: Option<String>) -> Outcome {
    match unrecoverable {
        Some(u) => Outcome { label: "unrecoverable", detail: u },
        None if steps_done >= steps_want as usize => {
            Outcome { label: "correct", detail: format!("{steps_done} steps") }
        }
        None => Outcome {
            label: "INCOMPLETE",
            detail: format!("{steps_done}/{steps_want} steps, no Unrecoverable"),
        },
    }
}

fn run_leanmd(
    auto_ckpt: Option<SimTime>,
    failures: Vec<(SimTime, usize)>,
    record: bool,
) -> (usize, f64, Option<String>, Option<ReplayLog>) {
    let (run, mut rt) = leanmd::run_with_runtime(LeanMdConfig {
        machine: presets::bgq(LEANMD_PES),
        cells_per_dim: 3,
        atoms_per_cell: 40,
        steps: 8,
        auto_ckpt,
        failures,
        record: record.then(ReplayConfig::default),
        ..LeanMdConfig::default()
    });
    let log = rt.take_replay_log();
    (run.step_times.len(), run.total_s, run.unrecoverable, log)
}

fn run_stencil(
    auto_ckpt: Option<SimTime>,
    failures: Vec<(SimTime, usize)>,
    record: bool,
) -> (usize, f64, Option<String>, Option<ReplayLog>) {
    let mut c = StencilConfig::cloud_4k(presets::cloud(STENCIL_PES), 2);
    c.grid = 256; // keep checkpoint replication short relative to a step
    c.steps = 10;
    c.auto_ckpt = auto_ckpt;
    c.failures = failures;
    c.record = record.then(ReplayConfig::default);
    let (run, mut rt) = stencil::run_with_runtime(c);
    let log = rt.take_replay_log();
    (run.step_times.len(), run.total_s, run.unrecoverable, log)
}

fn main() {
    let campaign_seed: u64 = std::env::var("CHARM_FT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let runs_per_app: usize = std::env::var("CHARM_FT_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    // --record: every failure run also writes a replayable log next to the
    // CSV, so a flagged row can be re-examined (verify/whatif/race-hunt)
    // without regenerating the schedule.
    let record = std::env::args().any(|a| a == "--record");

    let mut fig = Figure::new(
        "ftcamp",
        "fault-injection campaign: LeanMD + Stencil2D under seeded failure schedules",
        &["app", "kind", "seed", "pes", "ckpt_s", "failures", "outcome", "detail", "replay_log"],
    );
    fig.note(format!(
        "campaign seed {campaign_seed}, {runs_per_app} runs/app; \
         leanmd on bgq x{LEANMD_PES} (16 PEs/node), stencil on cloud x{STENCIL_PES}"
    ));

    // (app, PEs, steps): first wave, a failure-free probe of each app for
    // its duration; checkpoints are then taken every fifth of it.
    let apps = [("leanmd", LEANMD_PES, 8u64), ("stencil", STENCIL_PES, 10u64)];
    let run_app = |app, auto, failures, record| match app {
        "leanmd" => run_leanmd(auto, failures, record),
        _ => run_stencil(auto, failures, record),
    };
    let probes = pool::map(&apps, |&(app, _, steps_want)| {
        let probe = run_app(app, None, Vec::new(), false);
        assert!(probe.2.is_none() && probe.0 >= steps_want as usize);
        probe.1
    });
    // Second wave: every schedule of both apps, in CSV row order.
    let schedule = |a: usize, k: usize| {
        let ((app, pes, _), interval) = (apps[a], probes[a] / 5.0);
        let (kind, seed) = (KINDS[k % KINDS.len()], schedule_seed(campaign_seed, app, k as u64));
        (kind, seed, interval, gen_schedule(kind, seed, probes[a], interval, pes))
    };
    let runs = |a| (0..runs_per_app).map(move |k| (a, k));
    let points: Vec<_> = (0..apps.len()).flat_map(runs).collect();
    let outcomes = pool::map(&points, |&(a, k)| {
        let (app, (_, _, interval, schedule)) = (apps[a].0, schedule(a, k));
        let auto = SimTime::from_secs_f64(interval);
        let (steps_done, _, unrec, log) = run_app(app, Some(auto), schedule, record);
        let log_cell = match log {
            Some(mut l) => {
                l.app = app.to_string();
                let name = format!("ftcamp_{app}_{k:02}.rlog");
                match results_path(&name).and_then(|p| charm_replay::save(&l, &p)) {
                    Ok(()) => format!("results/{name}"),
                    Err(e) => format!("save failed: {e}"),
                }
            }
            None => "-".to_string(),
        };
        (steps_done, unrec, log_cell)
    });

    let mut incomplete = 0usize;
    let mut outcomes = outcomes.into_iter();
    for (a, &(app, pes, steps_want)) in apps.iter().enumerate() {
        let mut tally = [0usize; 3]; // correct, unrecoverable, incomplete
        for k in 0..runs_per_app {
            let (kind, seed, interval, schedule) = schedule(a, k);
            let (steps_done, unrec, log_cell) = outcomes.next().expect("one outcome per schedule");
            let o = classify(steps_done, steps_want, unrec);
            match o.label {
                "correct" => tally[0] += 1,
                "unrecoverable" => tally[1] += 1,
                _ => {
                    tally[2] += 1;
                    incomplete += 1;
                }
            }
            let fails: Vec<String> = schedule
                .iter()
                .map(|(t, pe)| format!("{:.4}s@pe{pe}", t.as_secs_f64()))
                .collect();
            fig.row(vec![
                app.to_string(),
                kind.to_string(),
                format!("{seed:#x}"),
                pes.to_string(),
                // f64 Display round-trips, so gen_schedule's inputs are
                // recoverable exactly (t_free = 5 * ckpt_s by construction).
                format!("{interval}"),
                fails.join("+"),
                o.label.to_string(),
                o.detail,
                log_cell,
            ]);
        }
        fig.note(format!(
            "{app}: {} correct, {} unrecoverable, {} incomplete",
            tally[0], tally[1], tally[2]
        ));
    }

    fig.emit();
    if incomplete > 0 {
        eprintln!("{incomplete} run(s) neither completed nor surfaced Unrecoverable");
        std::process::exit(1);
    }
}
