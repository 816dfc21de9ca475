//! `figs`: the paper-figure binaries at demo scale, run as executables
//! with their working directory inside the benchmark's scratch space (so
//! the tracked `results/` is never overwritten), every regenerated CSV
//! compared byte for byte with the committed one. Six figures that finish
//! in under three seconds are timed in every run, several passes each;
//! four that take 3–7 s run once, in the traced run only, for their CSV
//! checks and per-figure numbers.
//!
//! Why: this is the product — FT, DVFS, shrink/expand, sort/AMPI interop,
//! ChaNGa, LULESH, the cloud runs — and the only workload where app
//! compute and RTS services dominate the engine. The committed
//! `results/*.csv` are the reference; the model itself is not validated
//! against hardware, so no accuracy figure is given.

use crate::harness::{fresh_dir, ratio, run_child, span, timed, Args, ArmStat, Ledger, Outcome};
use crate::metrics::{self, fig_id, FIGS_LONG, FIGS_TIMED};
use crate::stats::{floor, summarize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Figures cheap enough to finish inside `--smoke`.
const SMOKE_FIGS: [&str; 5] = [
    "fig04_dvfs",
    "fig06_control_points",
    "fig13_changa",
    "fig14_lulesh",
    "fig16_cloud_stencil",
];

/// Within a pass a figure runs until it has used this much time, at most
/// `MAX_RUNS` times.
const MIN_SECONDS_PER_FIG: f64 = 0.3;
const MAX_RUNS: usize = 20;

/// One execution of a figure binary.
struct FigRun {
    prep_s: f64,
    wall_s: f64,
    peak_rss: u64,
    /// Data rows over all CSVs the binary wrote.
    rows: u64,
}

/// The committed CSVs of figure `id` (`fig06` → `fig06.csv`,
/// `fig06_sweep.csv`): file name → bytes.
fn load_reference(root: &Path, id: &str) -> std::io::Result<BTreeMap<String, Vec<u8>>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("results"))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(id) && name.ends_with(".csv") {
            out.insert(name, std::fs::read(entry.path())?);
        }
    }
    Ok(out)
}

fn run_fig(args: &Args, l: &mut Ledger, bin: &str, scratch: &Path) -> Option<FigRun> {
    // Set-up: a fresh working directory and the reference CSVs in memory.
    let id = fig_id(bin);
    let cwd = scratch.join(bin);
    let (prepared, prep_s) =
        timed(|| fresh_dir(&cwd).and_then(|()| load_reference(&args.root, id)));
    l.check(prepared.is_ok(), || {
        format!("{bin}: cannot prepare {} or read results/", cwd.display())
    });
    let reference = prepared.ok()?;

    let mut cmd = std::process::Command::new(args.bin_dir.join(bin));
    // No CARGO_MANIFEST_DIR: the binary then writes `results/` under its
    // working directory. TMPDIR keeps any temp file inside the checkout.
    cmd.current_dir(&cwd)
        .env_remove("CARGO_MANIFEST_DIR")
        .env_remove("CHARM_FIG_SCALE")
        .env("TMPDIR", &cwd);
    let child = span("figure subprocess", || run_child(cmd, &cwd));
    l.check(child.ok, || {
        format!("{bin}: exited with an error (or could not be started)")
    });

    let mut rows = 0u64;
    let mut written = 0;
    if let Ok(dir) = std::fs::read_dir(cwd.join("results")) {
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with(id) || !name.ends_with(".csv") {
                continue;
            }
            written += 1;
            let got = std::fs::read(entry.path()).unwrap_or_default();
            rows += got
                .split(|&b| b == b'\n')
                .skip(1)
                .filter(|line| !line.is_empty() && line[0] != b'#')
                .count() as u64;
            l.check(reference.get(&name) == Some(&got), || {
                format!("{bin}: {name} is not byte-identical to results/{name}")
            });
        }
    }
    l.check(written > 0 && written == reference.len(), || {
        format!(
            "{bin}: wrote {written} {id}*.csv, results/ holds {}",
            reference.len()
        )
    });
    let _ = std::fs::remove_dir_all(&cwd);
    child.ok.then_some(FigRun {
        prep_s,
        wall_s: child.wall_s,
        peak_rss: child.peak_rss_bytes,
        rows,
    })
}

pub fn run(args: &Args, l: &mut Ledger) -> Outcome {
    let start = Instant::now();
    let scratch = args.out_dir().join(format!("figs-{}", std::process::id()));
    l.check(fresh_dir(&scratch).is_ok(), || {
        format!("cannot create {}", scratch.display())
    });
    let timed: &[&str] = if args.smoke { &SMOKE_FIGS } else { &FIGS_TIMED };
    // The traced run spends about 20 s on the long figures.
    let budget = if args.trace {
        args.seconds * 0.3
    } else {
        args.seconds
    };
    let min_passes = if args.smoke { 1 } else { 2 };

    // Passes over the timed figures until the next one would overrun.
    let mut runs: BTreeMap<&str, Vec<FigRun>> = BTreeMap::new();
    let (mut passes, mut pass_s) = (0, 0.0);
    while passes < min_passes || start.elapsed().as_secs_f64() + pass_s < budget {
        let t = Instant::now();
        for &bin in timed {
            // A figure that finishes quickly runs again within the pass, so
            // a 3 ms binary is not judged on one process start.
            let (mut spent, mut n) = (0.0, 0);
            while n == 0 || (!args.smoke && n < MAX_RUNS && spent < MIN_SECONDS_PER_FIG) {
                let Some(r) = run_fig(args, l, bin, &scratch) else {
                    break;
                };
                spent += r.wall_s;
                n += 1;
                runs.entry(bin).or_default().push(r);
            }
        }
        passes += 1;
        pass_s = t.elapsed().as_secs_f64();
    }
    if args.trace && !args.smoke {
        for bin in FIGS_LONG {
            if let Some(r) = run_fig(args, l, bin, &scratch) {
                runs.entry(bin).or_default().push(r);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut arms = Vec::new();
    let mut peak = 0u64;
    for (&bin, r) in &runs {
        let walls: Vec<f64> = r.iter().map(|x| x.wall_s).collect();
        let wall = floor(&walls);
        let rss = r.iter().map(|x| x.peak_rss).max().unwrap_or(0);
        let rows = r.first().map_or(0, |x| x.rows);
        l.reps += r.len() as u64;
        println!(
            "  {:<22} {:>4} rows  {:>5.1} MB  wall {}",
            bin,
            rows,
            rss as f64 / 1e6,
            summarize(&walls)
        );
        if args.trace {
            let id = fig_id(bin);
            l.set(format!("figs.{id}.wall_s"), wall);
            l.set(format!("figs.{id}.peak_rss_bytes"), rss as f64);
        }
        if timed.contains(&bin) {
            peak = peak.max(rss);
            let prep = floor(&r.iter().map(|x| x.prep_s).collect::<Vec<_>>());
            arms.push(ArmStat {
                setup_s: prep,
                total_s: prep + wall,
                work_per_s: ratio(rows as f64, wall),
            });
        }
    }
    l.check(arms.len() == timed.len(), || {
        "a timed figure has no successful run".into()
    });
    if args.trace {
        if args.smoke {
            // Smoke runs a subset; the figures it skips read 0.
            for bin in metrics::figs().filter(|b| !runs.contains_key(b)) {
                l.set(format!("figs.{}.wall_s", fig_id(bin)), 0.0);
                l.set(format!("figs.{}.peak_rss_bytes", fig_id(bin)), 0.0);
            }
        }
        // Spans wrap whole subprocesses here; their cost is not measurable
        // against a figure's run time.
        l.set("bench.trace_overhead_share", 0.0);
    }
    Outcome {
        arms,
        child_peak_rss: peak,
    }
}
