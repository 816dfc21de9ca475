//! Race-hunt driver: record a baseline run, re-execute it K times under
//! seeded causally-valid delivery perturbations, and report every chare
//! whose final state depended on delivery order — with the minimized
//! two-message witness.
//!
//! Hunts two targets:
//!  * the deliberately racy demo chare (must be flagged, with witness),
//!  * its commutative control and a LeanMD run (must stay clean).
//!
//! The racy baseline is saved to `results/race_hunt_baseline.rlog` as
//! `.rlog` v2 and read back through the validating loader (magic, version,
//! every frame's CRC); the process exits non-zero unless the reloaded log
//! holds the same chunk bytes and tables as the one in memory.

use charm_bench::{results_path, Figure};
use charm_core::ReplayConfig;
use charm_replay::demo::{run_commute, run_racy};
use charm_replay::{hunt, load, save, HuntOutcome, ReplayLog};
use std::path::PathBuf;

/// File name of the racy baseline log under `results/`.
const BASELINE: &str = "race_hunt_baseline.rlog";

/// Save `log` to `results/<name>`, reload it, and check the round trip.
fn persist(log: &ReplayLog, name: &str) -> Result<PathBuf, String> {
    let path = results_path(name).map_err(|e| format!("results directory: {e}"))?;
    save(log, &path).map_err(|e| format!("save {}: {e}", path.display()))?;
    let back = load(&path).map_err(|e| format!("reload {}: {e}", path.display()))?;
    if back != *log {
        return Err(format!("{} does not reload to the baseline", path.display()));
    }
    Ok(path)
}

fn hunt_leanmd(k: u64) -> (ReplayLog, HuntOutcome) {
    let record = |perturb| {
        let (_run, mut rt) =
            charm_apps::leanmd::run_with_runtime(charm_apps::leanmd::LeanMdConfig {
                steps: 5,
                record: Some(ReplayConfig::default()),
                perturb,
                ..Default::default()
            });
        let mut log = rt.take_replay_log().expect("recording was on");
        log.app = "leanmd".into();
        log
    };
    let baseline = record(None);
    let outcome = hunt(&baseline, k, 100, |p| record(Some(p)));
    (baseline, outcome)
}

fn main() {
    let k = 16;
    let mut fig = Figure::new(
        "race_hunt",
        "Schedule-perturbation race hunt (K seeded reorderings per target)",
        &["target", "runs", "flagged", "order-sensitive chares", "witness"],
    );

    let baseline = run_racy(7, None);
    let racy = hunt(&baseline, k, 100, |p| run_racy(7, Some(p)));
    fig.row(vec![
        "racy-demo".into(),
        racy.runs.to_string(),
        racy.flagging_seed
            .map(|s| format!("yes (seed {s})"))
            .unwrap_or_else(|| "no".into()),
        racy.report.order_sensitive.len().to_string(),
        racy.report
            .witness
            .as_ref()
            .map(|w| w.to_string())
            .unwrap_or_else(|| "-".into()),
    ]);
    let saved = persist(&baseline, BASELINE);
    if saved.is_ok() {
        // Relative to the repository, so the CSV is the same from any
        // checkout.
        fig.note(format!("baseline log: results/{BASELINE}"));
    }

    let commute_base = run_commute(7, None);
    let commute = hunt(&commute_base, k, 100, |p| run_commute(7, Some(p)));
    fig.row(vec![
        "commute-control".into(),
        commute.runs.to_string(),
        commute.flagging_seed.map(|s| format!("yes (seed {s})")).unwrap_or_else(|| "no".into()),
        commute.report.order_sensitive.len().to_string(),
        "-".into(),
    ]);

    let (_leanmd_base, leanmd) = hunt_leanmd(4);
    fig.row(vec![
        "leanmd (6^3 cells, 5 steps)".into(),
        leanmd.runs.to_string(),
        leanmd.flagging_seed.map(|s| format!("yes (seed {s})")).unwrap_or_else(|| "no".into()),
        leanmd.report.order_sensitive.len().to_string(),
        leanmd
            .report
            .witness
            .as_ref()
            .map(|w| w.to_string())
            .unwrap_or_else(|| "-".into()),
    ]);

    fig.note("a flag means a causally-valid delivery reordering changed a chare's final PUP state digest");
    fig.emit();
    let _ = fig.save_csv();

    // Self-check: the baseline must persist, the seeded bug must be caught,
    // the controls must be clean.
    if let Err(e) = saved {
        eprintln!("FAIL: baseline log: {e}");
        std::process::exit(1);
    }
    if racy.flagging_seed.is_none() || racy.report.witness.is_none() {
        eprintln!("FAIL: seeded racy chare was not flagged with a witness");
        std::process::exit(1);
    }
    if commute.flagging_seed.is_some() {
        eprintln!("FAIL: commutative control was flagged");
        std::process::exit(1);
    }
}
