//! Run every figure-regeneration binary (each also writes its CSV under
//! `results/`), as many at a time as the host has cores and memory for
//! (`charm_bench::pool`); stdout is the figures' stdout in the order below.
//! Ends with where the time and memory went, on stderr. Set
//! `CHARM_FIG_SCALE=full` for larger PE counts.

use charm_bench::pool::{Pool, Task};
use charm_bench::{Figure, Scale};
use std::process::Command;
use std::time::Instant;

/// (binary, [demo, full] wall seconds, [demo, full] peak RSS in MB): what
/// orders and admits the figures. Demo values were measured on the 2-core
/// benchmark host; full-scale ones only where ROADMAP's table has them
/// (0 = never recorded, the demo value stands in).
const FIGS: [(&str, [f64; 2], [f64; 2]); 14] = [
    ("fig04_dvfs", [0.5, 0.0], [5.0, 0.0]),
    ("fig05_shrink_expand", [6.1, 0.0], [21.0, 0.0]),
    ("fig06_control_points", [0.01, 0.0], [3.0, 0.0]),
    ("fig07_interop_sort", [3.5, 0.0], [287.0, 0.0]),
    ("fig08_amr", [13.8, 0.0], [72.0, 0.0]),
    ("fig09_leanmd_scale", [4.2, 60.0], [30.0, 0.0]),
    ("fig10_leanmd_ckpt", [5.3, 262.0], [41.0, 0.0]),
    ("fig11_namd", [30.7, 0.0], [107.0, 0.0]),
    ("fig12_barneshut", [14.6, 0.0], [35.0, 0.0]),
    ("fig13_changa", [0.1, 135.0], [10.0, 1536.0]),
    ("fig14_lulesh", [0.05, 8.3], [5.0, 85.0]),
    ("fig15_pdes", [21.6, 0.0], [95.0, 0.0]),
    ("fig16_cloud_stencil", [0.1, 0.0], [7.0, 0.0]),
    ("fig17_cloud_leanmd", [2.2, 0.0], [17.0, 0.0]),
];

fn main() {
    let full = Scale::from_env() == Scale::Full;
    let exe_dir = std::env::current_exe()
        .expect("self path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let hint = |[demo, at_full]: [f64; 2]| if full && at_full > 0.0 { at_full } else { demo };
    let tasks = FIGS.iter().map(|&(bin, secs, rss)| Task {
        command: Command::new(exe_dir.join(bin)),
        secs: hint(secs),
        rss: (hint(rss) * 1024.0 * 1024.0) as u64,
    });
    let pool = Pool::host();
    let t0 = Instant::now();
    let done = pool.commands(tasks.collect());
    let wall = t0.elapsed().as_secs_f64();

    let mut table = Figure::new(
        "all_figs",
        "where the time and memory went",
        &["figure", "wall_s", "peak_rss_mb", "started_s", "worker"],
    );
    let mut failed = Vec::new();
    for (&(bin, ..), d) in FIGS.iter().zip(&done) {
        table.row(vec![
            bin.to_string(),
            format!("{:.2}", d.wall_s),
            d.peak_rss
                .map_or("?".into(), |b| format!("{:.1}", b as f64 / 1e6)),
            format!("{:.2}", d.started_s),
            d.worker.to_string(),
        ]);
        if !d.ok {
            eprintln!("!!! {bin} failed: {}", d.ended);
            failed.push(bin);
        }
    }
    let busy: f64 = done.iter().map(|d| d.wall_s).sum();
    let longest = FIGS
        .iter()
        .zip(&done)
        .max_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s));
    let (&(bin, ..), d) = longest.expect("fourteen figures");
    table.note(format!(
        "critical path: {bin}, {:.1} s of {wall:.1} s",
        d.wall_s
    ));
    table.note(format!(
        "pool utilization: {:.0}% ({busy:.1} busy worker-seconds / {} workers x {wall:.1} s)",
        100.0 * busy / (pool.workers as f64 * wall),
        pool.workers
    ));
    eprint!("{}", table.render());
    if failed.is_empty() {
        eprintln!("all figures regenerated; CSVs in results/");
    } else {
        eprintln!("failed figures: {failed:?}");
        std::process::exit(1);
    }
}
