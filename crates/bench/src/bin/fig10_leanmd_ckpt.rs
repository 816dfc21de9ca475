//! Fig. 10 — LeanMD double in-memory checkpoint and restart times on BG/Q
//! for two system sizes (paper: 1.6 M and 2.8 M atoms, 2K→32K PEs).
//!
//! Expected shape: checkpoint time *decreases* with PE count (per-PE state
//! shrinks: 43 ms → 33 ms for 2.8 M atoms) and is larger for the larger
//! system; restart time *increases* slightly with PE count (66 ms → 139 ms)
//! because the recovery protocol's barriers grow with log P.

use charm_apps::leanmd::{run_with_runtime, LeanMdConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_core::SimTime;
use charm_machine::presets;

fn measure(pes: usize, cells: usize, atoms: usize) -> (f64, f64) {
    // Probe to find a good failure time (strictly after the checkpoint).
    let probe = run_with_runtime(LeanMdConfig {
        machine: presets::bgq(pes),
        cells_per_dim: cells,
        atoms_per_cell: atoms,
        steps: 8,
        ckpt_at: Some(3),
        ..LeanMdConfig::default()
    });
    let ckpt_t = probe.1.metric("ckpt_time_s")[0].0;
    let end_t = probe.1.metric("leanmd_step").last().expect("steps ran").0;
    let fail_t = SimTime::from_secs_f64((ckpt_t + end_t) / 2.0);

    let (_, rt) = run_with_runtime(LeanMdConfig {
        machine: presets::bgq(pes),
        cells_per_dim: cells,
        atoms_per_cell: atoms,
        steps: 8,
        ckpt_at: Some(3),
        failures: vec![(fail_t, pes / 3)],
        ..LeanMdConfig::default()
    });
    (
        rt.metric("ckpt_time_s")[0].1,
        rt.metric("restart_time_s")[0].1,
    )
}

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![64, 128, 256, 512], vec![2048, 8192, 32768]);
    // Two system sizes with a 2.8/1.6 ≈ 1.75 ratio of total atoms.
    let big_cells = scale.pick(10usize, 28);
    let small_cells = scale.pick(8usize, 23);
    let atoms = 90;

    let mut fig = Figure::new(
        "fig10",
        "LeanMD in-memory checkpoint/restart times, two system sizes",
        &["pes", "big_ckpt", "small_ckpt", "big_restart", "small_restart"],
    );
    // Each point keeps its probe → run pair together.
    let sizes = |p| [(p, big_cells), (p, small_cells)];
    let points: Vec<_> = pe_list.iter().flat_map(|&p| sizes(p)).collect();
    let times = pool::map(&points, |&(p, cells)| measure(p, cells, atoms));
    for (p, t) in pe_list.iter().zip(times.chunks(2)) {
        let ((cb, rb), (cs, rs)) = (t[0], t[1]);
        fig.row(vec![
            p.to_string(),
            fmt_s(cb),
            fmt_s(cs),
            fmt_s(rb),
            fmt_s(rs),
        ]);
    }
    fig.note("paper: 2.8M-atom checkpoint 43ms@2K → 33ms@32K (falls with P, bigger system costs more);");
    fig.note("restart 66ms@4K → 139ms@32K (grows with P: barrier term)");
    fig.emit();
}
