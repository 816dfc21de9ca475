//! Fig. 9 — LeanMD strong scaling on BG/Q (1K→32K PEs): speedup with the
//! hierarchical HybridLB vs no LB vs ideal.
//!
//! Expected shape: with LB the app tracks ideal closely (paper: 44 ms/step
//! at 32K); without LB, the clustered atom density caps speedup well below
//! ideal ("improves the performance by at least 40%").

use charm_apps::leanmd::{run, LeanMdConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![64, 128, 256, 512], vec![1024, 4096, 32768]);
    // Strong scaling: fixed molecule system across the sweep.
    let cells = scale.pick(10usize, 22);
    let atoms = scale.pick(70usize, 120);

    let mk = |pes: usize, lb: bool| LeanMdConfig {
        machine: presets::bgq(pes),
        cells_per_dim: cells,
        atoms_per_cell: atoms,
        density_peak: 6.0,
        steps: 10,
        lb_every: if lb { 3 } else { 0 },
        strategy: lb.then(|| Box::new(charm_lb::HybridLb::default()) as _),
        ..LeanMdConfig::default()
    };

    let mut fig = Figure::new(
        "fig09",
        "LeanMD strong scaling (time/step): HybridLB vs NoLB vs ideal",
        &["pes", "no_lb", "with_lb", "lb_gain", "speedup_lb", "ideal_speedup"],
    );
    let tail = |r: &charm_apps::AppRun| {
        let d = r.step_durations();
        d[d.len() - 4..].iter().sum::<f64>() / 4.0
    };
    let points: Vec<_> = pe_list.iter().flat_map(|&p| [(p, false), (p, true)]).collect();
    let times = pool::map(&points, |&(p, lb)| tail(&run(mk(p, lb))));
    let b = times[1];
    for (p, t) in pe_list.iter().zip(times.chunks(2)) {
        let (no, lb) = (t[0], t[1]);
        fig.row(vec![
            p.to_string(),
            fmt_s(no),
            fmt_s(lb),
            format!("{:.0}%", 100.0 * (no - lb) / no),
            format!("{:.2}", b / lb * pe_list[0] as f64),
            format!("{:.2}", *p as f64),
        ]);
    }
    fig.note("paper: HybridLB improves LeanMD by >= 40%; 44 ms/step at 32K PEs");
    fig.emit();
}
