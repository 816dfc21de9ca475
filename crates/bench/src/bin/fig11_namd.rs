//! Fig. 11 — NAMD-like strong scaling of the 100 M-atom benchmark on
//! Titan XK7 (CPU only) vs Jaguar XT5.
//!
//! Expected shape: both machines strong-scale; XK7 (faster cores, faster
//! Gemini interconnect) sits below XT5 at every PE count, with the gap
//! persisting to the full-machine scale.

use charm_apps::leanmd::{run, LeanMdConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![256, 512, 1024, 2048], vec![4096, 16384, 65536]);
    // A fixed "100M-atom-like" system (scaled: constant total work).
    let cells = scale.pick(16usize, 40);
    let atoms = scale.pick(90usize, 140);

    let mk = |machine, lb_every| LeanMdConfig {
        machine,
        cells_per_dim: cells,
        atoms_per_cell: atoms,
        density_peak: 4.0,
        steps: 8,
        lb_every,
        strategy: Some(Box::new(charm_lb::HybridLb::default())),
        ..LeanMdConfig::default()
    };

    let mut fig = Figure::new(
        "fig11",
        "NAMD-like strong scaling (time/step): Titan XK7 vs Jaguar XT5",
        &["pes", "xk7", "xt5", "xt5/xk7"],
    );
    let tail = |r: &charm_apps::AppRun| {
        let d = r.step_durations();
        d[d.len() - 3..].iter().sum::<f64>() / 3.0
    };
    let points: Vec<_> = pe_list.iter().flat_map(|&p| [(p, true), (p, false)]).collect();
    let times = pool::map(&points, |&(p, xk7)| {
        tail(&run(mk(if xk7 { presets::xk7(p) } else { presets::xt5(p) }, 3)))
    });
    for (p, t) in pe_list.iter().zip(times.chunks(2)) {
        let (xk7, xt5) = (t[0], t[1]);
        fig.row(vec![
            p.to_string(),
            fmt_s(xk7),
            fmt_s(xt5),
            format!("{:.2}x", xt5 / xk7),
        ]);
    }
    fig.note("paper: XK7 consistently faster than XT5 across the sweep; both keep scaling");
    fig.emit();
}
