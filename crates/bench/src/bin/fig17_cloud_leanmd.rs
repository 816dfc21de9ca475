//! Fig. 17 — LeanMD in a heterogeneous cloud (Grid'5000-style: one node's
//! effective CPU at 0.7×): HeteroNoLB vs HeteroLB vs HomoLB vs ideal.
//!
//! Expected shape: heterogeneity without LB costs a constant factor at
//! every scale (the whole tightly-coupled app runs at the slow node's
//! pace); heterogeneity-aware LB brings performance close to the
//! homogeneous curve.

use charm_apps::leanmd::{run, LeanMdConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![32, 64, 128], vec![32, 64, 128, 256]);
    let cores_per_node = 4;

    let mk = |pes: usize, slow: bool, lb: bool| {
        let mut machine = presets::cloud(pes);
        if slow {
            // One node (its `cores_per_node` PEs) at 0.7× — the paper's
            // Distem-injected heterogeneity.
            machine.speed = machine.speed.clone().slow_block(0, cores_per_node, 0.7);
        }
        LeanMdConfig {
            machine,
            cells_per_dim: scale.pick(8, 10),
            atoms_per_cell: 80,
            density_peak: 1.0, // intrinsic balance; heterogeneity is the test
            steps: 10,
            lb_every: if lb { 2 } else { 0 },
            strategy: lb.then(|| Box::new(charm_lb::GreedyLb) as _),
            ..LeanMdConfig::default()
        }
    };
    let tail = |r: &charm_apps::AppRun| {
        let d = r.step_durations();
        d[d.len() - 4..].iter().sum::<f64>() / 4.0
    };

    let mut fig = Figure::new(
        "fig17",
        "LeanMD time/step in a heterogeneous cloud (one node at 0.7x)",
        &["pes", "hetero_no_lb", "hetero_lb", "homo_lb", "hetero_lb/homo"],
    );
    // (slow node?, LB?) per column: hetero_no_lb, hetero_lb, homo_lb.
    let columns = [(true, false), (true, true), (false, true)];
    let row = |p| columns.map(|(slow, lb)| (p, slow, lb));
    let points: Vec<_> = pe_list.iter().flat_map(|&p| row(p)).collect();
    let times = pool::map(&points, |&(p, slow, lb)| tail(&run(mk(p, slow, lb))));
    for (p, t) in pe_list.iter().zip(times.chunks(3)) {
        fig.row(vec![
            p.to_string(),
            fmt_s(t[0]),
            fmt_s(t[1]),
            fmt_s(t[2]),
            format!("{:.2}x", t[1] / t[2]),
        ]);
    }
    fig.note("paper: HeteroLB performance close to the homogeneous case at every PE count");
    fig.emit();
}
