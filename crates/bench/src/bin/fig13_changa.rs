//! Fig. 13 — ChaNGa-like per-phase time breakdown (Gravity, DD, TB, LB,
//! total step) across a strong-scaling sweep on the XE6 profile.
//!
//! Expected shape: gravity dominates everywhere and strong-scales well;
//! DD and TB are small and shrink more slowly (collective-bound), so their
//! *relative* share grows with PE count; total step keeps ~80 % parallel
//! efficiency across a 16× PE sweep (paper: 8K→128K at 80 %).

use charm_apps::changa::{run, ChangaConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![32, 128, 512], vec![8192, 32768, 131072]);
    let total_particles = scale.pick(600_000usize, 50_000_000);
    let pieces_per_pe = 8;

    let mut fig = Figure::new(
        "fig13",
        "ChaNGa-like phase breakdown per step",
        &["pes", "gravity", "dd", "tb", "lb", "total", "efficiency"],
    );
    // Per PE count: gravity, dd, tb, lb, total.
    let phases = pool::map(&pe_list, |&p| {
        let pieces = p * pieces_per_pe;
        let b = run(ChangaConfig {
            machine: presets::xe6(p),
            pieces,
            particles_per_piece: (total_particles / pieces).max(1),
            clustering: 6.0,
            steps: 6,
            lb_every: 3,
            strategy: Some(Box::new(charm_lb::HybridLb::default())),
            ..ChangaConfig::default()
        });
        [b.gravity, b.dd, b.tb, b.lb, b.total]
    });
    let (p0, t0) = (pe_list[0], phases[0][4]);
    for (&p, b) in pe_list.iter().zip(phases) {
        let eff = (t0 * p0 as f64) / (b[4] * p as f64);
        let mut row = vec![p.to_string()];
        row.extend(b.map(fmt_s));
        row.push(format!("{:.0}%", 100.0 * eff));
        fig.row(row);
    }
    fig.note("paper: gravity dominates; 2.7s total step at 128K PEs, 80% efficiency vs 8K");
    fig.emit();
}
