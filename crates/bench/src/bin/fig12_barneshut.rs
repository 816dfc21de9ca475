//! Fig. 12 — Barnes-Hut strong scaling on Blue Waters: the full
//! configuration (over-decomposition + ORB LB) vs LB disabled (500m_LB
//! missing) vs one piece per PE (500m_NO).
//!
//! Expected shape: over-decomposition + LB scales best (paper: ~40 % better
//! than one-object-per-PE); disabling LB or over-decomposition each costs a
//! growing penalty at scale.

use charm_apps::barneshut::{run, BarnesHutConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn main() {
    let scale = Scale::from_env();
    // PE counts are powers of 8 fractions so the no-overdecomp variant can
    // put exactly one piece per PE.
    let pe_list: Vec<usize> = scale.pick(vec![64, 512], vec![512, 4096]);
    let full_depth = scale.pick(4u8, 5); // 8^4 = 4096 pieces at demo scale
    let total_particles = scale.pick(120_000u64, 4_000_000);

    let tail = |r: &charm_apps::AppRun| {
        let d = r.step_durations();
        d[d.len() - 3..].iter().sum::<f64>() / 3.0
    };

    let mut fig = Figure::new(
        "fig12",
        "Barnes-Hut time/step: overdecomp+ORB (500m) vs no LB (500m_LB-off) vs 1 piece/PE (500m_NO)",
        &["pes", "full", "no_lb", "no_overdecomp"],
    );
    let mk = |p: usize, depth: u8, lb: bool| {
        let pieces = 8usize.pow(depth as u32);
        BarnesHutConfig {
            machine: presets::xe6(p),
            depth,
            particles_per_piece: (total_particles as usize / pieces).max(1),
            clustering: 8.0,
            steps: 8,
            lb_every: if lb { 3 } else { 0 },
            strategy: lb.then(|| Box::new(charm_lb::OrbLb) as _),
            ..BarnesHutConfig::default()
        }
    };
    // Per PE count: full, no LB, and no over-decomposition (depth 8^d == p).
    let no_depth = |p: usize| (p as f64).log(8.0).round() as u8;
    let variants =
        |p| [(p, full_depth, true), (p, full_depth, false), (p, no_depth(p), true)];
    let points: Vec<_> = pe_list.iter().flat_map(|&p| variants(p)).collect();
    let times = pool::map(&points, |&(p, depth, lb)| tail(&run(mk(p, depth, lb))));
    for (p, t) in pe_list.iter().zip(times.chunks(3)) {
        fig.row(vec![p.to_string(), fmt_s(t[0]), fmt_s(t[1]), fmt_s(t[2])]);
    }
    fig.note("paper: full config ~40% faster than one piece per PE; LB matters under clustering");
    fig.emit();
}
