//! Fig. 14 — LULESH weak scaling on Hopper: native MPI vs AMPI with
//! virtualization (v=1, v=8) and v=8 + load balancing, including non-cubic
//! PE counts that plain MPI cannot use.
//!
//! Expected shape: AMPI v=1 ≈ MPI (virtualization alone costs little);
//! v=8 is ~2.4× faster (working set drops under the node cache); +LB takes
//! a bit more off by absorbing the region imbalance; the v=8 rows exist at
//! non-cubic PE counts where the MPI column is impossible.

use charm_apps::lulesh::{run, LuleshConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn main() {
    let scale = Scale::from_env();
    // Weak scaling: elements per PE constant (paper: 27000/PE).
    let elements_per_pe = 27000usize;
    // (pes, cubic?) — non-cubic entries mirror the paper's 3000/6000.
    let pe_list: Vec<usize> = scale.pick(vec![8, 27, 36, 64], vec![512, 1000, 3000, 4096]);

    let mut fig = Figure::new(
        "fig14",
        "LULESH weak scaling (time/iteration): MPI vs AMPI v=1 vs v=8 vs v=8+LB",
        &["pes", "mpi", "ampi_v1", "ampi_v8", "ampi_v8_lb"],
    );

    let cubic = |pes: usize| {
        let c = (pes as f64).cbrt().round() as usize;
        c * c * c == pes
    };
    // One run per cell of the table: v=1 (`None`) where the PE count is
    // cubic, then v=8 without and with LB.
    let mut points: Vec<(usize, Option<bool>)> = Vec::new();
    for &pes in &pe_list {
        points.extend(cubic(pes).then_some((pes, None)));
        points.extend([(pes, Some(false)), (pes, Some(true))]);
    }
    let times = pool::map(&points, |&(pes, v8_lb)| {
        // v=1: ranks == pes (only possible at cubic counts).
        let Some(lb) = v8_lb else {
            let side = (pes as f64).cbrt().round() as usize;
            return run(LuleshConfig {
                machine: presets::hopper(pes),
                ranks_per_side: side,
                elements_per_rank: elements_per_pe,
                iterations: 6,
                cache: Some(LuleshConfig::hopper_cache(elements_per_pe)),
                ..LuleshConfig::default()
            })
            .avg_iter_s;
        };
        // v=8: ranks = 8 × pes (cubic whenever 2·side is an integer — use
        // the nearest cube ≥ 8·pes and scale elements to keep work/PE).
        let v8_side = ((8 * pes) as f64).cbrt().round() as usize;
        let v8_ranks = v8_side * v8_side * v8_side;
        let elems_v8 = elements_per_pe * pes / v8_ranks;
        run(LuleshConfig {
            machine: presets::hopper(pes),
            ranks_per_side: v8_side,
            elements_per_rank: elems_v8,
            iterations: 6,
            migrate_every: if lb { 2 } else { 0 },
            strategy: lb.then(|| Box::new(charm_lb::GreedyLb) as _),
            cache: Some(LuleshConfig::hopper_cache(elems_v8)),
            skew: 0.25,
            ..LuleshConfig::default()
        })
        .avg_iter_s
    });
    let mut times = times.into_iter();
    for &pes in &pe_list {
        let v1 = cubic(pes).then(|| times.next().expect("v1"));
        let (v8, v8_lb) = (times.next().expect("v8"), times.next().expect("v8+lb"));
        fig.row(vec![
            pes.to_string(),
            v1.map(fmt_s).unwrap_or_else(|| "n/a (non-cubic)".into()),
            v1.map(fmt_s).unwrap_or_else(|| "n/a (non-cubic)".into()),
            fmt_s(v8),
            fmt_s(v8_lb),
        ]);
    }
    fig.note("paper: v=8 gives 2.4x over MPI/v=1 via cache blocking; +LB shaves the region imbalance;");
    fig.note("AMPI rows exist at non-cubic PE counts (3000/6000) where MPI cannot run");
    fig.emit();
}
