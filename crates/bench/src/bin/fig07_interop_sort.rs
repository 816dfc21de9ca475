//! Fig. 7 — interoperation removes the sorting bottleneck in CHARM.
//!
//! The host "MPI" program does one N-body-style compute step over a fixed
//! global problem (strong scaling), then globally sorts the skewed particle
//! keys — once with the bulk-synchronous MPI multiway-merge sort, once by
//! handing the phase to the charm-rs HistSort library through the interop
//! interface (§III-G).
//!
//! Expected shape: compute strong-scales; the MPI sort's bulk-synchronous
//! phases (root sample funnel, `(P−1)·α` all-to-all) stop scaling and its
//! share of the step grows (paper: 23 % at 4096 cores); the asynchronous
//! HistSort stays a small, flat fraction (paper: 2 %).

use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_core::{CharmLib, Runtime};
use charm_machine::presets;
use charm_sort::{hist_sort, mpi_multiway, skewed_keys, verify_sorted};

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![8, 64, 256, 1024, 2048], vec![8, 64, 512, 4096]);
    // Strong scaling: fixed totals, chosen so the top PE count's compute
    // share sits in the paper's regime (hundreds of ms).
    let total_keys: usize = scale.pick(1 << 19, 1 << 22);
    let total_compute_flops = scale.pick(2.0e11, 2.0e12);

    let mut fig = Figure::new(
        "fig07",
        "CHARM interop: per-step time of compute vs MPI sort vs Charm HistSort",
        &[
            "pes",
            "useful_compute",
            "mpi_sort",
            "charm_histsort",
            "mpi_sort_frac",
            "charm_sort_frac",
        ],
    );

    // Per PE count: compute, MPI sort and Charm HistSort seconds.
    let times = pool::map(&pe_list, |&p| {
        let keys = skewed_keys(p, total_keys / p, 7);
        let machine = presets::stampede(p);
        let compute_s = total_compute_flops / (machine.flops_per_sec * p as f64);

        let mpi = mpi_multiway(&machine, keys.clone());
        verify_sorted(&keys, &mpi.buckets).expect("mpi sort correct");

        let mut lib = CharmLib::init(Runtime::builder(presets::stampede(p)).build());
        let charm_time = {
            let rt = lib.runtime();
            let r = hist_sort(rt, keys.clone(), 0.03);
            verify_sorted(&keys, &r.buckets).expect("charm sort correct");
            r.time
        };
        let _ = lib.exit();

        [compute_s, mpi.time.as_secs_f64(), charm_time.as_secs_f64()]
    });
    for (p, [compute_s, mpi_s, charm_s]) in pe_list.iter().zip(times) {
        fig.row(vec![
            p.to_string(),
            fmt_s(compute_s),
            fmt_s(mpi_s),
            fmt_s(charm_s),
            format!("{:.1}%", 100.0 * mpi_s / (compute_s + mpi_s)),
            format!("{:.1}%", 100.0 * charm_s / (compute_s + charm_s)),
        ]);
    }
    fig.note("paper: MPI sort grows to 23% of step time at 4096 cores; Charm sort stays ~2%");
    fig.emit();
}
