//! Fig. 16 — Stencil2D in the cloud: an interfering VM lands on one node
//! mid-run; iteration time with and without RTS-triggered heterogeneity-
//! aware load balancing. Also reports §IV-F's over-decomposition result
//! (1 vs 8 chares per VM on slow Ethernet).
//!
//! Expected shape: both curves jump when interference starts; the LB curve
//! recovers close to the pre-interference level (with periodic LB spikes),
//! the NoLB curve stays high. Over-decomposition alone buys ~2.4×.

use charm_apps::stencil::{run, StencilConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_core::SimTime;
use charm_machine::{presets, InterferenceWindow};

fn main() {
    let scale = Scale::from_env();
    let vms = 32;
    let steps = scale.pick(160u64, 500);

    // ---- over-decomposition table (§IV-F text) -----------------------------
    let mut od = Figure::new(
        "fig16_overdecomp",
        "Stencil2D on 32 cloud VMs: iteration time vs chares per VM",
        &["chares_per_vm", "iter_time"],
    );
    // First wave: the four over-decomposition runs and the clean probe
    // (4 chares/VM, 20 steps) the interference runs are placed by.
    let first = [(1usize, 24u64), (2, 24), (4, 24), (8, 24), (4, 20)];
    let step_times = pool::map(&first, |&(cpp, steps)| {
        let mut c = StencilConfig::cloud_4k(presets::cloud(vms), cpp);
        c.steps = steps;
        run(c).avg_step_s()
    });
    for (&(cpp, _), &t) in first.iter().zip(&step_times[..4]) {
        od.row(vec![cpp.to_string(), fmt_s(t)]);
    }
    od.note("paper: 77ms with 1 chare/VM -> 32ms with 8 (2.4x) from comm/compute overlap");
    od.emit();

    // ---- interference timeline ---------------------------------------------
    // Probe the clean iteration time to place the interference at ~1/3 of
    // the run, as the paper starts the interfering VM at iteration 100/500.
    let step_s = step_times[4];
    let start = SimTime::from_secs_f64(step_s * steps as f64 / 3.0);

    let mk = |with_lb: bool| {
        let mut machine = presets::cloud(vms);
        machine.speed = machine.speed.clone().with_interference(InterferenceWindow {
            first_pe: 0,
            num_pes: 1,
            start,
            end: SimTime::MAX,
            speed_factor: 0.45,
        });
        let mut c = StencilConfig::cloud_4k(machine, 4);
        c.steps = steps;
        if with_lb {
            c.strategy = Some(Box::new(charm_lb::RefineLb::default()));
            // LB every 20 steps, as in the paper's figure.
            c.lb_period = Some(SimTime::from_secs_f64(step_s * 20.0));
        }
        c
    };
    let runs = pool::map(&[false, true], |&with_lb| {
        let r = run(mk(with_lb));
        (r.step_durations(), r.lb_rounds)
    });
    let [(dn, _), (dl, lb_rounds)] = &runs[..] else { unreachable!("two runs") };

    let mut fig = Figure::new(
        "fig16",
        "Stencil2D iteration times with an interfering VM (starts ~1/3 in)",
        &["iter", "no_lb", "lb"],
    );
    for i in 0..dn.len().min(dl.len()) {
        fig.row(vec![i.to_string(), fmt_s(dn[i]), fmt_s(dl[i])]);
    }
    let tail = |d: &[f64]| d[d.len() - 10..].iter().sum::<f64>() / 10.0;
    fig.note(format!(
        "steady tail: no_lb={} lb={} (pre-interference ~{}); lb_rounds={} (spikes)",
        fmt_s(tail(dn)),
        fmt_s(tail(dl)),
        fmt_s(step_s),
        lb_rounds
    ));
    fig.note("paper: LB recovers near the clean iteration time; NoLB stays degraded");
    fig.emit();
}
