//! Fig. 8 — AMR3D on BG/Q: (left) strong-scaling time per step with and
//! without DistributedLB; (right) in-memory checkpoint and restart times.
//!
//! Expected shape (paper, 8K→128K PEs): DistributedLB buys ~40 % at the
//! largest scale (refined blocks cluster on their parents' PEs without it);
//! checkpoint time *falls* with PE count (per-PE volume shrinks); restart
//! time also falls with scale here but flattens as barrier costs grow.

use charm_apps::amr3d::{run_with_runtime, AmrConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_machine::presets;

fn cfg(pes: usize, lb: bool, ckpt: Option<u64>, scale: Scale) -> AmrConfig {
    AmrConfig {
        machine: presets::bgq(pes),
        min_depth: scale.pick(3, 4),
        max_depth: scale.pick(5, 7),
        block_side: scale.pick(16, 12),
        steps: scale.pick(16, 28),
        regrid_every: 3,
        // Stationary feature: the refined band is a persistent hotspot
        // whose children pile onto their parents' PEs without LB.
        front_start: 0.3,
        front_speed: 0.0,
        lb_after_regrid: lb,
        strategy: lb.then(|| Box::new(charm_lb::DistributedLb::default()) as _),
        ckpt_at: ckpt,
        failures: Vec::new(),
        seed: 42,
    }
}

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![16, 32, 64, 128], vec![512, 2048, 8192]);

    // ---- left: strong scaling, NoLB vs DistributedLB ----------------------
    let mut left = Figure::new(
        "fig08_left",
        "AMR3D strong scaling (time/step): NoLB vs DistributedLB vs ideal",
        &["pes", "no_lb", "distributed_lb", "lb_gain", "ideal"],
    );
    // Steady tail: median of the last 5 steps — robust to the regrid
    // step's decide/share/QD spike.
    let tail = |r: &charm_apps::AppRun| {
        let d = r.step_durations();
        let mut last: Vec<f64> = d[d.len().saturating_sub(5)..].to_vec();
        last.sort_by(f64::total_cmp);
        last[last.len() / 2]
    };
    let points: Vec<_> = pe_list.iter().flat_map(|&p| [(p, false), (p, true)]).collect();
    let tails = pool::map(&points, |&(p, lb)| tail(&run_with_runtime(cfg(p, lb, None, scale)).0));
    for (&p, t) in pe_list.iter().zip(tails.chunks(2)) {
        let (t_no, t_lb) = (t[0], t[1]);
        let ideal = tails[1] * pe_list[0] as f64 / p as f64;
        left.row(vec![
            p.to_string(),
            fmt_s(t_no),
            fmt_s(t_lb),
            format!("{:.0}%", 100.0 * (t_no - t_lb) / t_no),
            fmt_s(ideal),
        ]);
    }
    left.note("paper: DistributedLB gains ~40% at 128K PEs; 46% parallel efficiency with LB");
    left.emit();

    // ---- right: checkpoint / restart times --------------------------------
    let mut right = Figure::new(
        "fig08_right",
        "AMR3D double in-memory checkpoint and restart times",
        &["pes", "checkpoint", "restart"],
    );
    // Each point keeps its probe → run pair together.
    let times = pool::map(&pe_list, |&p| {
        let mut c = cfg(p, false, Some(4), scale);
        // Inject a failure after the checkpoint to measure restart.
        let probe = run_with_runtime(cfg(p, false, Some(4), scale));
        let ckpt_t = probe.2.metric("ckpt_time_s").first().map(|&(t, _)| t);
        let end_t = probe
            .2
            .metric("amr_step")
            .last()
            .map(|&(t, _)| t)
            .unwrap_or(0.0);
        let fail_t = ckpt_t.map(|c| (c + end_t) / 2.0).unwrap_or(end_t * 0.7);
        c.failures.push((charm_core::SimTime::from_secs_f64(fail_t), p / 3));
        let (_, _, rt) = run_with_runtime(c);
        let ck = rt
            .metric("ckpt_time_s")
            .first()
            .map(|&(_, v)| v)
            .unwrap_or(f64::NAN);
        let rs = rt
            .metric("restart_time_s")
            .first()
            .map(|&(_, v)| v)
            .unwrap_or(f64::NAN);
        (ck, rs)
    });
    for (p, (ck, rs)) in pe_list.iter().zip(times) {
        right.row(vec![p.to_string(), fmt_s(ck), fmt_s(rs)]);
    }
    right.note("paper: checkpoint 394ms@2K → 29ms@32K; restart 2.24s@2K → 470ms@32K");
    right.note("(falling with P because per-PE state shrinks; barriers add a floor)");
    right.emit();
}
