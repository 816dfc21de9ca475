//! Fig. 4 — temperature-aware DVFS: execution time + max core temperature
//! for Base / Naive_DVFS / LB_10s / LB_5s / MetaTemp (CRAC at 74 °F,
//! threshold 50 °C).
//!
//! Expected shape (paper): Base is fastest but runs hot (≈74 °C); all DVFS
//! schemes restrain temperature to the threshold band; Naive_DVFS pays the
//! largest timing penalty because the throttled chips create load imbalance
//! nobody fixes; LB_10s/LB_5s reduce the penalty; MetaTemp reduces it the
//! most for the least balancing effort.

use charm_apps::stencil::{run_with_runtime, StencilConfig};
use charm_bench::{fmt_s, pool, Figure, Scale};
use charm_core::{DvfsScheme, SimTime};
use charm_machine::presets;
use charm_machine::thermal::ThermalConfig;

fn config(scheme: DvfsScheme, with_lb: bool, scale: Scale) -> StencilConfig {
    let pes = scale.pick(16, 64);
    let mut machine = presets::thermal_testbed(pes);
    // Demo scale uses 10×-faster thermal dynamics (same steady states).
    machine.thermal = Some(scale.pick(ThermalConfig::fig4_fast(), ThermalConfig::fig4()));
    StencilConfig {
        machine,
        grid: 2048,
        blocks_per_side: 16,
        steps: scale.pick(300, 600),
        flops_per_point: 300.0,
        strategy: with_lb.then(|| Box::new(charm_lb::RefineLb::default()) as _),
        lb_period: None, // LB is driven by the DVFS scheme itself
        dvfs: scheme,
        dvfs_period: SimTime::from_millis(scale.pick(200, 1000)),
        auto_ckpt: None,
        failures: Vec::new(),
        preemptions: Vec::new(),
        elastic: None,
        seed: 42,
        record: None,
        trace: None,
        trace_sinks: Vec::new(),
        threads: 1,
    }
}

fn main() {
    let scale = Scale::from_env();
    let lb_fast = SimTime::from_millis(scale.pick(1000, 5000));
    let lb_slow = SimTime::from_millis(scale.pick(2000, 10000));
    let schemes: Vec<(&str, DvfsScheme, bool)> = vec![
        ("Base", DvfsScheme::Base, false),
        ("Naive_DVFS", DvfsScheme::Naive, false),
        ("LB_10s", DvfsScheme::WithLb { period: lb_slow }, true),
        ("LB_5s", DvfsScheme::WithLb { period: lb_fast }, true),
        (
            "MetaTemp",
            DvfsScheme::MetaTemp {
                min_imbalance: 1.08,
            },
            true,
        ),
    ];

    let mut fig = Figure::new(
        "fig04",
        "DVFS & temperature control (Stencil2D on the thermal testbed)",
        &["scheme", "exec_time", "max_temp_C", "penalty_vs_base", "lb_rounds"],
    );
    let runs = pool::map(&schemes, |&(_, scheme, with_lb)| {
        let (run, rt) = run_with_runtime(config(scheme, with_lb, scale));
        let max_temp = rt.thermal().map_or(f64::NAN, |t| t.max_temp_observed());
        (run.total_s, max_temp, run.lb_rounds)
    });
    let base_time = runs[0].0;
    for ((name, ..), (t, max_temp, lb_rounds)) in schemes.iter().zip(runs) {
        fig.row(vec![
            name.to_string(),
            fmt_s(t),
            format!("{max_temp:.1}"),
            format!("{:.2}x", t / base_time),
            lb_rounds.to_string(),
        ]);
    }
    fig.note("paper: Base ~74C hot/fastest; DVFS schemes cap ~50-55C;");
    fig.note("Naive pays the largest penalty; LB_10s < LB_5s overheads; MetaTemp best.");
    fig.emit();
}
