//! Fig. 15 — PHOLD weak scaling on Stampede. (a) event rate as LPs per PE
//! grows (over-decomposition keeps PEs busy within a YAWNS window);
//! (b) TRAM vs direct sends at low and high event density.
//!
//! Expected shape: (a) more LPs/PE → higher event rate at every PE count;
//! (b) at 64 events/LP direct sends win on the smallest machine, TRAM wins
//! as volume grows; at 1024 events/LP TRAM wins everywhere (paper peak:
//! >50 M events/s).

use charm_apps::pdes::{run, PdesConfig};
use charm_bench::{pool, Figure, Scale};
use charm_core::SimTime;
use charm_machine::presets;
use charm_tram::TramConfig;

fn base(pes: usize, lps_per_pe: usize, events: usize, tram: bool) -> PdesConfig {
    PdesConfig {
        machine: presets::stampede(pes),
        lps_per_pe,
        initial_events_per_lp: events,
        windows: 14,
        tram: tram.then(|| TramConfig {
            ndims: 2,
            flush_threshold: 64,
            flush_interval: Some(SimTime::from_micros(30)),
        }),
        ..PdesConfig::default()
    }
}

fn main() {
    let scale = Scale::from_env();
    let pe_list: Vec<usize> = scale.pick(vec![16, 32, 64], vec![1024, 2048, 4096]);

    // ---- (a): LPs per PE sweep at 32 events/LP -----------------------------
    let mut a = Figure::new(
        "fig15a",
        "PHOLD event rate (events/s) vs PEs, varying LPs per PE (32 events/LP)",
        &["pes", "64_lps_pe", "128_lps_pe", "256_lps_pe"],
    );
    let lps_sweep = scale.pick(vec![16usize, 32, 64], vec![64, 128, 256]);
    let lpp = scale.pick(64usize, 256);
    let (low_ev, high_ev) = scale.pick((16usize, 192usize), (64, 1024));
    // Both panels in one sweep: (a)'s row per PE count, then (b)'s.
    let row_a = |p| lps_sweep.iter().map(move |&l| (p, l, 32, false));
    let cells_b = [(low_ev, false), (low_ev, true), (high_ev, false), (high_ev, true)];
    let row_b = |p| cells_b.iter().map(move |&(events, tram)| (p, lpp, events, tram));
    let mut points: Vec<_> = pe_list.iter().flat_map(|&p| row_a(p)).collect();
    points.extend(pe_list.iter().flat_map(|&p| row_b(p)));
    let rates = pool::map(&points, |&(p, lpp, events, tram)| {
        run(base(p, lpp, events, tram)).event_rate
    });
    let (rates_a, rates_b) = rates.split_at(pe_list.len() * lps_sweep.len());
    let row = |p: &usize, rates: &[f64]| {
        let mut row = vec![p.to_string()];
        row.extend(rates.iter().map(|r| format!("{:.2}M", r / 1e6)));
        row
    };
    for (p, r) in pe_list.iter().zip(rates_a.chunks(lps_sweep.len())) {
        a.row(row(p, r));
    }
    a.note(format!(
        "columns are {:?} LPs/PE at demo scale (paper: 64/128/256)",
        lps_sweep
    ));
    a.note("paper: higher LPs/PE → higher event rate at every machine size");
    a.emit();

    // ---- (b): TRAM vs direct at two event densities ------------------------
    let mut b = Figure::new(
        "fig15b",
        "PHOLD event rate: direct vs TRAM at low/high events per LP (256 LPs/PE demo-scaled)",
        &["pes", "direct_64ev", "tram_64ev", "direct_1024ev", "tram_1024ev"],
    );
    for (p, r) in pe_list.iter().zip(rates_b.chunks(4)) {
        b.row(row(p, r));
    }
    b.note("paper: direct wins at 64 ev/LP on 1K PEs; TRAM wins at high volume (peak >50M ev/s)");
    b.emit();
}
