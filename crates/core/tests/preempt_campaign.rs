//! Seeded spot-preemption campaign (elastic-controller PR hardening).
//!
//! The same three mini-apps as the fault-injection campaign run under
//! generated *preemption* schedules on 8 PEs with periodic checkpointing:
//!
//! - **Long warnings** (announced 25% of the checkpointed makespan ahead)
//!   must be survived *proactively*: the doomed PE's chares evacuate before
//!   reclamation, so the run completes with the correct answer and **zero
//!   rollbacks** — verified against the FT ledger, not just metrics.
//! - **Zero warnings** (classic spot reclaim with no notice) must fall back
//!   to buddy-checkpoint restart: ≥1 rollback in the ledger, correct answer.
//!
//! Schedules derive from a printed seed exactly like `ft_campaign.rs`, so
//! any failure reproduces from its log line.

mod campaign;

use campaign::{halo_spec, lockstep_spec, ring_spec, schedule_seed, AppSpec, Rng};
use charm_core::{MachineConfig, RunOutcome, Runtime, SimTime, TraceConfig};

const PES: usize = 8;
const LONG_SCHEDULES_PER_APP: usize = 10;
const SHORT_SCHEDULES_PER_APP: usize = 4;

fn make_rt(auto_ckpt: Option<SimTime>) -> Runtime {
    let mut b = Runtime::builder(MachineConfig::homogeneous(PES))
        .tracing(TraceConfig::default());
    if let Some(interval) = auto_ckpt {
        b = b.auto_checkpoint(interval);
    }
    b.build()
}

fn ledger_lines<'a>(rt: &'a Runtime, needle: &str) -> Vec<&'a str> {
    rt.tracer()
        .expect("tracing is on")
        .ledger()
        .iter()
        .filter(|(_, line)| line.contains(needle))
        .map(|(_, line)| line.as_str())
        .collect()
}

/// Probe the app once failure-free and once checkpointed; return the
/// checkpoint interval, the checkpointed makespan, and the commit times.
fn probe(spec: &AppSpec) -> (SimTime, f64, Vec<f64>) {
    let mut rt = make_rt(None);
    (spec.build)(&mut rt);
    let t_free = rt.run().end_time.as_secs_f64();
    (spec.verify)(&rt).expect("failure-free baseline must be correct");

    let interval = SimTime::from_secs_f64((t_free / 5.0).max(1e-6));
    let mut rt = make_rt(Some(interval));
    (spec.build)(&mut rt);
    let t_ck = rt.run().end_time.as_secs_f64();
    (spec.verify)(&rt).expect("checkpointed baseline must be correct");
    let committed: Vec<f64> = rt.metric("ckpt_committed").iter().map(|&(t, _)| t).collect();
    assert!(!committed.is_empty(), "{}: auto-checkpointing must commit", spec.name);
    (interval, t_ck, committed)
}

/// 1–2 preemptions of distinct PEs, announced 25% of the makespan ahead.
fn gen_long_schedule(seed: u64, t_ck: f64) -> Vec<(SimTime, usize, SimTime)> {
    let mut rng = Rng::new(seed);
    let warning = SimTime::from_secs_f64(0.25 * t_ck);
    let n = 1 + rng.below(2) as usize;
    let mut out: Vec<(SimTime, usize, SimTime)> = Vec::new();
    for j in 0..n {
        // Space kills apart so one evacuation finishes before the next
        // announcement: first in [0.30, 0.45), second in [0.55, 0.70).
        let lo = 0.30 + 0.25 * j as f64;
        let t = rng.range(lo, lo + 0.15) * t_ck;
        loop {
            let pe = rng.below(PES as u64) as usize;
            if !out.iter().any(|&(_, p, _)| p == pe) {
                out.push((SimTime::from_secs_f64(t), pe, warning));
                break;
            }
        }
    }
    out
}

#[test]
fn long_warnings_evacuate_with_zero_rollbacks() {
    for spec in [lockstep_spec(), ring_spec(), halo_spec()] {
        let (interval, t_ck, _) = probe(&spec);
        let budget = SimTime::from_secs_f64(t_ck * 50.0 + 1.0);

        for k in 0..LONG_SCHEDULES_PER_APP {
            let seed = schedule_seed(spec.name, 0x1000 + k as u64);
            let schedule = gen_long_schedule(seed, t_ck);

            let mut rt = make_rt(Some(interval));
            (spec.build)(&mut rt);
            for &(t, pe, warning) in &schedule {
                rt.schedule_preemption(t, pe, warning);
            }
            let summary = match rt.run_until_outcome(budget) {
                RunOutcome::Unrecoverable(u) => panic!(
                    "{} seed {seed:#x} {schedule:?}: unrecoverable under long warning: {u}",
                    spec.name
                ),
                outcome => outcome.summary().cloned().expect("a recoverable run has a summary"),
            };
            assert!(
                summary.end_time < budget,
                "{} seed {seed:#x} {schedule:?}: sim-time budget exhausted (hang)",
                spec.name
            );
            (spec.verify)(&rt).unwrap_or_else(|e| {
                panic!("{} seed {seed:#x} {schedule:?}: wrong answer: {e}", spec.name)
            });

            // Proactive survival: every preemption evacuated, nothing rolled
            // back — checked in the FT ledger, not just the metrics.
            assert!(
                rt.metric("restart_time_s").is_empty(),
                "{} seed {seed:#x} {schedule:?}: restart protocol ran",
                spec.name
            );
            assert!(
                rt.metric("evacuations").len() >= schedule.len(),
                "{} seed {seed:#x} {schedule:?}: expected {} evacuations, saw {}",
                spec.name,
                schedule.len(),
                rt.metric("evacuations").len()
            );
            assert!(
                ledger_lines(&rt, "rollback to checkpoint").is_empty(),
                "{} seed {seed:#x} {schedule:?}: ledger records a rollback",
                spec.name
            );
            assert!(
                ledger_lines(&rt, "preemption warning").len() >= schedule.len(),
                "{} seed {seed:#x} {schedule:?}: warnings missing from ledger",
                spec.name
            );
            assert_eq!(
                rt.alive_pes(),
                PES - schedule.len(),
                "{} seed {seed:#x}: preempted PEs must stay retired",
                spec.name
            );
        }
        println!("{}: {LONG_SCHEDULES_PER_APP} long-warning schedules, 0 rollbacks", spec.name);
    }
}

#[test]
fn zero_warnings_fall_back_to_checkpoint_restart() {
    for spec in [lockstep_spec(), ring_spec(), halo_spec()] {
        let (interval, t_ck, committed) = probe(&spec);
        let budget = SimTime::from_secs_f64(t_ck * 50.0 + 1.0);

        for k in 0..SHORT_SCHEDULES_PER_APP {
            let seed = schedule_seed(spec.name, 0x2000 + k as u64);
            let mut rng = Rng::new(seed);
            // Reclaim with no notice, strictly after the first committed
            // checkpoint so restart has a consistent state to restore.
            let t = committed[0] + rng.range(0.05, 0.75) * (0.9 * t_ck - committed[0]).max(1e-9);
            let pe = rng.below(PES as u64) as usize;

            let mut rt = make_rt(Some(interval));
            (spec.build)(&mut rt);
            rt.schedule_preemption(SimTime::from_secs_f64(t), pe, SimTime::ZERO);

            let summary = match rt.run_until_outcome(budget) {
                RunOutcome::Unrecoverable(u) => panic!(
                    "{} seed {seed:#x} (kill {t:.6}s pe {pe}): unrecoverable: {u}",
                    spec.name
                ),
                outcome => outcome.summary().cloned().expect("a recoverable run has a summary"),
            };
            assert!(summary.end_time < budget, "{} seed {seed:#x}: hang", spec.name);
            (spec.verify)(&rt).unwrap_or_else(|e| {
                panic!("{} seed {seed:#x} (kill {t:.6}s pe {pe}): wrong answer: {e}", spec.name)
            });

            // Fallback path: the short warning was counted, the restart
            // protocol ran, and the ledger records the rollback.
            assert!(
                !rt.metric("preempt_short").is_empty(),
                "{} seed {seed:#x}: short warning not counted",
                spec.name
            );
            assert!(
                !rt.metric("restart_time_s").is_empty(),
                "{} seed {seed:#x}: restart protocol did not run",
                spec.name
            );
            assert!(
                !ledger_lines(&rt, "rollback to checkpoint").is_empty(),
                "{} seed {seed:#x}: rollback missing from ledger",
                spec.name
            );
            assert!(
                !ledger_lines(&rt, "preemption warning").is_empty(),
                "{} seed {seed:#x}: warning missing from ledger",
                spec.name
            );
            assert_eq!(rt.alive_pes(), PES - 1, "{} seed {seed:#x}", spec.name);
        }
        println!(
            "{}: {SHORT_SCHEDULES_PER_APP} zero-warning schedules restarted correctly",
            spec.name
        );
    }
}
