//! Seeded randomized fault-injection campaign (§III-B hardening).
//!
//! Three mini-apps with verifiable answers run under generated failure
//! schedules — single, simultaneous, cascading, buddy-pair, and
//! during-checkpoint — with automatic periodic checkpointing on. Every run
//! must either finish with the *correct* answer or surface a typed
//! [`Unrecoverable`]; panics and hangs (enforced with a sim-time budget)
//! are campaign failures. Schedules derive from a seed printed on failure,
//! so any run reproduces exactly (see EXPERIMENTS.md).
//!
//! The mini-apps and schedule RNG live in `campaign/mod.rs`, shared with
//! the spot-preemption campaign (`preempt_campaign.rs`).

mod campaign;

use campaign::{
    halo_spec, lockstep_spec, ring_spec, schedule_seed, AppSpec, Rng,
};
use charm_core::{buddy_pe, MachineConfig, RunOutcome, Runtime, SimTime, Unrecoverable};

const PES: usize = 8;
const SCHEDULES_PER_APP: usize = 20;

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// One failure at a random instant.
    Single,
    /// Several distinct PEs at the same instant.
    Simultaneous,
    /// A burst: each subsequent failure lands shortly after the previous,
    /// often inside the restart protocol window it triggered.
    Cascade,
    /// A PE and its checkpoint buddy together — destroys both copies.
    BuddyPair,
    /// A failure placed inside a probed checkpoint replication window.
    DuringCheckpoint,
}

const KINDS: [Kind; 5] = [
    Kind::Single,
    Kind::Simultaneous,
    Kind::Cascade,
    Kind::BuddyPair,
    Kind::DuringCheckpoint,
];

/// Generate one failure schedule. `t_run` is the failure-free duration of
/// the checkpointed run; `windows` its checkpoint replication windows as
/// `(start, duration)` pairs from the `ckpt_time_s` metric.
fn gen_schedule(kind: Kind, seed: u64, t_run: f64, windows: &[(f64, f64)]) -> Vec<(SimTime, usize)> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    match kind {
        Kind::Single => {
            let t = rng.range(0.05, 0.85) * t_run;
            out.push((SimTime::from_secs_f64(t), rng.below(PES as u64) as usize));
        }
        Kind::Simultaneous => {
            let t = SimTime::from_secs_f64(rng.range(0.05, 0.85) * t_run);
            let n = 2 + rng.below(2) as usize; // 2 or 3 distinct PEs
            let mut pes = Vec::new();
            while pes.len() < n {
                let pe = rng.below(PES as u64) as usize;
                if !pes.contains(&pe) {
                    pes.push(pe);
                }
            }
            out.extend(pes.into_iter().map(|pe| (t, pe)));
        }
        Kind::Cascade => {
            let mut t = rng.range(0.05, 0.6) * t_run;
            for _ in 0..3 {
                out.push((SimTime::from_secs_f64(t), rng.below(PES as u64) as usize));
                t += rng.range(0.001, 0.08) * t_run;
            }
        }
        Kind::BuddyPair => {
            let t = SimTime::from_secs_f64(rng.range(0.05, 0.85) * t_run);
            let pe = rng.below(PES as u64) as usize;
            out.push((t, pe));
            out.push((t, buddy_pe(pe, PES)));
        }
        Kind::DuringCheckpoint => {
            let (at, dur) = windows[rng.below(windows.len() as u64) as usize];
            let t = at + rng.range(0.1, 0.9) * dur.max(1e-9);
            out.push((SimTime::from_secs_f64(t), rng.below(PES as u64) as usize));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The campaign harness.
// ---------------------------------------------------------------------------

fn make_rt(auto_ckpt: Option<SimTime>) -> Runtime {
    let mut b = Runtime::builder(MachineConfig::homogeneous(PES));
    if let Some(interval) = auto_ckpt {
        b = b.auto_checkpoint(interval);
    }
    b.build()
}

fn run_campaign(spec: &AppSpec) {
    // Probe 1: failure-free, no checkpoints — baseline duration and answer.
    let mut rt = make_rt(None);
    (spec.build)(&mut rt);
    let t_free = rt.run().end_time.as_secs_f64();
    (spec.verify)(&rt).expect("failure-free baseline must be correct");

    // Probe 2: with periodic checkpoints — learn the replication windows.
    let interval = SimTime::from_secs_f64((t_free / 5.0).max(1e-6));
    let mut rt = make_rt(Some(interval));
    (spec.build)(&mut rt);
    let t_ck = rt.run().end_time.as_secs_f64();
    (spec.verify)(&rt).expect("checkpointed baseline must be correct");
    let windows = rt.metric("ckpt_time_s").to_vec();
    assert!(!windows.is_empty(), "{}: auto-checkpointing must run", spec.name);

    // Sim-time budget: generous, but finite — exhausting it means a hang.
    let budget = SimTime::from_secs_f64(t_ck * 50.0 + 1.0);

    let (mut correct, mut unrecoverable) = (0usize, 0usize);
    for k in 0..SCHEDULES_PER_APP {
        let kind = KINDS[k % KINDS.len()];
        let seed = schedule_seed(spec.name, k as u64);
        let schedule = gen_schedule(kind, seed, t_ck, &windows);

        let mut rt = make_rt(Some(interval));
        (spec.build)(&mut rt);
        for &(t, pe) in &schedule {
            rt.schedule_failure(t, pe);
        }
        match rt.run_until_outcome(budget) {
            RunOutcome::Unrecoverable(u) => {
                let _: &Unrecoverable = &u;
                unrecoverable += 1;
            }
            outcome => {
                let summary = outcome.summary().expect("a recoverable run has a summary");
                assert!(
                    summary.end_time < budget,
                    "{} {kind:?} seed {seed:#x} {schedule:?}: sim-time budget exhausted (hang)",
                    spec.name
                );
                if let Err(e) = (spec.verify)(&rt) {
                    panic!(
                        "{} {kind:?} seed {seed:#x} {schedule:?}: completed with wrong answer: {e}",
                        spec.name
                    );
                }
                correct += 1;
            }
        }
    }

    println!(
        "{}: {correct} correct, {unrecoverable} unrecoverable of {SCHEDULES_PER_APP}",
        spec.name
    );
    // Sanity: the campaign exercised both outcomes. Buddy-pair schedules
    // are unrecoverable by construction (both copies die together), and
    // most single failures recover.
    assert!(correct >= 4, "{}: too few correct recoveries ({correct})", spec.name);
    assert!(
        unrecoverable >= 4,
        "{}: too few unrecoverable outcomes ({unrecoverable})",
        spec.name
    );
}

#[test]
fn campaign_lockstep() {
    run_campaign(&lockstep_spec());
}

#[test]
fn campaign_ring() {
    run_campaign(&ring_spec());
}

#[test]
fn campaign_halo1d() {
    run_campaign(&halo_spec());
}

#[test]
fn schedules_are_reproducible_from_their_seed() {
    let windows = [(0.01, 0.002), (0.02, 0.002)];
    for (k, kind) in KINDS.iter().enumerate() {
        let seed = schedule_seed("repro", k as u64);
        let a = gen_schedule(*kind, seed, 0.05, &windows);
        let b = gen_schedule(*kind, seed, 0.05, &windows);
        assert_eq!(a, b, "{kind:?}");
        assert!(!a.is_empty());
    }
}
