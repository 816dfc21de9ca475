//! Elastic controller and spot-preemption edge cases: the shrink guard,
//! typed graceful degradation, closed-loop shrink, failures racing
//! reconfiguration, and retired capacity staying retired. Then the §III-D
//! claims on the cloud for stencil2d and leanmd: observing is free, a
//! hysteresis autoscaler beats static under interference, and a
//! long-warning preemption evacuates faster than a checkpoint restart.

mod campaign;

use campaign::{
    lockstep_build, lockstep_build_migratable, lockstep_build_packed, lockstep_spec,
    lockstep_verify,
};
use charm_apps::{leanmd, stencil, AppRun};
use charm_core::{
    ElasticConfig, HysteresisPolicy, MachineConfig, RunOutcome, Runtime, SimTime,
};
use charm_machine::{presets, InterferenceWindow};

const PES: usize = 8;

/// Failure-free makespan of the standard lockstep build.
fn probe_t_free() -> f64 {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES)).build();
    lockstep_build(&mut rt);
    let t = rt.run().end_time.as_secs_f64();
    lockstep_verify(&rt).expect("probe must be correct");
    t
}

/// A hysteresis policy that never fires (dead band covers everything) but
/// still promises `min_pes` — isolates the capacity floor from control
/// actions in tests.
fn floor_only(min_pes: usize) -> ElasticConfig {
    ElasticConfig::new(
        SimTime::from_secs(1),
        Box::new(HysteresisPolicy::new(1.5, 0.0, 1, SimTime::ZERO, min_pes, PES)),
    )
}

#[test]
fn shrink_below_checkpoint_floor_is_clamped_and_recoverable() {
    let t_free = probe_t_free();
    let interval = SimTime::from_secs_f64((t_free / 5.0).max(1e-6));

    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .auto_checkpoint(interval)
        .build();
    lockstep_build(&mut rt);
    // An external shrink-to-1 request: with buddy checkpointing active this
    // would co-locate both checkpoint copies, so it must clamp to 2.
    rt.schedule_reconfigure(SimTime::from_secs_f64(0.3 * t_free), 1);
    // A failure well after the clamped shrink: both copies must still exist
    // on distinct PEs for recovery to work.
    rt.schedule_failure(SimTime::from_secs_f64(0.8 * t_free), 0);

    let outcome = rt.run_outcome();
    let summary = outcome.summary().expect("single failure past a commit must recover");
    assert!(summary.end_time > SimTime::ZERO);
    lockstep_verify(&rt).expect("answer must survive shrink + failure");

    let rejected = rt.metric("reconfigure_rejected");
    assert_eq!(rejected.len(), 1, "the shrink-to-1 request must be journaled as clamped");
    assert_eq!(rejected[0].1, 1.0, "journal records the *requested* size");
    let reconf = rt.metric("reconfigure");
    assert_eq!(reconf.last().map(|&(_, to)| to), Some(2.0), "shrink lands on the floor");
    assert!(!rt.metric("restart_time_s").is_empty(), "the failure must trigger a restart");
    // The failed PE restarts in place (unlike preempted PEs, which the
    // platform reclaims for good), so both floor PEs are alive at the end.
    assert_eq!(rt.alive_pes(), 2);
}

#[test]
fn preemption_below_policy_floor_degrades_gracefully() {
    let t_free = probe_t_free();

    // Policy promises 6 PEs; three spot preemptions (ample warning) drop
    // alive capacity to 5 — the run must finish correctly, but flag it.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .elastic(floor_only(6))
        .build();
    lockstep_build(&mut rt);
    let warning = SimTime::from_secs_f64(0.2 * t_free);
    for (i, pe) in [5usize, 6, 7].into_iter().enumerate() {
        rt.schedule_preemption(
            SimTime::from_secs_f64((0.3 + 0.15 * i as f64) * t_free),
            pe,
            warning,
        );
    }

    match rt.run_outcome() {
        RunOutcome::Degraded { info, .. } => {
            assert_eq!(info.floor, 6);
            assert_eq!(info.have_pes, 5);
            assert!(info.at > SimTime::ZERO);
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    lockstep_verify(&rt).expect("degraded runs still finish with the right answer");
    assert_eq!(rt.alive_pes(), 5);
    assert!(rt.metric("restart_time_s").is_empty(), "ample warnings: no rollbacks");
    assert_eq!(rt.metric("evacuations").len(), 3);
    assert!(!rt.metric("degraded").is_empty());
}

#[test]
fn hysteresis_controller_shrinks_an_underutilized_job() {
    // All work pinned on 2 of 8 PEs: mean utilization ~25%, far below the
    // shrink threshold, so the controller must retire idle capacity.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES)).build();
    lockstep_build_packed(&mut rt, 2);
    let t_free = rt.run().end_time.as_secs_f64();
    lockstep_verify(&rt).expect("packed probe must be correct");

    let cadence = SimTime::from_secs_f64((t_free / 5.0).max(1e-6));
    let policy = HysteresisPolicy::new(0.95, 0.5, 2, cadence, 2, PES);
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .elastic(ElasticConfig::new(cadence, Box::new(policy)))
        .build();
    lockstep_build_packed(&mut rt, 2);

    let outcome = rt.run_outcome();
    assert!(outcome.is_completed(), "controller action must not break the run: {outcome:?}");
    lockstep_verify(&rt).expect("answer must survive elastic shrink");

    assert!(!rt.metric("elastic_util").is_empty(), "controller must have sampled");
    let decisions = rt.metric("elastic_decision");
    assert!(!decisions.is_empty(), "an underutilized job must trigger a shrink");
    assert!(decisions[0].1 < PES as f64, "first decision shrinks");
    assert!(!rt.metric("reconfigure").is_empty(), "decision must reach the malleability path");
    assert!(rt.alive_pes() < PES, "idle capacity must actually be retired");
    assert!(rt.alive_pes() >= 2, "never below the policy floor");
    let rented = rt.pe_seconds(rt.now().as_secs_f64()) / rt.now().as_secs_f64();
    assert!((2.0..PES as f64).contains(&rented), "retired PEs stop renting: {rented} PEs");
}

#[test]
fn failure_during_evacuation_window_recovers() {
    let spec = lockstep_spec();
    let t_free = probe_t_free();
    let interval = SimTime::from_secs_f64((t_free / 5.0).max(1e-6));

    // Checkpointed probe: learn the (longer) checkpointed makespan.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .auto_checkpoint(interval)
        .build();
    (spec.build)(&mut rt);
    let t_ck = rt.run().end_time.as_secs_f64();

    // Preemption of PE 3 announced at 0.45·t_ck; a hard failure of PE 5
    // lands at the exact announcement instant — i.e. inside the evacuation
    // window, after the drain but before the doomed PE is reclaimed.
    let announce = SimTime::from_secs_f64(0.45 * t_ck);
    let warning = SimTime::from_secs_f64(0.25 * t_ck);
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .auto_checkpoint(interval)
        .build();
    (spec.build)(&mut rt);
    rt.schedule_preemption(announce + warning, 3, warning);
    rt.schedule_failure(announce, 5);

    match rt.run_outcome() {
        RunOutcome::Completed(_) | RunOutcome::Degraded { .. } => {
            (spec.verify)(&rt).expect("recovery racing an evacuation must keep the answer");
        }
        RunOutcome::Unrecoverable(u) => {
            panic!("single failure with a live buddy must be recoverable: {u}")
        }
    }
    assert_eq!(rt.metric("evacuations").len(), 1, "the preemption still evacuates");
    assert!(!rt.metric("restart_time_s").is_empty(), "the failure still restarts");
    // PE 5 restarts in place; only the preempted PE 3 stays gone.
    assert_eq!(rt.alive_pes(), PES - 1);
}

#[test]
fn failure_on_just_expanded_pe_before_any_checkpoint_is_typed() {
    use charm_core::{LbStats, Strategy};
    // Expansion spreads load through an RTS-triggered LB round; a plain
    // round-robin strategy guarantees the revived PE receives chares.
    struct SpreadLb;
    impl Strategy for SpreadLb {
        fn name(&self) -> &'static str {
            "SpreadLb"
        }
        fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
            (0..stats.objs.len()).map(|i| Some(i % stats.num_pes)).collect()
        }
    }

    let t_free = probe_t_free();

    // Checkpoint interval far past the whole experiment: nothing commits.
    let interval = SimTime::from_secs(3600);
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .auto_checkpoint(interval)
        .strategy(Box::new(SpreadLb))
        .build();
    lockstep_build_migratable(&mut rt);
    let t1 = SimTime::from_secs_f64(0.3 * t_free);
    let t2 = SimTime::from_secs_f64(0.6 * t_free);
    rt.schedule_reconfigure(t1, 4); // shrink …
    rt.schedule_reconfigure(t2, PES); // … expand back out
    // PE 6 was revived microseconds ago and holds rebalanced chares no
    // committed checkpoint covers: state loss must surface as a typed
    // verdict, never a panic.
    rt.schedule_failure(t2 + SimTime::from_nanos(1), 6);

    match rt.run_outcome() {
        RunOutcome::Unrecoverable(u) => {
            let msg = u.to_string();
            assert!(
                msg.contains("checkpoint"),
                "verdict should name the missing checkpoint: {msg}"
            );
        }
        other => panic!("expected Unrecoverable (no committed checkpoint), got {other:?}"),
    }
    assert!(rt.unrecoverable().is_some());
}

/// The run's verdict is latched once, and Unrecoverable outranks Degraded:
/// it replaces a latched Degraded, and a capacity breach after it latches
/// nothing.
#[test]
fn unrecoverable_outranks_degraded_in_either_order() {
    let t_free = probe_t_free();
    let at = |f: f64| SimTime::from_secs_f64(f * t_free);

    // Degraded first: preempting PE 5 breaks a floor of 8. The checkpoints
    // taken after it hold PE 1's chares on PE 1 and its buddy, PE 5, which
    // is gone, so a failure of PE 1 loses both copies.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .elastic(floor_only(PES))
        .auto_checkpoint(at(0.1))
        .build();
    lockstep_build(&mut rt);
    rt.schedule_preemption(at(0.2), 5, at(0.1));
    rt.schedule_failure(at(0.6), 1);
    match rt.run_outcome() {
        RunOutcome::Unrecoverable(u) => {
            assert_eq!(u.failed_pes, vec![1]);
            assert!(u.reason.contains("both checkpoint copies"), "{u}");
        }
        other => panic!("expected Unrecoverable over Degraded, got {other:?}"),
    }
    assert_eq!(rt.metric("evacuations").len(), 1);
    assert_eq!(rt.metric("degraded").len(), 1, "Degraded latched first");

    // Unrecoverable first: without a checkpoint, losing PE 0 is fatal while
    // seven PEs still meet the floor of 6; losing PEs 1 and 2 later breaks it.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .elastic(floor_only(6))
        .build();
    lockstep_build(&mut rt);
    for (i, pe) in [0usize, 1, 2].into_iter().enumerate() {
        rt.schedule_failure(at(0.2 + 0.1 * i as f64), pe);
    }
    match rt.run_outcome() {
        RunOutcome::Unrecoverable(u) => {
            assert_eq!(u.failed_pes, vec![0], "the first fatal failure wins")
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
    let capacity: Vec<f64> = rt.metric("capacity").iter().map(|&(_, v)| v).collect();
    assert_eq!(capacity, vec![7.0, 6.0, 5.0], "the floor was broken");
    assert!(rt.metric("degraded").is_empty(), "a breach after Unrecoverable latches nothing");
}

#[test]
fn expand_never_revives_a_preempted_pe() {
    let spec = lockstep_spec();
    let t_free = probe_t_free();
    let interval = SimTime::from_secs_f64((t_free / 5.0).max(1e-6));

    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .auto_checkpoint(interval)
        .build();
    (spec.build)(&mut rt);
    let t_ck = rt.run().end_time.as_secs_f64();

    // PE 6 is preempted (ample warning), then the job shrinks to 4 and
    // expands back to 8: the expand revives 4, 5, 7 — never 6, which the
    // platform reclaimed for good.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .auto_checkpoint(interval)
        .build();
    (spec.build)(&mut rt);
    rt.schedule_preemption(
        SimTime::from_secs_f64(0.3 * t_ck),
        6,
        SimTime::from_secs_f64(0.25 * t_ck),
    );
    rt.schedule_reconfigure(SimTime::from_secs_f64(0.5 * t_ck), 4);
    rt.schedule_reconfigure(SimTime::from_secs_f64(0.7 * t_ck), PES);

    let outcome = rt.run_outcome();
    assert!(outcome.summary().is_some(), "run must finish: {outcome:?}");
    (spec.verify)(&rt).expect("answer must survive preempt + shrink + expand");
    assert_eq!(
        rt.alive_pes(),
        PES - 1,
        "expand must skip the preempted PE"
    );
    assert_eq!(rt.metric("evacuations").len(), 1);
    assert!(rt.metric("restart_time_s").is_empty(), "no rollback anywhere in this dance");
}

// ---------------------------------------------------------------------------
// §III-D on the cloud: stencil2d and leanmd under autoscaling policies and
// spot preemptions.
// ---------------------------------------------------------------------------

/// Spot preemptions: (kill time, PE, warning lead).
type Preemptions = Vec<(SimTime, usize, SimTime)>;

/// An app run with an optional controller, checkpoint interval and
/// preemptions.
type AppFn = dyn Fn(Option<ElasticConfig>, Option<SimTime>, Preemptions) -> (AppRun, Runtime);

const CLOUD_PES: usize = 16;

/// 16 single-PE VMs whose tail six (PEs 10..16) a noisy neighbor slows to
/// 0.35x for the whole run: high indices, so a shrink retires exactly the
/// slowed instances.
fn interfered_cloud() -> MachineConfig {
    let mut m = presets::cloud(CLOUD_PES);
    m.speed = m.speed.clone().with_interference(InterferenceWindow {
        first_pe: 10,
        num_pes: 6,
        start: SimTime::from_millis(10),
        end: SimTime::MAX,
        speed_factor: 0.35,
    });
    m
}

/// Runs the static arm, an observe-only controller and two hysteresis
/// autoscalers, each through a spot reclamation of the top VM 40 % into
/// the static makespan, announced 2 s ahead. Observation must be free: the
/// observe arm ends at static's makespan with static's state digest. At
/// least one hysteresis arm must Pareto-dominate static: no later, and
/// strictly fewer PE-seconds rented. The cadence is long relative to an
/// entry method and the cooldowns long relative to a reconfiguration, or
/// the controller reacts to its own blackouts.
fn assert_autoscaling_pays(app: &str, run: &AppFn) {
    let probe = run(None, None, Vec::new()).0.total_s;
    let reclaim = vec![(SimTime::from_secs_f64(probe * 0.4), CLOUD_PES - 1, SimTime::from_secs(2))];
    let cadence = SimTime::from_secs(2);
    let hysteresis = |expand, shrink, step, cooldown_s, min_pes| {
        let cooldown = SimTime::from_secs(cooldown_s);
        let p = HysteresisPolicy::new(expand, shrink, step, cooldown, min_pes, CLOUD_PES);
        Some(ElasticConfig::new(cadence, Box::new(p)))
    };
    let arms = [
        None,
        Some(ElasticConfig::observe_only(cadence)),
        hysteresis(0.98, 0.70, 2, 5, 6),
        hysteresis(0.90, 0.75, 4, 3, 4),
    ];
    let rows: Vec<_> = arms
        .into_iter()
        .map(|elastic| {
            let (run, mut rt) = run(elastic, None, reclaim.clone());
            assert!(rt.unrecoverable().is_none(), "{app}: every arm survives the reclaim");
            (run.total_s, rt.pe_seconds(run.total_s), rt.state_digest())
        })
        .collect();
    let (static_s, static_pe_s, static_digest) = &rows[0];
    assert_eq!((rows[1].0, &rows[1].2), (*static_s, static_digest), "{app}: observing is free");
    assert!(
        rows[2..].iter().any(|&(s, pe_s, _)| s <= *static_s && pe_s < *static_pe_s),
        "{app}: no hysteresis arm dominates static ({static_s:.3} s, {static_pe_s:.1} PE-s): {:?}",
        rows[2..].iter().map(|r| (r.0, r.1)).collect::<Vec<_>>()
    );
}

/// Compute-heavy blocks, so the virtual run lasts long enough for the
/// 2 s / 6.5 s malleability overheads to amortize.
#[test]
fn autoscaling_stencil2d_under_interference_pays() {
    assert_autoscaling_pays("stencil2d", &|elastic, _, preemptions| {
        let mut c = stencil::StencilConfig::cloud_4k(interfered_cloud(), 4);
        (c.grid, c.blocks_per_side, c.steps, c.flops_per_point) = (2048, 8, 30, 6000.0);
        (c.elastic, c.preemptions) = (elastic, preemptions);
        stencil::run_with_runtime(c)
    });
}

/// Heavy cells of uniform density, so the sweep isolates
/// interference-driven idling (under the default Gaussian blob the hot cell
/// gates every step and a utilization controller rightly shrinks to the
/// floor). At 70 steps or fewer no hysteresis arm dominates yet.
#[test]
fn autoscaling_leanmd_under_interference_pays() {
    assert_autoscaling_pays("leanmd", &|elastic, _, preemptions| {
        leanmd::run_with_runtime(leanmd::LeanMdConfig {
            machine: interfered_cloud(),
            atoms_per_cell: 800,
            density_peak: 1.0,
            steps: 80,
            elastic,
            preemptions,
            ..leanmd::LeanMdConfig::default()
        })
    });
}

/// The same spot reclamation of PE 5 twice, at 55 % of the failure-free
/// makespan with checkpoints every fifth of it: announced 30 % of the
/// makespan ahead, the runtime drains the doomed VM through the migration
/// path with no rollback; with no warning it falls back to a
/// buddy-checkpoint restart, which must take longer.
fn assert_evacuation_beats_restart(app: &str, run: &AppFn) {
    let t = run(None, None, Vec::new()).0.total_s;
    let kill = SimTime::from_secs_f64(t * 0.55);
    let arm = |warning| {
        let (run, rt) = run(None, Some(SimTime::from_secs_f64(t / 5.0)), vec![(kill, 5, warning)]);
        assert!(rt.unrecoverable().is_none(), "{app}: {:?}", rt.unrecoverable());
        (run.total_s, rt.metric("restart_time_s").len(), rt.metric("evacuations").len())
    };
    let (evac_s, evac_rollbacks, evacuations) = arm(SimTime::from_secs_f64(t * 0.30));
    assert_eq!((evac_rollbacks, evacuations), (0, 1), "{app}: a long warning drains");
    let (restart_s, restart_rollbacks, _) = arm(SimTime::ZERO);
    assert!(restart_rollbacks >= 1, "{app}: no warning rolls back");
    assert!(evac_s < restart_s, "{app}: evacuation {evac_s:.4} s vs restart {restart_s:.4} s");
}

#[test]
fn long_warning_preemption_evacuates_and_beats_restart() {
    assert_evacuation_beats_restart(
        "stencil2d",
        &|_, auto_ckpt, preemptions| {
            let mut c = stencil::StencilConfig::cloud_4k(presets::cloud(8), 4);
            (c.grid, c.blocks_per_side, c.steps, c.flops_per_point) = (1024, 8, 12, 120.0);
            (c.auto_ckpt, c.preemptions) = (auto_ckpt, preemptions);
            stencil::run_with_runtime(c)
        },
    );
    assert_evacuation_beats_restart(
        "leanmd",
        &|_, auto_ckpt, preemptions| {
            leanmd::run_with_runtime(leanmd::LeanMdConfig {
                machine: presets::cloud(8),
                atoms_per_cell: 40,
                steps: 6,
                auto_ckpt,
                preemptions,
                ..leanmd::LeanMdConfig::default()
            })
        },
    );
}
