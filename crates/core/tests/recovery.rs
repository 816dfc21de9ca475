//! End-to-end tests of the §III-B/§III-D machinery: double in-memory
//! checkpointing with failure recovery, disk checkpoint/restart on a
//! different PE count, and malleable shrink/expand.

use charm_core::{
    Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, RunOutcome, Runtime, SimTime,
    SysEvent,
};
use charm_pup::{Pup, Puper};

const WORKERS: i64 = 24;
const TARGET_STEPS: u64 = 8;
const CKPT_AT: u64 = 3;

/// An iterative worker: contributes to a per-step reduction.
#[derive(Default)]
struct Worker {
    steps_done: u64,
}

impl Pup for Worker {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.steps_done);
    }
}

#[derive(Default, Clone)]
struct Step(u64);
impl Pup for Step {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.0);
    }
}

impl Chare for Worker {
    type Msg = Step;
    fn on_message(&mut self, Step(n): Step, ctx: &mut Ctx<'_>) {
        self.steps_done = n + 1;
        ctx.work(2e6);
        let workers = charm_core::ArrayProxy::<Worker>::from_id(ctx.my_id().array);
        ctx.contribute(
            workers,
            n as u32,
            RedValue::I64(1),
            RedOp::Sum,
            Callback::ToChare {
                array: charm_core::ArrayId(1),
                ix: Ix::i1(0),
            },
        );
    }
}

/// The driver chare: counts completed steps, checkpoints once, and re-kicks
/// the iteration after a recovery.
#[derive(Default)]
struct Main {
    step: u64,
    recoveries: u64,
}

impl Pup for Main {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.step);
        p.p(&mut self.recoveries);
    }
}

impl Chare for Main {
    type Msg = Step;
    fn on_message(&mut self, _m: Step, _ctx: &mut Ctx<'_>) {}

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        let workers = charm_core::ArrayProxy::<Worker>::from_id(charm_core::ArrayId(0));
        match ev {
            SysEvent::Reduction { tag, value } => {
                assert_eq!(tag as u64, self.step);
                assert_eq!(value.as_i64(), WORKERS);
                self.step += 1;
                ctx.log_metric("step_done", self.step as f64);
                if self.step == CKPT_AT {
                    ctx.start_mem_checkpoint(ctx.cb_self());
                } else if self.step < TARGET_STEPS {
                    ctx.broadcast(workers, Step(self.step));
                } else {
                    ctx.exit();
                }
            }
            SysEvent::CheckpointDone => {
                ctx.log_metric("ckpt_done", 1.0);
                ctx.broadcast(workers, Step(self.step));
            }
            SysEvent::Restarted { failed_pe } => {
                self.recoveries += 1;
                ctx.log_metric("recovered_from", failed_pe as f64);
                // Roll forward from the checkpointed step.
                ctx.broadcast(workers, Step(self.step));
            }
            _ => {}
        }
    }
}

fn build(num_pes: usize) -> Runtime {
    build_rt(Runtime::homogeneous(num_pes))
}

fn build_rt(mut rt: Runtime) -> Runtime {
    let workers = rt.create_array::<Worker>("workers");
    let main = rt.create_array::<Main>("main");
    for i in 0..WORKERS {
        rt.insert(workers, Ix::i1(i), Worker::default(), None);
    }
    rt.insert(main, Ix::i1(0), Main::default(), Some(0));
    rt.broadcast(workers, Step(0));
    rt
}

#[test]
fn survives_injected_node_failure() {
    let mut rt = build(8);
    // Kill PE 5 well into the run (after the checkpoint at step 3).
    rt.schedule_failure(SimTime::from_millis(40), 5);
    rt.run();

    let steps: Vec<f64> = rt.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(
        *steps.last().unwrap(),
        TARGET_STEPS as f64,
        "run must reach the target step count despite the failure"
    );
    assert_eq!(rt.metric("recovered_from").len(), 1, "one recovery");
    assert_eq!(rt.metric("restart_time_s").len(), 1);
    assert_eq!(rt.metric("ckpt_time_s").len(), 1);
    // The rollback re-executes steps between the checkpoint and the crash.
    let redone = steps.iter().filter(|&&s| s <= CKPT_AT as f64 + 2.0).count();
    assert!(redone >= CKPT_AT as usize, "some steps re-executed: {steps:?}");
}

#[test]
fn failure_without_checkpoint_is_not_recovered() {
    let mut rt = Runtime::homogeneous(4);
    let workers = rt.create_array::<Worker>("workers");
    for i in 0..4 {
        rt.insert(workers, Ix::i1(i), Worker::default(), None);
    }
    rt.schedule_failure(SimTime::from_nanos(10), 2);
    rt.run();
    assert_eq!(rt.metric("unrecovered_failures").len(), 1);
}

#[test]
fn deterministic_even_with_failures() {
    let run = || {
        let mut rt = build(8);
        rt.schedule_failure(SimTime::from_millis(40), 5);
        let s = rt.run();
        (s.end_time, s.entries, s.messages)
    };
    assert_eq!(run(), run());
}

#[test]
fn disk_checkpoint_restarts_on_different_pe_count() {
    let dir = std::env::temp_dir().join("charm_rs_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");

    // Run half the steps on 8 PEs, checkpoint to disk.
    let mut rt = build(8);
    rt.run_until(SimTime::from_millis(25));
    let done_before = rt.metric("step_done").len();
    assert!(done_before >= 1, "made progress before checkpointing");
    let info = rt.checkpoint_to_disk(&path).expect("write checkpoint");
    assert!(info.bytes > 0);
    assert!(info.virtual_cost > SimTime::ZERO);

    // Restore into a *fresh* runtime with a different PE count (§III-B:
    // "can be restarted on any number of PEs").
    let mut rt2 = Runtime::homogeneous(3);
    let workers = rt2.create_array::<Worker>("workers");
    let main = rt2.create_array::<Main>("main");
    let _ = (workers, main);
    rt2.restore_from_disk(&path).expect("restore");
    assert_eq!(rt2.array_len(charm_core::ArrayId(0)), WORKERS as usize);
    assert_eq!(rt2.array_len(charm_core::ArrayId(1)), 1);
    // All elements must land on live PEs of the smaller machine.
    for ix in rt2.array_indices(charm_core::ArrayId(0)) {
        let pe = rt2.element_pe(charm_core::ArrayId(0), &ix).unwrap();
        assert!(pe < 3);
    }

    // The restored app continues from the checkpointed iteration to the end.
    rt2.broadcast(
        charm_core::ArrayProxy::<Worker>::from_id(charm_core::ArrayId(0)),
        Step(done_before as u64),
    );
    rt2.run();
    let steps: Vec<f64> = rt2.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(*steps.last().unwrap(), TARGET_STEPS as f64);

    std::fs::remove_file(&path).ok();
}

#[test]
fn restore_requires_registered_arrays() {
    let dir = std::env::temp_dir().join("charm_rs_ckpt_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    let mut rt = build(4);
    rt.run_until(SimTime::from_millis(5));
    rt.checkpoint_to_disk(&path).unwrap();

    let mut rt2 = Runtime::homogeneous(2);
    let err = rt2.restore_from_disk(&path).unwrap_err();
    assert!(
        matches!(err, charm_core::RestoreError::MissingArray { .. }),
        "got: {err:?}"
    );
    assert!(err.to_string().contains("not registered"), "got: {err}");

    // The image holds "workers" then "main". With only the first registered,
    // restore fails on the second without having inserted any of the first.
    let mut rt3 = Runtime::homogeneous(2);
    let workers = rt3.create_array::<Worker>("workers");
    let err = rt3.restore_from_disk(&path).unwrap_err();
    assert!(
        matches!(&err, charm_core::RestoreError::MissingArray { name } if name == "main"),
        "got: {err:?}"
    );
    assert_eq!(rt3.array_len(workers.id()), 0, "failed restore inserted");
    std::fs::remove_file(&path).ok();
}

/// A chare that self-messages to a target count — progress that needs no
/// peers, so survivors of an unrecovered failure can still finish.
#[derive(Default)]
struct Pinger {
    count: u64,
}

impl Pup for Pinger {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.count);
    }
}

impl Chare for Pinger {
    type Msg = Step;
    fn on_message(&mut self, Step(n): Step, ctx: &mut Ctx<'_>) {
        self.count = n + 1;
        ctx.work(1e6);
        if self.count < 5 {
            let me = charm_core::ArrayProxy::<Pinger>::from_id(ctx.my_id().array);
            ctx.send(me, ctx.my_index(), Step(self.count));
        }
    }
}

#[test]
fn node_failure_kills_every_pe_on_the_node() {
    // 8 PEs grouped into 2-PE nodes, no checkpoint: a failure named for
    // PE 4 must also take out its node sibling, PE 5.
    let machine = MachineConfig::homogeneous(8).with_pes_per_node(2);
    let mut rt = Runtime::builder(machine).build();
    let pingers = rt.create_array::<Pinger>("pingers");
    for i in 0..8 {
        rt.insert(pingers, Ix::i1(i), Pinger::default(), Some(i as usize));
    }
    rt.schedule_failure(SimTime::from_nanos(10), 4);
    rt.run();
    let dead: Vec<f64> = rt.metric("unrecovered_failures").iter().map(|m| m.1).collect();
    assert_eq!(dead, vec![4.0, 5.0], "the whole node died");
    let u = rt.unrecoverable().expect("chares lost with no checkpoint");
    assert_eq!(u.failed_pes, vec![4, 5]);
    assert_eq!(u.lost_chares, 2);
}

#[test]
fn recovers_from_multi_pe_node_failure() {
    // With a checkpoint, a whole-node (2 PE) failure restarts and the job
    // still completes.
    let machine = MachineConfig::homogeneous(8).with_pes_per_node(2);
    let mut rt = build_rt(Runtime::builder(machine).build());
    rt.schedule_failure(SimTime::from_millis(40), 5);
    rt.run_outcome().summary().expect("whole-node failure is recoverable");
    let steps: Vec<f64> = rt.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(*steps.last().unwrap(), TARGET_STEPS as f64);
    let recovered: Vec<f64> = rt.metric("failures_recovered").iter().map(|m| m.1).collect();
    assert_eq!(recovered, vec![4.0, 5.0], "both node PEs restarted");
    assert_eq!(rt.metric("restart_time_s").len(), 1);
}

#[test]
fn survivors_keep_running_after_unrecovered_failure() {
    // No checkpoint: the chare on PE 2 is lost, but the one on PE 0 still
    // drives itself to completion, and the outcome is typed.
    let mut rt = Runtime::homogeneous(4);
    let pingers = rt.create_array::<Pinger>("pingers");
    rt.insert(pingers, Ix::i1(0), Pinger::default(), Some(0));
    rt.insert(pingers, Ix::i1(1), Pinger::default(), Some(2));
    rt.send(pingers, Ix::i1(0), Step(0));
    rt.send(pingers, Ix::i1(1), Step(0));
    rt.schedule_failure(SimTime::from_nanos(10), 2);
    let RunOutcome::Unrecoverable(err) = rt.run_outcome() else {
        panic!("the run must end unrecoverable");
    };
    assert_eq!(err.failed_pes, vec![2]);
    assert_eq!(err.lost_chares, 1);
    assert!(err.reason.contains("no committed checkpoint"), "got: {}", err.reason);
    assert_eq!(rt.metric("unrecovered_failures").len(), 1);
    assert_eq!(
        rt.inspect(pingers, &Ix::i1(0), |p| p.count),
        Some(5),
        "the survivor finished its work"
    );
}

#[test]
fn failure_of_empty_pe_without_checkpoint_is_survivable() {
    // The dead PE hosted no chares: nothing is lost, so the run completes
    // and `run_outcome` has a summary (the PE death is still recorded).
    let mut rt = Runtime::homogeneous(4);
    let pingers = rt.create_array::<Pinger>("pingers");
    rt.insert(pingers, Ix::i1(0), Pinger::default(), Some(0));
    rt.send(pingers, Ix::i1(0), Step(0));
    rt.schedule_failure(SimTime::from_nanos(10), 3);
    rt.run_outcome().summary().expect("no state was lost");
    assert_eq!(rt.metric("unrecovered_failures").len(), 1);
    assert_eq!(rt.inspect(pingers, &Ix::i1(0), |p| p.count), Some(5));
}

#[test]
fn buddy_pair_failure_is_unrecoverable() {
    // Simultaneously killing a PE and its buddy destroys both checkpoint
    // copies of that PE's chares — typed Unrecoverable, no panic, no hang.
    let pe = 1usize;
    let buddy = charm_core::buddy_pe(pe, 8);
    let mut rt = build(8);
    rt.schedule_failure(SimTime::from_millis(40), pe);
    rt.schedule_failure(SimTime::from_millis(40), buddy);
    let RunOutcome::Unrecoverable(err) = rt.run_outcome() else {
        panic!("the run must end unrecoverable");
    };
    assert!(err.lost_chares > 0);
    assert!(err.reason.contains("both checkpoint copies"), "got: {}", err.reason);
    assert_eq!(rt.metric("unrecoverable_failures").len(), 1);
}

#[test]
fn non_buddy_simultaneous_failures_recover() {
    // Two failures at the same instant on non-buddy PEs: each lost copy
    // has a live twin, so rollback succeeds (8 PEs: buddy(1)=5, so 1+2 is
    // safe).
    let mut rt = build(8);
    rt.schedule_failure(SimTime::from_millis(40), 1);
    rt.schedule_failure(SimTime::from_millis(40), 2);
    rt.run_outcome().summary().expect("non-overlapping copies survive");
    let steps: Vec<f64> = rt.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(*steps.last().unwrap(), TARGET_STEPS as f64);
    assert!(rt.metric("restart_time_s").len() >= 2);
}

#[test]
fn cascade_into_restart_window_can_be_unrecoverable() {
    // Probe the first restart to learn its protocol window, then cascade:
    // kill the buddy of the first victim while the victim's replacement is
    // still rebuilding its copies. Both copies of the victim's chares are
    // now gone.
    let mut probe = build(8);
    probe.schedule_failure(SimTime::from_millis(40), 1);
    probe.run();
    let (restart_at, restart_dur) = probe.metric("restart_time_s")[0];
    let mid = SimTime::from_secs_f64(restart_at + restart_dur / 2.0);

    let mut rt = build(8);
    rt.schedule_failure(SimTime::from_millis(40), 1);
    rt.schedule_failure(mid, charm_core::buddy_pe(1, 8));
    let RunOutcome::Unrecoverable(err) = rt.run_outcome() else {
        panic!("the run must end unrecoverable");
    };
    assert!(err.reason.contains("both checkpoint copies"), "got: {}", err.reason);

    // The same second failure after the window closes is recoverable.
    let after = SimTime::from_secs_f64(restart_at + restart_dur) + SimTime::from_millis(5);
    let mut rt = build(8);
    rt.schedule_failure(SimTime::from_millis(40), 1);
    rt.schedule_failure(after, charm_core::buddy_pe(1, 8));
    rt.run_outcome().summary().expect("sequential buddy failures with rebuilt copies recover");
}

#[test]
fn failure_during_checkpoint_window_aborts_pending() {
    // Probe run: find the (deterministic) checkpoint replication window.
    let mut probe = build(8);
    probe.run();
    assert_eq!(probe.metric("ckpt_committed").len(), 1);
    let (at, dur) = probe.metric("ckpt_time_s")[0];
    let mid = SimTime::from_secs_f64(at + dur / 2.0);

    // A failure inside the window aborts the pending snapshot. No earlier
    // checkpoint had committed, so the run is unrecoverable — the aborted
    // half-replicated snapshot must never be restored.
    let mut rt = build(8);
    rt.schedule_failure(mid, 2);
    let RunOutcome::Unrecoverable(err) = rt.run_outcome() else {
        panic!("the run must end unrecoverable");
    };
    assert_eq!(rt.metric("ckpt_aborted").len(), 1);
    assert_eq!(rt.metric("ckpt_committed").len(), 0);
    assert!(err.reason.contains("no committed checkpoint"), "got: {}", err.reason);
}

#[test]
fn failure_during_later_checkpoint_rolls_back_to_previous() {
    // Auto-checkpointing takes several checkpoints; a failure inside a
    // later replication window aborts that snapshot and rolls back to the
    // previous committed one — the job still finishes.
    let build_auto = || {
        build_rt(
            Runtime::builder(MachineConfig::homogeneous(8))
                .auto_checkpoint(SimTime::from_millis(10))
                .build(),
        )
    };
    let mut probe = build_auto();
    probe.run();
    let ckpts = probe.metric("ckpt_time_s").to_vec();
    assert!(ckpts.len() >= 2, "auto-checkpointing ran repeatedly: {ckpts:?}");
    assert!(probe.metric("ckpt_committed").len() >= 2);
    let (at, dur) = ckpts[1];
    let mid = SimTime::from_secs_f64(at + dur / 2.0);

    let mut rt = build_auto();
    rt.schedule_failure(mid, 3);
    rt.run_outcome().summary().expect("previous committed checkpoint still valid");
    assert_eq!(rt.metric("ckpt_aborted").len(), 1);
    assert!(!rt.metric("restart_time_s").is_empty());
    let steps: Vec<f64> = rt.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(*steps.last().unwrap(), TARGET_STEPS as f64);
}

#[test]
fn auto_checkpoint_terminates_when_job_drains() {
    // The periodic tick must not keep an otherwise-finished run alive.
    let mut rt = Runtime::builder(MachineConfig::homogeneous(4))
        .auto_checkpoint(SimTime::from_millis(1))
        .build();
    let pingers = rt.create_array::<Pinger>("pingers");
    rt.insert(pingers, Ix::i1(0), Pinger::default(), Some(0));
    rt.send(pingers, Ix::i1(0), Step(0));
    let s = rt.run(); // would hang here if ticks re-armed forever
    assert!(s.end_time < SimTime::from_secs(1));
    assert_eq!(rt.inspect(pingers, &Ix::i1(0), |p| p.count), Some(5));
}

#[test]
fn shrink_doubles_iteration_time_and_expand_restores_it() {
    // A fixed-work iterative job: per-step time is inversely proportional
    // to the PE count (Fig. 5's LeanMD behaviour).
    let mut rt = build(16);
    rt.schedule_reconfigure(SimTime::from_millis(30), 8);
    rt.run();
    assert!(rt.metric("reconfigure").len() == 1);
    // All elements must have evacuated PEs 8..16.
    for ix in rt.array_indices(charm_core::ArrayId(0)) {
        let pe = rt.element_pe(charm_core::ArrayId(0), &ix).unwrap();
        assert!(pe < 8, "element {ix} still on retired PE {pe}");
    }
    assert_eq!(rt.num_pes(), 8);
    let steps: Vec<f64> = rt.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(*steps.last().unwrap(), TARGET_STEPS as f64, "job completed");
}

#[test]
fn expand_spreads_elements_to_new_pes() {
    let mut rt = build(16);
    // Start shrunk: do it immediately, then expand mid-run.
    rt.schedule_reconfigure(SimTime::from_nanos(1), 4);
    rt.schedule_reconfigure(SimTime::from_millis(30), 16);
    rt.run();
    assert_eq!(rt.num_pes(), 16);
    let steps: Vec<f64> = rt.metric("step_done").iter().map(|s| s.1).collect();
    assert_eq!(*steps.last().unwrap(), TARGET_STEPS as f64);
}

const EPOCH_WORKERS: i64 = 16;
const EPOCH_STEPS: u64 = 5;
const EPOCH_CKPT_AT: u64 = 2;

/// One step of an iteration, tagged with the main chare's restart count so a
/// contribution says which execution of the step made it.
#[derive(Default, Clone)]
struct EpochStep {
    step: u64,
    epoch: u64,
}

impl Pup for EpochStep {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.step);
        p.p(&mut self.epoch);
    }
}

/// A worker that contributes `1 + 1000·epoch` to its step's reduction and
/// logs when each step was dispatched to it.
#[derive(Default)]
struct EpochWorker;

impl Pup for EpochWorker {
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Chare for EpochWorker {
    type Msg = EpochStep;
    fn on_message(&mut self, m: EpochStep, ctx: &mut Ctx<'_>) {
        ctx.log_metric("dispatch_ns", ctx.now().as_nanos() as f64);
        ctx.work(2e6);
        let workers = charm_core::ArrayProxy::<EpochWorker>::from_id(ctx.my_id().array);
        ctx.contribute(
            workers,
            m.step as u32,
            RedValue::I64(1 + 1000 * m.epoch as i64),
            RedOp::Sum,
            Callback::ToChare {
                array: charm_core::ArrayId(1),
                ix: Ix::i1(0),
            },
        );
    }
}

/// The main chare: checkpoints after step 2, re-broadcasts the checkpointed
/// step under the next epoch after a restart, and logs every reduction
/// beside the value its epoch predicts.
#[derive(Default)]
struct EpochMain {
    step: u64,
    epoch: u64,
}

impl Pup for EpochMain {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.step);
        p.p(&mut self.epoch);
    }
}

impl Chare for EpochMain {
    type Msg = EpochStep;
    fn on_message(&mut self, _m: EpochStep, _ctx: &mut Ctx<'_>) {}

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        let workers = charm_core::ArrayProxy::<EpochWorker>::from_id(charm_core::ArrayId(0));
        let next = |s: &Self| EpochStep {
            step: s.step,
            epoch: s.epoch,
        };
        match ev {
            SysEvent::Reduction { tag, value } => {
                ctx.log_metric("tag", tag as f64);
                ctx.log_metric("sum", value.as_i64() as f64);
                let want = EPOCH_WORKERS * (1 + 1000 * self.epoch as i64);
                ctx.log_metric("want", want as f64);
                self.step += 1;
                if self.step == EPOCH_CKPT_AT {
                    ctx.start_mem_checkpoint(ctx.cb_self());
                } else if self.step < EPOCH_STEPS {
                    ctx.broadcast(workers, next(self));
                } else {
                    ctx.exit();
                }
            }
            SysEvent::CheckpointDone => ctx.broadcast(workers, next(self)),
            SysEvent::Restarted { .. } => {
                self.epoch += 1;
                ctx.broadcast(workers, next(self));
            }
            _ => {}
        }
    }
}

fn epoch_run(fail_at: Option<SimTime>) -> Runtime {
    let mut rt = Runtime::homogeneous(8);
    let workers = rt.create_array::<EpochWorker>("workers");
    let main = rt.create_array::<EpochMain>("main");
    for i in 0..EPOCH_WORKERS {
        rt.insert(workers, Ix::i1(i), EpochWorker, None);
    }
    rt.insert(main, Ix::i1(0), EpochMain::default(), Some(0));
    rt.broadcast(workers, EpochStep::default());
    if let Some(at) = fail_at {
        rt.schedule_failure(at, 5);
    }
    rt.run();
    rt
}

/// A failure rolls every chare back to the checkpoint, so the reduction of
/// a re-executed step must fold only contributions made after the restart:
/// every reduction sums the 16 contributions of one epoch. The failure is
/// placed one nanosecond after each step dispatch past the checkpoint, so
/// some workers of the step have contributed and others have not.
#[test]
fn rollback_folds_no_contribution_made_before_the_failure() {
    let probe = epoch_run(None);
    let committed = (probe.metric("ckpt_committed")[0].0 * 1e9).round() as u64;
    let mut times: Vec<u64> = probe
        .metric("dispatch_ns")
        .iter()
        .map(|&(_, ns)| ns as u64)
        .filter(|&ns| ns > committed)
        .collect();
    times.sort_unstable();
    times.dedup();
    assert!(
        times.len() >= (EPOCH_STEPS - EPOCH_CKPT_AT) as usize,
        "a dispatch per step past the checkpoint: {times:?}"
    );
    for ns in times {
        let rt = epoch_run(Some(SimTime::from_nanos(ns + 1)));
        assert_eq!(
            rt.metric("restart_time_s").len(),
            1,
            "failure at {ns} + 1 ns"
        );
        let vals = |name| rt.metric(name).iter().map(|s| s.1).collect::<Vec<f64>>();
        assert_eq!(vals("sum"), vals("want"), "failure at {ns} + 1 ns");
        let tags = vals("tag");
        assert_eq!(
            tags.last(),
            Some(&((EPOCH_STEPS - 1) as f64)),
            "failure at {ns} + 1 ns: the run finishes"
        );
        assert_eq!(
            vals("want").last(),
            Some(&((EPOCH_WORKERS * 1001) as f64)),
            "failure at {ns} + 1 ns: the last step ran after the restart"
        );
    }
}
