//! Closed-loop elastic control: observe → decide → act (§III-D, §IV-F).
//!
//! Every adaptive mechanism the runtime has — malleable shrink/expand,
//! buddy checkpoints, failure injection, cloud interference — is driven by
//! hand elsewhere. This module closes the loop: a controller samples PE
//! utilization on a fixed virtual-time cadence and issues reconfiguration
//! decisions through the existing malleability path via a pluggable
//! [`ElasticPolicy`]. Decisions depend only on simulation state at tick
//! time (no wall clock, no unseeded randomness), so runs with the
//! controller enabled replay bit-identically.
//!
//! The module also owns the *graceful degradation* bookkeeping: when
//! preemptions or failures push alive capacity below the policy's floor
//! (or below what buddy checkpointing needs), the run finishes with a
//! typed [`Degraded`] outcome — surfaced by [`Runtime::run_outcome`] —
//! instead of being declared unrecoverable or silently limping.

use crate::runtime::{Ev, Runtime, RunSummary, Unrecoverable};
use crate::trace::TraceEventKind;
use charm_machine::SimTime;

/// What a policy sees at each controller tick.
#[derive(Debug, Clone, Copy)]
pub struct ElasticObs {
    /// Virtual time of the tick.
    pub(crate) now: SimTime,
    /// Current live-PE boundary (the malleable `live_pes`).
    pub(crate) live_pes: usize,
    /// Hard ceiling: the machine's total PE count.
    pub(crate) max_pes: usize,
    /// Mean utilization of alive PEs over the last cadence window, in
    /// [0, 1].
    pub(crate) utilization: f64,
}

/// An autoscaling policy: maps an observation to a target PE count.
///
/// Implementations must be deterministic functions of the observation
/// stream (plus their own state) — the controller runs inside the
/// simulation's event loop and its decisions are replayed bit-exactly.
pub trait ElasticPolicy: Send {
    /// Short name, used in traces and benchmark output.
    fn name(&self) -> &'static str;

    /// The capacity floor this policy promises never to cross. A run whose
    /// alive capacity falls below it (e.g. preemptions faster than the
    /// platform grants replacements) completes [`Degraded`].
    fn min_pes(&self) -> usize {
        1
    }

    /// Decide a new target PE count, or `None` to hold.
    fn decide(&mut self, obs: &ElasticObs) -> Option<usize>;
}

/// The do-nothing baseline: observes, never acts. Useful for measuring
/// controller overhead and as the static arm of policy sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoopPolicy;

impl ElasticPolicy for NoopPolicy {
    fn name(&self) -> &'static str {
        "noop"
    }
    fn decide(&mut self, _obs: &ElasticObs) -> Option<usize> {
        None
    }
}

/// Hysteresis autoscaler: expand when utilization is high, shrink when it
/// is low, and hold inside the dead band — with a cooldown after every
/// action so reconfiguration cost is amortized, and hard min/max bounds.
#[derive(Debug, Clone)]
pub struct HysteresisPolicy {
    /// Expand when mean utilization exceeds this.
    pub(crate) expand_util: f64,
    /// Shrink when mean utilization falls below this.
    pub(crate) shrink_util: f64,
    /// PEs added/removed per action.
    pub(crate) step: usize,
    /// Minimum virtual time between actions.
    pub(crate) cooldown: SimTime,
    /// Never shrink below this many PEs.
    pub(crate) min_pes: usize,
    /// Never expand past this many PEs.
    pub(crate) max_pes: usize,
    last_action: Option<SimTime>,
}

impl HysteresisPolicy {
    /// A policy with explicit thresholds and bounds.
    pub fn new(
        expand_util: f64,
        shrink_util: f64,
        step: usize,
        cooldown: SimTime,
        min_pes: usize,
        max_pes: usize,
    ) -> Self {
        assert!(shrink_util < expand_util, "dead band must be nonempty");
        assert!(step >= 1 && min_pes >= 1 && max_pes >= min_pes);
        HysteresisPolicy {
            expand_util,
            shrink_util,
            step,
            cooldown,
            min_pes,
            max_pes,
            last_action: None,
        }
    }
}

impl ElasticPolicy for HysteresisPolicy {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn min_pes(&self) -> usize {
        self.min_pes
    }

    fn decide(&mut self, obs: &ElasticObs) -> Option<usize> {
        if let Some(last) = self.last_action {
            if obs.now.saturating_sub(last) < self.cooldown {
                return None;
            }
        }
        let lo = self.min_pes.max(1);
        let hi = self.max_pes.min(obs.max_pes);
        let cur = obs.live_pes;
        let target = if obs.utilization < self.shrink_util && cur > lo {
            cur.saturating_sub(self.step).max(lo)
        } else if obs.utilization > self.expand_util && cur < hi {
            (cur + self.step).min(hi)
        } else {
            return None;
        };
        if target == cur {
            return None;
        }
        self.last_action = Some(obs.now);
        Some(target)
    }
}

/// Controller configuration handed to [`RuntimeBuilder::elastic`].
///
/// [`RuntimeBuilder::elastic`]: crate::RuntimeBuilder::elastic
pub struct ElasticConfig {
    /// Sampling / decision cadence in virtual time.
    pub(crate) cadence: SimTime,
    /// The autoscaling policy.
    pub(crate) policy: Box<dyn ElasticPolicy>,
}

impl ElasticConfig {
    /// A controller ticking every `cadence` under `policy`.
    pub fn new(cadence: SimTime, policy: Box<dyn ElasticPolicy>) -> Self {
        assert!(cadence > SimTime::ZERO, "controller cadence must be positive");
        ElasticConfig { cadence, policy }
    }

    /// Observation-only controller (samples utilization, never acts).
    pub fn observe_only(cadence: SimTime) -> Self {
        ElasticConfig::new(cadence, Box::new(NoopPolicy))
    }
}

/// Live controller state inside the runtime.
pub(crate) struct ElasticCtl {
    pub(crate) cadence: SimTime,
    pub(crate) policy: Box<dyn ElasticPolicy>,
    /// `busy_time` of each PE at the previous tick (utilization deltas).
    last_busy: Vec<SimTime>,
    last_sample: SimTime,
}

impl ElasticCtl {
    pub(crate) fn new(cfg: ElasticConfig, num_pes: usize) -> Self {
        ElasticCtl {
            cadence: cfg.cadence,
            policy: cfg.policy,
            last_busy: vec![SimTime::ZERO; num_pes],
            last_sample: SimTime::ZERO,
        }
    }
}

/// The run finished, but below the capacity floor: preemptions/failures
/// retired more PEs than the policy (or buddy checkpointing) can tolerate,
/// and no replacement capacity exists in the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// When capacity first fell through the floor.
    pub at: SimTime,
    /// Alive PEs at that moment.
    pub have_pes: usize,
    /// The floor that was violated.
    pub floor: usize,
    /// Human-readable cause.
    pub(crate) reason: String,
}

impl std::fmt::Display for Degraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degraded at {:.6}s: {} alive PE(s) below floor {}: {}",
            self.at.as_secs_f64(),
            self.have_pes,
            self.floor,
            self.reason
        )
    }
}

/// Typed outcome of [`Runtime::run_outcome`]: the three ways a run with
/// failure injection can end, none of them a panic.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// Full capacity (or above the floor) all the way through.
    Completed(RunSummary),
    /// The job drained correctly but spent part of the run below the
    /// capacity floor.
    Degraded {
        /// The usual completion summary.
        summary: RunSummary,
        /// When/why capacity fell through the floor.
        info: Degraded,
    },
    /// A failure destroyed state no surviving checkpoint copy covered.
    Unrecoverable(Unrecoverable),
}

impl RunOutcome {
    /// The completion summary, unless the run was unrecoverable.
    pub fn summary(&self) -> Option<&RunSummary> {
        match self {
            RunOutcome::Completed(s) | RunOutcome::Degraded { summary: s, .. } => Some(s),
            RunOutcome::Unrecoverable(_) => None,
        }
    }

    /// Did the run complete at (or above) the capacity floor?
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }
}

impl Runtime {
    /// Like [`run`](Runtime::run), but with the full typed ending: clean
    /// completion, completion below the capacity floor (`Degraded`), or
    /// fatal state loss ([`Unrecoverable`]) — never a summary that silently
    /// omits lost work.
    pub fn run_outcome(&mut self) -> RunOutcome {
        self.run_until_outcome(SimTime::MAX)
    }

    /// [`run_outcome`](Runtime::run_outcome) with a virtual-time budget.
    pub fn run_until_outcome(&mut self, deadline: SimTime) -> RunOutcome {
        let summary = self.run_until(deadline);
        if let Some(u) = &self.unrecoverable {
            return RunOutcome::Unrecoverable(u.clone());
        }
        if let Some(d) = &self.degraded {
            return RunOutcome::Degraded {
                summary,
                info: d.clone(),
            };
        }
        RunOutcome::Completed(summary)
    }

    /// PEs currently alive inside the live boundary (preempted/retired PEs
    /// stay dead and are excluded).
    pub fn alive_pes(&self) -> usize {
        self.pes[..self.live_pes].iter().filter(|p| p.alive).count()
    }

    /// PE-seconds rented up to `until_s` (what a cloud bill charges): the
    /// integral over virtual time of the `capacity` journal, a step
    /// function that starts at the machine's PE count.
    pub fn pe_seconds(&self, until_s: f64) -> f64 {
        let (mut level, mut t, mut acc) = (self.pes.len() as f64, 0.0, 0.0);
        for &(ts, v) in self.metric("capacity") {
            let ts = ts.min(until_s);
            acc += level * (ts - t).max(0.0);
            (t, level) = (ts, v);
        }
        acc + level * (until_s - t).max(0.0)
    }

    /// Is any form of buddy checkpointing in play? (Shrinking to one PE
    /// would then co-locate both checkpoint copies.)
    pub(crate) fn ckpt_active(&self) -> bool {
        self.auto_ckpt_interval.is_some() || self.mem_ckpt.is_some() || self.ckpt_pending.is_some()
    }

    /// The capacity floor in force: the policy's promise, raised to 2 when
    /// buddy checkpointing needs distinct owner/buddy PEs.
    pub(crate) fn capacity_floor(&self) -> usize {
        let policy = self
            .elastic
            .as_ref()
            .map(|c| c.policy.min_pes())
            .unwrap_or(1);
        let ckpt = if self.ckpt_active() { 2 } else { 1 };
        policy.max(ckpt)
    }

    /// Journal a capacity change and latch the [`Degraded`] outcome when
    /// alive capacity falls through the floor (first breach wins; an
    /// unrecoverable verdict takes precedence).
    pub(crate) fn note_capacity(&mut self, reason: &str) {
        let have = self.alive_pes();
        self.journal("capacity", self.now, have as f64);
        let floor = self.capacity_floor();
        if have < floor && self.degraded.is_none() && self.unrecoverable.is_none() {
            if let Some(tr) = &mut self.tracer {
                tr.rts(self.now, TraceEventKind::DegradedCapacity { have, floor });
            }
            self.journal("degraded", self.now, have as f64);
            self.degraded = Some(Degraded {
                at: self.now,
                have_pes: have,
                floor,
                reason: reason.to_string(),
            });
        }
    }

    /// One controller tick: sample utilization since the last tick, ask the
    /// policy, act through the malleability path, re-arm. Ticks stop
    /// re-arming once the job drains (same shape as the auto-checkpoint
    /// tick), so the run still terminates.
    pub(crate) fn on_elastic_tick(&mut self) {
        let Some(mut ctl) = self.elastic.take() else {
            return;
        };
        if !self.work_outstanding() || self.exit_requested {
            self.elastic = Some(ctl);
            return;
        }

        // Mean utilization of alive PEs over the window since the last
        // tick. `busy_time` accrues at entry completion, so entries longer
        // than the cadence smear across windows — fine for control.
        let dt = self.now.saturating_sub(ctl.last_sample);
        let mut util_sum = 0.0;
        let mut n_alive = 0usize;
        for pe in 0..self.live_pes {
            let busy = self.pes[pe].busy_time;
            let delta = busy.saturating_sub(ctl.last_busy[pe]);
            ctl.last_busy[pe] = busy;
            if self.pes[pe].alive {
                n_alive += 1;
                if dt > SimTime::ZERO {
                    util_sum += (delta.as_secs_f64() / dt.as_secs_f64()).min(1.0);
                }
            }
        }
        ctl.last_sample = self.now;
        let util = if n_alive > 0 {
            util_sum / n_alive as f64
        } else {
            0.0
        };
        self.journal("elastic_util", self.now, util);

        let obs = ElasticObs {
            now: self.now,
            live_pes: self.live_pes,
            max_pes: self.machine.num_pes,
            utilization: util,
        };
        if let Some(target) = ctl.policy.decide(&obs) {
            let floor = ctl.policy.min_pes().max(1);
            let target = target.clamp(floor, self.machine.num_pes);
            if target != self.live_pes {
                if let Some(tr) = &mut self.tracer {
                    tr.rts(
                        self.now,
                        TraceEventKind::ElasticDecision {
                            from: self.live_pes,
                            to: target,
                            util,
                        },
                    );
                }
                self.journal("elastic_decision", self.now, target as f64);
                self.on_reconfigure(target);
            }
        }

        let at = self.now + ctl.cadence;
        self.push_ev(at, Ev::ElasticTick);
        self.elastic = Some(ctl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_s: u64, live: usize, util: f64) -> ElasticObs {
        ElasticObs {
            now: SimTime::from_secs(now_s),
            live_pes: live,
            max_pes: 64,
            utilization: util,
        }
    }

    #[test]
    fn hysteresis_dead_band_holds() {
        let mut p = HysteresisPolicy::new(0.9, 0.5, 2, SimTime::from_secs(10), 2, 16);
        assert_eq!(p.decide(&obs(5, 8, 0.7)), None);
        assert_eq!(p.decide(&obs(6, 8, 0.89)), None);
        assert_eq!(p.decide(&obs(7, 8, 0.51)), None);
    }

    #[test]
    fn hysteresis_shrinks_expands_and_cools_down() {
        let mut p = HysteresisPolicy::new(0.9, 0.5, 2, SimTime::from_secs(10), 2, 16);
        assert_eq!(p.decide(&obs(5, 8, 0.2)), Some(6));
        // Cooldown: the next breach inside 10 s is ignored.
        assert_eq!(p.decide(&obs(9, 6, 0.2)), None);
        assert_eq!(p.decide(&obs(15, 6, 0.2)), Some(4));
        // Expand, clipped at max_pes.
        assert_eq!(p.decide(&obs(30, 15, 0.95)), Some(16));
        // Shrink never crosses min_pes.
        let mut q = HysteresisPolicy::new(0.9, 0.5, 4, SimTime::ZERO, 2, 16);
        assert_eq!(q.decide(&obs(40, 3, 0.1)), Some(2));
        assert_eq!(q.decide(&obs(41, 2, 0.1)), None);
    }

    #[test]
    fn noop_never_acts() {
        let mut p = NoopPolicy;
        assert_eq!(p.decide(&obs(1, 8, 0.0)), None);
        assert_eq!(p.decide(&obs(2, 8, 1.0)), None);
        assert_eq!(p.min_pes(), 1);
    }
}
