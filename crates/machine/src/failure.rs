//! Scheduled node-failure injection (§III-B's "simulated failure" runs),
//! extended with *spot preemptions*: failures the platform announces ahead
//! of time (cloud §IV-F), giving the runtime a warning window in which to
//! evacuate state instead of paying for a rollback.

use crate::SimTime;

/// How a scheduled failure manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureKind {
    /// The node dies with no warning (the classic injected crash).
    #[default]
    Crash,
    /// Spot-instance preemption: the platform announces at
    /// `time - warning` that the node will be reclaimed at `time`. A long
    /// enough warning lets the runtime drain the node proactively; a short
    /// one degrades to the ordinary crash/restart path.
    Preemption {
        /// Advance notice before the kill lands.
        warning: SimTime,
    },
}

/// One injected failure: the node containing `pe` dies at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failure {
    /// When the node dies.
    pub time: SimTime,
    /// A PE on the failing node (the runtime expands this to the node's
    /// full PE range using its node size).
    pub pe: usize,
    /// Crash or announced preemption.
    pub kind: FailureKind,
}

impl Failure {
    /// An unannounced crash at `time`.
    pub(crate) fn crash(time: SimTime, pe: usize) -> Self {
        Failure {
            time,
            pe,
            kind: FailureKind::Crash,
        }
    }

    /// A preemption landing at `time`, announced `warning` earlier.
    pub(crate) fn preemption(time: SimTime, pe: usize, warning: SimTime) -> Self {
        Failure {
            time,
            pe,
            kind: FailureKind::Preemption { warning },
        }
    }

    /// When the failure becomes visible to the runtime: the announcement
    /// time for preemptions (saturating at zero), the kill time for
    /// crashes.
    pub fn visible_at(&self) -> SimTime {
        match self.kind {
            FailureKind::Crash => self.time,
            FailureKind::Preemption { warning } => self.time.saturating_sub(warning),
        }
    }
}

/// The full failure schedule for a run.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    events: Vec<Failure>,
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> Self {
        FailurePlan { events: Vec::new() }
    }

    /// Add one crash at its sorted position (stable: a failure inserted
    /// at an already-occupied time lands after the existing ones).
    pub fn push(&mut self, time: SimTime, pe: usize) {
        self.push_failure(Failure::crash(time, pe));
    }

    /// Add one preemption (kill at `time`, announced `warning` earlier) at
    /// its sorted position, with the same stable tie-break as [`push`].
    ///
    /// [`push`]: FailurePlan::push
    pub fn push_preemption(&mut self, time: SimTime, pe: usize, warning: SimTime) {
        self.push_failure(Failure::preemption(time, pe, warning));
    }

    /// Add an arbitrary failure at its sorted position (stable).
    pub(crate) fn push_failure(&mut self, f: Failure) {
        let at = self.events.partition_point(|e| e.time <= f.time);
        self.events.insert(at, f);
    }

    /// Merge another plan into this one, keeping kill-time order (stable:
    /// on ties, this plan's failures come first).
    pub fn merge(&mut self, other: &FailurePlan) {
        let mut merged = Vec::with_capacity(self.events.len() + other.events.len());
        let (mut a, mut b) = (self.events.iter().peekable(), other.events.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.time <= y.time {
                        merged.push(*a.next().unwrap());
                    } else {
                        merged.push(*b.next().unwrap());
                    }
                }
                (Some(_), None) => merged.extend(a.by_ref().copied()),
                (None, Some(_)) => merged.extend(b.by_ref().copied()),
                (None, None) => break,
            }
        }
        self.events = merged;
    }

    /// All scheduled failures in kill-time order.
    pub fn events(&self) -> &[Failure] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_order() {
        let mut p = FailurePlan::none();
        assert!(p.events().is_empty());
        p.push(SimTime::from_secs(5), 0);
        p.push(SimTime::from_secs(1), 7);
        assert_eq!(p.events()[0].pe, 7);
        assert_eq!(p.events().len(), 2);
    }

    #[test]
    fn push_inserts_at_sorted_position_stably() {
        let mut p = FailurePlan::none();
        p.push(SimTime::from_secs(3), 0);
        p.push(SimTime::from_secs(1), 1);
        p.push(SimTime::from_secs(3), 2); // tie: lands after pe 0
        p.push(SimTime::from_secs(2), 3);
        let pes: Vec<usize> = p.events().iter().map(|f| f.pe).collect();
        assert_eq!(pes, vec![1, 3, 0, 2]);
        assert!(p.events().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn merge_interleaves_two_plans() {
        let mut a = FailurePlan::none();
        a.push(SimTime::from_secs(1), 10);
        a.push(SimTime::from_secs(4), 11);
        let mut b = FailurePlan::none();
        b.push(SimTime::from_secs(2), 20);
        b.push(SimTime::from_secs(4), 21); // tie with a's second: a first
        b.push(SimTime::from_secs(9), 22);
        a.merge(&b);
        let pes: Vec<usize> = a.events().iter().map(|f| f.pe).collect();
        assert_eq!(pes, vec![10, 20, 11, 21, 22]);
        let mut empty = FailurePlan::none();
        empty.merge(&FailurePlan::none());
        assert!(empty.events().is_empty());
    }

    #[test]
    fn preemptions_sort_by_kill_time_not_warning() {
        // A preemption with a long warning is *announced* before an earlier
        // crash, but the plan orders by when nodes actually die.
        let mut p = FailurePlan::none();
        p.push_preemption(SimTime::from_secs(10), 3, SimTime::from_secs(8));
        p.push(SimTime::from_secs(5), 1);
        assert_eq!(p.events()[0].pe, 1);
        assert_eq!(p.events()[1].pe, 3);
        assert_eq!(p.events()[1].visible_at(), SimTime::from_secs(2));
        assert_eq!(p.events()[0].visible_at(), SimTime::from_secs(5));
    }

    #[test]
    fn visible_at_saturates_at_zero() {
        let f = Failure::preemption(SimTime::from_secs(3), 0, SimTime::from_secs(30));
        assert_eq!(f.visible_at(), SimTime::ZERO);
    }
}
