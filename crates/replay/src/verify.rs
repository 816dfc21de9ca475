//! Digest-for-digest comparison of two replay logs (typically a recording
//! and a same-seed re-run).

use crate::ReplayLog;

/// The first point where two logs disagree.
#[derive(Debug, Clone)]
pub(crate) struct Divergence {
    /// Execution index (or digest-point seq) of the disagreement.
    pub(crate) seq: u64,
    /// What disagreed (e.g. `"exec.msg_digest"`, `"state_point"`).
    pub(crate) what: String,
    /// Rendering of the recorded side.
    pub(crate) recorded: String,
    /// Rendering of the replayed side.
    pub(crate) replayed: String,
}

/// Outcome of [`verify`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Entries in the recorded log.
    pub execs_recorded: usize,
    /// Entries in the replayed log.
    pub execs_replayed: usize,
    /// Matching periodic state-digest points.
    pub(crate) state_points_ok: usize,
    /// Did the final chare-state digests match exactly?
    pub(crate) final_state_ok: bool,
    /// First disagreement, if any.
    pub(crate) first_divergence: Option<Divergence>,
}

impl VerifyReport {
    /// True when the two logs are digest-for-digest identical.
    pub fn ok(&self) -> bool {
        self.first_divergence.is_none() && self.final_state_ok
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ok() {
            write!(
                f,
                "replay verified: {} entries, {} state point(s), final state identical",
                self.execs_recorded, self.state_points_ok
            )
        } else if let Some(d) = &self.first_divergence {
            write!(
                f,
                "replay DIVERGED at seq {} ({}): recorded {} vs replayed {}",
                d.seq, d.what, d.recorded, d.replayed
            )
        } else {
            write!(f, "replay DIVERGED: final state digests differ")
        }
    }
}

fn entry_name(log: &ReplayLog, ix: u32) -> &str {
    log.entry_names
        .get(ix as usize)
        .map(|s| s.as_str())
        .unwrap_or("?")
}

/// Compare `recorded` against `replayed`: the executed-entry stream
/// (chare, entry, PE, consumed digest, virtual start/duration), every
/// periodic state-digest point, and the final state digest. Reports the
/// *first* divergence — everything after it is downstream noise. Chares
/// are compared by identity, never by their index in either log.
pub fn verify(recorded: &ReplayLog, replayed: &ReplayLog) -> VerifyReport {
    let mut report = VerifyReport {
        execs_recorded: recorded.execs.len(),
        execs_replayed: replayed.execs.len(),
        state_points_ok: 0,
        final_state_ok: recorded.final_state.digests == replayed.final_state.digests,
        first_divergence: None,
    };

    let pairs = recorded.execs.iter().zip(replayed.execs.iter());
    for (seq, ((a, _), (b, _))) in pairs.enumerate() {
        let mismatch = |what: &str, x: String, y: String| Divergence {
            seq: seq as u64,
            what: what.to_string(),
            recorded: x,
            replayed: y,
        };
        let (a_dst, b_dst) = (recorded.chare(a.dst), replayed.chare(b.dst));
        let d = if a_dst != b_dst {
            Some(mismatch("exec.dst", format!("{a_dst:?}"), format!("{b_dst:?}")))
        } else if entry_name(recorded, a.entry) != entry_name(replayed, b.entry) {
            Some(mismatch(
                "exec.entry",
                entry_name(recorded, a.entry).into(),
                entry_name(replayed, b.entry).into(),
            ))
        } else if a.pe != b.pe {
            Some(mismatch("exec.pe", a.pe.to_string(), b.pe.to_string()))
        } else if a.msg_digest != b.msg_digest {
            Some(mismatch(
                "exec.msg_digest",
                format!("{:#x}", a.msg_digest),
                format!("{:#x}", b.msg_digest),
            ))
        } else if a.start_ns != b.start_ns || a.dur_ns != b.dur_ns {
            Some(mismatch(
                "exec.timing",
                format!("{}+{}ns", a.start_ns, a.dur_ns),
                format!("{}+{}ns", b.start_ns, b.dur_ns),
            ))
        } else {
            None
        };
        if let Some(d) = d {
            report.first_divergence = Some(d);
            return report;
        }
    }
    if recorded.execs.len() != replayed.execs.len() {
        report.first_divergence = Some(Divergence {
            seq: recorded.execs.len().min(replayed.execs.len()) as u64,
            what: "exec.count".into(),
            recorded: recorded.execs.len().to_string(),
            replayed: replayed.execs.len().to_string(),
        });
        return report;
    }

    for (a, b) in recorded.state_points.iter().zip(&replayed.state_points) {
        if a != b {
            report.first_divergence = Some(Divergence {
                seq: a.seq,
                what: "state_point".into(),
                recorded: format!("{} digests at t={}ns", a.digests.len(), a.t_ns),
                replayed: format!("{} digests at t={}ns", b.digests.len(), b.t_ns),
            });
            return report;
        }
        report.state_points_ok += 1;
    }
    if recorded.state_points.len() != replayed.state_points.len() {
        report.first_divergence = Some(Divergence {
            seq: 0,
            what: "state_point.count".into(),
            recorded: recorded.state_points.len().to_string(),
            replayed: replayed.state_points.len().to_string(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecRec;
    use charm_core::{ArrayId, Ix, ObjId};

    fn chare(i: i64) -> ObjId {
        ObjId {
            array: ArrayId(0),
            ix: Ix::i1(i),
        }
    }

    /// One run executes chare 1 then chare 2, the other chare 2 then
    /// chare 1: both logs read `dst` 0 then 1, so only resolved identities
    /// show where they part.
    #[test]
    fn divergence_is_found_by_identity_not_by_index() {
        let log = |order: [i64; 2], dsts: [u32; 2]| ReplayLog {
            entry_names: vec!["a::on_message".into()],
            chares: order.iter().map(|&i| chare(i)).collect(),
            execs: dsts
                .into_iter()
                .map(|dst| {
                    let e = ExecRec {
                        dst,
                        ..Default::default()
                    };
                    (e, vec![])
                })
                .collect(),
            ..Default::default()
        };
        let (a, b) = (log([1, 2], [0, 1]), log([2, 1], [0, 1]));
        assert_eq!(verify(&a, &a).first_divergence.map(|d| d.what), None);
        let d = verify(&a, &b).first_divergence.expect("the runs diverge");
        assert_eq!((d.seq, d.what.as_str()), (0, "exec.dst"));
        assert_eq!(d.recorded, format!("{:?}", chare(1)));
        assert_eq!(d.replayed, format!("{:?}", chare(2)));

        // The same executions interned in another order verify clean.
        assert!(verify(&a, &log([2, 1], [1, 0])).ok());
    }
}
