//! Message-race detection: diff a baseline recording against a perturbed
//! re-run and minimize a witness.
//!
//! The detector is state-based, not heuristic: a chare is flagged
//! *order-sensitive* iff its final PUP state digest differs between the two
//! runs — i.e. the delivery reordering demonstrably changed its state. The
//! witness is then minimized by walking the chare's consumed-message
//! sequences in both runs to the first position where they disagree: the
//! two messages reported there are a pair whose delivery order swapped
//! (everything later is downstream noise of that swap).

use crate::ReplayLog;
use charm_core::ObjId;
use std::collections::BTreeMap;

/// One consumed message, as seen by the destination chare.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgDesc {
    /// Entry method it triggered.
    pub entry: String,
    /// PUP digest of the payload.
    pub(crate) digest: u64,
    /// Producing chare (`None` = host/RTS origin).
    pub(crate) src: Option<ObjId>,
}

impl std::fmt::Display for MsgDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.src {
            Some(s) => write!(f, "{} (payload {:#x}) from {:?}", self.entry, self.digest, s),
            None => write!(f, "{} (payload {:#x}) from host/RTS", self.entry, self.digest),
        }
    }
}

/// The minimized two-message witness of an order sensitivity.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The chare whose consumed sequence first diverged.
    pub(crate) chare: ObjId,
    /// Position in that chare's consumed-message sequence.
    pub(crate) position: usize,
    /// What the baseline run consumed at `position`.
    pub first: MsgDesc,
    /// What the perturbed run consumed there instead.
    pub second: MsgDesc,
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chare {:?}, delivery #{}: baseline consumed [{}], perturbed consumed [{}]",
            self.chare, self.position, self.first, self.second
        )
    }
}

/// Outcome of diffing one perturbed run against the baseline.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Chares whose final state digests differ (or that are missing from
    /// the perturbed run), sorted by id.
    pub order_sensitive: Vec<ObjId>,
    /// Minimized witness (present whenever any consumed sequence diverged).
    pub witness: Option<Witness>,
}

impl RaceReport {
    /// Did the perturbation change any chare's final state?
    pub fn flagged(&self) -> bool {
        !self.order_sensitive.is_empty()
    }
}

/// Per-destination consumed-message sequences, with the global exec seq of
/// each consumption (for earliest-divergence ranking).
fn consumed_seqs(log: &ReplayLog) -> BTreeMap<ObjId, Vec<(u64, MsgDesc)>> {
    let mut out: BTreeMap<ObjId, Vec<(u64, MsgDesc)>> = BTreeMap::new();
    for (seq, (e, _)) in log.execs.iter().enumerate() {
        let entry = log
            .entry_names
            .get(e.entry as usize)
            .cloned()
            .unwrap_or_else(|| "?".into());
        out.entry(log.chare(e.dst)).or_default().push((
            seq as u64,
            MsgDesc {
                entry,
                digest: e.msg_digest,
                src: log.msg_src(&e),
            },
        ));
    }
    out
}

/// Diff a perturbed run against the baseline recording. Both logs must come
/// from the *same program and seed* (only the perturbation differs), so any
/// final-state difference is attributable to delivery order.
pub fn diff_runs(base: &ReplayLog, perturbed: &ReplayLog) -> RaceReport {
    let base_fin: BTreeMap<ObjId, u64> = base.final_state.digests.iter().copied().collect();
    let pert_fin: BTreeMap<ObjId, u64> = perturbed.final_state.digests.iter().copied().collect();

    let mut order_sensitive = Vec::new();
    for (&chare, &d) in &base_fin {
        if pert_fin.get(&chare) != Some(&d) {
            order_sensitive.push(chare);
        }
    }

    // Minimize: earliest (by baseline exec seq) position where some chare's
    // consumed sequence disagrees between the runs.
    let bs = consumed_seqs(base);
    let ps = consumed_seqs(perturbed);
    let mut witness: Option<(u64, Witness)> = None;
    for (chare, bseq) in &bs {
        let empty = Vec::new();
        let pseq = ps.get(chare).unwrap_or(&empty);
        let n = bseq.len().min(pseq.len());
        for i in 0..n {
            let (gseq, a) = &bseq[i];
            let (_, b) = &pseq[i];
            if a != b {
                if witness.as_ref().map(|(g, _)| *gseq < *g).unwrap_or(true) {
                    witness = Some((
                        *gseq,
                        Witness {
                            chare: *chare,
                            position: i,
                            first: a.clone(),
                            second: b.clone(),
                        },
                    ));
                }
                break;
            }
        }
    }

    RaceReport {
        order_sensitive,
        witness: witness.map(|(_, w)| w),
    }
}

/// Outcome of a [`hunt`] campaign.
#[derive(Debug, Clone, Default)]
pub struct HuntOutcome {
    /// Report of the first perturbed run that flagged (empty report = none
    /// of the K runs changed any final state).
    pub report: RaceReport,
    /// Perturbed runs executed.
    pub runs: usize,
    /// Seed of the flagging perturbation, when one flagged.
    pub flagging_seed: Option<u64>,
}

/// Run up to `k` perturbed re-executions (seeds `base_seed..base_seed+k`)
/// and stop at the first one whose final state diverges from `baseline`.
/// `run_perturbed` re-executes the recorded program with the given
/// perturbation seed and returns its log.
pub fn hunt(
    baseline: &ReplayLog,
    k: u64,
    base_seed: u64,
    mut run_perturbed: impl FnMut(u64) -> ReplayLog,
) -> HuntOutcome {
    for i in 0..k {
        let seed = base_seed + i;
        let log = run_perturbed(seed);
        let report = diff_runs(baseline, &log);
        if report.flagged() {
            return HuntOutcome {
                report,
                runs: (i + 1) as usize,
                flagging_seed: Some(seed),
            };
        }
    }
    HuntOutcome {
        report: RaceReport::default(),
        runs: k as usize,
        flagging_seed: None,
    }
}
