//! Critical-path extraction from a recorded [`ReplayLog`] — the
//! repository's one critical-path implementation.
//!
//! A recorded log has every actual start/end time, so the chain can be
//! recovered *exactly*. Walking back from the latest-finishing execution,
//! each hop's binding dependency is whichever held the start time:
//!
//! * the previous execution on the same PE, when it ran right up to this
//!   start (the PE was the bottleneck), else
//! * the producer of the consumed message (the network/queue was the
//!   bottleneck; the gap is attributed to message wait).
//!
//! The decomposition telescopes: `Σ dur + Σ wait` along the chain equals
//! the final execution's end time to the nanosecond.
//!
//! A message injected from outside any execution — a host send, or an
//! event the runtime raises itself, such as a checkpoint commit — is a root
//! of the recorded DAG: the chain stops there and charges the whole wait
//! back to t = 0 (DESIGN §7).

use crate::ReplayLog;
use std::collections::HashMap;

/// No predecessor: the exec is the first on its PE.
const NONE: u32 = u32::MAX;

/// One hop of the exact critical path, latest first.
#[derive(Debug, Clone)]
pub struct CritSeg {
    /// PE the hop ran on.
    pub pe: u32,
    /// Entry-method name (resolved through [`ReplayLog::entry_names`]).
    pub entry: String,
    /// Execution time of the hop (ns).
    pub dur_ns: u64,
    /// Wait attributed to the consumed message before the hop (ns); zero
    /// when the previous execution on the PE was the binding dependency.
    pub wait_ns: u64,
}

/// The exact critical path of a recorded run.
#[derive(Debug, Clone)]
pub struct CritPath {
    /// End time of the latest-finishing execution (ns). Equals
    /// `Σ dur_ns + Σ wait_ns` over [`segments`](Self::segments) exactly.
    pub len_ns: u64,
    /// Total attributed message wait (ns).
    pub wait_ns: u64,
    /// The chain, latest hop first.
    pub segments: Vec<CritSeg>,
    /// `(entry name, total ns on the path)`, descending.
    pub by_entry: Vec<(String, u64)>,
}

/// What the walk needs of one exec, decoded once.
struct Node {
    start_ns: u64,
    end_ns: u64,
    msg_id: u64,
    pe: u32,
    entry: u32,
}

/// Extract the exact critical path of `log`. Returns `None` when the log
/// recorded no executions.
pub fn critical_path(log: &ReplayLog) -> Option<CritPath> {
    // One pass over the log: each exec's node, msg_id -> producing exec,
    // and each exec's predecessor on its PE through the latest exec seen
    // per PE (execs are recorded in the global execution order, which is
    // start-ordered per PE).
    let mut execs = Vec::with_capacity(log.execs.len());
    let mut producer: HashMap<u64, usize> = HashMap::with_capacity(log.execs.len());
    let mut prev_on_pe = Vec::with_capacity(log.execs.len());
    let mut head: Vec<u32> = Vec::new();
    for (i, (e, sends)) in log.execs.iter().enumerate() {
        producer.extend(sends.map(|s| (s.msg_id, i)));
        let pe = e.pe as usize;
        if pe >= head.len() {
            head.resize(pe + 1, NONE);
        }
        prev_on_pe.push(head[pe]);
        head[pe] = i as u32;
        execs.push(Node {
            start_ns: e.start_ns,
            end_ns: e.start_ns + e.dur_ns,
            msg_id: e.msg_id,
            pe: e.pe,
            entry: e.entry,
        });
    }
    let last = (0..execs.len()).max_by_key(|&i| execs[i].end_ns)?;

    let mut segments = Vec::new();
    let mut wait_total = 0u64;
    let mut cur = Some(last);
    while let Some(i) = cur {
        let e = &execs[i];
        // Binding dependency: same-PE predecessor that ran right up to this
        // start beats the message edge (the PE, not the network, held us).
        let p = prev_on_pe[i] as usize;
        let pe_pred = (prev_on_pe[i] != NONE && execs[p].end_ns == e.start_ns).then_some(p);
        let (next, wait) = match pe_pred {
            Some(p) => (Some(p), 0),
            None => match producer.get(&e.msg_id) {
                Some(&p) => (Some(p), e.start_ns - execs[p].end_ns),
                // Root message (host send / RTS): the wait back to t=0.
                None => (None, e.start_ns),
            },
        };
        wait_total += wait;
        segments.push(CritSeg {
            pe: e.pe,
            entry: entry_name(log, e.entry),
            dur_ns: e.end_ns - e.start_ns,
            wait_ns: wait,
        });
        cur = next;
    }

    let mut by: HashMap<String, u64> = HashMap::new();
    for s in &segments {
        *by.entry(s.entry.clone()).or_default() += s.dur_ns;
    }
    let mut by_entry: Vec<_> = by.into_iter().collect();
    by_entry.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    Some(CritPath {
        len_ns: execs[last].end_ns,
        wait_ns: wait_total,
        segments,
        by_entry,
    })
}

fn entry_name(log: &ReplayLog, entry: u32) -> String {
    log.entry_names
        .get(entry as usize)
        .cloned()
        .unwrap_or_else(|| format!("entry#{entry}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecRec, SendRec};

    /// An exec on `pe` over `[start, start + dur)` that consumed `msg_id`
    /// and sent `sends`.
    fn exec(
        pe: u32,
        start: u64,
        dur: u64,
        msg_id: u64,
        sends: Vec<u64>,
    ) -> (ExecRec, Vec<SendRec>) {
        let e = ExecRec {
            pe,
            start_ns: start,
            dur_ns: dur,
            msg_id,
            ..Default::default()
        };
        let sends = sends
            .into_iter()
            .map(|msg_id| SendRec {
                msg_id,
                ..Default::default()
            })
            .collect();
        (e, sends)
    }

    fn log(execs: Vec<(ExecRec, Vec<SendRec>)>) -> ReplayLog {
        ReplayLog {
            entry_names: vec!["a::m".into()],
            end_ns: execs
                .iter()
                .map(|(e, _)| e.start_ns + e.dur_ns)
                .max()
                .unwrap_or(0),
            execs: execs.into_iter().collect(),
            ..Default::default()
        }
    }

    #[test]
    fn serial_chain_telescopes_to_makespan() {
        // 0 --10ns--> (20..120) sends 1 --30ns--> (150..250) on another PE.
        let l = log(vec![
            exec(0, 20, 100, 0, vec![1]),
            exec(1, 150, 100, 1, vec![]),
        ]);
        let cp = critical_path(&l).unwrap();
        assert_eq!(cp.len_ns, 250);
        assert_eq!(cp.segments.len(), 2);
        // 20 (root wait) + 30 (hop latency) attributed as wait.
        assert_eq!(cp.wait_ns, 50);
        assert_eq!(
            cp.segments.iter().map(|s| s.dur_ns + s.wait_ns).sum::<u64>(),
            cp.len_ns
        );
    }

    #[test]
    fn pe_contention_binds_through_queue_not_message() {
        // PE 0 runs two back-to-back entries; the second's message was sent
        // early (by exec 0's send at its end), so the PE is the bottleneck.
        let l = log(vec![
            exec(0, 0, 100, 0, vec![1, 2]),
            exec(0, 100, 50, 1, vec![]),
            exec(0, 150, 80, 2, vec![]),
        ]);
        let cp = critical_path(&l).unwrap();
        assert_eq!(cp.len_ns, 230);
        // Chain: exec2 <-pe- exec1 <-pe- exec0, no message wait anywhere.
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.wait_ns, 0);
    }
}
