//! Checkpoint/restart and fault tolerance (§III-B).
//!
//! Two mechanisms, both built on the PUP framework:
//!
//! * **Double in-memory checkpoint** (`CkStartMemCheckpoint`): every chare is
//!   packed; the bytes are kept in the local PE's memory and mirrored on a
//!   *buddy* PE. The snapshot only becomes the recovery point once buddy
//!   replication finishes ([`Ev::CkptCommit`]); a failure inside that window
//!   aborts it and rolls back to the previous committed checkpoint. When an
//!   injected failure kills a node, every PE in the node's range dies and the
//!   whole application rolls back: all chare state is restored from the
//!   checkpoint (the failed PEs' chares come from their buddy copies),
//!   message state is discarded, and every chare receives
//!   [`SysEvent::Restarted`] to re-drive execution. If a failure — or a
//!   cascade landing before copies are rebuilt — destroys *both* copies of
//!   some chare, the run is [`Unrecoverable`](crate::Unrecoverable): that is
//!   surfaced as a typed outcome, never a silent partial restore.
//! * **Disk checkpoint** (`CkStartCheckpoint` + `+restart`): chare state is
//!   written to real files (CRC32-checksummed, written atomically via a
//!   temp file + rename) and can be restored into a *new* runtime with a
//!   *different* PE count — split execution, exactly as the paper describes.
//!   Corrupted files are rejected with a structured [`RestoreError`].

use crate::array::ObjId;
use crate::chare::{Callback, SysEvent};
use crate::elastic::Verdict;
use crate::runtime::{Ev, Runtime, Unrecoverable, ENVELOPE_BYTES, TOKEN_AUX};
use crate::trace::TraceEventKind;
use charm_machine::SimTime;
use fxhash::FxHashMap;
use std::collections::{BTreeMap, HashSet};

use std::io::Write;
use std::path::Path;

/// Write the file at `path` so that a crash leaves either its old contents
/// or the complete new ones: `write` fills `<path>.tmp` (the full name plus
/// `.tmp`, in the same directory), which is synced to disk and then renamed
/// over `path`.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Number of barrier phases in the restart protocol. The paper observes
/// restart time *growing* with PE count "due to the effect of barriers";
/// these are those barriers.
const RESTART_BARRIERS: u64 = 6;

/// Magic prefix of the on-disk checkpoint format (version 2: adds a
/// length + CRC32 header over the payload).
const DISK_MAGIC: &[u8; 8] = b"CHMCKPT2";

/// Fault-tolerance state: the recovery point, the checkpoint replicating,
/// the restart protocol's open windows and the auto-checkpoint period.
pub(crate) struct Ft {
    /// The committed double in-memory checkpoint.
    mem_ckpt: Option<MemCheckpoint>,
    /// A checkpoint whose buddy replication is still in flight; it becomes
    /// `mem_ckpt` only when the matching [`Ev::CkptCommit`] fires. A failure
    /// before then aborts it (rollback uses the previous `mem_ckpt`).
    pending: Option<PendingCkpt>,
    /// PEs whose held checkpoint copies are invalid until the given time
    /// (the restart protocol is still re-replicating them). A failure that
    /// lands inside such a window widens the effective dead set.
    copy_missing: FxHashMap<usize, SimTime>,
    /// Automatic checkpoint period, when enabled.
    auto_interval: Option<SimTime>,
}

impl Ft {
    pub(crate) fn new(auto_interval: Option<SimTime>) -> Self {
        Ft { mem_ckpt: None, pending: None, copy_missing: FxHashMap::default(), auto_interval }
    }

    /// Is any form of buddy checkpointing in play? (Shrinking to one PE
    /// would then co-locate both checkpoint copies.)
    pub(crate) fn ckpt_active(&self) -> bool {
        self.auto_interval.is_some() || self.mem_ckpt.is_some() || self.pending.is_some()
    }
}

/// An in-memory snapshot of the entire application.
struct MemCheckpoint {
    /// Every chare's PE at checkpoint time — where the *local* copy
    /// resides; the second copy lives on that PE's [`buddy_pe`] — and its
    /// packed state, keyed by identity. Ordered map: restore iterates it,
    /// and record/replay requires that order to be deterministic across runs.
    chares: BTreeMap<ObjId, (usize, Vec<u8>)>,
    /// Virtual time the checkpoint was taken.
    taken_at: SimTime,
    /// Per-PE checkpoint volume (drives the buddy-transfer cost model).
    per_pe_bytes: Vec<usize>,
    /// PE count when the checkpoint was taken (fixes the buddy mapping).
    num_pes: usize,
}

/// A checkpoint whose buddy replication is still in flight (§III-B: the
/// snapshot is usable only once both copies exist everywhere).
struct PendingCkpt {
    ckpt: MemCheckpoint,
    cb: Callback,
    /// When replication finishes and the checkpoint commits.
    done: SimTime,
}

/// Buddy of a PE in the double in-memory scheme: the PE half the machine
/// away, so a node failure never takes out both copies.
pub fn buddy_pe(pe: usize, num_pes: usize) -> usize {
    (pe + num_pes / 2) % num_pes
}

impl Runtime {
    /// Take the double in-memory checkpoint now. Called from
    /// [`Ctx::start_mem_checkpoint`](crate::Ctx::start_mem_checkpoint)
    /// action application and from the automatic checkpoint tick.
    pub(crate) fn start_mem_checkpoint(&mut self, cb: Callback, at: SimTime) {
        if let Some(p) = &self.ft.pending {
            // A checkpoint is already replicating; coalesce into it.
            let done = p.done;
            self.deliver_callback(cb, SysEvent::CheckpointDone, done, 0);
            return;
        }
        let mut chares = BTreeMap::new();
        let mut per_pe = vec![0usize; self.machine.num_pes];
        for s in self.stores.iter_mut() {
            let array = s.id();
            s.visit_sorted(&mut |ix, pe, chare| {
                let b = charm_pup::to_bytes(chare);
                per_pe[pe] += b.len();
                chares.insert(ObjId { array, ix }, (pe, b));
            });
        }

        // Cost: each PE streams its checkpoint to its buddy concurrently
        // (max over PEs), plus one barrier to agree the checkpoint is
        // complete. Checkpoint time *decreases* with PE count because the
        // per-PE volume shrinks (paper Fig. 8-right, Fig. 10).
        let max_bytes = per_pe.iter().copied().max().unwrap_or(0);
        let transfer = self.ckpt_stream(0, 1, max_bytes);
        let barrier = self.barrier_cost();
        let total = transfer + barrier;
        let done = at + total;

        self.trace_rts(
            at,
            TraceEventKind::CkptBegin { chares: chares.len(), bytes: per_pe.iter().sum() },
        );
        self.ft.pending = Some(PendingCkpt {
            ckpt: MemCheckpoint {
                chares,
                taken_at: at,
                per_pe_bytes: per_pe,
                num_pes: self.live_pes,
            },
            cb,
            done,
        });
        self.push_ev(done, Ev::CkptCommit);
        self.block_all_pes(done);
        self.journal("ckpt_time_s", at, total.as_secs_f64());
    }

    /// Buddy replication finished: the pending snapshot becomes the
    /// recovery point and the requester learns the checkpoint succeeded.
    pub(crate) fn on_ckpt_commit(&mut self) {
        let Some(p) = self.ft.pending.take() else {
            // The checkpoint this commit belonged to was aborted by a
            // failure; nothing to do.
            return;
        };
        if p.done != self.now {
            // A stale commit event for an aborted checkpoint; the live
            // pending one commits at its own time.
            self.ft.pending = Some(p);
            return;
        }
        // Both copies of every chare are now in place; rebuild windows
        // from any earlier restart are superseded.
        self.ft.copy_missing.clear();
        self.ft.mem_ckpt = Some(p.ckpt);
        self.trace_rts(self.now, TraceEventKind::CkptCommit);
        self.journal("ckpt_committed", self.now, 1.0);
        self.deliver_callback(p.cb, SysEvent::CheckpointDone, self.now, 0);
    }

    /// Automatic periodic checkpoint tick: checkpoint if the application
    /// still has work outstanding, and re-arm only in that case so the run
    /// terminates once the job drains.
    pub(crate) fn on_auto_ckpt(&mut self) {
        let Some(interval) = self.ft.auto_interval else {
            return;
        };
        if !self.work_outstanding() || self.exit_requested {
            return;
        }
        // A checkpoint still replicating absorbs this one.
        self.start_mem_checkpoint(Callback::Ignore, self.now);
        let at = self.now + interval;
        self.push_ev(at, Ev::AutoCkpt);
    }

    /// Handle a spot-preemption announcement: the node containing `pe` will
    /// be reclaimed at `deadline` (§IV-F cloud story). When the remaining
    /// warning covers the modeled evacuation cost, every chare is drained
    /// off the doomed PEs *before* the kill — the later [`Ev::NodeFail`]
    /// then finds no alive PE on the node and becomes a no-op, so the run
    /// pays migration cost instead of a rollback. Too-short warnings
    /// degrade gracefully to the ordinary checkpoint/restart path.
    pub(crate) fn on_preempt_warn(&mut self, pe: usize, deadline: SimTime) {
        if pe >= self.pes.len() {
            return;
        }
        let node = self.machine.node_of(pe);
        let doomed: Vec<usize> = self
            .machine
            .node_pe_range(node)
            .filter(|&p| p < self.live_pes && self.pes[p].alive && !self.pes[p].retired)
            .collect();
        if doomed.is_empty() {
            return;
        }
        // The platform never hands a preempted instance back: retire the
        // PEs now so neither a restart nor a later expand resurrects them.
        for &p in &doomed {
            self.pes[p].retired = true;
        }
        let survivors: Vec<usize> = (0..self.live_pes)
            .filter(|&p| self.pes[p].alive && !doomed.contains(&p))
            .collect();

        // Evacuation cost model: the doomed PEs' chares move as one batch,
        // plus one barrier to agree the node is drained. Priced once, before
        // anything moves: a warning too short to use moves and serialises
        // nothing.
        let moves = self.drain_plan(|pe| doomed.contains(&pe), &survivors);
        let mut cost = self.move_batch();
        for m in &moves {
            cost.add(&mut self.net, m);
        }
        let evac_cost = cost.total + self.barrier_cost();
        let proactive = !survivors.is_empty() && self.now + evac_cost <= deadline;

        self.trace_rts(
            self.now,
            TraceEventKind::PreemptWarning {
                first_pe: doomed[0],
                num_pes: doomed.len(),
                deadline,
                proactive,
            },
        );
        if !proactive {
            // Warning too short (or nowhere to go): let the scheduled
            // NodeFail take the buddy-checkpoint restart path.
            self.journal("preempt_short", self.now, doomed.len() as f64);
            return;
        }

        // ---- proactive drain: migrate every chare off the node, take the
        // doomed PEs down, and send their stranded envelopes after the chares.
        let chares = moves.len();
        for mut m in moves {
            self.move_chare(&mut m, self.now);
        }
        self.take_down(&doomed);
        self.reroute_stranded(&doomed);
        let done = self.now + evac_cost;
        self.block_all_pes(done);

        self.trace_rts(
            self.now,
            TraceEventKind::Evacuation { chares, first_pe: doomed[0], num_pes: doomed.len() },
        );
        self.journal("evacuations", self.now, doomed.len() as f64);
        self.journal("evacuation_cost_s", self.now, evac_cost.as_secs_f64());
        self.note_capacity("spot preemption evacuated the node");
    }

    /// Handle an injected node failure: every PE on the node containing
    /// `pe` dies, and the application rolls back to the last *committed*
    /// in-memory checkpoint (§III-B, [7]) — or is declared
    /// [`Unrecoverable`] when no surviving copy covers some chare.
    pub(crate) fn on_node_failure(&mut self, pe: usize) {
        if pe >= self.pes.len() {
            return;
        }
        let node = self.machine.node_of(pe);
        let failed: Vec<usize> = self
            .machine
            .node_pe_range(node)
            .filter(|&p| p < self.live_pes && self.pes[p].alive)
            .collect();
        if failed.is_empty() {
            return;
        }
        self.trace_rts(
            self.now,
            TraceEventKind::NodeFail { first_pe: failed[0], num_pes: failed.len() },
        );

        // A checkpoint still replicating to buddies can no longer commit:
        // abort it and fall back to the previous committed checkpoint.
        if let Some(pending) = self.ft.pending.take() {
            self.trace_rts(self.now, TraceEventKind::CkptAbort);
            self.journal("ckpt_aborted", self.now, pending.ckpt.taken_at.as_secs_f64());
        }
        // Restart windows that have completed by now are fully rebuilt.
        let now = self.now;
        self.ft.copy_missing.retain(|_, until| *until > now);

        let Some(ckpt) = self.ft.mem_ckpt.take() else {
            // No committed checkpoint: the processes and everything on
            // them are simply lost; messages to them vanish. Survivors
            // keep running.
            let lost = self.live_chares_on(&failed);
            self.kill_pes(&failed);
            if lost > 0 {
                self.mark_unrecoverable(
                    &failed,
                    lost,
                    "no committed checkpoint existed at failure time".to_string(),
                );
            }
            return;
        };

        // ---- is the checkpoint still whole? --------------------------------
        // A chare survives iff at least one of its two copies (owner PE,
        // buddy PE) sits on a PE that is neither newly dead nor still
        // rebuilding its copies after an earlier restart.
        let mut dead: HashSet<usize> = failed.iter().copied().collect();
        dead.extend(self.ft.copy_missing.keys().copied());
        // PEs already down (earlier preemptions/unrecovered kills) hold no
        // checkpoint copies either.
        dead.extend((0..self.live_pes).filter(|&p| !self.pes[p].alive));
        let lost = ckpt
            .chares
            .values()
            .filter(|&&(p, _)| dead.contains(&p) && dead.contains(&buddy_pe(p, ckpt.num_pes)))
            .count();
        if lost > 0 {
            self.ft.mem_ckpt = Some(ckpt); // keep for post-mortem inspection
            self.journal("unrecoverable_failures", self.now, lost as f64);
            self.kill_pes(&failed);
            self.mark_unrecoverable(
                &failed,
                lost,
                format!("{lost} chare(s) lost both checkpoint copies"),
            );
            return;
        }

        // ---- rollback: discard all execution/message state -----------------
        self.trace_rts(
            self.now,
            TraceEventKind::Rollback { to: ckpt.taken_at, chares: ckpt.chares.len() },
        );
        self.purge_volatile_events();
        for pe in 0..self.live_pes {
            self.discard_queue(pe);
            let p = &mut self.pes[pe];
            p.busy = false;
            p.current = None;
            p.blocked_until = SimTime::ZERO;
            // Crashed processes are replaced by fresh ones — except PEs the
            // platform reclaimed outright (spot preemptions): those stay
            // retired and the run continues on reduced capacity.
            p.alive = !p.retired;
        }
        if let Some(tr) = &mut self.tracer {
            for pe in 0..self.live_pes {
                tr.pe_transition(now, pe, false);
            }
        }
        self.work = Default::default();
        self.discard_limbo();
        self.reductions.clear();
        self.qd = None;
        self.lb.forget_waiting();
        self.flush_loc_caches();

        // ---- restore chare state from the checkpoint ------------------------
        // Chares whose checkpoint home is a retired PE are diverted: to the
        // buddy that holds the surviving copy when it is alive, else round-
        // robin over the alive PEs (deterministic: BTreeMap order).
        let alive_targets: Vec<usize> = (0..self.live_pes)
            .filter(|&p| self.pes[p].alive)
            .collect();
        if alive_targets.is_empty() {
            let lost = ckpt.chares.len();
            self.ft.mem_ckpt = Some(ckpt);
            self.mark_unrecoverable(&failed, lost, "no alive PE left to restore onto".to_string());
            return;
        }
        for s in self.stores.iter_mut() {
            s.clear();
        }
        let mut rr = 0usize;
        for (obj, (home, bytes)) in &ckpt.chares {
            let mut pe = *home;
            if pe >= self.live_pes || !self.pes[pe].alive {
                let b = buddy_pe(pe, ckpt.num_pes);
                pe = if b < self.live_pes && self.pes[b].alive {
                    b
                } else {
                    let t = alive_targets[rr % alive_targets.len()];
                    rr += 1;
                    t
                };
            }
            self.stores[obj.array.0 as usize].unpack_insert(obj.ix, pe, bytes);
        }
        // The restored chares start at load 0; their traffic starts with them.
        self.start_lb_window();

        // ---- cost model ------------------------------------------------------
        // Each dead PE's buddy streams its checkpoint to the replacement
        // concurrently (max over failed PEs); every PE then restores
        // locally; several barriers synchronize the protocol (this is the
        // term that grows with P — Fig. 10 restart).
        let resend = failed
            .iter()
            .map(|&p| {
                let bytes = ckpt.per_pe_bytes.get(p).copied().unwrap_or(0);
                self.ckpt_stream(buddy_pe(p, ckpt.num_pes), p, bytes)
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        let barriers = SimTime(self.barrier_cost().0 * RESTART_BARRIERS);
        let total = resend + barriers;
        let done = self.now + total;
        self.block_all_pes(done);

        // Until the restart protocol completes, the replacement processes
        // hold no checkpoint copies: a failure overlapping them before
        // `done` can still destroy both copies of a chare.
        for &p in &failed {
            self.ft.copy_missing.insert(p, done);
        }

        self.journal("restart_time_s", self.now, total.as_secs_f64());
        for &p in &failed {
            self.journal("failures_recovered", self.now, p as f64);
        }
        self.note_capacity("node failure rolled the run back");

        // Keep the checkpoint for further failures.
        self.ft.mem_ckpt = Some(ckpt);

        // Tell everyone to resume from checkpointed state.
        let restarted = SysEvent::Restarted { failed_pe: failed[0] };
        for array in self.stores.iter().map(|s| s.id()).collect::<Vec<_>>() {
            self.deliver_sys_to_all(array, &restarted, done, 0);
        }
    }

    /// Time to stream `bytes` of checkpoint from PE `from` to PE `to`: one
    /// message, and nothing when the job runs on one PE.
    fn ckpt_stream(&mut self, from: usize, to: usize, bytes: usize) -> SimTime {
        if self.live_pes > 1 {
            self.net.delay(from, to, bytes + ENVELOPE_BYTES, self.cur_dispatch.1 ^ TOKEN_AUX)
        } else {
            SimTime::ZERO
        }
    }

    /// Count live chares currently hosted on any of `pes`.
    fn live_chares_on(&self, pes: &[usize]) -> usize {
        self.stores
            .iter()
            .map(|s| {
                s.indices()
                    .into_iter()
                    .filter(|ix| s.element_pe(ix).is_some_and(|p| pes.contains(&p)))
                    .count()
            })
            .sum()
    }

    /// Kill PEs without recovery: drop their queues, release the busy
    /// accounting, and record the per-PE `unrecovered_failures` metric.
    fn kill_pes(&mut self, failed: &[usize]) {
        self.take_down(failed);
        for &pe in failed {
            self.discard_queue(pe);
            self.journal("unrecovered_failures", self.now, pe as f64);
        }
        self.note_capacity("node failure killed PEs without recovery");
    }

    /// Latch the fatal verdict — the first fatal failure wins.
    fn mark_unrecoverable(&mut self, failed: &[usize], lost_chares: usize, reason: String) {
        self.trace_rts(self.now, TraceEventKind::Unrecoverable { lost: lost_chares });
        self.latch(Verdict::Unrecoverable(Unrecoverable {
            at: self.now,
            failed_pes: failed.to_vec(),
            lost_chares,
            reason,
        }));
    }

    /// Drop Deliver/PeFree/PeRetry/MigrateArrive/CkptCommit events (message,
    /// execution, and in-flight checkpoint state; a dropped delivery frees
    /// its envelope's slot), keeping hardware-driven events (failures, DVFS
    /// ticks, reconfigurations, checkpoint ticks).
    fn purge_volatile_events(&mut self) {
        // Preserve each surviving event's heap key: keys encode the
        // producer slot and feed the deterministic tie-break order.
        for (t, k, ev) in self.events.drain_entries() {
            match ev {
                Ev::Deliver { env, .. } => self.slab.discard(env),
                Ev::PeFree { .. } | Ev::PeRetry { .. } | Ev::MigrateArrive(_) | Ev::CkptCommit => {}
                other => self.events.push_keyed(t, k, other),
            }
        }
    }

    // ----- disk checkpointing -------------------------------------------------

    /// Write the full application state to `path` (a real file). Returns the
    /// modeled virtual-time cost of the parallel write and the byte volume.
    ///
    /// The image carries a version magic, the payload length, and a CRC32
    /// over the payload, and is written through [`write_atomic`] — a torn
    /// write can at worst leave a stale temp file, never a half-written
    /// checkpoint under `path`.
    ///
    /// Chare-based checkpointing means the restart PE count is independent of
    /// this run's PE count (§III-B).
    pub fn checkpoint_to_disk(&mut self, path: &Path) -> std::io::Result<DiskCkptInfo> {
        let mut payload: Vec<u8> = Vec::new();
        write_u64(&mut payload, self.stores.len() as u64);
        let mut per_pe = vec![0usize; self.machine.num_pes];
        for s in self.stores.iter_mut() {
            write_bytes(&mut payload, s.name().as_bytes());
            write_u64(&mut payload, s.len() as u64);
            s.visit_sorted(&mut |mut ix, pe, chare| {
                let body = charm_pup::to_bytes(chare);
                per_pe[pe] += body.len();
                write_bytes(&mut payload, &charm_pup::to_bytes(&mut ix));
                write_bytes(&mut payload, &body);
            });
        }

        let mut out: Vec<u8> = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(DISK_MAGIC);
        write_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);

        write_atomic(path, |f| f.write_all(&out))?;

        let max_pe_bytes = per_pe.iter().copied().max().unwrap_or(0);
        let cost = self.machine.disk.write_time(self.live_pes, max_pe_bytes);
        self.journal("disk_ckpt_time_s", self.now, cost.as_secs_f64());
        Ok(DiskCkptInfo {
            virtual_cost: cost,
            bytes: out.len(),
        })
    }

    /// Restore application state from a disk checkpoint written by
    /// [`Runtime::checkpoint_to_disk`]. All arrays must already be
    /// registered (by name, with matching chare types) on this runtime.
    /// Elements are placed by the home map of *this* runtime's PE count —
    /// restart on any number of PEs.
    ///
    /// The header and CRC32 are validated *before* any state is touched:
    /// a truncated, torn, or bit-flipped image is rejected with a
    /// [`RestoreError`] and the runtime is left unmodified.
    pub fn restore_from_disk(&mut self, path: &Path) -> Result<DiskCkptInfo, RestoreError> {
        let data = std::fs::read(path).map_err(|e| RestoreError::Io(e.to_string()))?;
        let mut r = Reader { data: &data, pos: 0 };
        let magic = r.take(8)?;
        if magic != DISK_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(magic);
            return Err(RestoreError::BadMagic { found });
        }
        let payload_len = r.u64()? as usize;
        let expected_crc = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        let payload = r.take(payload_len)?;
        let actual_crc = crc32(payload);
        if actual_crc != expected_crc {
            return Err(RestoreError::ChecksumMismatch {
                expected: expected_crc,
                actual: actual_crc,
            });
        }

        // Parse and validate the whole payload before touching any state, so
        // an error leaves the runtime as it was.
        let mut r = Reader { data: payload, pos: 0 };
        let n_arrays = r.u64()?;
        let mut elems = Vec::new();
        for _ in 0..n_arrays {
            let name = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| RestoreError::Malformed("invalid array name".into()))?;
            let id = self
                .array_id(&name)
                .ok_or(RestoreError::MissingArray { name })?;
            let n_elems = r.u64()?;
            for _ in 0..n_elems {
                let ix: crate::Ix = charm_pup::from_bytes_exact(r.bytes()?)
                    .map_err(|e| RestoreError::Malformed(format!("element index: {e}")))?;
                elems.push((id, ix, r.bytes()?));
            }
        }
        let mut max_pe_bytes = vec![0usize; self.live_pes];
        for (id, ix, body) in elems {
            let pe = self.home_pe(id, &ix);
            max_pe_bytes[pe] += body.len();
            self.stores[id.0 as usize].unpack_insert(ix, pe, body);
        }
        let max_bytes = max_pe_bytes.iter().copied().max().unwrap_or(0);
        let cost = self.machine.disk.read_time(self.live_pes, max_bytes);
        self.journal("disk_restore_time_s", self.now, cost.as_secs_f64());
        Ok(DiskCkptInfo {
            virtual_cost: cost,
            bytes: data.len(),
        })
    }

    /// Inject a failure of the node containing `pe` at virtual time `at`.
    /// This is the one place a node failure is scheduled; same-time
    /// failures fire in call order, because event keys follow it.
    pub fn schedule_failure(&mut self, at: SimTime, pe: usize) {
        let k = self.fresh_key(self.host_slot());
        self.events
            .push_keyed(at, k, Ev::NodeFail { pe: pe as u32 });
    }

    /// Inject a spot preemption: the node containing `pe` is reclaimed at
    /// `at`, announced `warning` earlier. The warn event's key is allocated
    /// before the kill's, so a zero-warning announcement still precedes the
    /// kill on the same timestamp.
    pub fn schedule_preemption(&mut self, at: SimTime, pe: usize, warning: SimTime) {
        let kw = self.fresh_key(self.host_slot());
        let warn = Ev::PreemptWarn {
            pe: pe as u32,
            deadline: at,
        };
        self.events.push_keyed(at.saturating_sub(warning), kw, warn);
        self.schedule_failure(at, pe);
    }
}

/// Result of a disk checkpoint or restore.
#[derive(Debug, Clone, Copy)]
pub struct DiskCkptInfo {
    /// Modeled parallel I/O time on the simulated machine.
    pub virtual_cost: SimTime,
    /// Real bytes written/read on the host filesystem.
    pub bytes: usize,
}

/// Why a disk checkpoint could not be restored. Every corruption mode the
/// disk-fault injector produces maps to one of these — restore never
/// panics and never applies a partially-validated image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The file could not be read at all.
    Io(String),
    /// The file does not start with the checkpoint magic (not a
    /// checkpoint, a previous-generation format, or a corrupted header).
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file ends before the declared payload does.
    Truncated {
        /// Offset at which the read ran out of bytes.
        offset: usize,
        /// How many bytes the reader needed there.
        need: usize,
    },
    /// The payload does not match its recorded CRC32 (bit rot, torn write).
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        actual: u32,
    },
    /// The checkpoint names an array this runtime has not registered.
    MissingArray {
        /// The unregistered array's name.
        name: String,
    },
    /// Structurally invalid payload despite a matching checksum.
    Malformed(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "read checkpoint: {e}"),
            RestoreError::BadMagic { found } => write!(f, "bad checkpoint magic {found:02x?}"),
            RestoreError::Truncated { offset, need } => write!(
                f,
                "checkpoint truncated at offset {offset} (need {need} bytes)"
            ),
            RestoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#010x}, payload is {actual:#010x}"
            ),
            RestoreError::MissingArray { name } => {
                write!(f, "array '{name}' not registered before restore")
            }
            RestoreError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Slicing-by-8 tables for CRC32 (IEEE 802.3, reflected polynomial
/// `0xEDB88320`): `t[0]` is the classic byte table, and `t[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// One byte of the classic table-driven CRC32 update.
#[inline]
fn crc32_step(table: &[u32; 256], crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize]
}

/// CRC32 (IEEE 802.3), eight bytes per step (slicing-by-8); implemented
/// here because the build environment has no registry access for a crc
/// crate.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = crc32_step(&t[0], crc, b);
    }
    !crc
}

/// The one-lookup-per-byte CRC32 the sliced version must agree with.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    let table = &crc32_tables()[0];
    !data.iter().fold(0xFFFF_FFFFu32, |crc, &b| crc32_step(table, crc, b))
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if n > self.data.len() - self.pos {
            return Err(RestoreError::Truncated {
                offset: self.pos,
                need: n,
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u64(&mut self) -> Result<u64, RestoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn bytes(&mut self) -> Result<&'a [u8], RestoreError> {
        let n = self.u64()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buddy_is_half_machine_away() {
        assert_eq!(buddy_pe(0, 8), 4);
        assert_eq!(buddy_pe(5, 8), 1);
        assert_eq!(buddy_pe(3, 4), 1);
        // buddy never maps to self for P >= 2
        for p in 2..64 {
            for pe in 0..p {
                assert_ne!(buddy_pe(pe, p), pe, "pe={pe} P={p}");
            }
        }
    }

    #[test]
    fn buddy_on_odd_pe_counts() {
        // Odd P: the offset floor(P/2) never divides P, so the mapping is
        // a fixed rotation — in range, never self, and exhaustive when
        // iterated (every PE is some PE's buddy).
        for p in [3usize, 5, 7, 9, 31, 63] {
            let mut seen = vec![false; p];
            for pe in 0..p {
                let b = buddy_pe(pe, p);
                assert!(b < p);
                assert_ne!(b, pe);
                seen[b] = true;
            }
            assert!(seen.iter().all(|&s| s), "buddy not a bijection for P={p}");
        }
        assert_eq!(buddy_pe(0, 7), 3);
        assert_eq!(buddy_pe(4, 7), 0);
        assert_eq!(buddy_pe(6, 7), 2);
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut r = Reader {
            data: &[1, 2, 3],
            pos: 0,
        };
        assert!(r.take(2).is_ok());
        assert!(matches!(
            r.take(2),
            Err(RestoreError::Truncated { offset: 2, need: 2 })
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Long enough to take the eight-byte path, with a ragged tail.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest::proptest! {
        // Every length class (empty, shorter than one slice, exact
        // multiples, ragged tails) at arbitrary content.
        #[test]
        fn crc32_sliced_equals_bytewise(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300)
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }
}
