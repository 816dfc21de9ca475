//! Malleable jobs: shrink and expand the PE set at run time (§III-D).
//!
//! A shrink evacuates every chare from the PEs being retired (the runtime's
//! object-centric model makes this a rebalancing problem, not an
//! application-code problem), then retires them — no residual processes.
//! An expand brings new PEs up (paying the modeled process-restart and
//! reconnection cost that dominates the paper's 7.2 s figure) and
//! redistributes chares across the larger set.

use crate::runtime::Runtime;
use crate::trace::TraceEventKind;
use charm_machine::SimTime;

impl Runtime {
    /// Handle a scheduled reconfiguration command (from the CCS-like
    /// external channel, §III-D).
    pub(crate) fn on_reconfigure(&mut self, to: usize) {
        // With buddy checkpointing in play, one PE is not enough: owner and
        // buddy copies would co-locate (`buddy_pe(0, 1) == 0`) and the next
        // failure would be unrecoverable by construction. Reject by
        // clamping to the checkpoint floor.
        let floor = if self.ckpt_active() { 2 } else { 1 };
        let requested = to;
        let to = to.clamp(floor, self.machine.num_pes);
        if to != requested {
            self.metrics
                .entry("reconfigure_rejected".into())
                .or_default()
                .push((self.now.as_secs_f64(), requested as f64));
        }
        if to == self.live_pes {
            return;
        }
        let shrinking = to < self.live_pes;
        let old = self.live_pes;

        if shrinking {
            // Evacuate chares from retiring PEs (round-robin over the
            // *alive* survivors — preempted PEs inside the new boundary
            // must not receive state; a follow-up LB round at the next
            // AtSync will refine placement with real measurements).
            let survivors: Vec<usize> = (0..to).filter(|&p| self.pes[p].alive).collect();
            if survivors.is_empty() {
                // Every PE that would remain is already dead; shrinking
                // would strand all evacuated chares. Refuse.
                self.metrics
                    .entry("reconfigure_rejected".into())
                    .or_default()
                    .push((self.now.as_secs_f64(), requested as f64));
                return;
            }
            let mut rr = 0usize;
            let mut moved_bytes_max = 0usize;
            for s in self.stores.iter_mut() {
                let mut evac: Vec<(usize, crate::Ix)> = Vec::new();
                s.visit_sorted(&mut |ix, pe, _chare| {
                    if (to..old).contains(&pe) {
                        evac.push((pe, ix));
                    }
                });
                // Per retiring PE (ascending), per index: the round-robin
                // placement depends on this order. Chares move one at a
                // time so only one packed image is alive at once.
                evac.sort_by_key(|&(pe, _)| pe);
                for (_, ix) in evac {
                    let bytes = s.pack_element(&ix).expect("listed element");
                    moved_bytes_max = moved_bytes_max.max(bytes.len());
                    let target = survivors[rr % survivors.len()];
                    rr += 1;
                    s.remove_element(&ix);
                    s.unpack_insert(ix, target, &bytes);
                }
            }
            // Requeue messages stranded on retiring PEs.
            let mut stranded = Vec::new();
            for pe in to..old {
                self.queued -= self.pes[pe].pending.len() as u64;
                while let Some(env) = self.pes[pe].pending.pop() {
                    stranded.push(env);
                }
                if self.pes[pe].busy {
                    // The process is torn down mid-entry: its PeFree event
                    // still fires but finds the PE dead, so release the
                    // busy accounting here or `busy_pes` leaks forever
                    // (which would keep periodic ticks re-arming and the
                    // run from ever draining).
                    self.pes[pe].busy = false;
                    self.pes[pe].current = None;
                    self.busy_pes -= 1;
                }
                self.pes[pe].alive = false;
            }
            self.live_pes = to;
            for c in self.loc_cache.iter_mut() {
                c.clear();
            }
            for env in stranded {
                self.route_and_schedule(env, self.now);
            }
            let transfer = if moved_bytes_max > 0 {
                let token = self.cur_dispatch.1 ^ crate::runtime::TOKEN_AUX;
                self.net.delay(old - 1, 0, moved_bytes_max, token)
            } else {
                SimTime::ZERO
            };
            let done = self.now + self.reconfig_overhead_shrink + transfer;
            self.block_all_pes(done);
            self.journal_reconfig(old, to, done);
        } else {
            // Expand: revive PEs, then spread load with an LB round. PEs
            // the platform reclaimed (spot preemptions) never come back.
            for pe in old..to {
                if self.retired[pe] {
                    continue;
                }
                self.pes[pe].alive = true;
                self.pes[pe].blocked_until = SimTime::ZERO;
            }
            self.live_pes = to;
            for c in self.loc_cache.iter_mut() {
                c.clear();
            }
            let done = self.now + self.reconfig_overhead_expand;
            self.block_all_pes(done);
            self.rts_triggered_lb();
            self.journal_reconfig(old, to, done);
        }
    }

    fn journal_reconfig(&mut self, from: usize, to: usize, done: SimTime) {
        let cost = done.saturating_sub(self.now).as_secs_f64();
        if let Some(tr) = &mut self.tracer {
            tr.rts(self.now, TraceEventKind::Reconfigure { from, to });
        }
        self.metrics
            .entry("reconfigure".into())
            .or_default()
            .push((self.now.as_secs_f64(), to as f64));
        self.metrics
            .entry("reconfigure_cost_s".into())
            .or_default()
            .push((self.now.as_secs_f64(), cost));
        self.note_capacity("malleable reconfiguration");
    }
}
