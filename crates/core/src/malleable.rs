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
        let floor = if self.ft.ckpt_active() { 2 } else { 1 };
        let requested = to;
        let to = to.clamp(floor, self.machine.num_pes);
        if to != requested {
            self.journal("reconfigure_rejected", self.now, requested as f64);
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
                self.journal("reconfigure_rejected", self.now, requested as f64);
                return;
            }
            let retiring: Vec<usize> = (to..old).collect();
            let mut cost = self.move_batch();
            for mut m in self.drain_plan(|pe| (to..old).contains(&pe), &survivors) {
                self.move_chare(&mut m, self.now);
                cost.add(&mut self.net, &m);
            }
            // Requeue messages stranded on retiring PEs; the home map shrinks
            // first, so their location queries go to surviving homes.
            self.take_down(&retiring);
            self.live_pes = to;
            self.reroute_stranded(&retiring);
            let done = self.now + self.reconfig_overhead_shrink + cost.total;
            self.block_all_pes(done);
            self.journal_reconfig(old, to, done);
        } else {
            // Expand: revive PEs, then spread load with an LB round. PEs
            // the platform reclaimed (spot preemptions) never come back.
            for pe in old..to {
                if self.pes[pe].retired {
                    continue;
                }
                self.pes[pe].alive = true;
                self.pes[pe].blocked_until = SimTime::ZERO;
            }
            self.live_pes = to;
            self.flush_loc_caches();
            let done = self.now + self.reconfig_overhead_expand;
            self.block_all_pes(done);
            self.rts_triggered_lb();
            self.journal_reconfig(old, to, done);
        }
    }

    fn journal_reconfig(&mut self, from: usize, to: usize, done: SimTime) {
        let cost = done.saturating_sub(self.now).as_secs_f64();
        self.trace_rts(self.now, TraceEventKind::Reconfigure { from, to });
        self.journal("reconfigure", self.now, to as f64);
        self.journal("reconfigure_cost_s", self.now, cost);
        self.note_capacity("malleable reconfiguration");
    }
}
