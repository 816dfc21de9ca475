//! PDES — parallel discrete event simulation with the YAWNS conservative
//! protocol, benchmarked with PHOLD (§IV-E, Fig. 15).
//!
//! Logical processes (LPs) execute events in nondecreasing *model-time*
//! order. YAWNS alternates two phases:
//!
//! 1. **Window calculation** — a Min-reduction over every LP's earliest
//!    pending event establishes `W = min + lookahead`; any event an
//!    in-window execution creates lands at `ts + lookahead + δ ≥ W`, so
//!    everything below `W` is safe.
//! 2. **Execution** — each LP executes its events below `W`; each event
//!    schedules one successor on a uniformly random LP (PHOLD).
//!
//! Window advancement also requires that no event messages are in flight;
//! like the real protocol, the coordinator compares global sent/received
//! counters and re-polls until they match.
//!
//! The mini-app leans on exactly the features §IV-E lists: many more LPs
//! than PEs (idle LPs cost nothing — the scheduler just runs another LP),
//! fully asynchronous event delivery, and optional TRAM aggregation for the
//! fine-grained event messages (Fig. 15b's crossover).

use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, Runtime, SysEvent,
};
use charm_pup::{Pup, Puper};
use charm_tram::{Tram, TramBuf, TramConfig};
use rand::Rng;
use std::collections::BinaryHeap;

/// PHOLD/YAWNS configuration.
pub struct PdesConfig {
    /// Machine to run on.
    pub machine: MachineConfig,
    /// Logical processes per PE (Fig. 15a sweeps 64/128/256).
    pub lps_per_pe: usize,
    /// Initial events per LP (Fig. 15b sweeps 64/1024 at 256 LPs/PE).
    pub initial_events_per_lp: usize,
    /// YAWNS windows to execute.
    pub windows: u64,
    /// Protocol lookahead in model-time units.
    pub lookahead: u64,
    /// Mean extra delay of a rescheduled event (model time).
    pub mean_delay: u64,
    /// Flops charged per executed event.
    pub flops_per_event: f64,
    /// Use TRAM for event delivery?
    pub tram: Option<TramConfig>,
    /// Seed.
    pub seed: u64,
    /// Record a replay log (None = off; see `charm_core::replay`).
    pub record: Option<charm_core::ReplayConfig>,
    /// Projections-lite tracing (None = off; see `charm_core::trace`).
    pub trace: Option<charm_core::TraceConfig>,
    #[doc(hidden)] // no longer read: kept for `benchmark/`'s 2-thread pass
    pub threads: usize,
}

impl Default for PdesConfig {
    fn default() -> Self {
        PdesConfig {
            machine: MachineConfig::homogeneous(16),
            lps_per_pe: 64,
            initial_events_per_lp: 32,
            windows: 24,
            lookahead: 100,
            mean_delay: 150,
            flops_per_event: 500.0,
            tram: None,
            seed: 42,
            record: None,
            trace: None,
            threads: 1,
        }
    }
}

/// Result of a PHOLD run.
#[derive(Debug)]
pub struct PdesRun {
    /// Total events executed.
    pub events_executed: u64,
    /// Events per second of virtual wall time — the Fig. 15 y-axis.
    pub event_rate: f64,
    /// Windows completed.
    pub windows: u64,
}

enum LpMsg {
    /// An event scheduled for this LP at model time `ts`.
    Event { ts: u64 },
    /// Execute everything below `w_end`; window sequence number `k`.
    Execute { k: u32, w_end: u64 },
    /// Contribute counters for window-calculation round `k`.
    Poll { k: u32 },
}

impl Pup for LpMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            LpMsg::Event { .. } => 0,
            LpMsg::Execute { .. } => 1,
            LpMsg::Poll { .. } => 2,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => LpMsg::Event { ts: 0 },
                1 => LpMsg::Execute { k: 0, w_end: 0 },
                2 => LpMsg::Poll { k: 0 },
                x => panic!("bad LpMsg {x}"),
            };
        }
        match self {
            LpMsg::Event { ts } => p.p(ts),
            LpMsg::Execute { k, w_end } => {
                p.p(k);
                p.p(w_end);
            }
            LpMsg::Poll { k } => p.p(k),
        }
    }
}

impl Default for LpMsg {
    fn default() -> Self {
        LpMsg::Event { ts: 0 }
    }
}

impl Clone for LpMsg {
    fn clone(&self) -> Self {
        match self {
            LpMsg::Event { ts } => LpMsg::Event { ts: *ts },
            LpMsg::Execute { k, w_end } => LpMsg::Execute {
                k: *k,
                w_end: *w_end,
            },
            LpMsg::Poll { k } => LpMsg::Poll { k: *k },
        }
    }
}

#[derive(Default)]
struct Lp {
    /// Pending events (min-heap over model time).
    pending: Vec<u64>,
    heap_dirty: bool,
    num_lps: u64,
    lps_per_pe: u64,
    lookahead: u64,
    mean_delay: u64,
    flops_per_event: f64,
    sent: i64,
    received: i64,
    executed: u64,
    driver: ArrayProxy<Driver>,
    lps: ArrayProxy<Lp>,
    tram: Option<Tram<Lp>>,
    tbuf: TramBuf<Lp>,
}

impl Pup for Lp {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.pending, self.heap_dirty, self.num_lps, self.lps_per_pe,
            self.lookahead, self.mean_delay, self.flops_per_event,
            self.sent, self.received, self.executed, self.driver, self.lps,
            self.tram, self.tbuf
        );
    }
}

impl Lp {
    fn min_pending(&self) -> u64 {
        self.pending.iter().copied().min().unwrap_or(u64::MAX)
    }

    fn contribute_counters(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        let cb = Callback::ToChare {
            array: self.driver.id(),
            ix: Ix::i1(0),
        };
        ctx.contribute(
            self.lps,
            k * 2,
            RedValue::VecI64(vec![self.executed as i64, self.sent, self.received]),
            RedOp::Sum,
            cb,
        );
        let min = self.min_pending();
        let encoded = if min == u64::MAX {
            i64::MAX
        } else {
            min as i64
        };
        ctx.contribute(self.lps, k * 2 + 1, RedValue::I64(encoded), RedOp::Min, cb);
    }

    fn execute_window(&mut self, w_end: u64, ctx: &mut Ctx<'_>) {
        // Execute all pending events strictly below the window edge.
        let mut heap: BinaryHeap<std::cmp::Reverse<u64>> =
            self.pending.drain(..).map(std::cmp::Reverse).collect();
        while let Some(&std::cmp::Reverse(ts)) = heap.peek() {
            if ts >= w_end {
                break;
            }
            heap.pop();
            self.executed += 1;
            ctx.work(self.flops_per_event);
            // PHOLD: reschedule on a uniformly random LP with a random
            // delay past the lookahead.
            let delay = self.lookahead + 1 + ctx.rng().gen_range(0..self.mean_delay.max(1) * 2);
            let new_ts = ts + delay;
            let dst = ctx.rng().gen_range(0..self.num_lps);
            self.sent += 1;
            if dst == lp_of(ctx.my_index()) {
                // Self-event: no message needed.
                self.received += 1;
                heap.push(std::cmp::Reverse(new_ts));
                continue;
            }
            let dst_pe = (dst / self.lps_per_pe) as usize;
            match self.tram {
                Some(t) => t.send_via(
                    ctx,
                    &mut self.tbuf,
                    dst_pe,
                    Ix::i1(dst as i64),
                    LpMsg::Event { ts: new_ts },
                ),
                None => ctx.send(self.lps, Ix::i1(dst as i64), LpMsg::Event { ts: new_ts }),
            }
        }
        self.pending = heap.into_iter().map(|r| r.0).collect();
        if let Some(t) = self.tram {
            t.flush_via(ctx, &mut self.tbuf);
        }
    }
}

fn lp_of(ix: Ix) -> u64 {
    match ix {
        Ix::I1(i) => i as u64,
        other => panic!("LP index {other}"),
    }
}

impl Chare for Lp {
    type Msg = LpMsg;

    fn on_message(&mut self, msg: LpMsg, ctx: &mut Ctx<'_>) {
        match msg {
            LpMsg::Event { ts } => {
                self.received += 1;
                self.pending.push(ts);
            }
            LpMsg::Execute { k, w_end } => {
                self.execute_window(w_end, ctx);
                self.contribute_counters(k, ctx);
            }
            LpMsg::Poll { k } => {
                self.contribute_counters(k, ctx);
            }
        }
    }

    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

#[derive(Default)]
struct Driver {
    round: u32,
    windows_done: u64,
    windows_target: u64,
    lookahead: u64,
    repolls: u64,
    counters: Option<(i64, i64, i64)>,
    min_ts: Option<i64>,
    lps: ArrayProxy<Lp>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.round, self.windows_done, self.windows_target,
            self.lookahead, self.repolls, self.counters, self.min_ts, self.lps
        );
    }
}

impl Driver {
    fn maybe_advance(&mut self, ctx: &mut Ctx<'_>) {
        let (Some((executed, sent, recv)), Some(min_ts)) = (self.counters, self.min_ts) else {
            return;
        };
        self.counters = None;
        self.min_ts = None;
        if sent != recv {
            // Events still in flight (possibly parked in TRAM buffers):
            // poll again. Virtual time passes between polls, so the
            // stragglers drain.
            self.repolls += 1;
            self.round += 1;
            ctx.broadcast(self.lps, LpMsg::Poll { k: self.round });
            return;
        }
        ctx.log_metric("pdes_events", executed as f64);
        if self.windows_done >= self.windows_target || min_ts == i64::MAX {
            ctx.log_metric("pdes_windows", self.windows_done as f64);
            ctx.log_metric("pdes_repolls", self.repolls as f64);
            ctx.exit();
            return;
        }
        self.windows_done += 1;
        let w_end = min_ts as u64 + self.lookahead;
        self.round += 1;
        ctx.broadcast(
            self.lps,
            LpMsg::Execute {
                k: self.round,
                w_end,
            },
        );
    }
}

impl Chare for Driver {
    type Msg = u8;

    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.round = 1;
        ctx.broadcast(self.lps, LpMsg::Poll { k: 1 });
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { tag, value } = ev {
            if tag == self.round * 2 {
                let v = value.as_vec_i64();
                self.counters = Some((v[0], v[1], v[2]));
            } else if tag == self.round * 2 + 1 {
                self.min_ts = Some(value.as_i64());
            } else {
                panic!("stale reduction tag {tag} in round {}", self.round);
            }
            self.maybe_advance(ctx);
        }
    }
}

/// Run PHOLD under YAWNS; returns throughput numbers.
pub fn run(config: PdesConfig) -> PdesRun {
    let (run, _rt) = run_with_runtime(config);
    run
}

/// Run PHOLD and also hand back the runtime (replay-log and metric
/// inspection).
pub fn run_with_runtime(mut config: PdesConfig) -> (PdesRun, Runtime) {
    let num_pes = config.machine.num_pes;
    let num_lps = num_pes * config.lps_per_pe;
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
    if let Some(rc) = config.record.take() {
        b = b.record(rc);
    }
    if let Some(tc) = config.trace.take() {
        b = b.tracing(tc);
    }
    let mut rt = b.build();
    let lps: ArrayProxy<Lp> = rt.create_array("pdes_lps");
    let driver: ArrayProxy<Driver> = rt.create_array("pdes_driver");
    let tram = config
        .tram
        .map(|cfg| Tram::attach(&mut rt, "pdes_tram", lps, cfg));

    // Initial event population: deterministic pseudo-random timestamps.
    let mut seedgen = config.seed;
    let mut next = move || {
        seedgen = seedgen
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seedgen >> 33
    };
    for lp in 0..num_lps {
        let pe = lp / config.lps_per_pe;
        let pending: Vec<u64> = (0..config.initial_events_per_lp)
            .map(|_| next() % (config.mean_delay * 4))
            .collect();
        rt.insert(
            lps,
            Ix::i1(lp as i64),
            Lp {
                pending,
                num_lps: num_lps as u64,
                lps_per_pe: config.lps_per_pe as u64,
                lookahead: config.lookahead,
                mean_delay: config.mean_delay,
                flops_per_event: config.flops_per_event,
                driver,
                lps,
                tram,
                tbuf: TramBuf::with_threshold(64),
                ..Lp::default()
            },
            Some(pe),
        );
    }
    rt.insert(
        driver,
        Ix::i1(0),
        Driver {
            windows_target: config.windows,
            lookahead: config.lookahead,
            lps,
            ..Driver::default()
        },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), 0u8);
    let summary = rt.run();

    let executed = rt
        .metric("pdes_events")
        .last()
        .map(|&(_, v)| v as u64)
        .unwrap_or(0);
    let windows = rt
        .metric("pdes_windows")
        .last()
        .map(|&(_, v)| v as u64)
        .unwrap_or(0);
    let time_s = summary.end_time.as_secs_f64();
    let run = PdesRun {
        events_executed: executed,
        event_rate: executed as f64 / time_s.max(1e-12),
        windows,
    };
    (run, rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_core::SimTime;

    fn small(lps_per_pe: usize, events: usize, tram: bool) -> PdesConfig {
        PdesConfig {
            machine: MachineConfig::homogeneous(8),
            lps_per_pe,
            initial_events_per_lp: events,
            windows: 12,
            tram: tram.then(|| TramConfig {
                ndims: 2,
                flush_threshold: 64,
                flush_interval: Some(SimTime::from_micros(30)),
            }),
            ..PdesConfig::default()
        }
    }

    #[test]
    fn phold_executes_events_across_windows() {
        let r = run(small(16, 16, false));
        assert_eq!(r.windows, 12);
        assert!(r.events_executed > 500, "executed={}", r.events_executed);
        assert!(r.event_rate > 0.0);
    }

    #[test]
    fn more_lps_per_pe_increases_event_rate() {
        // Fig. 15a: over-decomposition keeps PEs busy inside a window.
        let lo = run(small(8, 16, false));
        let hi = run(small(64, 16, false));
        assert!(
            hi.event_rate > lo.event_rate * 1.1,
            "lo={:.0}/s hi={:.0}/s",
            lo.event_rate,
            hi.event_rate
        );
    }

    #[test]
    fn tram_helps_at_high_event_counts() {
        // Fig. 15b: aggregation wins when event volume is high…
        let direct = run(small(32, 96, false));
        let tram = run(small(32, 96, true));
        assert_eq!(direct.events_executed, tram.events_executed);
        assert!(
            tram.event_rate > direct.event_rate,
            "direct={:.0}/s tram={:.0}/s",
            direct.event_rate,
            tram.event_rate
        );
    }

    #[test]
    fn direct_wins_at_low_event_counts() {
        // …and loses at low volume, where buffered items wait on timers.
        let direct = run(small(16, 2, false));
        let tram = run(small(16, 2, true));
        assert!(
            direct.event_rate > tram.event_rate,
            "direct={:.0}/s tram={:.0}/s",
            direct.event_rate,
            tram.event_rate
        );
    }

    #[test]
    fn conservation_of_events() {
        // PHOLD reschedules exactly one event per execution: the pending
        // population is invariant, so executed == windows' worth of flow
        // and nothing is lost (sent == recv at every window boundary —
        // enforced by the protocol; here we check the totals line up).
        let r = run(small(16, 8, false));
        assert_eq!(r.windows, 12);
        // 8 PEs × 16 LPs × 8 events in flight forever; executed is a
        // multiple of nothing in particular but must be positive and the
        // run must have terminated (no event leak → no livelock).
        assert!(r.events_executed > 0);
    }

    #[test]
    fn deterministic() {
        let a = run(small(16, 8, true));
        let b = run(small(16, 8, true));
        assert_eq!(a.events_executed, b.events_executed);
        assert_eq!(a.event_rate, b.event_rate);
    }
}
