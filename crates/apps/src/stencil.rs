//! Stencil2D — the over-decomposition / cloud / thermal workhorse
//! (§IV-F Fig. 16, §III-C Fig. 4, and the 77 ms→32 ms overlap result).
//!
//! A 2-D Jacobi sweep over an N×N grid decomposed into B×B chare blocks.
//! Each step: exchange four halos, compute the 5-point stencil, reduce to
//! the driver. With more blocks than PEs, a block's halo wait overlaps
//! another block's compute — the 2.4× cloud result from §IV-F.

use crate::util::SyntheticBlob;
use crate::AppRun;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, DvfsScheme, Ix, MachineConfig, RedOp, RedValue,
    Runtime, SimTime, Strategy, SysEvent,
};
use charm_pup::{Pup, Puper};

/// Configuration for a Stencil2D run.
pub struct StencilConfig {
    /// The machine to run on.
    pub machine: MachineConfig,
    /// Grid points per side of the global domain.
    pub grid: usize,
    /// Chare blocks per side (blocks = chares_per_side²).
    pub blocks_per_side: usize,
    /// Iterations to run.
    pub steps: u64,
    /// Flops charged per grid point per step.
    pub flops_per_point: f64,
    /// LB strategy for the DVFS schemes' rebalancing and the rounds every
    /// `lb_period`.
    pub strategy: Option<Box<dyn Strategy>>,
    /// Period of RTS-triggered LB (None = LB only via DVFS schemes).
    pub lb_period: Option<SimTime>,
    /// DVFS/thermal scheme (§III-C).
    pub dvfs: DvfsScheme,
    /// DVFS sampling period.
    pub dvfs_period: SimTime,
    /// Automatic in-memory checkpoint interval (§III-B).
    pub auto_ckpt: Option<SimTime>,
    /// PE failures to inject, as `(time, pe)` pairs.
    pub failures: Vec<(SimTime, usize)>,
    /// Spot preemptions: (kill time, any PE on the node, warning lead).
    pub preemptions: Vec<(SimTime, usize, SimTime)>,
    /// Closed-loop elastic controller (None = static PE set).
    pub elastic: Option<charm_core::ElasticConfig>,
    /// RNG seed.
    pub seed: u64,
    /// Record a replay log (None = off; see `charm_core::replay`).
    pub record: Option<charm_core::ReplayConfig>,
    /// Projections-lite tracing (None = off; see `charm_core::trace`).
    pub trace: Option<charm_core::TraceConfig>,
    /// Streaming trace sinks, installed right after the runtime is built —
    /// before any chare exists — so they observe the complete record
    /// stream. Requires `trace` to be set.
    pub trace_sinks: Vec<Box<dyn charm_core::TraceSink>>,
    #[doc(hidden)] // no longer read: kept for `benchmark/`'s 2-thread pass
    pub threads: usize,
}

impl StencilConfig {
    /// The §IV-F cloud setup: 4k×4k grid on 32 single-PE VMs.
    pub fn cloud_4k(machine: MachineConfig, chares_per_pe: usize) -> Self {
        let pes = machine.num_pes;
        let blocks = ((pes * chares_per_pe) as f64).sqrt().ceil() as usize;
        StencilConfig {
            machine,
            grid: 4096,
            blocks_per_side: blocks.max(1),
            steps: 60,
            flops_per_point: 6.0,
            strategy: None,
            lb_period: None,
            dvfs: DvfsScheme::Base,
            dvfs_period: SimTime::from_secs(1),
            auto_ckpt: None,
            failures: Vec::new(),
            preemptions: Vec::new(),
            elastic: None,
            seed: 42,
            record: None,
            trace: None,
            trace_sinks: Vec::new(),
            threads: 1,
        }
    }
}

#[derive(Default)]
struct Block {
    bx: i32,
    by: i32,
    side: u64,
    points_per_side: u64,
    flops_per_point: f64,
    halos_seen: u8,
    /// Halos for step+1 that raced ahead of our Step message.
    early_halos: u8,
    step: u64,
    data: SyntheticBlob,
    driver: ArrayProxy<Driver>,
    blocks: ArrayProxy<Block>,
    /// Restored from a checkpoint taken mid-step: adopt the driver's step
    /// from the next `Step` broadcast and drop transient halo counters.
    rolled_back: bool,
}

impl Pup for Block {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.bx, self.by, self.side, self.points_per_side,
            self.flops_per_point, self.halos_seen, self.early_halos,
            self.step, self.data, self.driver, self.blocks, self.rolled_back
        );
    }
}

#[derive(Clone)]
enum BlockMsg {
    /// Begin step `s`.
    Step(u64),
    /// A halo strip from a neighbor for step `s`.
    Halo(u64),
}

impl Pup for BlockMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            BlockMsg::Step(_) => 0,
            BlockMsg::Halo(_) => 1,
        };
        p.p(&mut t);
        let mut v = match self {
            BlockMsg::Step(s) | BlockMsg::Halo(s) => *s,
        };
        p.p(&mut v);
        if p.is_unpacking() {
            *self = match t {
                0 => BlockMsg::Step(v),
                _ => BlockMsg::Halo(v),
            };
        }
    }
}

impl Default for BlockMsg {
    fn default() -> Self {
        BlockMsg::Step(0)
    }
}

impl Block {
    fn neighbor(&self, dx: i32, dy: i32) -> Ix {
        let s = self.side as i32;
        Ix::i2((self.bx + dx).rem_euclid(s), (self.by + dy).rem_euclid(s))
    }

    fn send_halos(&mut self, ctx: &mut Ctx<'_>, step: u64) {
        // Halo payload ≈ one strip of doubles; modeled via message size.
        for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
            ctx.send(self.blocks, self.neighbor(dx, dy), BlockMsg::Halo(step));
        }
    }

    fn maybe_compute(&mut self, ctx: &mut Ctx<'_>) {
        if self.halos_seen < 4 {
            return;
        }
        self.halos_seen = 0;
        let n = self.points_per_side as f64;
        ctx.work(n * n * self.flops_per_point);
        ctx.contribute(
            self.blocks,
            self.step as u32,
            RedValue::I64(1),
            RedOp::Sum,
            Callback::ToChare {
                array: self.driver.id(),
                ix: Ix::i1(0),
            },
        );
    }
}

impl Chare for Block {
    type Msg = BlockMsg;

    fn on_message(&mut self, msg: BlockMsg, ctx: &mut Ctx<'_>) {
        match msg {
            BlockMsg::Step(s) => {
                if self.rolled_back {
                    // A checkpoint can land mid-step, capturing blocks at
                    // mixed phases; the whole exchange re-runs from the
                    // driver's step.
                    self.rolled_back = false;
                } else {
                    debug_assert!(s == self.step + 1 || (s == 0 && self.step == 0));
                }
                self.step = s;
                self.halos_seen += std::mem::take(&mut self.early_halos);
                self.send_halos(ctx, s);
                self.maybe_compute(ctx);
            }
            BlockMsg::Halo(s) if self.rolled_back => {
                // In-flight messages were purged at rollback, so this is a
                // fresh halo for the re-driven step that raced ahead of our
                // own Step broadcast; hold it until that arrives.
                let _ = s;
                self.early_halos += 1;
            }
            BlockMsg::Halo(s) => {
                // Asynchrony: a neighbor that already started step s+1 can
                // deliver its halo before our own Step(s+1) broadcast.
                if s == self.step {
                    self.halos_seen += 1;
                    self.maybe_compute(ctx);
                } else {
                    debug_assert_eq!(s, self.step + 1, "halo from the far future");
                    self.early_halos += 1;
                }
            }
        }
    }

    fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
        if let SysEvent::Restarted { .. } = ev {
            self.rolled_back = true;
            self.halos_seen = 0;
            self.early_halos = 0;
        }
    }
}

#[derive(Default)]
struct Driver {
    step: u64,
    steps: u64,
    blocks: ArrayProxy<Block>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.steps, self.blocks);
    }
}

impl Chare for Driver {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        ctx.broadcast(self.blocks, BlockMsg::Step(0));
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::Reduction { .. } => {
                self.step += 1;
                ctx.log_metric("stencil_step", ctx.now().as_secs_f64());
                if self.step < self.steps {
                    ctx.broadcast(self.blocks, BlockMsg::Step(self.step));
                } else {
                    ctx.exit();
                }
            }
            SysEvent::Restarted { .. } => {
                // Re-drive the step that was in flight when the failure hit
                // (this also replays the initial kick if it was lost).
                if self.step < self.steps {
                    ctx.broadcast(self.blocks, BlockMsg::Step(self.step));
                } else {
                    ctx.exit();
                }
            }
            _ => {}
        }
    }
}

/// Run Stencil2D and return per-step timings.
pub fn run(config: StencilConfig) -> AppRun {
    let (run, _rt) = run_with_runtime(config);
    run
}

/// Run Stencil2D and also hand back the runtime (replay-log and metric
/// inspection).
pub fn run_with_runtime(mut config: StencilConfig) -> (AppRun, Runtime) {
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed)
    .dvfs(config.dvfs)
    .dvfs_period(config.dvfs_period);
    if let Some(s) = config.strategy.take() {
        b = b.strategy(s);
    }
    if let Some(interval) = config.auto_ckpt {
        b = b.auto_checkpoint(interval);
    }
    if let Some(rc) = config.record.take() {
        b = b.record(rc);
    }
    if let Some(tc) = config.trace.take() {
        b = b.tracing(tc);
    }
    if let Some(ec) = config.elastic.take() {
        b = b.elastic(ec);
    }
    let mut rt = b.build();
    for s in config.trace_sinks.drain(..) {
        rt.add_trace_sink(s);
    }
    for (t, pe) in &config.failures {
        rt.schedule_failure(*t, *pe);
    }
    for (t, pe, warning) in &config.preemptions {
        rt.schedule_preemption(*t, *pe, *warning);
    }

    let blocks: ArrayProxy<Block> = rt.create_array("stencil_blocks");
    let driver: ArrayProxy<Driver> = rt.create_array("stencil_driver");
    rt.set_at_sync(blocks, true);

    let side = config.blocks_per_side;
    let pts = (config.grid / side).max(1) as u64;
    let bytes_per_block = pts * pts * 8;
    for bx in 0..side as i32 {
        for by in 0..side as i32 {
            let linear = bx as usize * side + by as usize;
            let pe = linear * rt.num_pes() / (side * side);
            rt.insert(
                blocks,
                Ix::i2(bx, by),
                Block {
                    bx,
                    by,
                    side: side as u64,
                    points_per_side: pts,
                    flops_per_point: config.flops_per_point,
                    data: SyntheticBlob::new(bytes_per_block),
                    driver,
                    blocks,
                    ..Block::default()
                },
                Some(pe),
            );
        }
    }
    rt.insert(driver, Ix::i1(0), Driver {
        step: 0,
        steps: config.steps,
        blocks,
    }, Some(0));

    if let Some(period) = config.lb_period {
        rt.schedule_periodic_lb(period, 10_000);
    }
    rt.send(driver, Ix::i1(0), 0u8);
    let summary = rt.run();
    (crate::collect_app_run(&rt, &summary, "stencil_step"), rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_machine::presets;

    fn base(pes: usize, chares_per_pe: usize, steps: u64) -> StencilConfig {
        let mut c = StencilConfig::cloud_4k(presets::cloud(pes), chares_per_pe);
        c.steps = steps;
        c
    }

    #[test]
    fn completes_all_steps() {
        let r = run(base(8, 2, 10));
        assert_eq!(r.step_times.len(), 10);
        assert!(r.total_s > 0.0);
    }

    #[test]
    fn overdecomposition_hides_latency() {
        // §IV-F: 1 chare/PE → 8 chares/PE gave 77 ms → 32 ms on Ethernet.
        let t1 = run(base(32, 1, 12)).avg_step_s();
        let t8 = run(base(32, 8, 12)).avg_step_s();
        assert!(
            t8 < t1 * 0.75,
            "over-decomposition must hide cloud latency: 1/PE={t1:.4}s 8/PE={t8:.4}s"
        );
    }

    #[test]
    fn interference_slows_iterations_and_lb_recovers() {
        use charm_machine::{InterferenceWindow, SimTime};
        let mk = |with_lb: bool| {
            let mut machine = presets::cloud(16);
            machine.speed = machine.speed.clone().with_interference(InterferenceWindow {
                first_pe: 0,
                num_pes: 1,
                start: SimTime::from_millis(40),
                end: SimTime::MAX,
                speed_factor: 0.4,
            });
            let mut c = base(0, 4, 40);
            c.machine = machine;
            c.blocks_per_side = 8;
            if with_lb {
                // Refinement-based balancing: moves only what the
                // interference displaced (Greedy would churn every block's
                // megabytes through the slow Ethernet each round).
                c.strategy = Some(Box::new(charm_lb::RefineLb::default()));
                c.lb_period = Some(SimTime::from_millis(30));
            }
            c
        };
        let nolb = run(mk(false));
        let lb = run(mk(true));
        assert!(lb.lb_rounds > 0);
        // Median of the trailing steps: a refine round can land a one-off
        // migration spike anywhere, so a mean over a short tail is noisy.
        let last = |r: &AppRun| {
            let d = r.step_durations();
            let mut tail = d[d.len() - 10..].to_vec();
            tail.sort_by(|a, b| a.total_cmp(b));
            tail[tail.len() / 2]
        };
        assert!(
            last(&lb) < last(&nolb) * 0.9,
            "LB must absorb the interference: lb={:.5}s nolb={:.5}s",
            last(&lb),
            last(&nolb)
        );
    }

    #[test]
    fn deterministic() {
        let a = run(base(8, 4, 8));
        let b = run(base(8, 4, 8));
        assert_eq!(a.step_times, b.step_times);
    }

    #[test]
    fn auto_checkpoint_survives_repeated_failures() {
        // A grid small enough that a checkpoint's replication window is
        // short relative to a step — with the 4k grid a single checkpoint
        // ships 128 MB over Ethernet and the first failure would land
        // inside the (first, uncommitted) checkpoint window, which is
        // correctly Unrecoverable rather than a recovery exercise.
        let small = || {
            let mut c = base(8, 2, 12);
            c.grid = 256;
            c
        };
        // Probe run to learn the failure-free duration, then re-run with
        // periodic checkpoints and two failures dropped at arbitrary
        // instants — including potentially mid-step or mid-protocol.
        let probe = run(small());
        let end_t = *probe.step_times.last().unwrap();

        let mut c = small();
        c.auto_ckpt = Some(SimTime::from_secs_f64(end_t / 6.0));
        c.failures = vec![
            (SimTime::from_secs_f64(0.45 * end_t), 2),
            (SimTime::from_secs_f64(0.75 * end_t), 5),
        ];
        let r = run(c);
        // Re-driven steps re-log their metric, so ≥ rather than ==.
        assert!(
            r.step_times.len() >= 12,
            "all steps complete after recovery (got {} steps)",
            r.step_times.len()
        );
        assert!(r.total_s > probe.total_s, "recovery costs time");
    }

    /// The auto-checkpoint tick re-arms while any work is outstanding. A
    /// tick that lands while the only work left is a reduction's callback
    /// in flight must keep the chain going: with `ft_campaign`'s stencil
    /// configuration and interval (a fifth of the failure-free run), the
    /// chain runs to the last step: a tick finds the previous checkpoint
    /// still replicating at most every other interval.
    #[test]
    fn auto_checkpoints_continue_until_the_job_drains() {
        let mut c = base(8, 2, 10);
        c.grid = 256;
        let interval = SimTime::from_secs_f64(0.8113924e-3);
        c.auto_ckpt = Some(interval);
        let (r, rt) = run_with_runtime(c);
        assert_eq!(r.step_times.len(), 10);
        let ckpts = rt.metric("ckpt_time_s");
        assert_eq!(ckpts.len(), 8, "auto checkpoints: {ckpts:?}");
        let last = ckpts.last().expect("checkpoints").0;
        assert!(
            r.total_s - last < 2.0 * interval.as_secs_f64(),
            "the last checkpoint at {last} s is within two intervals of the end at {} s",
            r.total_s
        );
    }
}
