//! Shared fixtures for the fault-injection and preemption campaigns:
//! a seeded RNG, per-schedule seed derivation, and three mini-apps with
//! verifiable answers (lockstep reduction, ring token, 1-D halo exchange).
//! Used by `ft_campaign.rs`, `preempt_campaign.rs`, and `elastic.rs`.
#![allow(dead_code)]

use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, RedOp, RedValue, Runtime, SysEvent,
};
use charm_pup::{Pup, Puper};

// ---------------------------------------------------------------------------
// Deterministic schedule generator (xorshift64*, no external deps).
// ---------------------------------------------------------------------------

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in [lo, hi).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Derive a per-schedule seed from the app name and schedule index (FNV-1a),
/// so every (app, k) pair is an independent, reproducible stream.
pub fn schedule_seed(app: &str, k: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes().chain(k.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A mini-app: how to populate a runtime and how to check its answer.
pub struct AppSpec {
    pub name: &'static str,
    pub build: fn(&mut Runtime),
    pub verify: fn(&Runtime) -> Result<(), String>,
}

// ---------------------------------------------------------------------------
// Mini-app 1: Lockstep — driver-broadcast steps, per-step sum reduction.
// ---------------------------------------------------------------------------

pub const LOCK_WORKERS: i64 = 24;
pub const LOCK_STEPS: u64 = 10;

#[derive(Default, Clone)]
pub struct Step(pub u64);
impl Pup for Step {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.0);
    }
}

#[derive(Default)]
struct LockWorker {
    step: u64,
    workers: ArrayProxy<LockWorker>,
    driver: ArrayProxy<LockDriver>,
}

impl Pup for LockWorker {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.workers, self.driver);
    }
}

impl Chare for LockWorker {
    type Msg = Step;
    fn on_message(&mut self, Step(n): Step, ctx: &mut Ctx<'_>) {
        self.step = n;
        ctx.work(5e5);
        ctx.contribute(
            self.workers,
            n as u32,
            RedValue::I64(1),
            RedOp::Sum,
            Callback::ToChare { array: self.driver.id(), ix: Ix::i1(0) },
        );
    }
}

#[derive(Default)]
struct LockDriver {
    step: u64,
    steps: u64,
    workers: ArrayProxy<LockWorker>,
}

impl Pup for LockDriver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.steps, self.workers);
    }
}

impl Chare for LockDriver {
    type Msg = Step;
    fn on_message(&mut self, _kick: Step, ctx: &mut Ctx<'_>) {
        ctx.broadcast(self.workers, Step(self.step));
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::Reduction { value, .. } => {
                debug_assert_eq!(value.as_i64(), LOCK_WORKERS);
                self.step += 1;
                if self.step < self.steps {
                    ctx.broadcast(self.workers, Step(self.step));
                } else {
                    ctx.log_metric("lockstep_done", self.step as f64);
                    ctx.exit();
                }
            }
            SysEvent::Restarted { .. } => {
                // Re-drive the in-flight step (also replays a lost kick).
                ctx.broadcast(self.workers, Step(self.step));
            }
            _ => {}
        }
    }
}

pub fn lockstep_build(rt: &mut Runtime) {
    let workers = rt.create_array::<LockWorker>("lock_workers");
    let driver = rt.create_array::<LockDriver>("lock_driver");
    for i in 0..LOCK_WORKERS {
        rt.insert(workers, Ix::i1(i), LockWorker { workers, driver, ..Default::default() }, None);
    }
    rt.insert(
        driver,
        Ix::i1(0),
        LockDriver { steps: LOCK_STEPS, workers, ..Default::default() },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), Step(0));
}

/// Like [`lockstep_build`], but marks the worker array migratable
/// (at-sync load stats), so RTS-triggered LB rounds can move workers.
pub fn lockstep_build_migratable(rt: &mut Runtime) {
    let workers = rt.create_array::<LockWorker>("lock_workers");
    rt.set_at_sync(workers, true);
    let driver = rt.create_array::<LockDriver>("lock_driver");
    for i in 0..LOCK_WORKERS {
        rt.insert(workers, Ix::i1(i), LockWorker { workers, driver, ..Default::default() }, None);
    }
    rt.insert(
        driver,
        Ix::i1(0),
        LockDriver { steps: LOCK_STEPS, workers, ..Default::default() },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), Step(0));
}

/// Like [`lockstep_build`], but pins every worker onto the first `pes`
/// PEs, leaving the rest idle — fodder for an elastic shrink.
pub fn lockstep_build_packed(rt: &mut Runtime, pes: usize) {
    let workers = rt.create_array::<LockWorker>("lock_workers");
    let driver = rt.create_array::<LockDriver>("lock_driver");
    for i in 0..LOCK_WORKERS {
        rt.insert(
            workers,
            Ix::i1(i),
            LockWorker { workers, driver, ..Default::default() },
            Some(i as usize % pes),
        );
    }
    rt.insert(
        driver,
        Ix::i1(0),
        LockDriver { steps: LOCK_STEPS, workers, ..Default::default() },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), Step(0));
}

pub fn lockstep_verify(rt: &Runtime) -> Result<(), String> {
    match rt.metric("lockstep_done").last() {
        Some(&(_, v)) if v == LOCK_STEPS as f64 => Ok(()),
        other => Err(format!("lockstep_done = {other:?}, want {LOCK_STEPS}")),
    }
}

pub fn lockstep_spec() -> AppSpec {
    AppSpec { name: "lockstep", build: lockstep_build, verify: lockstep_verify }
}

// ---------------------------------------------------------------------------
// Mini-app 2: Ring — a token makes laps; recovery re-injects it from the
// highest hop any node remembers forwarding (gather-then-resume pattern).
// ---------------------------------------------------------------------------

pub const RING_NODES: i64 = 16;
pub const RING_LAPS: u64 = 3;
pub const RING_HOPS: u64 = RING_NODES as u64 * RING_LAPS;

#[derive(Clone)]
enum RingMsg {
    /// The token at hop `h`; hop `h` is processed by node `h % n`.
    Token(u64),
    /// Driver asks: what was the last hop you processed?
    Report,
}

impl Default for RingMsg {
    fn default() -> Self {
        RingMsg::Token(0)
    }
}

impl Pup for RingMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = matches!(self, RingMsg::Report) as u8;
        p.p(&mut t);
        let mut h = if let RingMsg::Token(h) = self { *h } else { 0 };
        p.p(&mut h);
        if p.is_unpacking() {
            *self = if t == 1 { RingMsg::Report } else { RingMsg::Token(h) };
        }
    }
}

#[derive(Clone, Default)]
enum RingCtl {
    #[default]
    Kick,
    /// A node's last processed hop (-1 = never held the token).
    LastHop(i64),
    /// The token completed all laps at hop count `h`.
    Done(u64),
}

impl Pup for RingCtl {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            RingCtl::Kick => 0,
            RingCtl::LastHop(_) => 1,
            RingCtl::Done(_) => 2,
        };
        p.p(&mut t);
        let mut a = if let RingCtl::LastHop(v) = self { *v } else { 0 };
        p.p(&mut a);
        let mut b = if let RingCtl::Done(h) = self { *h } else { 0 };
        p.p(&mut b);
        if p.is_unpacking() {
            *self = match t {
                0 => RingCtl::Kick,
                1 => RingCtl::LastHop(a),
                _ => RingCtl::Done(b),
            };
        }
    }
}

#[derive(Default)]
struct RingNode {
    n: i64,
    last_hop: i64,
    nodes: ArrayProxy<RingNode>,
    driver: ArrayProxy<RingDriver>,
}

impl Pup for RingNode {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.n, self.last_hop, self.nodes, self.driver);
    }
}

impl Chare for RingNode {
    type Msg = RingMsg;
    fn on_message(&mut self, msg: RingMsg, ctx: &mut Ctx<'_>) {
        match msg {
            RingMsg::Token(h) => {
                self.last_hop = h as i64;
                ctx.work(2e5);
                let next = h + 1;
                if next < RING_HOPS {
                    ctx.send(self.nodes, Ix::i1(next as i64 % self.n), RingMsg::Token(next));
                } else {
                    ctx.send(self.driver, Ix::i1(0), RingCtl::Done(next));
                }
            }
            RingMsg::Report => {
                ctx.send(self.driver, Ix::i1(0), RingCtl::LastHop(self.last_hop));
            }
        }
    }
}

#[derive(Default)]
struct RingDriver {
    n: i64,
    reports: i64,
    max_hop: i64,
    done: bool,
    nodes: ArrayProxy<RingNode>,
}

impl Pup for RingDriver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.n, self.reports, self.max_hop, self.done, self.nodes);
    }
}

impl RingDriver {
    fn finish(&mut self, hops: u64, ctx: &mut Ctx<'_>) {
        if !self.done {
            self.done = true;
            ctx.log_metric("ring_done", hops as f64);
            ctx.exit();
        }
    }
}

impl Chare for RingDriver {
    type Msg = RingCtl;
    fn on_message(&mut self, msg: RingCtl, ctx: &mut Ctx<'_>) {
        match msg {
            RingCtl::Kick => ctx.send(self.nodes, Ix::i1(0), RingMsg::Token(0)),
            RingCtl::LastHop(h) => {
                if self.done {
                    return;
                }
                self.max_hop = self.max_hop.max(h);
                self.reports += 1;
                if self.reports == self.n {
                    // The token at max_hop was processed; hop max_hop+1 was
                    // at most in flight (and in-flight messages were purged
                    // at rollback), so re-injecting it is exactly-once.
                    let next = (self.max_hop + 1) as u64;
                    self.reports = 0;
                    self.max_hop = -1;
                    if next >= RING_HOPS {
                        self.finish(RING_HOPS, ctx);
                    } else {
                        ctx.send(self.nodes, Ix::i1(next as i64 % self.n), RingMsg::Token(next));
                    }
                }
            }
            RingCtl::Done(h) => self.finish(h, ctx),
        }
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Restarted { .. } = ev {
            if self.done {
                return;
            }
            // A rollback may have restored mid-gather state: restart the
            // gather from scratch (stale LastHop messages were purged).
            self.reports = 0;
            self.max_hop = -1;
            ctx.broadcast(self.nodes, RingMsg::Report);
        }
    }
}

pub fn ring_build(rt: &mut Runtime) {
    let nodes = rt.create_array::<RingNode>("ring_nodes");
    let driver = rt.create_array::<RingDriver>("ring_driver");
    for i in 0..RING_NODES {
        rt.insert(
            nodes,
            Ix::i1(i),
            RingNode { n: RING_NODES, nodes, driver, last_hop: -1 },
            None,
        );
    }
    rt.insert(
        driver,
        Ix::i1(0),
        RingDriver { n: RING_NODES, max_hop: -1, nodes, ..Default::default() },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), RingCtl::Kick);
}

pub fn ring_verify(rt: &Runtime) -> Result<(), String> {
    match rt.metric("ring_done").last() {
        Some(&(_, v)) if v == RING_HOPS as f64 => Ok(()),
        other => Err(format!("ring_done = {other:?}, want {RING_HOPS}")),
    }
}

pub fn ring_spec() -> AppSpec {
    AppSpec { name: "ring", build: ring_build, verify: ring_verify }
}

// ---------------------------------------------------------------------------
// Mini-app 3: Halo1d — nearest-neighbor exchange per step (the mixed-phase
// rollback case: a checkpoint can catch neighbors at different steps).
// ---------------------------------------------------------------------------

pub const HALO_NODES: i64 = 16;
pub const HALO_STEPS: u64 = 8;

#[derive(Clone)]
enum HaloMsg {
    Step(u64),
    Halo(u64),
}

impl Default for HaloMsg {
    fn default() -> Self {
        HaloMsg::Step(0)
    }
}

impl Pup for HaloMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = matches!(self, HaloMsg::Halo(_)) as u8;
        p.p(&mut t);
        let mut s = match self {
            HaloMsg::Step(s) | HaloMsg::Halo(s) => *s,
        };
        p.p(&mut s);
        if p.is_unpacking() {
            *self = if t == 1 { HaloMsg::Halo(s) } else { HaloMsg::Step(s) };
        }
    }
}

#[derive(Default)]
struct HaloNode {
    i: i64,
    n: i64,
    step: u64,
    seen: u8,
    early: u8,
    rolled_back: bool,
    nodes: ArrayProxy<HaloNode>,
    driver: ArrayProxy<HaloDriver>,
}

impl Pup for HaloNode {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.i, self.n, self.step, self.seen, self.early,
            self.rolled_back, self.nodes, self.driver
        );
    }
}

impl HaloNode {
    fn maybe_compute(&mut self, ctx: &mut Ctx<'_>) {
        if self.seen < 2 {
            return;
        }
        self.seen = 0;
        ctx.work(3e5);
        ctx.contribute(
            self.nodes,
            self.step as u32,
            RedValue::I64(1),
            RedOp::Sum,
            Callback::ToChare { array: self.driver.id(), ix: Ix::i1(0) },
        );
    }
}

impl Chare for HaloNode {
    type Msg = HaloMsg;
    fn on_message(&mut self, msg: HaloMsg, ctx: &mut Ctx<'_>) {
        match msg {
            HaloMsg::Step(s) => {
                self.rolled_back = false;
                self.step = s;
                self.seen += std::mem::take(&mut self.early);
                for d in [-1i64, 1] {
                    ctx.send(
                        self.nodes,
                        Ix::i1((self.i + d).rem_euclid(self.n)),
                        HaloMsg::Halo(s),
                    );
                }
                self.maybe_compute(ctx);
            }
            HaloMsg::Halo(_) if self.rolled_back => {
                // Post-rollback traffic is all for the one re-driven step
                // (in-flight messages were purged); hold it until our Step.
                self.early += 1;
            }
            HaloMsg::Halo(s) => {
                if s == self.step {
                    self.seen += 1;
                    self.maybe_compute(ctx);
                } else {
                    debug_assert_eq!(s, self.step + 1, "halo from the far future");
                    self.early += 1;
                }
            }
        }
    }
    fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
        if let SysEvent::Restarted { .. } = ev {
            self.rolled_back = true;
            self.seen = 0;
            self.early = 0;
        }
    }
}

#[derive(Default)]
struct HaloDriver {
    step: u64,
    steps: u64,
    nodes: ArrayProxy<HaloNode>,
}

impl Pup for HaloDriver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.steps, self.nodes);
    }
}

impl Chare for HaloDriver {
    type Msg = Step;
    fn on_message(&mut self, _kick: Step, ctx: &mut Ctx<'_>) {
        ctx.broadcast(self.nodes, HaloMsg::Step(self.step));
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::Reduction { .. } => {
                self.step += 1;
                if self.step < self.steps {
                    ctx.broadcast(self.nodes, HaloMsg::Step(self.step));
                } else {
                    ctx.log_metric("halo_done", self.step as f64);
                    ctx.exit();
                }
            }
            SysEvent::Restarted { .. } => {
                ctx.broadcast(self.nodes, HaloMsg::Step(self.step));
            }
            _ => {}
        }
    }
}

pub fn halo_build(rt: &mut Runtime) {
    let nodes = rt.create_array::<HaloNode>("halo_nodes");
    let driver = rt.create_array::<HaloDriver>("halo_driver");
    for i in 0..HALO_NODES {
        rt.insert(
            nodes,
            Ix::i1(i),
            HaloNode { i, n: HALO_NODES, nodes, driver, ..Default::default() },
            None,
        );
    }
    rt.insert(
        driver,
        Ix::i1(0),
        HaloDriver { steps: HALO_STEPS, nodes, ..Default::default() },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), Step(0));
}

pub fn halo_verify(rt: &Runtime) -> Result<(), String> {
    match rt.metric("halo_done").last() {
        Some(&(_, v)) if v == HALO_STEPS as f64 => Ok(()),
        other => Err(format!("halo_done = {other:?}, want {HALO_STEPS}")),
    }
}

pub fn halo_spec() -> AppSpec {
    AppSpec { name: "halo1d", build: halo_build, verify: halo_verify }
}

// ---------------------------------------------------------------------------
// Pinned service paths: a printable fingerprint of everything a finished run
// exposes, and the one scenario shared with the root `tests/integration.rs`.
// ---------------------------------------------------------------------------

/// Passive cargo: chares that never receive a message but have state of
/// uneven size on every PE, so take-downs and restores move more than one
/// array and their byte accounting is not all-equal.
#[derive(Default)]
struct Ballast {
    data: Vec<u64>,
}

impl Pup for Ballast {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.data);
    }
}

impl Chare for Ballast {
    type Msg = Step;
    fn on_message(&mut self, _m: Step, _ctx: &mut Ctx<'_>) {}
}

pub fn ballast_build(rt: &mut Runtime) {
    let arr = rt.create_array::<Ballast>("ballast");
    let pes = rt.num_pes();
    for i in 0..12usize {
        let data = vec![i as u64; 16 + 24 * (i % 5)];
        rt.insert(arr, Ix::i1(i as i64), Ballast { data }, Some((i * 3) % pes));
    }
}

/// Everything observable about a finished run, one `key=value` per line —
/// the form `service_paths.rs` compares with committed constants. Tracing
/// must be on (the `NetCounters` only surface through the report).
pub fn fingerprint(rt: &mut Runtime, s: &charm_core::RunSummary) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "end_ns={} events={} entries={} messages={} bytes={}",
        s.end_time.as_nanos(),
        s.events,
        s.entries,
        s.messages,
        s.bytes
    );
    let digests = rt.state_digest();
    let state = format!("{digests:?}");
    let _ = writeln!(out, "state={:#018x}", charm_pup::fnv1a(state.as_bytes()));
    let placement: Vec<Option<usize>> =
        digests.iter().map(|(obj, _)| rt.element_pe(obj.array, &obj.ix)).collect();
    let _ = writeln!(out, "placement={placement:?}");
    let _ = writeln!(out, "pes={} alive={}", rt.num_pes(), rt.alive_pes());
    let lb: Vec<(usize, f64)> = rt.lb_rounds().iter().map(|r| (r.migrations, r.cost_s)).collect();
    let _ = writeln!(out, "lb={lb:?}");
    for name in [
        "ckpt_time_s",
        "evacuation_cost_s",
        "reconfigure_cost_s",
        "restart_time_s",
        "capacity",
    ] {
        let _ = writeln!(out, "{name}={:?}", rt.metric(name));
    }
    let report = rt.projections_report(4).expect("tracing is on");
    let net = report
        .lines()
        .find(|l| l.starts_with("-- network model:"))
        .expect("report carries the NetCounters line");
    let _ = writeln!(out, "{}", net.trim_start_matches("-- "));
    let chrome = rt.trace_chrome_json().expect("tracing is on");
    let _ = writeln!(out, "trace={:#018x}", charm_pup::fnv1a(chrome.as_bytes()));
    out
}

/// Lockstep on the jittered 8-PE cloud machine, shrunk 8 → 4 a third of
/// the way in and expanded back to 8 at two thirds, with `GreedyLb`
/// installed so the expand's LB round really spreads the workers again.
pub fn shrink_expand_run(greedy: Box<dyn charm_core::Strategy>) -> String {
    let machine = charm_core::machine::presets::cloud(8);
    let mut rt = Runtime::builder(machine)
        .seed(7)
        .strategy(greedy)
        .tracing(charm_core::TraceConfig::default())
        .build();
    rt.reconfig_overhead_shrink = charm_core::SimTime::from_micros(300);
    rt.reconfig_overhead_expand = charm_core::SimTime::from_micros(700);
    lockstep_build_migratable(&mut rt);
    ballast_build(&mut rt);
    rt.schedule_reconfigure(charm_core::SimTime::from_micros(2_000), 4);
    rt.schedule_reconfigure(charm_core::SimTime::from_micros(5_000), 8);
    let s = rt.run();
    lockstep_verify(&rt).expect("answer survives shrink + expand");
    assert_eq!(rt.metric("reconfigure").len(), 2, "both reconfigurations ran");
    fingerprint(&mut rt, &s)
}

/// [`shrink_expand_run`]'s fingerprint, with the shrink's moves priced by
/// the one chare-move rule (DESIGN §7).
pub const SHRINK_EXPAND_PIN: &str = "\
end_ns=12925370 events=545 entries=251 messages=263 bytes=16240\n\
state=0xd293f564383040aa\n\
placement=[Some(0), Some(1), Some(2), Some(3), Some(0), Some(1), Some(2), Some(3), Some(0), Some(1), Some(2), Some(3), Some(4), Some(5), Some(6), Some(7), Some(4), Some(5), Some(6), Some(7), Some(4), Some(5), Some(6), Some(7), Some(0), Some(0), Some(3), Some(2), Some(1), Some(0), Some(0), Some(2), Some(1), Some(0), Some(3), Some(3), Some(1)]\n\
pes=8 alive=8\n\
lb=[(18, 0.000694698)]\n\
ckpt_time_s=[]\n\
evacuation_cost_s=[]\n\
reconfigure_cost_s=[(0.002, 0.000563724), (0.005, 0.0007)]\n\
restart_time_s=[]\n\
capacity=[(0.002, 4.0), (0.005, 8.0)]\n\
network model: 69 remote msg(s), 6440 B remote, 1 local hop(s)\n\
trace=0x6ec1fc4a8e22e313\n\
";
