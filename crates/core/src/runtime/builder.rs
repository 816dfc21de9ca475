//! [`RuntimeBuilder`]: the settable points of a [`Runtime`] and its
//! construction, including the events a machine description schedules
//! before the run starts (failures, DVFS sampling, checkpoints, the elastic
//! controller).

use super::{Counters, EnvSlab, Ev, PeState, Runtime, Work, SLOT_HOST};
use crate::ctrl::{ControlRegistry, ControlValues};
use crate::ft::Ft;
use crate::lbframework::{LbTrigger, Strategy};
use crate::placement::Lb;
use crate::power::{DvfsScheme, Power};
use crate::replay::{Recorder, ReplayConfig};
use crate::trace::{TraceConfig, Tracer};
use charm_machine::{EventQueue, MachineConfig, NetworkModel, SimTime};
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configures and constructs a [`Runtime`].
pub struct RuntimeBuilder {
    machine: MachineConfig,
    seed: u64,
    lb: Option<Box<dyn Strategy>>,
    lb_trigger: LbTrigger,
    dvfs: DvfsScheme,
    dvfs_period: SimTime,
    location_cache: bool,
    collective_arity: u64,
    auto_ckpt: Option<SimTime>,
    trace: Option<TraceConfig>,
    trace_sinks: Vec<Box<dyn crate::trace::TraceSink>>,
    record: Option<ReplayConfig>,
    perturb: Option<u64>,
    elastic: Option<crate::elastic::ElasticConfig>,
}

impl RuntimeBuilder {
    /// Set the RNG seed for the whole run (defaults to 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a load-balancing strategy (AtSync-triggered by default).
    /// Object-to-object traffic is recorded for it iff it
    /// [`wants_comm`](Strategy::wants_comm).
    pub fn strategy(mut self, s: Box<dyn Strategy>) -> Self {
        self.lb = Some(s);
        self
    }

    /// Select when load balancing runs.
    pub fn lb_trigger(mut self, t: LbTrigger) -> Self {
        self.lb_trigger = t;
        self
    }

    /// Select the DVFS/temperature scheme (requires a thermal model on the
    /// machine to have any effect).
    pub fn dvfs(mut self, scheme: DvfsScheme) -> Self {
        self.dvfs = scheme;
        self
    }

    /// Temperature sampling / DVFS control period (default 1 s).
    pub fn dvfs_period(mut self, p: SimTime) -> Self {
        self.dvfs_period = p;
        self
    }

    /// Enable/disable per-PE location caching (§II-D). With caching off,
    /// every remote send pays the home-PE query round trip — the ablation
    /// that shows why the paper's protocol caches.
    pub fn location_cache(mut self, enabled: bool) -> Self {
        self.location_cache = enabled;
        self
    }

    /// Branching factor of the spanning trees used by broadcasts,
    /// reductions, barriers, and quiescence waves (default 2).
    pub fn collective_arity(mut self, k: u64) -> Self {
        assert!(k >= 2, "spanning trees need arity >= 2");
        self.collective_arity = k;
        self
    }

    /// Enable the Projections-lite tracing subsystem (`trace`): bounded
    /// per-PE event logs plus always-cheap summary aggregates. Off by
    /// default — when off, no events are recorded and the per-message hooks
    /// reduce to a branch on `None`.
    pub fn tracing(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Install a streaming [`TraceSink`](crate::trace::TraceSink): every
    /// traced record is fanned out to it as it is produced, so full event
    /// logs flow to disk instead of accumulating in memory. Requires
    /// [`RuntimeBuilder::tracing`]. Call [`Runtime::finish_trace`] after
    /// the run to flush and finalize.
    pub fn trace_sink(mut self, sink: Box<dyn crate::trace::TraceSink>) -> Self {
        self.trace_sinks.push(sink);
        self
    }

    /// Record a causal replay log (see [`crate::replay`]): one record per
    /// executed entry with its consumed-message PUP digest and produced
    /// sends, plus periodic chare-state digest points. Retrieve the log
    /// with [`Runtime::take_replay_log`] after the run. Off by default —
    /// when off, the per-message hooks reduce to a branch on `None`.
    pub fn record(mut self, cfg: ReplayConfig) -> Self {
        self.record = Some(cfg);
        self
    }

    /// Perturb the delivery schedule with causally-valid extra delays drawn
    /// from `seed` (independent of the run seed): each user message is held
    /// back by up to 100 µs with probability 1/4. Combine with
    /// [`RuntimeBuilder::record`] and diff the logs to hunt message races.
    pub fn perturb(mut self, seed: u64) -> Self {
        self.perturb = Some(seed);
        self
    }

    /// Install the closed-loop elastic controller: sample utilization every
    /// `cfg.cadence` of virtual time and let `cfg.policy` issue shrink or
    /// expand decisions through the malleability path. Decisions are pure
    /// functions of simulation state, so controlled runs replay
    /// bit-identically.
    pub fn elastic(mut self, cfg: crate::elastic::ElasticConfig) -> Self {
        self.elastic = Some(cfg);
        self
    }

    /// Take a double in-memory checkpoint automatically every `interval`
    /// of virtual time (§III-B). Ticks re-arm only while application work
    /// is outstanding, so the run still terminates when the job drains.
    pub fn auto_checkpoint(mut self, interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "checkpoint interval must be positive");
        self.auto_ckpt = Some(interval);
        self
    }

    #[doc(hidden)] // inert: kept for `benchmark/`'s 2-thread pass
    pub fn threads(self, _n: usize) -> Self { self }

    /// Construct the runtime.
    pub fn build(self) -> Runtime {
        let n = self.machine.num_pes;
        let net = NetworkModel::new(self.machine.network.clone(), self.seed);
        let net_min_remote = net.min_remote_delay().0;
        let rngs = (0..n)
            .map(|pe| StdRng::seed_from_u64(self.seed ^ (pe as u64).wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        assert!(
            self.trace_sinks.is_empty() || self.trace.is_some(),
            "trace_sink requires tracing to be enabled"
        );
        let tracer = self.trace.map(|cfg| {
            let mut tr = Tracer::new(cfg, n);
            for sink in self.trace_sinks {
                tr.add_sink(sink);
            }
            tr
        });
        let power = Power::new(&self.machine, self.dvfs, self.dvfs_period);
        let mut rt = Runtime {
            machine: self.machine,
            net,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            pes: (0..n).map(|_| PeState::new()).collect(),
            live_pes: n,
            stores: Vec::new(),
            rngs,
            ctrl: ControlRegistry::new(),
            ctrl_snapshot: ControlValues::default(),
            loc_cache: crate::array::LocCache::default(),
            slab: EnvSlab::new(),
            limbo: FxHashMap::default(),
            reductions: FxHashMap::default(),
            qd: None,
            work: Work::default(),
            lb: Lb::new(self.lb, self.lb_trigger),
            ft: Ft::new(self.auto_ckpt),
            verdict: None,
            elastic: self.elastic.map(|cfg| crate::elastic::ElasticCtl::new(cfg, n)),
            power,
            metrics: FxHashMap::default(),
            stats: Counters { arena_base: crate::arena::stats(), ..Counters::default() },
            action_scratch: Vec::new(),
            send_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            exit_requested: false,
            seed: self.seed,
            location_cache: self.location_cache,
            collective_arity: self.collective_arity,
            tracer,
            recorder: self.record.map(Recorder::new),
            // Salted with "perturb": independent of the run seed's streams.
            perturb: self.perturb.map(|seed| StdRng::seed_from_u64(seed ^ 0x0070_6572_7475_7262)),
            // Slot-partitioned event keys: one counter per PE plus the three
            // runtime slots (host, reductions, RTS). See [`Runtime::fresh_key`].
            keys: vec![0u64; n + 3],
            cur_slot: n + SLOT_HOST,
            cur_dispatch: (0, 0),
            cur_win_end: SimTime::ZERO,
            win_ns: net_min_remote.max(1),
            reconfig_overhead_shrink: SimTime::from_secs_f64(2.0),
            reconfig_overhead_expand: SimTime::from_secs_f64(6.5),
        };
        // The DVFS sampler and the RTS tick chains, keyed in this order.
        let ticks = [
            rt.power.as_ref().map(|_| (self.dvfs_period, Ev::DvfsTick)),
            self.auto_ckpt.map(|interval| (interval, Ev::AutoCkpt)),
            rt.elastic.as_ref().map(|ctl| (ctl.cadence, Ev::ElasticTick)),
        ];
        for (at, ev) in ticks.into_iter().flatten() {
            let k = rt.fresh_key(rt.rts_slot());
            rt.events.push_keyed(at, k, ev);
        }
        rt
    }
}

impl Runtime {
    /// Start building a runtime for `machine`.
    pub fn builder(machine: MachineConfig) -> RuntimeBuilder {
        RuntimeBuilder {
            machine,
            seed: 42,
            lb: None,
            lb_trigger: LbTrigger::AtSync,
            dvfs: DvfsScheme::Base,
            dvfs_period: SimTime::from_secs(1),
            location_cache: true,
            collective_arity: 2,
            auto_ckpt: None,
            trace: None,
            trace_sinks: Vec::new(),
            record: None,
            perturb: None,
            elastic: None,
        }
    }
}
