//! charm-kv — a sharded KV/DHT service under live user traffic.
//!
//! The repo's other mini-apps are iterative HPC; this one is the ROADMAP's
//! service shape: symmetric migratable shards that *listen and serve*
//! indefinitely while the runtime rebalances, checkpoints, and resizes
//! them underneath the traffic.
//!
//! * **Shards** are chares owning contiguous key ranges
//!   (`shard = key / keys_per_shard`), over-decomposed
//!   (`shards_per_pe` ≫ 1) and placed *blocked* — consecutive shards on the
//!   same PE — so a hot key region concentrates on one or two PEs and only
//!   measurement-based LB can spread it.
//! * **Clients** generate an open-loop request stream: seeded Poisson
//!   arrivals (`util::PoissonArrivals`) with Zipf-skewed keys
//!   (`util::ZipfSampler`) whose hotspot *drifts*: the hot key
//!   region advances every `KvConfig::drift_period`, so a balancer that
//!   measured yesterday's load keeps chasing today's.
//! * **SLOs**: every request's end-to-end latency (virtual arrival →
//!   acknowledged) lands in a per-client [`LogHist`]; the run reports
//!   p50/p99/p999, and a per-poll p99 time series records how fast LB and
//!   the elastic controller react to drift.
//! * **Fault tolerance**: PUTs are versioned last-write-wins registers
//!   `(ver, client)` and clients retry un-acked requests, so a buddy
//!   checkpoint rollback mid-traffic loses no *acknowledged* PUT — the
//!   retry either re-applies it or a newer version already superseded it
//!   ([`verify_acked_puts`] checks the invariant).
//! * **TRAM**: small GET/PUT requests can ride the mesh-routed aggregation
//!   layer ([`KvConfig::tram`]).

use crate::util::{PoissonArrivals, SplitMix64, ZipfSampler};
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, LogHist, MachineConfig, RedOp, RedValue,
    Runtime, SimTime, Strategy, SysEvent,
};
use charm_pup::{Pup, Puper};
use charm_tram::{Tram, TramBuf, TramConfig};
use std::collections::BTreeMap;

/// Configuration for a charm-kv service run.
pub struct KvConfig {
    /// The machine to run on.
    pub(crate) machine: MachineConfig,
    /// Shards per PE (over-decomposition factor).
    pub(crate) shards_per_pe: usize,
    /// Contiguous keys owned by each shard.
    pub(crate) keys_per_shard: u64,
    /// Traffic-generating client chares (spread round-robin over PEs).
    pub clients: usize,
    /// Requests each client issues (the run serves until all are acked).
    pub requests_per_client: u64,
    /// Offered load as a fraction of the machine's aggregate service
    /// capacity (sets the Poisson arrival rate).
    pub offered_load: f64,
    /// Zipf exponent of the key popularity distribution.
    pub zipf_s: f64,
    /// Width of the hot key region, in shards. Hot ranks interleave across
    /// the region (one per shard round-robin), so the *region* is hot while
    /// no single shard exceeds one PE's capacity — the imbalance is
    /// fixable by migration, which is the point.
    pub(crate) hot_shards: usize,
    /// The hot region's center advances every this much virtual time.
    pub(crate) drift_period: SimTime,
    /// ... by this many shards' worth of keys.
    pub(crate) drift_step_shards: usize,
    /// Fraction of requests that are PUTs (rest are GETs).
    pub put_fraction: f64,
    /// Service work charged per GET / per PUT (flops).
    pub(crate) flops_per_get: f64,
    pub(crate) flops_per_put: f64,
    /// Optional LB strategy (with `lb_period`, chases the hotspot).
    pub strategy: Option<Box<dyn Strategy>>,
    /// Period of RTS-triggered LB rounds (None = never balance).
    pub lb_period: Option<SimTime>,
    /// Automatic in-memory buddy checkpoint interval (§III-B).
    pub auto_ckpt: Option<SimTime>,
    /// PE failures to inject, as `(time, pe)` pairs.
    pub failures: Vec<(SimTime, usize)>,
    /// Spot preemptions: (kill time, any PE on the node, warning lead).
    pub preemptions: Vec<(SimTime, usize, SimTime)>,
    /// Closed-loop elastic controller (None = static PE set).
    pub elastic: Option<charm_core::ElasticConfig>,
    /// Route requests through TRAM aggregation (None = direct sends).
    pub tram: Option<TramConfig>,
    /// Resend an un-acked request after this long (purged in-flight
    /// requests after a rollback are re-driven this way).
    pub(crate) retry_timeout: SimTime,
    /// Driver poll cadence: completion detection, retry scans, and the
    /// p99-over-time series all run on this clock.
    pub(crate) poll_period: SimTime,
    /// Safety valve: abandon the run after this many polls (a stuck run
    /// logs `kv_stuck` instead of spinning forever).
    pub(crate) max_polls: u64,
    /// RNG seed.
    pub seed: u64,
    /// Record a replay log (bound it with `ReplayConfig::max_execs` for
    /// long-running service recordings).
    pub record: Option<charm_core::ReplayConfig>,
    /// Projections-lite tracing (None = off).
    pub trace: Option<charm_core::TraceConfig>,
    /// Streaming trace sinks (require `trace`).
    pub trace_sinks: Vec<Box<dyn charm_core::TraceSink>>,
    #[doc(hidden)] // no longer read: kept for `benchmark/`'s 2-thread pass
    pub threads: usize,
}

impl KvConfig {
    /// A serving-workload baseline: 8 shards/PE, 2 clients/PE, 10% PUTs,
    /// a hot region two PEs wide drifting every 20 ms.
    pub fn service(machine: MachineConfig, requests_per_client: u64) -> Self {
        let pes = machine.num_pes.max(1);
        let shards_per_pe = 8;
        KvConfig {
            machine,
            shards_per_pe,
            keys_per_shard: 64,
            clients: 2 * pes,
            requests_per_client,
            offered_load: 0.6,
            zipf_s: 1.0,
            hot_shards: 2 * shards_per_pe,
            drift_period: SimTime::from_millis(20),
            drift_step_shards: shards_per_pe + 1,
            put_fraction: 0.1,
            flops_per_get: 2.0e5,
            flops_per_put: 3.0e5,
            strategy: None,
            lb_period: None,
            auto_ckpt: None,
            failures: Vec::new(),
            preemptions: Vec::new(),
            elastic: None,
            tram: None,
            retry_timeout: SimTime::from_millis(60),
            poll_period: SimTime::from_millis(10),
            max_polls: 200_000,
            seed: 42,
            record: None,
            trace: None,
            trace_sinks: Vec::new(),
            threads: 1,
        }
    }
}

/// Result of a charm-kv run.
#[derive(Debug, Clone)]
pub struct KvRun {
    /// Requests acknowledged end-to-end.
    pub acked: u64,
    /// Request retransmissions (timeouts and post-rollback re-drives).
    pub retries: u64,
    /// Virtual seconds from start to the last ack.
    pub duration_s: f64,
    /// End-to-end latency SLOs, seconds (client-observed, log-bucket
    /// estimates from the merged [`LogHist`]).
    pub p50_s: f64,
    pub p99_s: f64,
    pub p999_s: f64,
    /// The merged latency histogram itself.
    pub latency: LogHist,
    /// Per-poll cumulative p99 in µs, as `(virtual time s, p99 µs)` — the
    /// LB/elastic reaction curve.
    pub p99_series: Vec<(f64, f64)>,
    /// LB rounds that ran / objects they migrated.
    pub lb_rounds: usize,
    pub migrations: usize,
    /// Elastic reconfigurations and checkpoint rollbacks observed.
    pub reconfigures: usize,
    pub rollbacks: usize,
    /// Messages delivered.
    pub messages: u64,
    /// Order-independent digest of the final store contents (all shards).
    pub store_digest: u64,
    /// Digest of every chare's final PUP state (strongest determinism pin).
    pub state_digest: u64,
    /// Set when the run hit an unrecoverable failure.
    pub unrecoverable: Option<String>,
}

// ---------------------------------------------------------------------------
// key geometry
// ---------------------------------------------------------------------------

/// Center key of the hot region at virtual time `t_ns`.
pub(crate) fn hot_center(t_ns: u64, period: SimTime, step_keys: u64, keys: u64) -> u64 {
    ((t_ns / period.0.max(1)).wrapping_mul(step_keys)) % keys.max(1)
}

/// Key serving Zipf rank `rank` (1-based) when the hot region starts at
/// `center`: ranks interleave round-robin across the `hot_shards`-wide
/// region, one hot key per shard, then wrap deeper into the region.
pub(crate) fn zipf_key(
    rank: u64,
    center: u64,
    keys: u64,
    hot_shards: u64,
    keys_per_shard: u64,
) -> u64 {
    let r = rank - 1;
    let w = hot_shards.max(1);
    let off = (r % w) * keys_per_shard + r / w;
    (center + off) % keys.max(1)
}

// ---------------------------------------------------------------------------
// messages
// ---------------------------------------------------------------------------

/// A GET/PUT request (PUT version = the client's request id, so versions
/// are unique and retries are idempotent under last-write-wins order).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KvMsg {
    Get { client: u64, rid: u64, key: u64 },
    Put { client: u64, rid: u64, key: u64 },
}

impl Default for KvMsg {
    fn default() -> Self {
        KvMsg::Get {
            client: 0,
            rid: 0,
            key: 0,
        }
    }
}

impl Pup for KvMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            KvMsg::Get { .. } => 0,
            KvMsg::Put { .. } => 1,
        };
        p.p(&mut t);
        let (mut c, mut r, mut k) = match self {
            KvMsg::Get { client, rid, key } | KvMsg::Put { client, rid, key } => {
                (*client, *rid, *key)
            }
        };
        charm_pup::pup_all!(p; c, r, k);
        if p.is_unpacking() {
            *self = match t {
                0 => KvMsg::Get {
                    client: c,
                    rid: r,
                    key: k,
                },
                _ => KvMsg::Put {
                    client: c,
                    rid: r,
                    key: k,
                },
            };
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
enum ClientMsg {
    /// Begin generating.
    #[default]
    Start,
    /// Self-tick: issue every arrival that is due, schedule the next.
    Gen,
    /// A shard acknowledged request `rid`.
    Ack { rid: u64 },
    /// Driver poll: scan retries, keep generating, contribute status.
    Poll { round: u64 },
}

impl Pup for ClientMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            ClientMsg::Start => 0,
            ClientMsg::Gen => 1,
            ClientMsg::Ack { .. } => 2,
            ClientMsg::Poll { .. } => 3,
        };
        p.p(&mut t);
        let mut v: u64 = match self {
            ClientMsg::Ack { rid } => *rid,
            ClientMsg::Poll { round } => *round,
            _ => 0,
        };
        p.p(&mut v);
        if p.is_unpacking() {
            *self = match t {
                0 => ClientMsg::Start,
                1 => ClientMsg::Gen,
                2 => ClientMsg::Ack { rid: v },
                _ => ClientMsg::Poll { round: v },
            };
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
enum DriverMsg {
    #[default]
    Kick,
    Tick,
}

impl Pup for DriverMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            DriverMsg::Kick => 0,
            DriverMsg::Tick => 1,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = if t == 0 { DriverMsg::Kick } else { DriverMsg::Tick };
        }
    }
}

// ---------------------------------------------------------------------------
// shards
// ---------------------------------------------------------------------------

/// A KV shard: a last-write-wins register per key, ordered by
/// `(version, client)`.
#[derive(Default)]
struct Shard {
    /// key → (version, writing client). BTreeMap for deterministic PUP
    /// bytes (iteration order is part of the checkpoint digest).
    store: BTreeMap<u64, (u64, u64)>,
    flops_per_get: f64,
    flops_per_put: f64,
    gets_served: u64,
    puts_applied: u64,
    stale_puts: u64,
    clients: ArrayProxy<Client>,
}

impl Pup for Shard {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.store, self.flops_per_get, self.flops_per_put,
            self.gets_served, self.puts_applied, self.stale_puts, self.clients
        );
    }
}

impl Chare for Shard {
    type Msg = KvMsg;

    fn on_message(&mut self, msg: KvMsg, ctx: &mut Ctx<'_>) {
        match msg {
            KvMsg::Get { client, rid, .. } => {
                ctx.work(self.flops_per_get);
                self.gets_served += 1;
                ctx.send(self.clients, Ix::i1(client as i64), ClientMsg::Ack { rid });
            }
            KvMsg::Put { client, rid, key } => {
                ctx.work(self.flops_per_put);
                // Last-write-wins on (version, client): retries and
                // post-rollback re-drives are idempotent, supersession is
                // deterministic.
                let newer = match self.store.get(&key) {
                    Some(&cur) => (rid, client) > cur,
                    None => true,
                };
                if newer {
                    self.store.insert(key, (rid, client));
                    self.puts_applied += 1;
                } else {
                    self.stale_puts += 1;
                }
                ctx.send(self.clients, Ix::i1(client as i64), ClientMsg::Ack { rid });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// clients
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, PartialEq)]
struct PendingReq {
    key: u64,
    is_put: bool,
    /// Intended (open-loop) arrival time — latency is measured from here,
    /// so generator scheduling lag counts against the SLO (no coordinated
    /// omission).
    arrival_ns: u64,
    /// Last transmission (retry pacing).
    sent_ns: u64,
}

charm_pup::impl_pup_struct!(PendingReq {
    key,
    is_put,
    arrival_ns,
    sent_ns
});

#[derive(Default)]
struct Client {
    id: u64,
    target: u64,
    issued: u64,
    acked: u64,
    acked_puts: u64,
    retries: u64,
    arrivals: PoissonArrivals,
    zipf: ZipfSampler,
    rng: SplitMix64,
    /// Arrival time of the next not-yet-issued request (0 = draw one).
    next_arrival_ns: u64,
    /// A Gen self-tick is in flight (rollback purges it; see `on_event`).
    gen_inflight: bool,
    pending: BTreeMap<u64, PendingReq>,
    /// key → highest acknowledged PUT version (the durability watermark
    /// [`verify_acked_puts`] checks against the shards).
    acked_ver: BTreeMap<u64, u64>,
    lat: LogHist,
    lat_sum_ns: u64,
    // key geometry
    keys: u64,
    keys_per_shard: u64,
    hot_shards: u64,
    drift_period_ns: u64,
    drift_step_keys: u64,
    put_fraction: f64,
    retry_ns: u64,
    num_shards: u64,
    num_pes: u64,
    shards: ArrayProxy<Shard>,
    clients: ArrayProxy<Client>,
    driver: ArrayProxy<Driver>,
    tram: Option<Tram<Shard>>,
    tbuf: TramBuf<Shard>,
}

impl Pup for Client {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.id, self.target, self.issued, self.acked, self.acked_puts,
            self.retries, self.arrivals, self.zipf, self.rng,
            self.next_arrival_ns, self.gen_inflight, self.pending,
            self.acked_ver, self.lat, self.lat_sum_ns, self.keys,
            self.keys_per_shard, self.hot_shards, self.drift_period_ns,
            self.drift_step_keys, self.put_fraction, self.retry_ns,
            self.num_shards, self.num_pes, self.shards, self.clients,
            self.driver, self.tram, self.tbuf
        );
    }
}

impl Client {
    fn send_req(&mut self, ctx: &mut Ctx<'_>, rid: u64, key: u64, is_put: bool) {
        let msg = if is_put {
            KvMsg::Put {
                client: self.id,
                rid,
                key,
            }
        } else {
            KvMsg::Get {
                client: self.id,
                rid,
                key,
            }
        };
        let shard = key / self.keys_per_shard.max(1);
        if let Some(t) = self.tram {
            let home_pe = (shard * self.num_pes / self.num_shards.max(1)) as usize;
            t.send_via(ctx, &mut self.tbuf, home_pe, Ix::i1(shard as i64), msg);
        } else {
            ctx.send(self.shards, Ix::i1(shard as i64), msg);
        }
    }

    /// Issue every due arrival, then schedule a Gen wake-up for the next.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().0;
        while self.issued < self.target {
            if self.next_arrival_ns == 0 {
                self.next_arrival_ns = self.arrivals.next_arrival_ns();
            }
            if self.next_arrival_ns > now {
                if !self.gen_inflight {
                    self.gen_inflight = true;
                    ctx.send_after(
                        SimTime(self.next_arrival_ns - now),
                        self.clients,
                        Ix::i1(self.id as i64),
                        ClientMsg::Gen,
                    );
                }
                break;
            }
            let arrival = self.next_arrival_ns;
            self.next_arrival_ns = 0;
            self.issued += 1;
            let rid = self.issued;
            let rank = self.zipf.sample(&mut self.rng);
            let center = hot_center(
                arrival,
                SimTime(self.drift_period_ns),
                self.drift_step_keys,
                self.keys,
            );
            let key = zipf_key(rank, center, self.keys, self.hot_shards, self.keys_per_shard);
            let is_put = self.rng.next_f64() < self.put_fraction;
            self.pending.insert(
                rid,
                PendingReq {
                    key,
                    is_put,
                    arrival_ns: arrival,
                    sent_ns: now,
                },
            );
            self.send_req(ctx, rid, key, is_put);
        }
        if let Some(t) = self.tram {
            t.flush_via(ctx, &mut self.tbuf);
        }
    }

    /// Retransmit requests whose ack is overdue (timeout or purged by a
    /// rollback).
    fn scan_retries(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().0;
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now.saturating_sub(p.sent_ns) >= self.retry_ns)
            .map(|(&rid, _)| rid)
            .collect();
        for rid in due {
            let (key, is_put) = {
                let p = self.pending.get_mut(&rid).expect("pending entry");
                p.sent_ns = now;
                (p.key, p.is_put)
            };
            self.retries += 1;
            self.send_req(ctx, rid, key, is_put);
        }
        if let Some(t) = self.tram {
            t.flush_via(ctx, &mut self.tbuf);
        }
    }

    fn done(&self) -> bool {
        self.issued >= self.target && self.pending.is_empty()
    }
}

impl Chare for Client {
    type Msg = ClientMsg;

    fn on_message(&mut self, msg: ClientMsg, ctx: &mut Ctx<'_>) {
        match msg {
            ClientMsg::Start => self.pump(ctx),
            ClientMsg::Gen => {
                self.gen_inflight = false;
                self.pump(ctx);
            }
            ClientMsg::Ack { rid } => {
                // Duplicate acks (from retries) miss the map and are ignored.
                if let Some(p) = self.pending.remove(&rid) {
                    let lat = ctx.now().0.saturating_sub(p.arrival_ns);
                    self.lat.add(lat);
                    self.lat_sum_ns += lat;
                    self.acked += 1;
                    if p.is_put {
                        self.acked_puts += 1;
                        let v = self.acked_ver.entry(p.key).or_insert(0);
                        if rid > *v {
                            *v = rid;
                        }
                    }
                }
            }
            ClientMsg::Poll { round } => {
                self.scan_retries(ctx);
                self.pump(ctx);
                let mut v = Vec::with_capacity(3 + LogHist::num_buckets());
                v.push(if self.done() { 1 } else { 0 });
                v.push(self.acked as i64);
                v.push(self.retries as i64);
                v.extend(self.lat.counts().iter().map(|&c| c as i64));
                ctx.contribute(
                    self.clients,
                    round as u32,
                    RedValue::VecI64(v),
                    RedOp::Sum,
                    Callback::ToChare {
                        array: self.driver.id(),
                        ix: Ix::i1(0),
                    },
                );
            }
        }
    }

    fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
        if let SysEvent::Restarted { .. } = ev {
            // The in-flight Gen tick (and any in-flight requests/acks) were
            // purged with the rollback; the next driver poll re-arms
            // generation and the retry scan re-drives pending requests.
            self.gen_inflight = false;
        }
    }
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Driver {
    round: u64,
    n_clients: u64,
    poll_ns: u64,
    max_polls: u64,
    finished: bool,
    clients: ArrayProxy<Client>,
    driver: ArrayProxy<Driver>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.round, self.n_clients, self.poll_ns, self.max_polls,
            self.finished, self.clients, self.driver
        );
    }
}

impl Chare for Driver {
    type Msg = DriverMsg;

    fn on_message(&mut self, msg: DriverMsg, ctx: &mut Ctx<'_>) {
        match msg {
            DriverMsg::Kick => {
                ctx.broadcast(self.clients, ClientMsg::Start);
                ctx.send_after(
                    SimTime(self.poll_ns),
                    self.driver,
                    Ix::i1(0),
                    DriverMsg::Tick,
                );
            }
            DriverMsg::Tick => {
                if self.finished {
                    return;
                }
                self.round += 1;
                if self.round > self.max_polls {
                    ctx.log_metric("kv_stuck", self.round as f64);
                    self.finished = true;
                    ctx.exit();
                    return;
                }
                ctx.broadcast(self.clients, ClientMsg::Poll { round: self.round });
            }
        }
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::Reduction { tag, value } => {
                if self.finished || tag != self.round as u32 {
                    return; // stale round (can follow a rollback re-drive)
                }
                let v = match value {
                    RedValue::VecI64(v) => v,
                    _ => return,
                };
                if v.len() < 3 {
                    return;
                }
                let done = v[0] as u64;
                let acked = v[1];
                let counts: Vec<u64> = v[3..].iter().map(|&c| c.max(0) as u64).collect();
                let hist = LogHist::from_counts(&counts);
                ctx.log_metric("kv_acked", acked as f64);
                ctx.log_metric("kv_p99_us", hist.quantile(0.99) as f64 / 1e3);
                if done >= self.n_clients {
                    self.finished = true;
                    ctx.exit();
                } else {
                    ctx.send_after(
                        SimTime(self.poll_ns),
                        self.driver,
                        Ix::i1(0),
                        DriverMsg::Tick,
                    );
                }
            }
            // The in-flight poll round (broadcast, contributions, or the
            // Tick itself) was purged; restart the chain.
            SysEvent::Restarted { .. } if !self.finished => {
                ctx.send_after(
                    SimTime(self.poll_ns),
                    self.driver,
                    Ix::i1(0),
                    DriverMsg::Tick,
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// host driver
// ---------------------------------------------------------------------------

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Run the KV service to completion.
pub fn run(config: KvConfig) -> KvRun {
    let (run, _rt) = run_with_runtime(config);
    run
}

/// Run the KV service and hand back the runtime for inspection (replay
/// logs, traces, invariant checks).
pub fn run_with_runtime(mut config: KvConfig) -> (KvRun, Runtime) {
    let pes = config.machine.num_pes.max(1);
    let flops_per_sec = config.machine.flops_per_sec;
    let num_shards = (pes * config.shards_per_pe).max(1);
    let keys = num_shards as u64 * config.keys_per_shard;

    // Open-loop arrival rate from the offered-load fraction.
    let flops_avg = config.put_fraction * config.flops_per_put
        + (1.0 - config.put_fraction) * config.flops_per_get;
    let total_rps = config.offered_load * pes as f64 * flops_per_sec / flops_avg.max(1.0);
    let n_clients = config.clients.max(1);
    let mean_ns = n_clients as f64 * 1e9 / total_rps;

    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
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

    let shards: ArrayProxy<Shard> = rt.create_array("kv_shards");
    let clients: ArrayProxy<Client> = rt.create_array("kv_clients");
    let driver: ArrayProxy<Driver> = rt.create_array("kv_driver");
    rt.set_at_sync(shards, true);
    let tram = config
        .tram
        .take()
        .map(|cfg| Tram::attach(&mut rt, "kv_tram", shards, cfg));

    // Blocked placement: consecutive shards share a PE, so a contiguous
    // hot region overloads few PEs until LB spreads it.
    for s in 0..num_shards {
        let pe = s * pes / num_shards;
        rt.insert(
            shards,
            Ix::i1(s as i64),
            Shard {
                flops_per_get: config.flops_per_get,
                flops_per_put: config.flops_per_put,
                clients,
                ..Shard::default()
            },
            Some(pe),
        );
    }
    for c in 0..n_clients {
        let salt = |k: u64| {
            let mut m = SplitMix64::new(config.seed ^ (c as u64).wrapping_mul(0x9E37_79B9) ^ k);
            m.next_u64()
        };
        rt.insert(
            clients,
            Ix::i1(c as i64),
            Client {
                id: c as u64,
                target: config.requests_per_client,
                arrivals: PoissonArrivals::new(salt(1), mean_ns),
                zipf: ZipfSampler::new(keys.clamp(1, 4096), config.zipf_s),
                rng: SplitMix64::new(salt(2)),
                keys,
                keys_per_shard: config.keys_per_shard,
                hot_shards: config.hot_shards as u64,
                drift_period_ns: config.drift_period.0,
                drift_step_keys: config.drift_step_shards as u64 * config.keys_per_shard,
                put_fraction: config.put_fraction,
                retry_ns: config.retry_timeout.0,
                num_shards: num_shards as u64,
                num_pes: pes as u64,
                shards,
                clients,
                driver,
                tram,
                tbuf: TramBuf::with_threshold(16),
                ..Client::default()
            },
            Some(c % pes),
        );
    }
    rt.insert(
        driver,
        Ix::i1(0),
        Driver {
            n_clients: n_clients as u64,
            poll_ns: config.poll_period.0,
            max_polls: config.max_polls,
            clients,
            driver,
            ..Driver::default()
        },
        Some(0),
    );

    if let Some(period) = config.lb_period {
        rt.schedule_periodic_lb(period, 10_000);
    }
    rt.send(driver, Ix::i1(0), DriverMsg::Kick);
    let summary = rt.run();

    // ---- host-side collection ------------------------------------------
    let mut lat = LogHist::new();
    let (mut acked, mut retries) = (0u64, 0u64);
    for c in 0..n_clients {
        rt.inspect(clients, &Ix::i1(c as i64), |cl: &Client| {
            lat.merge(&cl.lat);
            acked += cl.acked;
            retries += cl.retries;
        });
    }
    let mut store_digest = 0u64;
    for s in 0..num_shards {
        rt.inspect(shards, &Ix::i1(s as i64), |sh: &Shard| {
            let mut d = 0xcbf2_9ce4_8422_2325u64;
            for (&k, &(ver, client)) in &sh.store {
                d = fnv(fnv(fnv(d, k), ver), client);
            }
            // Wrapping add keeps the combined digest independent of shard
            // visit order (and of which PE each shard ended up on).
            store_digest = store_digest.wrapping_add(d);
        });
    }
    let state_digest = rt
        .state_digest()
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (_, d)| fnv(h, d));

    let duration_s = summary.end_time.as_secs_f64();
    let migrations = rt.lb_rounds().iter().map(|r| r.migrations).sum();
    let run = KvRun {
        acked,
        retries,
        duration_s,
        p50_s: lat.quantile(0.5) as f64 / 1e9,
        p99_s: lat.quantile(0.99) as f64 / 1e9,
        p999_s: lat.quantile(0.999) as f64 / 1e9,
        latency: lat,
        p99_series: rt.metric("kv_p99_us").to_vec(),
        lb_rounds: rt.lb_rounds().len(),
        migrations,
        reconfigures: rt.metric("reconfigure").len(),
        rollbacks: rt.metric("restart_time_s").len(),
        messages: summary.messages,
        store_digest,
        state_digest,
        unrecoverable: rt.unrecoverable().map(|u| u.to_string()),
    };
    (run, rt)
}

/// Check the durability invariant after a run: for every client and key,
/// the highest *acknowledged* PUT version is present in (or superseded by)
/// the shard's register — i.e. no acked PUT was lost, across any number of
/// rollbacks. Returns the number of acked PUT watermarks checked.
pub fn verify_acked_puts(rt: &Runtime) -> Result<usize, String> {
    let clients_id = rt
        .array_id("kv_clients")
        .ok_or("no kv_clients array (not a kv run?)")?;
    let shards_id = rt.array_id("kv_shards").ok_or("no kv_shards array")?;
    let clients: ArrayProxy<Client> = ArrayProxy::from_id(clients_id);
    let shards: ArrayProxy<Shard> = ArrayProxy::from_id(shards_id);

    // Gather every shard's registers into one map.
    let mut store: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for ix in rt.array_indices(shards_id) {
        rt.inspect(shards, &ix, |sh: &Shard| {
            for (&k, &v) in &sh.store {
                store.insert(k, v);
            }
        });
    }
    let mut checked = 0usize;
    for ix in rt.array_indices(clients_id) {
        let result = rt.inspect(clients, &ix, |cl: &Client| {
            for (&key, &ver) in &cl.acked_ver {
                checked += 1;
                match store.get(&key) {
                    Some(&cur) if cur >= (ver, cl.id) => {}
                    Some(&(cv, cc)) => {
                        return Err(format!(
                            "acked PUT lost: client {} key {} ver {} but store has ({cv},{cc})",
                            cl.id, key, ver
                        ));
                    }
                    None => {
                        return Err(format!(
                            "acked PUT lost: client {} key {} ver {} absent from store",
                            cl.id, key, ver
                        ));
                    }
                }
            }
            Ok(())
        });
        result.unwrap_or(Ok(()))?;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_machine::presets;

    #[test]
    fn key_geometry() {
        // Interleave: consecutive ranks land one shard apart inside the
        // hot region, wrapping deeper after `hot_shards` ranks.
        let (keys, w, kps) = (4096u64, 16u64, 64u64);
        assert_eq!(zipf_key(1, 0, keys, w, kps), 0);
        assert_eq!(zipf_key(2, 0, keys, w, kps), 64);
        assert_eq!(zipf_key(17, 0, keys, w, kps), 1);
        assert_eq!(zipf_key(1, 4090, keys, w, kps), 4090);
        assert_eq!(zipf_key(2, 4090, keys, w, kps), (4090 + 64) % keys);
        // Drift advances by whole periods.
        let p = SimTime::from_millis(10);
        assert_eq!(hot_center(0, p, 100, 4096), 0);
        assert_eq!(hot_center(p.0 - 1, p, 100, 4096), 0);
        assert_eq!(hot_center(p.0, p, 100, 4096), 100);
        assert_eq!(hot_center(3 * p.0, p, 100, 4096), 300);
    }

    #[test]
    fn service_completes_and_is_deterministic() {
        let mk = || {
            let mut c = KvConfig::service(presets::cloud(4), 40);
            c.clients = 4;
            c
        };
        let a = run(mk());
        assert_eq!(a.acked, 4 * 40);
        assert!(a.p50_s > 0.0 && a.p50_s <= a.p99_s && a.p99_s <= a.p999_s);
        assert!(a.duration_s > 0.0);
        assert!(a.unrecoverable.is_none());
        let b = run(mk());
        assert_eq!(a.store_digest, b.store_digest);
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.latency.counts(), b.latency.counts());
    }

    #[test]
    fn tram_requests_arrive_too() {
        let mut c = KvConfig::service(presets::cloud(4), 30);
        c.clients = 4;
        c.tram = Some(TramConfig {
            ndims: 2,
            flush_threshold: 8,
            flush_interval: Some(SimTime::from_micros(200)),
        });
        let direct = {
            let mut d = KvConfig::service(presets::cloud(4), 30);
            d.clients = 4;
            run(d)
        };
        let trammed = run(c);
        assert_eq!(trammed.acked, direct.acked);
        // Same requests, same last-write-wins outcome.
        assert_eq!(trammed.store_digest, direct.store_digest);
    }

    #[test]
    fn acked_put_invariant_holds_without_failures() {
        let mut c = KvConfig::service(presets::cloud(4), 50);
        c.clients = 6;
        c.put_fraction = 0.5;
        let (_, rt) = run_with_runtime(c);
        let checked = verify_acked_puts(&rt).expect("invariant");
        assert!(checked > 0);
    }
}
