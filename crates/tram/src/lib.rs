//! # charm-tram — Topological Routing and Aggregation Module (§III-F)
//!
//! Fine-grained messages pay a per-message cost (software overhead + network
//! α) that is independent of size; applications that send huge numbers of
//! tiny *data items* (PDES events, particle exchanges, sorting splatters)
//! can be dominated by it. TRAM coalesces items:
//!
//! * PEs are arranged in a **virtual N-dimensional grid**; the *peers* of a
//!   PE are all PEs reachable by changing one coordinate.
//! * An item for a non-peer destination is **routed** through intermediate
//!   peers along a minimal dimension-order path — so each PE aggregates into
//!   at most `Σ(dims−1)` buffers instead of P−1, keeping the buffer
//!   footprint cache-friendly, while items with different destinations but
//!   common sub-paths share messages.
//! * A buffer is **flushed** (sent as one combined message) when it reaches
//!   the configured threshold, when the application calls
//!   [`Tram::flush_all`], or on an optional idle-aware periodic timer.
//!
//! The per-PE aggregation points are implemented as a group-like chare array
//! (one [`TramAgent`] per PE, pinned), exactly as a Charm++ library would.
//!
//! Trade-off reproduced from Fig. 15b: at low message volume aggregation
//! *increases* average latency (items wait in buffers), so direct sends win;
//! at high volume TRAM wins decisively.

use charm_core::{ArrayProxy, Chare, Ctx, Ix, Runtime, SysEvent};
use charm_machine::{SimTime, Torus};
use charm_pup::{Pup, Puper};

/// Configuration for a TRAM instance.
#[derive(Debug, Clone)]
pub struct TramConfig {
    /// Dimensions of the virtual grid (e.g. 2 → √P × √P).
    pub ndims: usize,
    /// Items buffered per peer before an automatic flush.
    pub flush_threshold: usize,
    /// Optional idle-aware periodic flush interval; `None` = flush only on
    /// threshold or explicit `flush_all`.
    pub flush_interval: Option<SimTime>,
}

impl Default for TramConfig {
    fn default() -> Self {
        TramConfig {
            ndims: 2,
            flush_threshold: 64,
            flush_interval: Some(SimTime::from_micros(500)),
        }
    }
}

/// Messages handled by a [`TramAgent`].
#[derive(Default)]
pub enum TramMsg<M> {
    /// A locally submitted item (from a chare on this agent's PE).
    Submit {
        /// Final destination PE of the item.
        dst_pe: u64,
        /// Final destination chare.
        ix: Ix,
        /// The payload.
        item: M,
    },
    /// A combined message of routed items from a peer.
    Batch(Vec<RoutedItemTuple<M>>),
    /// Flush all buffers now.
    #[default]
    FlushAll,
    /// Idle-aware periodic flush tick.
    FlushTick,
}

/// Public alias so `TramMsg` can be named in signatures.
pub type RoutedItemTuple<M> = (u64, Ix, M);

impl<M: Pup + Default> Pup for TramMsg<M> {
    fn pup(&mut self, p: &mut Puper) {
        let mut tag: u8 = match self {
            TramMsg::Submit { .. } => 0,
            TramMsg::Batch(_) => 1,
            TramMsg::FlushAll => 2,
            TramMsg::FlushTick => 3,
        };
        p.p(&mut tag);
        if p.is_unpacking() {
            *self = match tag {
                0 => TramMsg::Submit {
                    dst_pe: 0,
                    ix: Ix::default(),
                    item: M::default(),
                },
                1 => TramMsg::Batch(Vec::new()),
                2 => TramMsg::FlushAll,
                3 => TramMsg::FlushTick,
                t => panic!("invalid TramMsg tag {t}"),
            };
        }
        match self {
            TramMsg::Submit { dst_pe, ix, item } => {
                p.p(dst_pe);
                p.p(ix);
                p.p(item);
            }
            TramMsg::Batch(items) => p.p(items),
            TramMsg::FlushAll | TramMsg::FlushTick => {}
        }
    }
}


/// The per-PE aggregation agent. One element per PE, never migrated.
pub struct TramAgent<C: Chare>
where
    C::Msg: Default,
{
    my_pe: u64,
    dims: Vec<u64>,
    /// The virtual grid `dims` describes — derived, so rebuilt on unpack
    /// rather than pup'd. `None` only on a default (never attached) agent.
    torus: Option<Torus>,
    threshold: u64,
    flush_interval_ns: u64,
    target: ArrayProxy<C>,
    self_array: ArrayProxy<TramAgent<C>>,
    /// Buffers keyed by next-hop PE.
    buffers: std::collections::BTreeMap<u64, Vec<RoutedItemTuple<C::Msg>>>,
    /// Items buffered since the last tick (idle detection for the timer).
    activity: u64,
    tick_armed: bool,
    /// Lifetime statistics.
    items_routed: u64,
    batches_sent: u64,
}

impl<C: Chare> Default for TramAgent<C>
where
    C::Msg: Default,
{
    fn default() -> Self {
        TramAgent {
            my_pe: 0,
            dims: Vec::new(),
            torus: None,
            threshold: 64,
            flush_interval_ns: 0,
            target: ArrayProxy::default(),
            self_array: ArrayProxy::default(),
            buffers: std::collections::BTreeMap::new(),
            activity: 0,
            tick_armed: false,
            items_routed: 0,
            batches_sent: 0,
        }
    }
}

impl<C: Chare> Pup for TramAgent<C>
where
    C::Msg: Default,
{
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.my_pe);
        p.p(&mut self.dims);
        if p.is_unpacking() && !self.dims.is_empty() {
            self.torus = Some(Torus::new(self.dims.iter().map(|&d| d as usize).collect()));
        }
        p.p(&mut self.threshold);
        p.p(&mut self.flush_interval_ns);
        p.p(&mut self.target);
        p.p(&mut self.self_array);
        // Buffers are serialized so even a checkpoint taken mid-phase is
        // lossless.
        let mut n = self.buffers.len() as u64;
        p.p(&mut n);
        if p.is_unpacking() {
            self.buffers.clear();
            for _ in 0..n {
                let mut k = 0u64;
                let mut v: Vec<RoutedItemTuple<C::Msg>> = Vec::new();
                p.p(&mut k);
                p.p(&mut v);
                self.buffers.insert(k, v);
            }
        } else {
            let keys: Vec<u64> = self.buffers.keys().copied().collect();
            for k in keys {
                let mut kk = k;
                p.p(&mut kk);
                p.p(self.buffers.get_mut(&k).expect("key listed"));
            }
        }
        p.p(&mut self.activity);
        p.p(&mut self.tick_armed);
        p.p(&mut self.items_routed);
        p.p(&mut self.batches_sent);
    }
}

impl<C: Chare> TramAgent<C>
where
    C::Msg: Default,
{
    /// Route one item a step: deliver locally or buffer toward the next hop.
    fn route(&mut self, dst_pe: u64, ix: Ix, item: C::Msg, ctx: &mut Ctx<'_>) {
        self.items_routed += 1;
        if dst_pe == self.my_pe {
            ctx.send(self.target, ix, item);
            return;
        }
        let next = self
            .torus
            .as_ref()
            .expect("routing agent was attached to a grid")
            .route_next(self.my_pe as usize, dst_pe as usize)
            .expect("dst != self") as u64;
        self.buffers.entry(next).or_default().push((dst_pe, ix, item));
        self.activity += 1;
        let len = self.buffers[&next].len() as u64;
        if len >= self.threshold {
            self.flush_peer(next, ctx);
        } else if self.flush_interval_ns > 0 && !self.tick_armed {
            self.tick_armed = true;
            ctx.send_after(
                SimTime::from_nanos(self.flush_interval_ns),
                self.self_array,
                Ix::i1(self.my_pe as i64),
                TramMsg::FlushTick,
            );
        }
    }

    fn flush_peer(&mut self, peer: u64, ctx: &mut Ctx<'_>) {
        if let Some(items) = self.buffers.remove(&peer) {
            if items.is_empty() {
                return;
            }
            self.batches_sent += 1;
            ctx.send(
                self.self_array,
                Ix::i1(peer as i64),
                TramMsg::Batch(items),
            );
        }
    }

    fn flush_everything(&mut self, ctx: &mut Ctx<'_>) {
        let peers: Vec<u64> = self.buffers.keys().copied().collect();
        for peer in peers {
            self.flush_peer(peer, ctx);
        }
    }
}

impl<C: Chare> Chare for TramAgent<C>
where
    C::Msg: Default,
{
    type Msg = TramMsg<C::Msg>;

    fn on_message(&mut self, msg: TramMsg<C::Msg>, ctx: &mut Ctx<'_>) {
        match msg {
            TramMsg::Submit { dst_pe, ix, item } => self.route(dst_pe, ix, item, ctx),
            TramMsg::Batch(items) => {
                for (dst_pe, ix, item) in items {
                    self.route(dst_pe, ix, item, ctx);
                }
            }
            TramMsg::FlushAll => self.flush_everything(ctx),
            TramMsg::FlushTick => {
                self.tick_armed = false;
                if self.activity > 0 {
                    self.activity = 0;
                    self.flush_everything(ctx);
                    // Re-arm only if traffic continues; `route` re-arms on
                    // the next buffered item, so an idle agent goes quiet
                    // (and quiescence detection still works).
                }
            }
        }
    }

    fn on_event(&mut self, _event: SysEvent, _ctx: &mut Ctx<'_>) {}
}

/// Handle to an attached TRAM instance — `Copy`, pup-able, safe to keep in
/// chare state.
pub struct Tram<C: Chare>
where
    C::Msg: Default,
{
    agents: ArrayProxy<TramAgent<C>>,
}

impl<C: Chare> Clone for Tram<C>
where
    C::Msg: Default,
{
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: Chare> Copy for Tram<C> where C::Msg: Default {}

impl<C: Chare> Default for Tram<C>
where
    C::Msg: Default,
{
    fn default() -> Self {
        Tram {
            agents: ArrayProxy::default(),
        }
    }
}

impl<C: Chare> Pup for Tram<C>
where
    C::Msg: Default,
{
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.agents);
    }
}

impl<C: Chare> Tram<C>
where
    C::Msg: Default,
{
    /// Create the per-PE agent group and return the handle. `name` must be
    /// unique among the runtime's arrays.
    pub fn attach(
        rt: &mut Runtime,
        name: &str,
        target: ArrayProxy<C>,
        config: TramConfig,
    ) -> Tram<C> {
        let agents = rt.create_array::<TramAgent<C>>(name);
        let n = rt.num_pes();
        // Exact factorization: every grid slot must be a live PE, or
        // dimension-order routing would forward through phantom ranks.
        let torus = Torus::factored(n, config.ndims);
        let dims: Vec<u64> = torus.dims().iter().map(|&d| d as u64).collect();
        for pe in 0..n {
            rt.insert(
                agents,
                Ix::i1(pe as i64),
                TramAgent {
                    my_pe: pe as u64,
                    dims: dims.clone(),
                    torus: Some(torus.clone()),
                    threshold: config.flush_threshold.max(1) as u64,
                    flush_interval_ns: config
                        .flush_interval
                        .map(|t| t.as_nanos())
                        .unwrap_or(0),
                    target,
                    self_array: agents,
                    ..TramAgent::default()
                },
                Some(pe),
            );
        }
        Tram { agents }
    }

    /// Submit one data item from inside an entry method: it will reach
    /// element `ix` of the target array on PE `dst_pe`, possibly routed and
    /// aggregated through intermediate peers.
    ///
    /// Each call is one (cheap, local) message to the aggregation agent;
    /// when a single entry method emits many items, prefer
    /// [`Tram::send_via`] with a [`TramBuf`], which batches the local
    /// hand-off as well.
    pub fn send(&self, ctx: &mut Ctx<'_>, dst_pe: usize, ix: Ix, item: C::Msg) {
        ctx.send(
            self.agents,
            Ix::i1(ctx.my_pe() as i64),
            TramMsg::Submit {
                dst_pe: dst_pe as u64,
                ix,
                item,
            },
        );
    }

    /// Buffer an item in the caller's [`TramBuf`]; the whole buffer goes to
    /// the local agent as one message when it reaches its local threshold.
    /// Call [`Tram::flush_via`] before the entry method returns (or at a
    /// phase boundary) to push out the remainder.
    pub fn send_via(
        &self,
        ctx: &mut Ctx<'_>,
        buf: &mut TramBuf<C>,
        dst_pe: usize,
        ix: Ix,
        item: C::Msg,
    ) {
        buf.items.push((dst_pe as u64, ix, item));
        if buf.items.len() as u64 >= buf.local_threshold {
            self.flush_via(ctx, buf);
        }
    }

    /// Hand any buffered items to the local agent as a single message.
    pub fn flush_via(&self, ctx: &mut Ctx<'_>, buf: &mut TramBuf<C>) {
        if buf.items.is_empty() {
            return;
        }
        let items = std::mem::take(&mut buf.items);
        ctx.send(
            self.agents,
            Ix::i1(ctx.my_pe() as i64),
            TramMsg::Batch(items),
        );
    }

    /// Flush every buffer on every PE (e.g. at a PDES window boundary).
    pub fn flush_all(&self, ctx: &mut Ctx<'_>) {
        ctx.broadcast_flush(self.agents);
    }

    /// Flush from the host side.
    pub fn flush_all_from_host(&self, rt: &mut Runtime) {
        let n = rt.num_pes();
        for pe in 0..n {
            rt.send(self.agents, Ix::i1(pe as i64), TramMsg::FlushAll);
        }
    }
}

/// A caller-side staging buffer for [`Tram::send_via`]: lives in the
/// sending chare's state (it is `Pup`, so it migrates/checkpoints with its
/// owner) and coalesces the local hand-off to the aggregation agent.
pub struct TramBuf<C: Chare>
where
    C::Msg: Default,
{
    items: Vec<RoutedItemTuple<C::Msg>>,
    /// Items staged before the buffer is handed to the local agent.
    pub local_threshold: u64,
}

impl<C: Chare> Default for TramBuf<C>
where
    C::Msg: Default,
{
    fn default() -> Self {
        TramBuf {
            items: Vec::new(),
            local_threshold: 64,
        }
    }
}

impl<C: Chare> TramBuf<C>
where
    C::Msg: Default,
{
    /// A buffer with an explicit local threshold.
    pub fn with_threshold(local_threshold: u64) -> Self {
        TramBuf {
            items: Vec::new(),
            local_threshold: local_threshold.max(1),
        }
    }

    /// Items currently staged.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<C: Chare> Pup for TramBuf<C>
where
    C::Msg: Default,
{
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.items);
        p.p(&mut self.local_threshold);
    }
}

/// Extension trait so `flush_all` can broadcast without requiring
/// `TramMsg<C::Msg>: Clone` (broadcast requires `Clone`; `FlushAll` is
/// cloneable by construction, so we send per-element instead).
trait CtxFlushExt {
    fn broadcast_flush<C: Chare>(&mut self, agents: ArrayProxy<TramAgent<C>>)
    where
        C::Msg: Default;
}

impl CtxFlushExt for Ctx<'_> {
    fn broadcast_flush<C: Chare>(&mut self, agents: ArrayProxy<TramAgent<C>>)
    where
        C::Msg: Default,
    {
        for pe in 0..self.num_pes() {
            self.send(agents, Ix::i1(pe as i64), TramMsg::FlushAll);
        }
    }
}
