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
//!   [`Tram::flush_all_from_host`], or on an optional idle-aware periodic
//!   timer.
//!
//! The per-PE aggregation points are implemented as a group-like chare array
//! (one `TramAgent` per PE, pinned), exactly as a Charm++ library would.
//!
//! Trade-off reproduced from Fig. 15b: at low message volume aggregation
//! *increases* average latency (items wait in buffers), so direct sends win;
//! at high volume TRAM wins decisively.
//!
//! ## Buffers in wire form
//!
//! As in Charm++, where items wait in the message buffer that will carry
//! them, every buffer — an agent's per-peer buffer and a sender's
//! [`TramBuf`] alike — is a `TramBatch`: the bytes its items pack to, not
//! typed `(u64, Ix, M)` tuples. An item with an `Ix::I1` index and a `u64`
//! payload is 25 bytes there plus a 4-byte end offset, where the tuple took
//! 48.
//! A batch is sized in O(1) when sent, an agent forwards an item as a byte
//! copy after reading its destination PE, and only the last hop decodes the
//! index and the item. Batch sizes and digests are those of the typed
//! vector, so simulated time is unchanged.
//!
//! One limit follows: an item's *modeled* bytes ([`Puper::zeros`], e.g. a
//! [`charm_pup::SyntheticBlob`]) are materialised as zeros in the buffer.
//! TRAM items are fine-grained by definition, and no in-tree item carries
//! modeled bytes; send a bulk payload with `Ctx::send` instead.

mod wire;

pub(crate) use wire::TramBatch;

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
    /// threshold or explicit `flush_all_from_host`.
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
pub(crate) enum TramMsg<M> {
    /// A locally submitted item (from a chare on this agent's PE).
    Submit {
        /// Final destination PE of the item.
        dst_pe: u64,
        /// Final destination chare.
        ix: Ix,
        /// The payload.
        item: M,
    },
    /// A combined message of routed items, from a peer or a local
    /// [`TramBuf`].
    Batch(TramBatch<M>),
    /// Flush all buffers now.
    #[default]
    FlushAll,
    /// Idle-aware periodic flush tick.
    FlushTick,
}

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
                1 => TramMsg::Batch(TramBatch::default()),
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
            TramMsg::Batch(batch) => p.p(batch),
            TramMsg::FlushAll | TramMsg::FlushTick => {}
        }
    }
}


/// The per-PE aggregation agent. One element per PE, never migrated.
pub(crate) struct TramAgent<C: Chare>
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
    buffers: std::collections::BTreeMap<u64, TramBatch<C::Msg>>,
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
                let mut v = TramBatch::default();
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
    /// The next hop toward `dst_pe`, which is not this PE.
    fn next_hop(&self, dst_pe: u64) -> u64 {
        self.torus
            .as_ref()
            .expect("routing agent was attached to a grid")
            .route_next(self.my_pe as usize, dst_pe as usize)
            .expect("dst != self") as u64
    }

    /// Route a submitted item a step: deliver locally or pack it into the
    /// buffer toward the next hop.
    fn route(&mut self, dst_pe: u64, ix: Ix, item: C::Msg, ctx: &mut Ctx<'_>) {
        self.items_routed += 1;
        if dst_pe == self.my_pe {
            ctx.send(self.target, ix, item);
            return;
        }
        let next = self.next_hop(dst_pe);
        let buf = self.buffers.entry(next).or_default();
        buf.push(dst_pe, ix, item);
        let len = buf.len();
        self.buffered(next, len, ctx);
    }

    /// Route a batched item a step: decode and deliver it here, or copy its
    /// bytes into the buffer toward the next hop.
    fn route_span(&mut self, span: &[u8], ctx: &mut Ctx<'_>) {
        self.items_routed += 1;
        let dst_pe = wire::dst_pe(span);
        if dst_pe == self.my_pe {
            let (ix, item) = wire::decode(span);
            ctx.send(self.target, ix, item);
            return;
        }
        let next = self.next_hop(dst_pe);
        let buf = self.buffers.entry(next).or_default();
        buf.push_span(span);
        let len = buf.len();
        self.buffered(next, len, ctx);
    }

    /// An item joined `next`'s buffer, which now holds `len`: flush it at
    /// the threshold, else make sure the idle-aware timer is armed.
    fn buffered(&mut self, next: u64, len: usize, ctx: &mut Ctx<'_>) {
        self.activity += 1;
        if len as u64 >= self.threshold {
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
            TramMsg::Batch(batch) => {
                for span in batch.spans() {
                    self.route_span(span, ctx);
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
    ///
    /// # Panics
    /// Panics if `dst_pe` is not a PE of the machine.
    pub fn send(&self, ctx: &mut Ctx<'_>, dst_pe: usize, ix: Ix, item: C::Msg) {
        check_dst(ctx, dst_pe);
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
    ///
    /// # Panics
    /// Panics if `dst_pe` is not a PE of the machine.
    pub fn send_via(
        &self,
        ctx: &mut Ctx<'_>,
        buf: &mut TramBuf<C>,
        dst_pe: usize,
        ix: Ix,
        item: C::Msg,
    ) {
        check_dst(ctx, dst_pe);
        buf.items.push(dst_pe as u64, ix, item);
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

    /// Flush every buffer on every PE, from the host side.
    pub fn flush_all_from_host(&self, rt: &mut Runtime) {
        let n = rt.num_pes();
        for pe in 0..n {
            rt.send(self.agents, Ix::i1(pe as i64), TramMsg::FlushAll);
        }
    }
}

/// Reject a destination outside the machine at submission: routing would
/// peel it to a real grid coordinate and fail hops away from the caller.
fn check_dst(ctx: &Ctx<'_>, dst_pe: usize) {
    let n = ctx.num_pes();
    assert!(
        dst_pe < n,
        "TRAM destination PE {dst_pe} is outside the {n}-PE grid"
    );
}

/// A caller-side staging buffer for [`Tram::send_via`]: lives in the
/// sending chare's state (it is `Pup`, so it migrates/checkpoints with its
/// owner) and coalesces the local hand-off to the aggregation agent. Its
/// items are staged in wire form, as the `TramBatch` the agent receives.
pub struct TramBuf<C: Chare>
where
    C::Msg: Default,
{
    items: TramBatch<C::Msg>,
    /// Items staged before the buffer is handed to the local agent.
    pub(crate) local_threshold: u64,
}

impl<C: Chare> Default for TramBuf<C>
where
    C::Msg: Default,
{
    fn default() -> Self {
        TramBuf {
            items: TramBatch::default(),
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
            items: TramBatch::default(),
            local_threshold: local_threshold.max(1),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use charm_core::ArrayId;
    use charm_pup::{roundtrip, to_bytes};

    #[derive(Default)]
    struct Sink;

    impl Pup for Sink {
        fn pup(&mut self, _p: &mut Puper) {}
    }

    impl Chare for Sink {
        type Msg = Vec<u8>;
        fn on_message(&mut self, _m: Vec<u8>, _ctx: &mut Ctx<'_>) {}
    }

    fn items(batch: &TramBatch<Vec<u8>>) -> Vec<(u64, Ix, Vec<u8>)> {
        batch
            .spans()
            .map(|span| {
                let (ix, item) = wire::decode(span);
                (wire::dst_pe(span), ix, item)
            })
            .collect()
    }

    fn batch_of(dst_pes: &[u64]) -> TramBatch<Vec<u8>> {
        let mut b = TramBatch::default();
        for (k, &pe) in dst_pes.iter().enumerate() {
            b.push(pe, Ix::I2([k as i32, -1]), vec![k as u8; k]);
        }
        b
    }

    #[test]
    fn a_checkpoint_taken_mid_phase_is_lossless() {
        let torus = Torus::factored(6, 2);
        let mut agent = TramAgent::<Sink> {
            my_pe: 4,
            dims: torus.dims().iter().map(|&d| d as u64).collect(),
            torus: Some(torus),
            flush_interval_ns: 500,
            target: ArrayProxy::from_id(ArrayId(0)),
            self_array: ArrayProxy::from_id(ArrayId(1)),
            activity: 3,
            tick_armed: true,
            items_routed: 11,
            batches_sent: 2,
            ..TramAgent::default()
        };
        agent.buffers.insert(1, batch_of(&[1, 0]));
        agent.buffers.insert(5, batch_of(&[5, 5, 5]));
        let mut back = roundtrip(&mut agent);
        assert_eq!(to_bytes(&mut back), to_bytes(&mut agent));
        assert_eq!(back.buffers.len(), 2);
        for (peer, batch) in &agent.buffers {
            assert_eq!(items(&back.buffers[peer]), items(batch), "peer {peer}");
        }
        assert_eq!(back.torus.map(|t| t.dims().to_vec()), Some(vec![3, 2]));
        assert_eq!((back.my_pe, back.items_routed), (4, 11));

        let mut buf = TramBuf::<Sink>::with_threshold(8);
        buf.items = batch_of(&[0, 3, 2, 2]);
        let mut back = roundtrip(&mut buf);
        assert_eq!((back.items.len(), back.local_threshold), (4, 8));
        assert_eq!(items(&back.items), items(&buf.items));
        assert_eq!(to_bytes(&mut back), to_bytes(&mut buf));
    }
}
