//! Routing and location management (§II-D): where an element lives, who
//! is asked when the sender does not know, and what happens to messages
//! for elements that do not exist yet.

use crate::array::{ArrayId, ElemRef, Payload};
use crate::runtime::{EnvId, Runtime, ENVELOPE_BYTES, TOKEN_RTT_REQ, TOKEN_RTT_RESP};
use charm_machine::SimTime;
use rand::Rng;

/// Schedule perturbation ([`RuntimeBuilder::perturb`](crate::RuntimeBuilder::perturb))
/// delays a user-message delivery with this probability, by up to
/// [`PERTURB_MAX_EXTRA`]. Only *extra* delays are injected, so every
/// perturbed schedule is one the real network could have produced;
/// same-destination messages whose delays overlap get reordered, which is
/// exactly the race surface.
const PERTURB_PROB: f64 = 0.25;
const PERTURB_MAX_EXTRA: SimTime = SimTime::from_micros(100);

/// How an array maps indices to *home PEs* — the PEs responsible for
/// tracking element locations (§II-D: "Several default schemes are provided
/// … Programmers can also define their own scheme").
#[derive(Clone, Copy)]
pub enum HomeMap {
    /// Stable hash of the index over the live PEs (the default).
    Hash,
    /// Contiguous blocks for 1-D indices: `ix · P / total`. Indices outside
    /// `0..total` (or non-1-D indices) fall back to hashing.
    Blocked {
        /// Expected number of 1-D elements.
        total: u64,
    },
    /// A user-defined scheme: `(index, live_pes) -> pe`.
    Custom(fn(&crate::Ix, usize) -> usize),
}

impl std::fmt::Debug for HomeMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HomeMap::Hash => write!(f, "HomeMap::Hash"),
            HomeMap::Blocked { total } => write!(f, "HomeMap::Blocked({total})"),
            HomeMap::Custom(_) => write!(f, "HomeMap::Custom(..)"),
        }
    }
}

impl Runtime {
    /// Resolve an envelope's destination through the location-management
    /// protocol (§II-D) and schedule its delivery.
    ///
    /// Cache hit → direct send. Stale cache → the stale PE forwards (cost
    /// modeled in `execute`, which re-routes). Miss → home-PE query round
    /// trip precedes the send.
    pub(crate) fn route_and_schedule(&mut self, env: EnvId, at: SimTime) {
        let e = &self.slab[env];
        let (src, dst, bytes, rec_id) = (e.src_pe as usize, e.dst, e.bytes.get() as usize, e.rec_id);
        // Read at route time, so an `Insert`, `MigrateMe` or LB move applied
        // earlier in the same action batch is seen.
        let Some(true_pe) = self.stores[dst.array.0 as usize].locate(dst.elem) else {
            self.limbo.entry(dst).or_default().push(env);
            return;
        };
        if !self.pes[true_pe].alive {
            // Element lost with a crashed, unrecovered process.
            self.slab.discard(env);
            return;
        }

        let (target_pe, extra) = if true_pe == src {
            (true_pe, SimTime::ZERO)
        } else if !self.location_cache {
            // Ablation: no caching — every remote send queries the home PE.
            (true_pe, self.home_query_rtt(src, dst, rec_id))
        } else {
            match self.loc_cache.get_or_insert(src, dst, true_pe) {
                // Send to the cached PE; if stale, `execute` forwards.
                Some(pe) => (pe, SimTime::ZERO),
                None => (true_pe, self.home_query_rtt(src, dst, rec_id)),
            }
        };
        let target_pe = if self.pes[target_pe].alive {
            target_pe
        } else {
            true_pe
        };
        let delay = self.net.delay(src, target_pe, bytes, rec_id);
        self.stats.bytes_moved += bytes as u64;
        if let Some(r) = &mut self.recorder {
            // A home-PE query round trip was charged iff `extra > 0`; its
            // control messages are envelope-sized.
            let rtt_bytes = if extra > SimTime::ZERO { ENVELOPE_BYTES } else { 0 };
            r.on_routed(rec_id, bytes, src, target_pe, 0, rtt_bytes);
        }
        // Schedule perturbation: seeded extra delay on user messages only
        // (delays are always causally valid — the network could have been
        // this slow). System events keep their exact timing.
        let jitter = match &mut self.perturb {
            Some(rng) if matches!(self.slab[env].payload, Payload::User(_)) => {
                if rng.gen_bool(PERTURB_PROB) {
                    SimTime(rng.gen_range(0..=PERTURB_MAX_EXTRA.0))
                } else {
                    SimTime::ZERO
                }
            }
            _ => SimTime::ZERO,
        };
        let latency = extra + delay + jitter;
        if let Some(tr) = &mut self.tracer {
            tr.on_send(at, src, target_pe, dst.obj(&self.stores), bytes, latency);
        }
        self.sched_deliver(at + latency, target_pe, env);
    }

    /// Ask `dst`'s home PE where it lives: request + response round trip.
    fn home_query_rtt(&mut self, src: usize, dst: ElemRef, rec_id: u64) -> SimTime {
        let ix = self.stores[dst.array.0 as usize].ix(dst.elem);
        let home = self.home_pe(dst.array, &ix);
        self.net.delay(src, home, ENVELOPE_BYTES, rec_id ^ TOKEN_RTT_REQ)
            + self.net.delay(home, src, ENVELOPE_BYTES, rec_id ^ TOKEN_RTT_RESP)
    }

    /// Home PE of an index under its array's home map.
    pub(crate) fn home_pe(&self, array: ArrayId, ix: &crate::Ix) -> usize {
        let p = self.live_pes;
        match self.stores[array.0 as usize].home_map() {
            HomeMap::Hash => (ix.stable_hash() % p as u64) as usize,
            HomeMap::Blocked { total } => match ix {
                crate::Ix::I1(i) if *i >= 0 && (*i as u64) < total && total > 0 => {
                    ((*i as u64) * p as u64 / total) as usize
                }
                _ => (ix.stable_hash() % p as u64) as usize,
            },
            HomeMap::Custom(f) => f(ix, p).min(p - 1),
        }
    }

    /// Re-route every message parked for `dst` now that it exists.
    pub(crate) fn flush_limbo(&mut self, dst: ElemRef) {
        if let Some(envs) = self.limbo.remove(&dst) {
            for env in envs {
                self.route_and_schedule(env, self.now);
            }
        }
    }

    /// Forget every cached location: after PEs come or go, the cached PEs
    /// may name processes that no longer exist.
    pub(crate) fn flush_loc_caches(&mut self) {
        self.loc_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::array::PROBES;
    use crate::runtime::tests::{ping_setup, Ping, PingMsg};
    use crate::{ArrayProxy, Chare, Ctx, Ix, Runtime};
    use charm_pup::Puper;

    #[test]
    fn remote_costs_more_than_local() {
        // Same-PE ping-pong finishes faster than cross-machine.
        let mut local = {
            let mut rt = Runtime::homogeneous(2);
            let arr = rt.create_array::<Ping>("ping");
            rt.insert(arr, Ix::i1(0), Ping { count: 0, peer: Some(1), limit: 10 }, Some(0));
            rt.insert(arr, Ix::i1(1), Ping { count: 0, peer: Some(0), limit: 10 }, Some(0));
            rt.send(arr, Ix::i1(0), PingMsg);
            rt
        };
        let t_local = local.run().end_time;
        let (mut remote, arr) = ping_setup(2);
        remote.send(arr, Ix::i1(0), PingMsg);
        let t_remote = remote.run().end_time;
        assert!(t_remote > t_local, "remote {t_remote} local {t_local}");
    }

    /// N sends — the host's kick-off and every hop of a token around a
    /// ring of 6-D elements on two PEs — make exactly N index-map probes:
    /// the one intern per send. Locating at route time, executing,
    /// charging load and the location cache all go by handle.
    #[test]
    fn a_send_hashes_its_index_once() {
        const RING: i32 = 8;
        let at = |k: i32| Ix::i6([k % RING, 1, 2], [3, 4, 5]);
        #[derive(Default)]
        struct Hop;
        impl charm_pup::Pup for Hop {
            fn pup(&mut self, _p: &mut Puper) {}
        }
        impl Chare for Hop {
            type Msg = u32;
            fn on_message(&mut self, left: u32, ctx: &mut Ctx<'_>) {
                let Ix::I6(v) = ctx.my_index() else {
                    unreachable!("a ring of 6-D indices")
                };
                if left > 0 {
                    let me = ArrayProxy::<Hop>::from_id(ctx.my_id().array);
                    ctx.send(me, Ix::i6([(v[0] + 1) % RING, 1, 2], [3, 4, 5]), left - 1);
                }
            }
        }
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Hop>("ring");
        for k in 0..RING {
            rt.insert(arr, at(k), Hop, Some(k as usize % 2));
        }
        PROBES.with(|p| p.set(0));
        rt.send(arr, at(0), 99);
        let s = rt.run();
        assert_eq!(s.entries, 100);
        assert_eq!(PROBES.with(|p| p.get()), 100, "one probe per send");
    }

    #[test]
    fn dynamic_insert_receives_parked_messages() {
        #[derive(Default)]
        struct Node {
            hits: u64,
        }
        impl charm_pup::Pup for Node {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.hits);
            }
        }
        impl Chare for Node {
            type Msg = i64;
            fn on_message(&mut self, m: i64, ctx: &mut Ctx<'_>) {
                let proxy = ArrayProxy::<Node>::new(ctx.my_id().array);
                match m {
                    0 => {
                        // Send to a child that doesn't exist yet, then create it.
                        ctx.send(proxy, Ix::i1(99), 7);
                        ctx.insert(proxy, Ix::i1(99), Node::default(), None);
                    }
                    7 => {
                        self.hits += 1;
                        ctx.log_metric("childhit", 1.0);
                        ctx.exit();
                    }
                    _ => {}
                }
            }
        }
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Node>("nodes");
        rt.insert(arr, Ix::i1(0), Node::default(), Some(0));
        rt.send(arr, Ix::i1(0), 0);
        rt.run();
        assert_eq!(rt.metric("childhit").len(), 1);
    }
}
