//! Chare arrays: typed element storage, proxies, and the object-safe
//! interface the runtime drives them through.

use crate::arena::UserMsg;
use crate::chare::{Chare, SysEvent};
use crate::chunked::{ChunkVec, HandleIndex, ROW_CHUNK_BITS};
use crate::index::Ix;
use crate::routing::HomeMap;
use crate::Ctx;
use std::any::Any;

/// Identifier of a chare array within a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ArrayId(pub u32);

/// Global identity of one chare. Ordered by `(array, ix)`, matching the
/// sorted-drain convention used everywhere determinism matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjId {
    /// The array the chare belongs to.
    pub array: ArrayId,
    /// The chare's index within the array.
    pub ix: Ix,
}

impl charm_pup::Pup for ObjId {
    fn pup(&mut self, p: &mut charm_pup::Puper) {
        p.p(&mut self.array);
        p.p(&mut self.ix);
    }
}

/// A typed, copyable handle to a chare array — the equivalent of a Charm++
/// proxy. All sends go through a proxy plus the [`Ctx`](crate::Ctx) (inside
/// entry methods) or the [`Runtime`](crate::Runtime) (from the host program).
pub struct ArrayProxy<C: Chare> {
    pub(crate) id: ArrayId,
    _pd: std::marker::PhantomData<fn() -> C>,
}

impl<C: Chare> ArrayProxy<C> {
    pub(crate) fn new(id: ArrayId) -> Self {
        ArrayProxy {
            id,
            _pd: std::marker::PhantomData,
        }
    }

    /// Rebuild a typed proxy from a raw [`ArrayId`] (e.g. one stored in a
    /// chare's pup'd state). A type mismatch is caught — with a clear panic —
    /// at message delivery, exactly like sending through a mistyped Charm++
    /// proxy.
    pub fn from_id(id: ArrayId) -> Self {
        Self::new(id)
    }

    /// The untyped array id.
    pub fn id(&self) -> ArrayId {
        self.id
    }
}

impl<C: Chare> Clone for ArrayProxy<C> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<C: Chare> Copy for ArrayProxy<C> {}

impl charm_pup::Pup for ArrayId {
    fn pup(&mut self, p: &mut charm_pup::Puper) {
        p.p(&mut self.0);
    }
}

/// Proxies are plain handles; chares may keep them in pup'd state.
impl<C: Chare> charm_pup::Pup for ArrayProxy<C> {
    fn pup(&mut self, p: &mut charm_pup::Puper) {
        p.p(&mut self.id);
    }
}

impl<C: Chare> Default for ArrayProxy<C> {
    fn default() -> Self {
        Self::new(ArrayId(u32::MAX))
    }
}

/// A message or event on its way to a chare.
pub(crate) enum Payload {
    /// A user message: a `C::Msg` for the destination array's type, inline
    /// when it fits in 16 bytes.
    User(UserMsg),
    /// A runtime event — rare, so boxed to keep `Payload` three words.
    Sys(Box<SysEvent>),
}

/// Handle of an element's location record within its array — Charm++'s
/// compact ID, which `ckGetID()` reads from the element's location record
/// instead of re-resolving its index. A record is created the first time an
/// index is inserted *or addressed*, and it is never reused for another
/// index while the runtime lives: index ↔ handle is a bijection for the run,
/// across removal, migration, rollback and re-insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ElemId(pub(crate) u32);

/// A chare as the engine addresses it: 8 bytes where an [`ObjId`] is 40.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ElemRef {
    pub(crate) array: ArrayId,
    pub(crate) elem: ElemId,
}

impl ElemRef {
    /// The public identity, rebuilt from the location record — for the
    /// tracer, the recorder and diagnostics, which speak `ObjId`.
    pub(crate) fn obj(self, stores: &[Box<dyn AnyArray>]) -> ObjId {
        ObjId {
            array: self.array,
            ix: stores[self.array.0 as usize].ix(self.elem),
        }
    }
}

/// Per-element bookkeeping the runtime and the LB framework need.
struct Element<C> {
    chare: C,
    pe: usize,
    /// Work-seconds accumulated since the last LB stats collection.
    load: f64,
}

/// Object-safe view of a typed array store; the runtime holds
/// `Box<dyn AnyArray>` and dispatches through this. The engine addresses
/// elements by [`ElemId`]; the by-index calls serve the host API and the
/// placement and checkpoint services.
pub(crate) trait AnyArray: Send {
    fn id(&self) -> ArrayId;
    fn name(&self) -> &str;
    fn len(&self) -> usize;
    fn element_pe(&self, ix: &Ix) -> Option<usize>;
    fn indices(&self) -> Vec<Ix>;
    /// The handle of `ix`'s record, creating the record on first sight —
    /// the one index-map probe a send pays.
    fn intern(&mut self, ix: &Ix) -> ElemId;
    /// The index a record stands for.
    fn ix(&self, id: ElemId) -> Ix;
    /// The PE of the element behind `id`, if it exists right now.
    fn locate(&self, id: ElemId) -> Option<usize>;
    /// Number of records, after bringing the index-order walk up to date.
    fn sorted_len(&mut self) -> usize;
    /// The `k`-th record in index order: its handle and, if the element
    /// exists, its PE. Valid for `k < sorted_len()`.
    fn sorted_nth(&self, k: usize) -> (ElemId, Option<usize>);
    /// Visit every element once, in sorted index order, as `(index, pe,
    /// chare state)` — the one walk behind state digests, checkpoints and
    /// evacuation.
    fn visit_sorted(&mut self, f: &mut dyn FnMut(Ix, usize, &mut dyn charm_pup::Pup));
    /// Run the entry method / event handler for one delivered payload and
    /// charge the element `ctx`'s work at `flops_per_sec` (reference-speed
    /// seconds, so the LB can divide by PE speed itself). Returns false if
    /// the element does not exist.
    fn execute(
        &mut self,
        id: ElemId,
        payload: Payload,
        ctx: &mut Ctx<'_>,
        flops_per_sec: f64,
    ) -> bool;
    /// PUP digest of a user message destined for this array (0 on a type
    /// mismatch — `execute` will panic with context anyway).
    fn user_msg_digest(&self, msg: &mut UserMsg) -> u64;
    /// Serialize one element (a `MigrateMe` departure).
    fn pack_element(&mut self, ix: &Ix) -> Option<Vec<u8>>;
    /// Deserialize and (re-)insert an element at `pe`.
    fn unpack_insert(&mut self, ix: Ix, pe: usize, bytes: &[u8]) -> ElemId;
    /// Move the live element `ix` to `pe` within this process: its state
    /// stays in its record, its measured load resets, and nothing is
    /// serialized. Returns the size its PUP image would have, which is what
    /// the move is charged.
    fn move_element(&mut self, ix: &Ix, pe: usize) -> usize;
    fn remove_element(&mut self, ix: &Ix) -> bool;
    /// Insert a type-erased chare (from `Ctx::insert` buffering).
    fn insert_boxed(&mut self, ix: Ix, pe: usize, chare: Box<dyn Any + Send>) -> ElemId;
    /// Snapshot (index, pe, measured load, hint) for all elements in index
    /// order — called at LB time.
    fn loads(&mut self) -> Vec<(Ix, usize, f64, f64)>;
    /// Zero every element's measured load: a new LB window starts.
    fn reset_loads(&mut self);
    /// Is this array participating in AtSync load balancing?
    fn uses_at_sync(&self) -> bool;
    fn set_uses_at_sync(&mut self, v: bool);
    /// How indices map to home PEs (default [`HomeMap::Hash`]).
    fn home_map(&self) -> HomeMap;
    fn set_home_map(&mut self, map: HomeMap);
    /// Remove every element (used by failure rollback before restoring the
    /// checkpointed population). Records, and so handles, survive.
    fn clear(&mut self);
    /// Downcast support for typed host-side inspection.
    fn as_any(&self) -> &dyn Any;
}

/// The location cache: the last-known PE of every remote element each
/// source PE has sent to, in one runtime-wide table keyed by `(source PE,
/// array, handle)`. No index is hashed, and memory follows the entries: a
/// 16-byte row and, at scale, under three 4-byte index slots each. A stale
/// entry is caught where the message lands: the PE it reached forwards it.
#[derive(Default)]
pub(crate) struct LocCache {
    /// `[source PE, array, handle, cached PE]`, first-come.
    rows: ChunkVec<[u32; 4], ROW_CHUNK_BITS>,
    index: HandleIndex,
}

impl LocCache {
    fn hash([src, array, elem]: [u32; 3]) -> u64 {
        let key = (src, (u64::from(array) << 32) | u64::from(elem));
        std::hash::BuildHasher::hash_one(&fxhash::FxBuildHasher::default(), key)
    }

    /// The cached PE of `dst` as `src` knows it, and whether it was there:
    /// a miss makes the row, with `pe`.
    fn row(&mut self, src: usize, dst: ElemRef, pe: usize) -> (&mut u32, bool) {
        let key = [src as u32, dst.array.0, dst.elem.0];
        let rows = &self.rows;
        let found = self.index.probe(Self::hash(key), |h| {
            let [s, a, e, _] = rows[h as usize];
            [s, a, e] == key
        });
        let h = found.unwrap_or_else(|at| {
            let h = self.rows.len() as u32;
            self.rows.push([key[0], key[1], key[2], pe as u32]);
            let rows = &self.rows;
            self.index.insert(at, h, |r| {
                let [s, a, e, _] = rows[r as usize];
                Self::hash([s, a, e])
            });
            h
        });
        (&mut self.rows[h as usize][3], found.is_ok())
    }

    /// Cached PE of `dst` as `src` knows it; on a miss, record `pe` and
    /// return `None`.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, src: usize, dst: ElemRef, pe: usize) -> Option<usize> {
        let (row, hit) = self.row(src, dst, pe);
        hit.then_some(*row as usize)
    }

    /// Record that `src` last saw `dst` on `pe`.
    pub(crate) fn insert(&mut self, src: usize, dst: ElemRef, pe: usize) {
        *self.row(src, dst, pe).0 = pe as u32;
    }

    /// Drop every entry of every source PE, and the memory they took.
    pub(crate) fn clear(&mut self) {
        *self = LocCache::default();
    }
}

#[cfg(test)]
thread_local! {
    /// Index-map probes made on this thread: the cost the handles remove
    /// from the message path.
    pub(crate) static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One index's location record: the index it stands for and, while the
/// element exists, the element itself.
struct Record<C> {
    ix: Ix,
    elem: Option<Element<C>>,
}

/// Typed storage for all elements of one chare array: location records
/// indexed by [`ElemId`], with elements inline, and one index map. An index
/// is hashed once, when it is inserted or addressed; everything the engine
/// does with an element afterwards indexes its record by handle.
///
/// The index map is a [`HandleIndex`] over the records, which are never
/// removed: 4-byte handles, not keys. A bucket of an
/// `FxHashMap<Ix, ElemId>` would repeat the 32-byte index the record holds,
/// ten times the bytes of a slot, and inserting a large array paid for them
/// in page faults and rehashing (EXPERIMENTS.md, "Elements by handle").
///
/// Enumerations are in index order (the determinism every digest, LB round
/// and broadcast relies on) through a sorted handle list, brought up to date
/// — one merge of the new records — only after a record was created.
pub(crate) struct ArrayStore<C: Chare> {
    id: ArrayId,
    name: String,
    /// Append-only: a record outlives its element as a tombstone.
    recs: Vec<Record<C>>,
    /// The index map.
    by_ix: HandleIndex,
    /// Records holding an element.
    live: usize,
    /// Every handle in index order, as of the last `sort`; shorter than
    /// `recs` once a record has been created since.
    sorted: Vec<ElemId>,
    at_sync: bool,
    home_map: HomeMap,
}

impl<C: Chare> ArrayStore<C> {
    /// Host-side read access to one element's chare state.
    pub(crate) fn peek(&self, ix: &Ix) -> Option<&C> {
        self.get(ix).map(|e| &e.chare)
    }

    pub(crate) fn new(id: ArrayId, name: &str) -> Self {
        ArrayStore {
            id,
            name: name.to_string(),
            recs: Vec::new(),
            by_ix: HandleIndex::default(),
            live: 0,
            sorted: Vec::new(),
            at_sync: false,
            home_map: HomeMap::Hash,
        }
    }

    /// `ix`'s handle if it has a record, else the empty slot it would take
    /// in the index map: the one way into the map.
    #[inline]
    fn probe(&self, ix: &Ix) -> Result<ElemId, usize> {
        #[cfg(test)]
        PROBES.with(|p| p.set(p.get() + 1));
        let recs = &self.recs;
        self.by_ix.probe(Self::hash(ix), |h| recs[h as usize].ix == *ix).map(ElemId)
    }

    fn hash(ix: &Ix) -> u64 {
        let mut h = fxhash::FxHasher::default();
        std::hash::Hash::hash(ix, &mut h);
        std::hash::Hasher::finish(&h)
    }

    #[inline]
    fn find(&self, ix: &Ix) -> Option<ElemId> {
        self.probe(ix).ok()
    }

    #[inline]
    fn get(&self, ix: &Ix) -> Option<&Element<C>> {
        self.find(ix).and_then(|id| self.recs[id.0 as usize].elem.as_ref())
    }

    /// Put `e` in record `id`, returning the displaced element (if any).
    fn put(&mut self, id: ElemId, e: Element<C>) -> Option<Element<C>> {
        let prev = self.recs[id.0 as usize].elem.replace(e);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Bring `sorted` up to date: append the new handles and merge them in
    /// (a stable sort over two runs).
    fn sort(&mut self) {
        if self.sorted.len() == self.recs.len() {
            return;
        }
        let recs = &self.recs;
        self.sorted.extend((self.sorted.len()..recs.len()).map(|h| ElemId(h as u32)));
        self.sorted.sort_by_key(|id| recs[id.0 as usize].ix);
    }

    pub(crate) fn insert(&mut self, ix: Ix, pe: usize, chare: C) -> ElemId {
        let id = self.intern(&ix);
        let prev = self.put(
            id,
            Element {
                chare,
                pe,
                load: 0.0,
            },
        );
        assert!(prev.is_none(), "duplicate insertion of element {ix}");
        id
    }
}

impl<C: Chare> AnyArray for ArrayStore<C> {
    fn id(&self) -> ArrayId {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.live
    }

    fn element_pe(&self, ix: &Ix) -> Option<usize> {
        self.get(ix).map(|e| e.pe)
    }

    fn indices(&self) -> Vec<Ix> {
        let mut v: Vec<Ix> = self
            .recs
            .iter()
            .filter(|r| r.elem.is_some())
            .map(|r| r.ix)
            .collect();
        v.sort_unstable();
        v
    }

    fn intern(&mut self, ix: &Ix) -> ElemId {
        let slot = match self.probe(ix) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let n = u32::try_from(self.recs.len()).ok().filter(|&n| n < u32::MAX);
        let id = ElemId(n.expect("element handles fit in u32"));
        self.recs.push(Record { ix: *ix, elem: None });
        let recs = &self.recs;
        self.by_ix.insert(slot, id.0, |h| Self::hash(&recs[h as usize].ix));
        id
    }

    fn ix(&self, id: ElemId) -> Ix {
        self.recs[id.0 as usize].ix
    }

    #[inline]
    fn locate(&self, id: ElemId) -> Option<usize> {
        self.recs[id.0 as usize].elem.as_ref().map(|e| e.pe)
    }

    fn sorted_len(&mut self) -> usize {
        self.sort();
        self.sorted.len()
    }

    fn sorted_nth(&self, k: usize) -> (ElemId, Option<usize>) {
        let id = self.sorted[k];
        (id, self.recs[id.0 as usize].elem.as_ref().map(|e| e.pe))
    }

    fn visit_sorted(&mut self, f: &mut dyn FnMut(Ix, usize, &mut dyn charm_pup::Pup)) {
        self.sort();
        for id in &self.sorted {
            let rec = &mut self.recs[id.0 as usize];
            if let Some(e) = &mut rec.elem {
                f(rec.ix, e.pe, &mut e.chare);
            }
        }
    }

    fn execute(
        &mut self,
        id: ElemId,
        payload: Payload,
        ctx: &mut Ctx<'_>,
        flops_per_sec: f64,
    ) -> bool {
        let rec = &mut self.recs[id.0 as usize];
        let Some(e) = &mut rec.elem else {
            return false;
        };
        match payload {
            Payload::User(msg) => {
                // A boxed message's block goes back to the arena pool,
                // where the next send of its type finds it.
                let msg = msg.take::<C::Msg>().unwrap_or_else(|_| {
                    panic!(
                        "array '{}' element {}: message type mismatch (expected {})",
                        self.name,
                        rec.ix,
                        std::any::type_name::<C::Msg>()
                    )
                });
                e.chare.on_message(msg, ctx);
            }
            Payload::Sys(ev) => e.chare.on_event(*ev, ctx),
        }
        e.load += ctx.work_units / flops_per_sec;
        true
    }

    fn user_msg_digest(&self, msg: &mut UserMsg) -> u64 {
        msg.downcast_mut::<C::Msg>()
            .map(charm_pup::digest_of)
            .unwrap_or(0)
    }

    fn pack_element(&mut self, ix: &Ix) -> Option<Vec<u8>> {
        let id = self.find(ix)?;
        let e = self.recs[id.0 as usize].elem.as_mut()?;
        Some(charm_pup::to_bytes(&mut e.chare))
    }

    fn unpack_insert(&mut self, ix: Ix, pe: usize, bytes: &[u8]) -> ElemId {
        let chare: C = charm_pup::from_bytes(bytes);
        let id = self.intern(&ix);
        self.put(id, Element { chare, pe, load: 0.0 });
        id
    }

    fn move_element(&mut self, ix: &Ix, pe: usize) -> usize {
        let id = self.find(ix).expect("moving an existing element");
        let e = self.recs[id.0 as usize].elem.as_mut().expect("moving a live element");
        e.pe = pe;
        e.load = 0.0;
        charm_pup::packed_size(&mut e.chare)
    }

    fn remove_element(&mut self, ix: &Ix) -> bool {
        let Some(id) = self.find(ix) else {
            return false;
        };
        let gone = self.recs[id.0 as usize].elem.take().is_some();
        if gone {
            self.live -= 1;
        }
        gone
    }

    fn insert_boxed(&mut self, ix: Ix, pe: usize, chare: Box<dyn Any + Send>) -> ElemId {
        let chare = *chare.downcast::<C>().unwrap_or_else(|_| {
            panic!(
                "array '{}': insert of wrong chare type (expected {})",
                self.name,
                std::any::type_name::<C>()
            )
        });
        self.insert(ix, pe, chare)
    }

    fn loads(&mut self) -> Vec<(Ix, usize, f64, f64)> {
        self.sort();
        let mut v = Vec::with_capacity(self.live);
        for id in &self.sorted {
            let rec = &self.recs[id.0 as usize];
            if let Some(e) = &rec.elem {
                v.push((rec.ix, e.pe, e.load, e.chare.load_hint()));
            }
        }
        v
    }

    fn reset_loads(&mut self) {
        for e in self.recs.iter_mut().filter_map(|r| r.elem.as_mut()) {
            e.load = 0.0;
        }
    }

    fn uses_at_sync(&self) -> bool {
        self.at_sync
    }

    fn set_uses_at_sync(&mut self, v: bool) {
        self.at_sync = v;
    }

    fn home_map(&self) -> HomeMap {
        self.home_map
    }

    fn set_home_map(&mut self, map: HomeMap) {
        self.home_map = map;
    }

    fn clear(&mut self) {
        for rec in &mut self.recs {
            rec.elem = None;
        }
        self.live = 0;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_pup::Puper;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Dummy {
        v: i64,
    }
    impl charm_pup::Pup for Dummy {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.v);
        }
    }
    impl Chare for Dummy {
        type Msg = i64;
        fn on_message(&mut self, msg: i64, _ctx: &mut Ctx<'_>) {
            self.v += msg;
        }
    }

    #[test]
    fn insert_pack_unpack_cycle() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        let id = s.insert(Ix::i1(3), 2, Dummy { v: 40 });
        assert_eq!(s.len(), 1);
        assert_eq!(s.element_pe(&Ix::i1(3)), Some(2));
        let bytes = s.pack_element(&Ix::i1(3)).unwrap();
        assert!(s.remove_element(&Ix::i1(3)));
        assert_eq!(s.element_pe(&Ix::i1(3)), None);
        assert_eq!(s.unpack_insert(Ix::i1(3), 5, &bytes), id, "the handle outlives removal");
        assert_eq!(s.element_pe(&Ix::i1(3)), Some(5));
        assert_eq!(s.peek(&Ix::i1(3)).unwrap().v, 40);
    }

    #[test]
    fn loads_survive_a_read_and_reset_zeroes_them() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(1), 1, Dummy::default());
        let a = s.insert(Ix::i1(0), 0, Dummy::default());
        s.recs[a.0 as usize].elem.as_mut().unwrap().load = 0.75;
        let read = s.loads();
        assert_eq!(read, s.loads(), "a read leaves the loads");
        assert_eq!(read.len(), 2);
        assert_eq!(read[0], (Ix::i1(0), 0, 0.75, 1.0));
        assert_eq!(read[1], (Ix::i1(1), 1, 0.0, 1.0));
        s.reset_loads();
        assert_eq!(s.loads()[0].2, 0.0, "loads reset");
    }

    #[test]
    fn visit_sorted_equals_indices_then_lookup() {
        // One visit must see exactly what the sorted key list plus a
        // per-key pack/digest sees — over every index shape, inserted out
        // of order, with tombstones and addressed-only records in between.
        let ixs = [
            Ix::i1(900),
            Ix::i3(1, 2, 3),
            Ix::i1(3),
            Ix::i1(-4),
            Ix::i2(7, 7),
            Ix::i1(0),
            Ix::i1((1 << 16) + 9),
            Ix::i6([1, 2, 3], [4, 5, 6]),
            Ix::Named(0x78),
            Ix::i3(0, 9, 9),
        ];
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        for (k, ix) in ixs.iter().enumerate() {
            s.insert(*ix, k % 3, Dummy { v: 100 + k as i64 });
            s.intern(&Ix::i2(-1, k as i32));
        }
        assert!(s.remove_element(&Ix::i1(3)));
        let by_key: Vec<(Ix, usize, Vec<u8>, u64)> = s
            .indices()
            .into_iter()
            .map(|ix| {
                let pe = s.element_pe(&ix).unwrap();
                let bytes = s.pack_element(&ix).unwrap();
                let digest = charm_pup::fnv1a(&bytes);
                (ix, pe, bytes, digest)
            })
            .collect();
        let mut visited = Vec::new();
        s.visit_sorted(&mut |ix, pe, c| {
            visited.push((ix, pe, charm_pup::to_bytes(c), charm_pup::digest_of(c)));
        });
        assert_eq!(visited.len(), ixs.len() - 1);
        assert_eq!(visited, by_key);
    }

    #[test]
    #[should_panic(expected = "duplicate insertion")]
    fn duplicate_insert_rejected() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(0), 0, Dummy::default());
        s.insert(Ix::i1(0), 0, Dummy::default());
    }

    #[test]
    fn shapes_never_share_a_record() {
        // `I2([0, 5])`, `I1(5)` and `I1(-5)` are three indices: three
        // records, three handles.
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        let a = s.insert(Ix::i2(0, 5), 0, Dummy { v: 25 });
        let b = s.insert(Ix::i1(5), 1, Dummy { v: 15 });
        let c = s.insert(Ix::i1(-5), 2, Dummy { v: -5 });
        assert!(a != b && b != c && a != c);
        assert_eq!(s.peek(&Ix::i2(0, 5)).unwrap().v, 25);
        assert_eq!(s.peek(&Ix::i1(5)).unwrap().v, 15);
        assert_eq!((s.locate(b), s.ix(c)), (Some(1), Ix::i1(-5)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn an_addressed_index_has_a_record_but_no_element() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        let id = s.intern(&Ix::i1(99));
        assert_eq!((s.locate(id), s.len()), (None, 0));
        assert!(s.indices().is_empty());
        assert_eq!(s.insert(Ix::i1(99), 1, Dummy::default()), id, "insert fills it");
        assert_eq!(s.locate(id), Some(1));
    }

    /// The index shapes the property test draws from.
    fn universe(k: u8) -> Ix {
        match k % 12 {
            0..=3 => Ix::i1(k as i64),
            4 => Ix::i1(-1),
            5 => Ix::i1(1 << 20),
            6 => Ix::i2(0, 4),
            7 => Ix::i2(300, 1),
            8 => Ix::i3(1, 2, 3),
            9 => Ix::i6([0, 0, 1], [1, 0, 0]),
            10 => Ix::ROOT.tree_child(5, 3),
            _ => Ix::Named(0xCE11),
        }
    }

    proptest::proptest! {
        // Random insert / remove / migration / in-process move /
        // unpack-over / address / checkpoint + rollback sequences against
        // a `BTreeMap` model: the store agrees with the model by index, by
        // handle and in order, an index's handle never changes, and no two
        // indices share one.
        #[test]
        fn handles_are_stable_and_the_store_matches_its_model(
            ops in proptest::collection::vec((0u8..8, 0u8..12, 0usize..4), 0..120)
        ) {
            let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
            let mut model: BTreeMap<Ix, usize> = BTreeMap::new();
            let mut handles: BTreeMap<Ix, ElemId> = BTreeMap::new();
            let mut ckpt: Option<Vec<(Ix, usize, Vec<u8>)>> = None;
            let image = charm_pup::to_bytes(&mut Dummy { v: 7 });
            for (op, k, pe) in ops {
                let ix = universe(k);
                let id = match op {
                    0 => {
                        if model.contains_key(&ix) {
                            continue;
                        }
                        model.insert(ix, pe);
                        s.insert(ix, pe, Dummy::default())
                    }
                    1 => {
                        proptest::prop_assert_eq!(s.remove_element(&ix), model.remove(&ix).is_some());
                        continue;
                    }
                    2 => {
                        // Migration: pack, remove, unpack elsewhere.
                        let Some(bytes) = s.pack_element(&ix) else {
                            continue;
                        };
                        s.remove_element(&ix);
                        model.insert(ix, pe);
                        s.unpack_insert(ix, pe, &bytes)
                    }
                    3 => {
                        model.insert(ix, pe);
                        s.unpack_insert(ix, pe, &image)
                    }
                    4 => s.intern(&ix),
                    5 => {
                        let mut taken = Vec::new();
                        s.visit_sorted(&mut |ix, pe, c| taken.push((ix, pe, charm_pup::to_bytes(c))));
                        ckpt = Some(taken);
                        continue;
                    }
                    6 => {
                        // An LB move: the element changes PE in place.
                        if !model.contains_key(&ix) {
                            continue;
                        }
                        model.insert(ix, pe);
                        proptest::prop_assert_eq!(s.move_element(&ix, pe), image.len());
                        s.intern(&ix)
                    }
                    _ => {
                        let Some(taken) = &ckpt else {
                            continue;
                        };
                        s.clear();
                        model.clear();
                        for (ix, pe, bytes) in taken {
                            let id = s.unpack_insert(*ix, *pe, bytes);
                            proptest::prop_assert_eq!(handles.get(ix), Some(&id));
                            model.insert(*ix, *pe);
                        }
                        continue;
                    }
                };
                proptest::prop_assert_eq!(*handles.entry(ix).or_insert(id), id, "handle of {} moved", ix);
                proptest::prop_assert_eq!(s.ix(id), ix);
            }
            let distinct: std::collections::BTreeSet<u32> = handles.values().map(|h| h.0).collect();
            proptest::prop_assert_eq!(distinct.len(), handles.len(), "two indices share a handle");
            for (ix, id) in &handles {
                proptest::prop_assert_eq!(s.locate(*id), model.get(ix).copied());
                proptest::prop_assert_eq!(s.element_pe(ix), model.get(ix).copied());
            }
            proptest::prop_assert_eq!(s.len(), model.len());
            proptest::prop_assert_eq!(s.indices(), model.keys().copied().collect::<Vec<_>>());
            let mut visited = Vec::new();
            s.visit_sorted(&mut |ix, pe, _| visited.push((ix, pe)));
            let expect: Vec<(Ix, usize)> = model.iter().map(|(ix, &pe)| (*ix, pe)).collect();
            proptest::prop_assert_eq!(&visited, &expect);
            let walked: Vec<(Ix, usize)> = (0..s.sorted_len())
                .filter_map(|k| match s.sorted_nth(k) {
                    (id, Some(pe)) => Some((s.ix(id), pe)),
                    (_, None) => None,
                })
                .collect();
            proptest::prop_assert_eq!(walked, expect);
        }
    }
}
