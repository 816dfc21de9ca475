//! Chare arrays: typed element storage, proxies, and the object-safe
//! interface the runtime drives them through.

use crate::chare::{Chare, SysEvent};
use crate::index::Ix;
use crate::Ctx;
use fxhash::FxHashMap;
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
pub enum Payload {
    /// A user message (a boxed `C::Msg` for the destination array's type).
    User(Box<dyn Any + Send>),
    /// A runtime event — rare, so boxed to keep `Payload` two words.
    Sys(Box<SysEvent>),
}

impl Payload {
    /// Short description for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::User(_) => "user",
            Payload::Sys(_) => "sys",
        }
    }
}

/// Per-element bookkeeping the runtime and the LB framework need.
struct Element<C> {
    chare: C,
    pe: usize,
    /// Work-seconds accumulated since the last LB stats collection.
    load: f64,
    /// Bumped on every migration; stale location caches are detected by
    /// comparing epochs.
    epoch: u32,
}

/// Object-safe view of a typed array store; the runtime holds
/// `Box<dyn AnyArray>` and dispatches through this.
pub(crate) trait AnyArray: Send {
    fn id(&self) -> ArrayId;
    fn name(&self) -> &str;
    fn len(&self) -> usize;
    #[allow(dead_code)] // part of the store interface; used by tests/tools
    fn contains(&self, ix: &Ix) -> bool;
    fn element_pe(&self, ix: &Ix) -> Option<usize>;
    /// `(pe, epoch)` in one lookup — the routing hot path's accessor.
    fn locate(&self, ix: &Ix) -> Option<(usize, u32)>;
    fn indices(&self) -> Vec<Ix>;
    /// Visit every element once, in sorted index order, as `(index, pe,
    /// chare state)` — the one walk behind state digests, checkpoints and
    /// evacuation. The dense tier is already in index order, so only the
    /// spill tier is sorted, and no element is looked up by key.
    fn visit_sorted(&mut self, f: &mut dyn FnMut(Ix, usize, &mut dyn charm_pup::Pup));
    /// Run the entry method / event handler for one delivered payload.
    /// Returns false if the element does not exist (message buffered or
    /// dropped by the caller's policy).
    fn execute(&mut self, ix: &Ix, payload: Payload, ctx: &mut Ctx<'_>) -> bool;
    /// PUP digest of a user message destined for this array (0 on a type
    /// mismatch — `execute` will panic with context anyway).
    fn user_msg_digest(&self, msg: &mut Box<dyn Any + Send>) -> u64;
    /// Serialize one element (for a single migration).
    fn pack_element(&mut self, ix: &Ix) -> Option<Vec<u8>>;
    /// Deserialize and (re-)insert an element at `pe`.
    fn unpack_insert(&mut self, ix: Ix, pe: usize, bytes: &[u8]);
    fn remove_element(&mut self, ix: &Ix) -> bool;
    /// Insert a type-erased chare (from `Ctx::insert` buffering).
    fn insert_boxed(&mut self, ix: Ix, pe: usize, chare: Box<dyn Any + Send>);
    fn add_load(&mut self, ix: &Ix, load: f64);
    /// Snapshot (index, pe, measured load, hint) for all elements and reset
    /// the measured loads — called at LB time.
    fn drain_loads(&mut self) -> Vec<(Ix, usize, f64, f64)>;
    /// Is this array participating in AtSync load balancing?
    fn uses_at_sync(&self) -> bool;
    fn set_uses_at_sync(&mut self, v: bool);
    /// Remove every element (used by failure rollback before restoring the
    /// checkpointed population).
    fn clear(&mut self);
    /// Downcast support for typed host-side inspection.
    fn as_any(&self) -> &dyn Any;
    #[allow(dead_code)] // mutable counterpart of as_any, for tooling
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Which `Ix` variant owns an array's dense window (see [`dense_slot`]).
const DENSE_NONE: u8 = 0;
const DENSE_I1: u8 = 1;
const DENSE_I2: u8 = 2;

/// Dense-slot ceiling for 1-D indices: `Ix::I1(i)` with `0 <= i < 65536`.
const DENSE_1D_MAX: i64 = 1 << 16;
/// Per-axis bound of the row-major dense 2-D window (`256 × 256`).
const DENSE_2D_SIDE: i32 = 1 << 8;

/// Dense kind an index is eligible for (`DENSE_NONE` if it must hash).
#[inline]
fn dense_kind_of(ix: &Ix) -> u8 {
    match *ix {
        Ix::I1(i) if (0..DENSE_1D_MAX).contains(&i) => DENSE_I1,
        Ix::I2([a, b])
            if (0..DENSE_2D_SIDE).contains(&a) && (0..DENSE_2D_SIDE).contains(&b) =>
        {
            DENSE_I2
        }
        _ => DENSE_NONE,
    }
}

/// Flat slot of `ix` under dense kind `kind`, if it belongs there.
#[inline]
fn dense_slot(kind: u8, ix: &Ix) -> Option<usize> {
    match (kind, *ix) {
        (DENSE_I1, Ix::I1(i)) if (0..DENSE_1D_MAX).contains(&i) => Some(i as usize),
        (DENSE_I2, Ix::I2([a, b]))
            if (0..DENSE_2D_SIDE).contains(&a) && (0..DENSE_2D_SIDE).contains(&b) =>
        {
            Some(((a as usize) << 8) | b as usize)
        }
        _ => None,
    }
}

/// Inverse of [`dense_slot`]: reconstruct the index a slot encodes.
#[inline]
fn slot_ix(kind: u8, slot: usize) -> Ix {
    match kind {
        DENSE_I1 => Ix::I1(slot as i64),
        DENSE_I2 => Ix::I2([(slot >> 8) as i32, (slot & 0xff) as i32]),
        k => unreachable!("slot_ix on dense kind {k}"),
    }
}

/// One source PE's location cache: the last-known PE (and epoch) of every
/// remote element this PE has sent to.
///
/// Probed once per remote send, so it mirrors [`ArrayStore`]'s two-tier
/// layout: dense 1-D/2-D indices — the overwhelmingly common case — hit a
/// flat per-array lane with a single indexed load and **no hashing**;
/// everything else spills to a hash map. Entries pack as
/// `((pe + 1) << 32) | epoch`, with `0` meaning "not cached".
#[derive(Clone, Default)]
pub(crate) struct LocCache {
    /// Whether dense lanes are in use at all. A lane's length is the
    /// highest cached *slot*, not the entry count — ~512 KB fully grown —
    /// which is a fine trade per source PE on bench-sized machines but
    /// O(PEs × 512 KB) on huge ones. Above
    /// [`crate::runtime::LOC_CACHE_DENSE_MAX_PES`] simulated PEs every
    /// entry goes to the (entry-proportional) spill map instead.
    dense_enabled: bool,
    /// Per-array dense kind (`DENSE_NONE` until the first dense-eligible
    /// insert fixes it, exactly like the store's own tier selection).
    kinds: Vec<u8>,
    /// Per-array flat lane, indexed by [`dense_slot`]; grown on demand.
    dense: Vec<Vec<u64>>,
    /// Everything that doesn't fit a dense lane.
    spill: FxHashMap<ObjId, (usize, u32)>,
}

impl LocCache {
    pub(crate) fn with_dense(dense_enabled: bool) -> Self {
        Self { dense_enabled, ..Self::default() }
    }

    /// Cached `(pe, epoch)` of `obj`, if any.
    #[inline]
    pub(crate) fn get(&self, obj: &ObjId) -> Option<(usize, u32)> {
        let a = obj.array.0 as usize;
        if let Some(&kind) = self.kinds.get(a) {
            if let Some(slot) = dense_slot(kind, &obj.ix) {
                let v = self.dense[a].get(slot).copied().unwrap_or(0);
                if v == 0 {
                    return None;
                }
                return Some((((v >> 32) - 1) as usize, v as u32));
            }
        }
        self.spill.get(obj).copied()
    }

    /// Record `obj` as last seen on `pe` at `epoch`.
    pub(crate) fn insert(&mut self, obj: ObjId, (pe, epoch): (usize, u32)) {
        if !self.dense_enabled {
            self.spill.insert(obj, (pe, epoch));
            return;
        }
        let a = obj.array.0 as usize;
        if a >= self.kinds.len() {
            self.kinds.resize(a + 1, DENSE_NONE);
            self.dense.resize_with(a + 1, Vec::new);
        }
        if self.kinds[a] == DENSE_NONE {
            self.kinds[a] = dense_kind_of(&obj.ix);
        }
        if let Some(slot) = dense_slot(self.kinds[a], &obj.ix) {
            let lane = &mut self.dense[a];
            if slot >= lane.len() {
                lane.resize(slot + 1, 0);
            }
            lane[slot] = ((pe as u64 + 1) << 32) | epoch as u64;
        } else {
            self.spill.insert(obj, (pe, epoch));
        }
    }

    /// Drop every entry (lane kinds persist: array index shapes don't
    /// change over a run).
    pub(crate) fn clear(&mut self) {
        for lane in &mut self.dense {
            lane.clear();
        }
        self.spill.clear();
    }
}

/// Typed storage for all elements of one chare array.
///
/// Layout is a two-tier hybrid tuned for the scheduler hot path, which
/// looks an element up by index several times per delivered message:
///
/// * **dense tier** — small nonnegative 1-D indices (`0..65536`) or 2-D
///   indices inside a `256×256` window live in a flat `Vec` indexed
///   directly by the (row-major) index value: one bounds check and one
///   pointer chase, no hashing. The first dense-eligible insert fixes
///   which variant owns the window. Boxed slots keep empty entries at one
///   pointer each, so sparse populations don't bloat.
/// * **spill tier** — everything else (negative/huge 1-D, 3-D/4-D/6-D,
///   bit-vector, named) hashes into an [`FxHashMap`] — deterministic,
///   seed-free, and ~an order of magnitude cheaper than the std SipHash
///   map on these small fixed-shape keys.
///
/// Iteration-order caveats are unchanged from the old single-map layout:
/// every enumeration below sorts (or is wrapped by a caller that sorts),
/// so replacing the map cannot perturb observable behavior — the replay
/// golden-log regression tests pin this.
pub(crate) struct ArrayStore<C: Chare> {
    id: ArrayId,
    name: String,
    /// Dense tier, indexed by [`dense_slot`]; grown on demand.
    dense: Vec<Option<Box<Element<C>>>>,
    /// Which `Ix` variant owns the dense tier (`DENSE_NONE` until the
    /// first dense-eligible insert).
    dense_kind: u8,
    /// Live elements in the dense tier.
    dense_len: usize,
    /// Spill tier for indices outside the dense window.
    spill: FxHashMap<Ix, Element<C>>,
    at_sync: bool,
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
            dense: Vec::new(),
            dense_kind: DENSE_NONE,
            dense_len: 0,
            spill: FxHashMap::default(),
            at_sync: false,
        }
    }

    #[inline]
    fn get(&self, ix: &Ix) -> Option<&Element<C>> {
        if let Some(slot) = dense_slot(self.dense_kind, ix) {
            return self.dense.get(slot).and_then(|o| o.as_deref());
        }
        self.spill.get(ix)
    }

    #[inline]
    fn get_mut(&mut self, ix: &Ix) -> Option<&mut Element<C>> {
        if let Some(slot) = dense_slot(self.dense_kind, ix) {
            return self.dense.get_mut(slot).and_then(|o| o.as_deref_mut());
        }
        self.spill.get_mut(ix)
    }

    /// Insert, returning the displaced element (if any).
    fn put(&mut self, ix: Ix, e: Element<C>) -> Option<Element<C>> {
        if self.dense_kind == DENSE_NONE {
            self.dense_kind = dense_kind_of(&ix);
        }
        if let Some(slot) = dense_slot(self.dense_kind, &ix) {
            if slot >= self.dense.len() {
                self.dense.resize_with(slot + 1, || None);
            }
            let prev = self.dense[slot].replace(Box::new(e)).map(|b| *b);
            if prev.is_none() {
                self.dense_len += 1;
            }
            return prev;
        }
        self.spill.insert(ix, e)
    }

    fn take(&mut self, ix: &Ix) -> Option<Element<C>> {
        if let Some(slot) = dense_slot(self.dense_kind, ix) {
            let prev = self.dense.get_mut(slot).and_then(|o| o.take()).map(|b| *b);
            if prev.is_some() {
                self.dense_len -= 1;
            }
            return prev;
        }
        self.spill.remove(ix)
    }

    /// Iterate every `(index, element)` pair, dense tier first. Arbitrary
    /// order within each tier — callers that expose order must sort.
    fn iter(&self) -> impl Iterator<Item = (Ix, &Element<C>)> {
        let kind = self.dense_kind;
        self.dense
            .iter()
            .enumerate()
            .filter_map(move |(slot, o)| o.as_deref().map(|e| (slot_ix(kind, slot), e)))
            .chain(self.spill.iter().map(|(ix, e)| (*ix, e)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (Ix, &mut Element<C>)> {
        let kind = self.dense_kind;
        self.dense
            .iter_mut()
            .enumerate()
            .filter_map(move |(slot, o)| o.as_deref_mut().map(|e| (slot_ix(kind, slot), e)))
            .chain(self.spill.iter_mut().map(|(ix, e)| (*ix, e)))
    }

    pub(crate) fn insert(&mut self, ix: Ix, pe: usize, chare: C) {
        let prev = self.put(
            ix,
            Element {
                chare,
                pe,
                load: 0.0,
                epoch: 0,
            },
        );
        assert!(prev.is_none(), "duplicate insertion of element {ix}");
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
        self.dense_len + self.spill.len()
    }

    fn contains(&self, ix: &Ix) -> bool {
        self.get(ix).is_some()
    }

    fn element_pe(&self, ix: &Ix) -> Option<usize> {
        self.get(ix).map(|e| e.pe)
    }

    fn locate(&self, ix: &Ix) -> Option<(usize, u32)> {
        self.get(ix).map(|e| (e.pe, e.epoch))
    }

    fn indices(&self) -> Vec<Ix> {
        let mut v: Vec<Ix> = self.iter().map(|(ix, _)| ix).collect();
        // Deterministic order regardless of storage-tier iteration.
        v.sort_unstable();
        v
    }

    fn visit_sorted(&mut self, f: &mut dyn FnMut(Ix, usize, &mut dyn charm_pup::Pup)) {
        // Slot order is index order within the dense window, so a store
        // with nothing spilled needs no sort at all.
        let spilled = !self.spill.is_empty();
        let mut elems: Vec<(Ix, &mut Element<C>)> = self.iter_mut().collect();
        if spilled {
            elems.sort_unstable_by_key(|(ix, _)| *ix);
        }
        for (ix, e) in elems {
            f(ix, e.pe, &mut e.chare);
        }
    }

    fn execute(&mut self, ix: &Ix, payload: Payload, ctx: &mut Ctx<'_>) -> bool {
        // Split borrows: name is needed inside the panic message while the
        // element is mutably borrowed from the same struct.
        let (name, e) = if let Some(slot) = dense_slot(self.dense_kind, ix) {
            match self.dense.get_mut(slot).and_then(|o| o.as_deref_mut()) {
                Some(e) => (&self.name, e),
                None => return false,
            }
        } else {
            match self.spill.get_mut(ix) {
                Some(e) => (&self.name, e),
                None => return false,
            }
        };
        match payload {
            Payload::User(boxed) => {
                let boxed = boxed.downcast::<C::Msg>().unwrap_or_else(|_| {
                    panic!(
                        "array '{name}' element {ix}: message type mismatch (expected {})",
                        std::any::type_name::<C::Msg>()
                    )
                });
                // Recycle the payload block (the send side's `alloc_box`
                // then reuses it — no allocator traffic per message).
                e.chare.on_message(crate::arena::take_box(boxed), ctx);
            }
            Payload::Sys(ev) => e.chare.on_event(*ev, ctx),
        }
        true
    }

    fn user_msg_digest(&self, msg: &mut Box<dyn Any + Send>) -> u64 {
        msg.downcast_mut::<C::Msg>()
            .map(charm_pup::digest_of)
            .unwrap_or(0)
    }

    fn pack_element(&mut self, ix: &Ix) -> Option<Vec<u8>> {
        self.get_mut(ix).map(|e| charm_pup::to_bytes(&mut e.chare))
    }

    fn unpack_insert(&mut self, ix: Ix, pe: usize, bytes: &[u8]) {
        let chare: C = charm_pup::from_bytes(bytes);
        let epoch = self.get(&ix).map(|e| e.epoch + 1).unwrap_or_default();
        self.put(
            ix,
            Element {
                chare,
                pe,
                load: 0.0,
                epoch,
            },
        );
    }

    fn remove_element(&mut self, ix: &Ix) -> bool {
        self.take(ix).is_some()
    }

    fn insert_boxed(&mut self, ix: Ix, pe: usize, chare: Box<dyn Any + Send>) {
        let chare = *chare.downcast::<C>().unwrap_or_else(|_| {
            panic!(
                "array '{}': insert of wrong chare type (expected {})",
                self.name,
                std::any::type_name::<C>()
            )
        });
        self.insert(ix, pe, chare);
    }

    fn add_load(&mut self, ix: &Ix, load: f64) {
        if let Some(e) = self.get_mut(ix) {
            e.load += load;
        }
    }

    fn drain_loads(&mut self) -> Vec<(Ix, usize, f64, f64)> {
        let mut v: Vec<(Ix, usize, f64, f64)> = self
            .iter_mut()
            .map(|(ix, e)| {
                let l = e.load;
                e.load = 0.0;
                (ix, e.pe, l, e.chare.load_hint())
            })
            .collect();
        v.sort_unstable_by_key(|a| a.0);
        v
    }

    fn uses_at_sync(&self) -> bool {
        self.at_sync
    }

    fn set_uses_at_sync(&mut self, v: bool) {
        self.at_sync = v;
    }

    fn clear(&mut self) {
        // Keep the dense window's kind and capacity: a rollback repopulates
        // the same index space, so the allocation is reused.
        for slot in &mut self.dense {
            *slot = None;
        }
        self.dense_len = 0;
        self.spill.clear();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_pup::Puper;

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
        s.insert(Ix::i1(3), 2, Dummy { v: 40 });
        assert_eq!(s.len(), 1);
        assert_eq!(s.element_pe(&Ix::i1(3)), Some(2));
        let bytes = s.pack_element(&Ix::i1(3)).unwrap();
        assert!(s.remove_element(&Ix::i1(3)));
        assert!(!s.contains(&Ix::i1(3)));
        s.unpack_insert(Ix::i1(3), 5, &bytes);
        assert_eq!(s.element_pe(&Ix::i1(3)), Some(5));
    }

    #[test]
    fn epoch_bumps_on_pe_change() {
        // `unpack_insert` over a live element is the path that bumps the
        // epoch; after a remove the element is new again.
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(0), 0, Dummy::default());
        assert_eq!(s.locate(&Ix::i1(0)), Some((0, 0)));
        let bytes = s.pack_element(&Ix::i1(0)).unwrap();
        s.unpack_insert(Ix::i1(0), 1, &bytes);
        assert_eq!(s.locate(&Ix::i1(0)), Some((1, 1)));
        assert!(s.remove_element(&Ix::i1(0)));
        s.unpack_insert(Ix::i1(0), 2, &bytes);
        assert_eq!(s.locate(&Ix::i1(0)), Some((2, 0)));
    }

    #[test]
    fn drain_loads_resets() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(0), 0, Dummy::default());
        s.insert(Ix::i1(1), 1, Dummy::default());
        s.add_load(&Ix::i1(0), 0.5);
        s.add_load(&Ix::i1(0), 0.25);
        let loads = s.drain_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0], (Ix::i1(0), 0, 0.75, 1.0));
        assert_eq!(loads[1], (Ix::i1(1), 1, 0.0, 1.0));
        let again = s.drain_loads();
        assert_eq!(again[0].2, 0.0, "loads reset after drain");
    }

    #[test]
    fn indices_sorted_and_per_pe() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        for i in (0..10).rev() {
            s.insert(Ix::i1(i), (i % 3) as usize, Dummy::default());
        }
        let all = s.indices();
        assert_eq!(all.len(), 10);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn visit_sorted_equals_indices_then_lookup() {
        // One visit must see exactly what the sorted key list plus a
        // per-key pack/digest sees — on a purely dense population (the
        // no-sort path) and on one that adds spilled negative/huge 1-D,
        // 2-D and 3-D indices, inserted out of order.
        let dense = [Ix::i1(900), Ix::i1(3), Ix::i1(0), Ix::i1(41)];
        let spilled = [
            Ix::i3(1, 2, 3),
            Ix::i1(-4),
            Ix::i2(7, 7),
            Ix::i1(DENSE_1D_MAX + 9),
            Ix::i3(0, 9, 9),
        ];
        for ixs in [dense.to_vec(), [&dense[..], &spilled[..]].concat()] {
            let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
            for (k, ix) in ixs.iter().enumerate() {
                s.insert(*ix, k % 3, Dummy { v: 100 + k as i64 });
            }
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
            assert_eq!(visited.len(), ixs.len());
            assert_eq!(visited, by_key);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate insertion")]
    fn duplicate_insert_rejected() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(0), 0, Dummy::default());
        s.insert(Ix::i1(0), 0, Dummy::default());
    }

    #[test]
    fn dense_and_spill_tiers_coexist() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        // First insert claims the dense window for I1…
        s.insert(Ix::i1(7), 0, Dummy { v: 7 });
        // …negative and huge 1-D indices spill, as do other variants.
        s.insert(Ix::i1(-4), 1, Dummy { v: -4 });
        s.insert(Ix::i1(DENSE_1D_MAX + 9), 2, Dummy { v: 99 });
        s.insert(Ix::i2(0, 3), 0, Dummy { v: 3 });
        assert_eq!(s.len(), 4);
        assert_eq!(s.peek(&Ix::i1(7)).unwrap().v, 7);
        assert_eq!(s.peek(&Ix::i1(-4)).unwrap().v, -4);
        assert_eq!(s.peek(&Ix::i1(DENSE_1D_MAX + 9)).unwrap().v, 99);
        assert_eq!(s.peek(&Ix::i2(0, 3)).unwrap().v, 3);
        // indices() is sorted across both tiers.
        let all = s.indices();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), 4);
        // Removal from both tiers keeps len() honest.
        assert!(s.remove_element(&Ix::i1(7)));
        assert!(s.remove_element(&Ix::i1(-4)));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&Ix::i1(7)));
    }

    #[test]
    fn dense_2d_window_no_slot_collisions() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        // 2-D first insert claims the 256×256 window; I1 then spills, so
        // I2([0, 5]) and I1(5) never share storage.
        s.insert(Ix::i2(0, 5), 0, Dummy { v: 25 });
        s.insert(Ix::i1(5), 1, Dummy { v: 15 });
        assert_eq!(s.peek(&Ix::i2(0, 5)).unwrap().v, 25);
        assert_eq!(s.peek(&Ix::i1(5)).unwrap().v, 15);
        assert_eq!(s.element_pe(&Ix::i2(0, 5)), Some(0));
        assert_eq!(s.element_pe(&Ix::i1(5)), Some(1));
        // Outside the window spills too.
        s.insert(Ix::i2(300, 1), 2, Dummy { v: 301 });
        assert_eq!(s.locate(&Ix::i2(300, 1)), Some((2, 0)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn locate_matches_pe_and_epoch() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(2), 3, Dummy::default());
        assert_eq!(s.locate(&Ix::i1(2)), Some((3, 0)));
        let bytes = s.pack_element(&Ix::i1(2)).unwrap();
        s.unpack_insert(Ix::i1(2), 4, &bytes);
        assert_eq!(s.locate(&Ix::i1(2)), Some((4, 1)));
        assert_eq!(s.locate(&Ix::i1(99)), None);
    }

    #[test]
    fn clear_empties_both_tiers() {
        let mut s = ArrayStore::<Dummy>::new(ArrayId(0), "dummy");
        s.insert(Ix::i1(1), 0, Dummy::default());
        s.insert(Ix::i1(-1), 0, Dummy::default());
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(s.indices().is_empty());
        // Dense window stays claimed for I1 — reinsertion works.
        s.insert(Ix::i1(1), 0, Dummy::default());
        assert_eq!(s.len(), 1);
    }
}
