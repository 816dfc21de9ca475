//! Routed items in wire form: a batch is the bytes it packs to.

use charm_core::Ix;
use charm_pup::{Pup, Puper};
use std::marker::PhantomData;

/// A run of routed items — each a destination PE, a target index and an
/// item — held as the bytes `Vec<(u64, Ix, M)>` packs them to, after its
/// count prefix. A `u32` end offset per item is kept in memory only.
///
/// Packing writes the count, then the bytes: sizing is O(1), and packed
/// bytes and digests equal the typed vector's. An agent forwards an item as
/// a byte span after reading its 8-byte PE header; only the last hop
/// decodes the index and the item.
pub(crate) struct TramBatch<M> {
    /// The items back to back, each as `(u64, Ix, M)` packs.
    bytes: Vec<u8>,
    /// Where each item ends in `bytes`.
    ends: Vec<u32>,
    item: PhantomData<fn() -> M>,
}

impl<M> Default for TramBatch<M> {
    fn default() -> Self {
        TramBatch {
            bytes: Vec::new(),
            ends: Vec::new(),
            item: PhantomData,
        }
    }
}

impl<M> TramBatch<M> {
    /// Items in the batch.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the batch holds no item.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Before the first item of `wire` bytes, reserve what a typed `Vec`
    /// reserves on its first push: four items, or one past 1 KiB. Later
    /// growth doubles, so equal items fill the buffer exactly as they filled
    /// the typed `Vec`, and a large flush threshold never pre-reserves.
    #[inline]
    fn reserve_first(&mut self, wire: usize) {
        if self.bytes.capacity() == 0 {
            let items = if wire <= 1024 { 4 } else { 1 };
            self.bytes.reserve_exact(items * wire);
        }
    }

    #[inline]
    fn end_item(&mut self) {
        let end = u32::try_from(self.bytes.len()).expect("TRAM batch exceeds 4 GiB");
        self.ends.push(end);
    }

    /// Append an item that is already in wire form, as [`TramBatch::spans`]
    /// yields it.
    #[inline]
    pub(crate) fn push_span(&mut self, span: &[u8]) {
        self.reserve_first(span.len());
        self.bytes.extend_from_slice(span);
        self.end_item();
    }

    /// Each item's bytes, in order.
    pub(crate) fn spans(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let span = &self.bytes[start..end as usize];
            start = end as usize;
            span
        })
    }
}

impl<M: Pup + Default> TramBatch<M> {
    /// Append one item, packing it straight into the batch.
    #[inline]
    pub(crate) fn push(&mut self, mut dst_pe: u64, mut ix: Ix, mut item: M) {
        if self.bytes.capacity() == 0 {
            let wire = 8 + charm_pup::packed_size(&mut ix) + charm_pup::packed_size(&mut item);
            self.reserve_first(wire);
        }
        let mut p = Puper::appender(&mut self.bytes);
        p.p(&mut dst_pe);
        p.p(&mut ix);
        p.p(&mut item);
        self.end_item();
    }
}

/// The destination PE an item's span starts with.
#[inline]
pub(crate) fn dst_pe(span: &[u8]) -> u64 {
    let head: [u8; 8] = span[..8]
        .try_into()
        .expect("a routed item starts with its PE");
    u64::from_le_bytes(head)
}

/// Decode the index and the item of an item's span.
pub(crate) fn decode<M: Pup + Default>(span: &[u8]) -> (Ix, M) {
    let mut p = Puper::unpacker(&span[8..]);
    let mut ix = Ix::default();
    let mut item = M::default();
    p.p(&mut ix);
    p.p(&mut item);
    debug_assert_eq!(p.remaining(), 0, "a span holds exactly one item");
    (ix, item)
}

impl<M: Pup + Default> Pup for TramBatch<M> {
    fn pup(&mut self, p: &mut Puper) {
        let mut n = self.ends.len() as u64;
        p.p(&mut n);
        if p.is_unpacking() {
            // The stream does not delimit items: decode each to find its
            // end, and pack it again. Only restores take this path.
            *self = TramBatch::default();
            for _ in 0..n {
                let (mut dst_pe, mut ix, mut item) = (0u64, Ix::default(), M::default());
                p.p(&mut dst_pe);
                p.p(&mut ix);
                p.p(&mut item);
                self.push(dst_pe, ix, item);
            }
        } else {
            p.bytes(&mut self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_pup::{digest_of, packed_size, roundtrip, to_bytes, PupMode};
    use proptest::prelude::*;

    type Item = Vec<u8>;
    type Typed = Vec<(u64, Ix, Item)>;

    /// Every `Ix` variant, with fields drawn from `x`.
    fn ix_of(variant: u8, x: u64) -> Ix {
        let a = x as i32;
        match variant % 8 {
            0 => Ix::I1(x as i64),
            1 => Ix::I2([a, -a]),
            2 => Ix::I3([a, 1, -7]),
            3 => Ix::I4([a, 2, 3, -4]),
            4 => Ix::I6([a, 1, 2, 3, 4, -5]),
            5 => Ix::Bits {
                bits: x,
                len: (x % 64) as u8,
            },
            6 => Ix::Named(x),
            _ => Ix::I1(-(x as i64)),
        }
    }

    fn items() -> impl Strategy<Value = Typed> {
        let item = (
            any::<u64>(),
            0u8..8,
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..40),
        );
        let items = proptest::collection::vec(item, 0..3).prop_map(|v| {
            v.into_iter()
                .map(|(pe, variant, x, bytes)| (pe, ix_of(variant, x), bytes))
                .collect::<Typed>()
        });
        // 0, 1 and a threshold's worth of items, as well as a few.
        (items, 0u8..4, any::<u64>()).prop_map(|(items, shape, x)| match shape {
            0 => Vec::new(),
            1 => vec![(x, ix_of(x as u8, x), vec![x as u8; (x % 5) as usize])],
            2 => (0..64u64)
                .map(|k| {
                    (
                        k % 8,
                        ix_of(k as u8, k.wrapping_mul(x)),
                        vec![k as u8; (k % 3) as usize],
                    )
                })
                .collect(),
            _ => items,
        })
    }

    fn wire(typed: &Typed) -> TramBatch<Item> {
        let mut b = TramBatch::default();
        for (pe, ix, item) in typed.iter().cloned() {
            b.push(pe, ix, item);
        }
        b
    }

    fn typed(b: &TramBatch<Item>) -> Typed {
        b.spans()
            .map(|span| {
                let (ix, item) = decode(span);
                (dst_pe(span), ix, item)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wire_batch_packs_like_the_typed_vec(mut t in items()) {
            let mut b = wire(&t);
            prop_assert_eq!(b.len(), t.len());
            prop_assert_eq!(packed_size(&mut b), packed_size(&mut t));
            let bytes = to_bytes(&mut t);
            prop_assert_eq!(to_bytes(&mut b), bytes.clone());
            prop_assert_eq!(digest_of(&mut b), digest_of(&mut t));
            prop_assert_eq!(typed(&b), t.clone());

            // Unpacking consumes the same span, with a trailer behind it.
            let mut stream = bytes.clone();
            stream.extend_from_slice(b"tail");
            let mut p = Puper::unpacker(&stream);
            let mut back = TramBatch::<Item>::default();
            back.pup(&mut p);
            prop_assert_eq!(p.size(), bytes.len());
            prop_assert_eq!(typed(&back), t.clone());

            // All four modes through one round trip.
            let mut r = roundtrip(&mut b);
            prop_assert_eq!(typed(&r), t.clone());
            prop_assert_eq!(digest_of(&mut r), digest_of(&mut t));
            let mut s = Puper::sizer();
            r.pup(&mut s);
            prop_assert_eq!(s.mode(), PupMode::Sizing);
            prop_assert_eq!(s.size(), bytes.len());
        }
    }

    #[test]
    fn equal_items_fill_the_batch_like_the_typed_vec() {
        let mut b = TramBatch::<u64>::default();
        for k in 0..64 {
            b.push(k, Ix::I1(k as i64), k);
        }
        // 8-byte PE, 9-byte `Ix::I1`, 8-byte item.
        assert_eq!(b.bytes.capacity(), 64 * 25);
        assert_eq!(b.ends.capacity(), 64);
        let mut fwd = TramBatch::<u64>::default();
        for span in b.spans() {
            fwd.push_span(span);
        }
        assert_eq!(fwd.bytes, b.bytes);
        assert_eq!(fwd.bytes.capacity(), 64 * 25);
    }
}
