//! `Pup` implementations for primitives, tuples, and standard collections.

use crate::{Pup, Puper};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

macro_rules! pup_le_primitive {
    ($($t:ty),* $(,)?) => {$(
        impl Pup for $t {
            #[inline]
            fn pup(&mut self, p: &mut Puper) {
                let mut bytes = self.to_le_bytes();
                p.bytes(&mut bytes);
                if p.is_unpacking() {
                    *self = <$t>::from_le_bytes(bytes);
                }
            }
        }
    )*};
}

pup_le_primitive!(i8, u8, i16, u16, i32, u32, i64, u64, i128, u128, f32, f64);

// usize/isize are encoded as 8 bytes for cross-width stability of
// checkpoint files.
impl Pup for usize {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut v = *self as u64;
        v.pup(p);
        if p.is_unpacking() {
            *self = usize::try_from(v).expect("usize overflow while unpacking");
        }
    }
}

impl Pup for isize {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut v = *self as i64;
        v.pup(p);
        if p.is_unpacking() {
            *self = isize::try_from(v).expect("isize overflow while unpacking");
        }
    }
}

impl Pup for bool {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut b = *self as u8;
        b.pup(p);
        if p.is_unpacking() {
            *self = b != 0;
        }
    }
}

impl Pup for char {
    #[inline]
    fn pup(&mut self, p: &mut Puper) {
        let mut v = *self as u32;
        v.pup(p);
        if p.is_unpacking() {
            *self = char::from_u32(v).expect("invalid char while unpacking");
        }
    }
}

impl Pup for () {
    #[inline]
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Pup for String {
    fn pup(&mut self, p: &mut Puper) {
        if p.is_unpacking() {
            let mut bytes = Vec::new();
            p.raw(&mut bytes);
            *self = String::from_utf8(bytes).expect("invalid UTF-8 while unpacking String");
        } else {
            // Safety-free path: we only read the bytes on size/pack.
            let mut bytes = std::mem::take(self).into_bytes();
            p.raw(&mut bytes);
            *self = String::from_utf8(bytes).expect("string bytes unchanged");
        }
    }
}

fn pup_len(p: &mut Puper, len: usize) -> usize {
    let mut v = len as u64;
    v.pup(p);
    v as usize
}

/// Capacity to reserve for `len` elements announced by a length prefix just
/// unpacked. The prefix is untrusted input: a truncated or garbage stream
/// can say 2^60. Bounding the hint by the bytes left keeps the failure an
/// underflow panic with offset context instead of an allocator abort.
fn unpack_capacity(p: &Puper, len: usize) -> usize {
    len.min(p.remaining())
}

impl<T: Pup + Default> Pup for Vec<T> {
    fn pup(&mut self, p: &mut Puper) {
        let len = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            self.reserve_exact(unpack_capacity(p, len));
            for _ in 0..len {
                let mut v = T::default();
                v.pup(p);
                self.push(v);
            }
        } else {
            for v in self.iter_mut() {
                v.pup(p);
            }
        }
    }
}

impl<T: Pup + Default> Pup for VecDeque<T> {
    fn pup(&mut self, p: &mut Puper) {
        let len = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            self.reserve(unpack_capacity(p, len));
            for _ in 0..len {
                let mut v = T::default();
                v.pup(p);
                self.push_back(v);
            }
        } else {
            for v in self.iter_mut() {
                v.pup(p);
            }
        }
    }
}

impl<T: Pup + Default> Pup for Option<T> {
    fn pup(&mut self, p: &mut Puper) {
        let mut tag = self.is_some() as u8;
        tag.pup(p);
        if p.is_unpacking() {
            *self = if tag != 0 {
                let mut v = T::default();
                v.pup(p);
                Some(v)
            } else {
                None
            };
        } else if let Some(v) = self {
            v.pup(p);
        }
    }
}

impl<T: Pup + Default> Pup for Box<T> {
    fn pup(&mut self, p: &mut Puper) {
        (**self).pup(p);
    }
}

impl<T: Pup, const N: usize> Pup for [T; N] {
    fn pup(&mut self, p: &mut Puper) {
        for v in self.iter_mut() {
            v.pup(p);
        }
    }
}

impl<K, V, S> Pup for HashMap<K, V, S>
where
    K: Pup + Default + Eq + Hash + Clone,
    V: Pup + Default,
    S: BuildHasher + Default,
{
    fn pup(&mut self, p: &mut Puper) {
        let len = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..len {
                let mut k = K::default();
                let mut v = V::default();
                k.pup(p);
                v.pup(p);
                self.insert(k, v);
            }
        } else {
            // Iteration order is not deterministic across processes, but the
            // sizing and packing passes of one serialization traverse the
            // same un-mutated map, so they agree — and the map is rebuilt
            // key-by-key on unpack.
            for (k, v) in self.iter_mut() {
                let mut k2 = k.clone();
                k2.pup(p);
                v.pup(p);
            }
        }
    }
}

impl<K, V> Pup for BTreeMap<K, V>
where
    K: Pup + Default + Ord + Clone,
    V: Pup + Default,
{
    fn pup(&mut self, p: &mut Puper) {
        let len = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..len {
                let mut k = K::default();
                let mut v = V::default();
                k.pup(p);
                v.pup(p);
                self.insert(k, v);
            }
        } else {
            for (k, v) in self.iter_mut() {
                let mut k2 = k.clone();
                k2.pup(p);
                v.pup(p);
            }
        }
    }
}

impl<T, S> Pup for HashSet<T, S>
where
    T: Pup + Default + Eq + Hash + Clone,
    S: BuildHasher + Default,
{
    fn pup(&mut self, p: &mut Puper) {
        let len = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..len {
                let mut v = T::default();
                v.pup(p);
                self.insert(v);
            }
        } else {
            for v in self.iter() {
                let mut v2 = v.clone();
                v2.pup(p);
            }
        }
    }
}

impl<T> Pup for BTreeSet<T>
where
    T: Pup + Default + Ord + Clone,
{
    fn pup(&mut self, p: &mut Puper) {
        let len = pup_len(p, self.len());
        if p.is_unpacking() {
            self.clear();
            for _ in 0..len {
                let mut v = T::default();
                v.pup(p);
                self.insert(v);
            }
        } else {
            for v in self.iter() {
                let mut v2 = v.clone();
                v2.pup(p);
            }
        }
    }
}

impl<T, E> Pup for Result<T, E>
where
    T: Pup + Default,
    E: Pup + Default,
{
    fn pup(&mut self, p: &mut Puper) {
        let mut tag = self.is_ok() as u8;
        tag.pup(p);
        if p.is_unpacking() {
            *self = if tag != 0 {
                let mut v = T::default();
                v.pup(p);
                Ok(v)
            } else {
                let mut e = E::default();
                e.pup(p);
                Err(e)
            };
        } else {
            match self {
                Ok(v) => v.pup(p),
                Err(e) => e.pup(p),
            }
        }
    }
}

impl Pup for std::time::Duration {
    fn pup(&mut self, p: &mut Puper) {
        let mut secs = self.as_secs();
        let mut nanos = self.subsec_nanos();
        p.p(&mut secs);
        p.p(&mut nanos);
        if p.is_unpacking() {
            *self = std::time::Duration::new(secs, nanos);
        }
    }
}

macro_rules! pup_tuple {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Pup),+> Pup for ($($name,)+) {
            fn pup(&mut self, p: &mut Puper) {
                $(self.$idx.pup(p);)+
            }
        }
    )*};
}

pup_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
);

#[cfg(test)]
mod tests {
    use crate::roundtrip;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn sets_roundtrip() {
        let mut h: HashSet<u32> = (0..50).collect();
        assert_eq!(roundtrip(&mut h), h);
        let mut b: BTreeSet<String> = ["x".to_string(), "y".to_string()].into();
        assert_eq!(roundtrip(&mut b), b);
    }

    #[test]
    fn i128_and_u128() {
        let mut a: i128 = i128::MIN + 3;
        assert_eq!(roundtrip(&mut a), a);
        let mut b: u128 = u128::MAX - 9;
        assert_eq!(roundtrip(&mut b), b);
    }

    #[test]
    fn empty_collections() {
        let mut v: Vec<u8> = vec![];
        assert_eq!(roundtrip(&mut v), v);
        let mut s = String::new();
        assert_eq!(roundtrip(&mut s), s);
    }

    #[test]
    fn nested_vec_of_vec() {
        let mut v: Vec<Vec<i16>> = vec![vec![1, 2], vec![], vec![3]];
        assert_eq!(roundtrip(&mut v), v);
    }

    #[test]
    fn result_roundtrip() {
        // `Result` has no `Default`, so drive the puper directly.
        let unpack = |bytes: Vec<u8>| -> Result<u32, String> {
            use crate::Pup as _;
            let mut back: Result<u32, String> = Ok(0);
            let mut p = crate::Puper::unpacker(&bytes);
            back.pup(&mut p);
            back
        };
        let mut ok: Result<u32, String> = Ok(7);
        assert_eq!(unpack(crate::to_bytes(&mut ok)), Ok(7));
        let mut err: Result<u32, String> = Err("boom".into());
        assert_eq!(unpack(crate::to_bytes(&mut err)), Err("boom".to_string()));
    }

    /// A length prefix is untrusted input: a stream that claims 2^60
    /// elements and then ends must unwind with the underflow panic (offset
    /// context included), never abort in the allocator or report a
    /// capacity overflow.
    #[test]
    fn absurd_length_prefix_underflows_instead_of_allocating() {
        use std::collections::{BTreeMap, HashMap, VecDeque};
        #[derive(Default)]
        struct RawBytes(Vec<u8>);
        impl crate::Pup for RawBytes {
            fn pup(&mut self, p: &mut crate::Puper) {
                p.raw(&mut self.0);
            }
        }
        fn check<T: crate::Pup + Default>(what: &str) {
            let mut stream = (1u64 << 60).to_le_bytes().to_vec();
            stream.extend_from_slice(&[7u8; 5]);
            let err = std::panic::catch_unwind(|| {
                crate::from_bytes::<T>(&stream);
            })
            .expect_err(what);
            let msg = err
                .downcast_ref::<String>()
                .unwrap_or_else(|| panic!("{what}: panic payload is not a message"));
            assert!(msg.contains("PUP stream underflow"), "{what}: {msg}");
        }
        check::<Vec<u64>>("Vec<u64>");
        check::<Vec<u8>>("Vec<u8>");
        check::<Vec<String>>("Vec<String>");
        check::<VecDeque<u32>>("VecDeque<u32>");
        check::<String>("String");
        check::<HashMap<u64, u64>>("HashMap");
        check::<BTreeMap<u64, u64>>("BTreeMap");
        check::<HashSet<u64>>("HashSet");
        check::<BTreeSet<u64>>("BTreeSet");
        check::<RawBytes>("Puper::raw");
    }

    #[test]
    fn duration_roundtrip() {
        let mut d = std::time::Duration::new(12, 345_678_901);
        assert_eq!(roundtrip(&mut d), d);
    }

    #[test]
    fn float_bit_exactness() {
        let mut v = vec![f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE];
        let r = roundtrip(&mut v);
        for (a, b) in v.iter().zip(r.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
