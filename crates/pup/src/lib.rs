//! # charm-pup — the PUP (Pack/UnPack) serialization framework
//!
//! A Rust rendition of Charm++'s `PUP::er` framework (paper §II-D, Fig. 3).
//! A single `pup` method describes an object's state once, and is driven in
//! one of four modes:
//!
//! * **Sizing** — computes the number of bytes the packed form occupies,
//! * **Packing** — serializes the object into a byte stream,
//! * **Unpacking** — restores the object from a borrowed byte stream,
//! * **Digesting** — folds the packed form into an FNV-1a hash.
//!
//! The same traversal serves migration, checkpointing to disk, double
//! in-memory checkpoints, and message transport, exactly as in Charm++.
//!
//! State that is only *modeled* — a run of bytes standing in for data the
//! simulation never reads — goes through [`Puper::zeros`], which no mode
//! except packing ever touches byte by byte; [`SyntheticBlob`] is such a run
//! with its length prefix.
//!
//! ```
//! use charm_pup::{Pup, Puper};
//!
//! #[derive(Default, Debug, PartialEq)]
//! struct A {
//!     foo: i32,
//!     bar: [f32; 4],
//! }
//!
//! impl Pup for A {
//!     fn pup(&mut self, p: &mut Puper) {
//!         p.p(&mut self.foo);
//!         charm_pup::pup_array(p, &mut self.bar);
//!     }
//! }
//!
//! let mut a = A { foo: 7, bar: [1.0, 2.0, 3.0, 4.0] };
//! let bytes = charm_pup::to_bytes(&mut a);
//! let b: A = charm_pup::from_bytes(&bytes);
//! assert_eq!(a, b);
//! ```

mod impls;
#[macro_use]
mod macros;
mod synthetic;

pub use synthetic::SyntheticBlob;

/// The mode a [`Puper`] is operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PupMode {
    /// Counting bytes; no data is moved.
    Sizing,
    /// Writing object state into the internal buffer.
    Packing,
    /// Reading object state back out of a buffer.
    Unpacking,
    /// Folding object state into a streaming 64-bit digest; no data is
    /// stored. Behaves like packing from a `pup` body's point of view.
    Digesting,
}

/// FNV-1a offset basis / prime for the digesting mode.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

enum Inner<'a> {
    Sizing { size: usize },
    Packing { buf: Vec<u8> },
    Unpacking { data: &'a [u8], pos: usize },
    Digesting { hash: u64 },
}

/// The serialization driver, equivalent to Charm++'s `PUP::er`.
///
/// Construct one of the four modes with [`Puper::sizer`], [`Puper::packer`],
/// [`Puper::unpacker`] or [`Puper::digester`], then hand it to [`Pup::pup`]
/// implementations. `'a` is the lifetime of the stream an unpacker reads;
/// the other modes borrow nothing.
pub struct Puper<'a> {
    inner: Inner<'a>,
}

/// `FNV_PRIME^n mod 2^64` by square-and-multiply: folding `n` zero bytes
/// into an FNV-1a hash multiplies it by exactly this (`h ^ 0 == h`).
fn fnv_prime_pow(mut n: u64) -> u64 {
    let mut base = FNV_PRIME;
    let mut acc = 1u64;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

impl<'a> Puper<'a> {
    /// A sizing puper: after traversal, [`Puper::size`] reports the packed size.
    pub fn sizer() -> Self {
        Puper {
            inner: Inner::Sizing { size: 0 },
        }
    }

    /// A packing puper. `capacity` pre-reserves the output buffer (pass the
    /// result of a sizing pass to avoid reallocation, or 0 if unknown).
    pub fn packer(capacity: usize) -> Self {
        Puper {
            inner: Inner::Packing {
                buf: Vec::with_capacity(capacity),
            },
        }
    }

    /// An unpacking puper reading from `data` in place (no copy).
    pub fn unpacker(data: &'a [u8]) -> Self {
        Puper {
            inner: Inner::Unpacking { data, pos: 0 },
        }
    }

    /// A digesting puper: after traversal, [`Puper::digest`] reports an
    /// FNV-1a hash of exactly the bytes a packing pass would have written,
    /// without allocating a buffer. Used for chare-state and message-payload
    /// digests in record/replay.
    pub fn digester() -> Self {
        Puper {
            inner: Inner::Digesting { hash: FNV_OFFSET },
        }
    }

    /// Which mode this puper is in.
    pub fn mode(&self) -> PupMode {
        match self.inner {
            Inner::Sizing { .. } => PupMode::Sizing,
            Inner::Packing { .. } => PupMode::Packing,
            Inner::Unpacking { .. } => PupMode::Unpacking,
            Inner::Digesting { .. } => PupMode::Digesting,
        }
    }

    /// True when deserializing (Charm++'s `p.isUnpacking()`); lets a `pup`
    /// body allocate or rebuild caches only on the restore path.
    pub fn is_unpacking(&self) -> bool {
        matches!(self.inner, Inner::Unpacking { .. })
    }

    /// True when computing sizes.
    pub fn is_sizing(&self) -> bool {
        matches!(self.inner, Inner::Sizing { .. })
    }

    /// True when serializing.
    pub fn is_packing(&self) -> bool {
        matches!(self.inner, Inner::Packing { .. })
    }

    /// The byte count accumulated so far (sizing mode), written (packing
    /// mode), or consumed (unpacking mode). Digesting mode does not count
    /// bytes and reports 0.
    pub fn size(&self) -> usize {
        match &self.inner {
            Inner::Sizing { size } => *size,
            Inner::Packing { buf } => buf.len(),
            Inner::Unpacking { pos, .. } => *pos,
            Inner::Digesting { .. } => 0,
        }
    }

    /// The digest accumulated so far (digesting mode only).
    ///
    /// # Panics
    /// Panics if the puper is not in digesting mode.
    pub fn digest(&self) -> u64 {
        match &self.inner {
            Inner::Digesting { hash } => *hash,
            _ => panic!("Puper::digest called on a non-digesting puper"),
        }
    }

    /// Number of unread bytes remaining (unpacking mode only; 0 otherwise).
    pub fn remaining(&self) -> usize {
        match &self.inner {
            Inner::Unpacking { data, pos } => data.len() - *pos,
            _ => 0,
        }
    }

    /// Consume the puper, returning the packed bytes (packing mode only).
    ///
    /// # Panics
    /// Panics if the puper is not in packing mode.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.inner {
            Inner::Packing { buf } => buf,
            _ => panic!("Puper::into_bytes called on a non-packing puper"),
        }
    }

    /// The raw-byte primitive every other operation reduces to.
    ///
    /// Sizing adds `bytes.len()`; packing appends; unpacking fills `bytes`
    /// from the stream; digesting folds them into the hash.
    ///
    /// # Panics
    /// Panics on unpacking underflow (malformed/truncated stream).
    pub fn bytes(&mut self, bytes: &mut [u8]) {
        match &mut self.inner {
            Inner::Sizing { size } => *size += bytes.len(),
            Inner::Packing { buf } => buf.extend_from_slice(bytes),
            Inner::Digesting { hash } => {
                for &b in bytes.iter() {
                    *hash = (*hash ^ b as u64).wrapping_mul(FNV_PRIME);
                }
            }
            Inner::Unpacking { data, pos } => {
                let src = take(data, pos, bytes.len() as u64);
                bytes.copy_from_slice(src);
            }
        }
    }

    /// A run of `n` modeled bytes: exactly `bytes(&mut [0u8; n])` in every
    /// mode, without touching `n` bytes unless they are being packed.
    ///
    /// | mode      | effect                                   | cost     |
    /// |-----------|------------------------------------------|----------|
    /// | sizing    | adds `n`                                 | O(1)     |
    /// | packing   | appends `n` zero bytes                   | O(n)     |
    /// | unpacking | bounds-checks and skips `n` bytes        | O(1)     |
    /// | digesting | multiplies the hash by `FNV_PRIME^n`     | O(log n) |
    ///
    /// # Panics
    /// Panics on unpacking underflow, like [`Puper::bytes`].
    pub fn zeros(&mut self, n: u64) {
        match &mut self.inner {
            Inner::Sizing { size } => {
                *size = usize::try_from(n)
                    .ok()
                    .and_then(|n| size.checked_add(n))
                    .expect("PUP size overflows usize");
            }
            Inner::Packing { buf } => {
                let n = usize::try_from(n).expect("PUP run overflows usize");
                buf.resize(buf.len() + n, 0);
            }
            Inner::Digesting { hash } => *hash = hash.wrapping_mul(fnv_prime_pow(n)),
            Inner::Unpacking { data, pos } => {
                take(data, pos, n);
            }
        }
    }

    /// Unpacking only: consume the next `n` bytes of the stream and borrow
    /// them in place, without copying.
    ///
    /// # Panics
    /// Panics on underflow, like [`Puper::bytes`], and in any other mode.
    pub fn take_bytes(&mut self, n: u64) -> &'a [u8] {
        match &mut self.inner {
            Inner::Unpacking { data, pos } => take(data, pos, n),
            _ => panic!("Puper::take_bytes called on a non-unpacking puper"),
        }
    }

    /// Pup a single value — the idiomatic equivalent of Charm++'s `p | foo`.
    #[inline]
    pub fn p<T: Pup + ?Sized>(&mut self, v: &mut T) {
        v.pup(self);
    }

    /// Pup a length-prefixed run of raw bytes (fast path for `Vec<u8>`-like
    /// payloads; avoids element-at-a-time traversal).
    pub fn raw(&mut self, v: &mut Vec<u8>) {
        let mut len = v.len() as u64;
        self.p(&mut len);
        if let Inner::Unpacking { data, pos } = &mut self.inner {
            // Bounds-check before allocating: a garbage prefix must unwind
            // with the underflow panic, not abort in the allocator.
            v.clear();
            v.extend_from_slice(take(data, pos, len));
        } else {
            self.bytes(v.as_mut_slice());
        }
    }
}

/// Advance `pos` over the next `n` bytes of `data` and return them.
///
/// # Panics
/// Panics with the stream offset if fewer than `n` bytes remain.
fn take<'a>(data: &'a [u8], pos: &mut usize, n: u64) -> &'a [u8] {
    let start = *pos;
    assert!(
        n <= (data.len() - start) as u64,
        "PUP stream underflow: need {} bytes at offset {}, only {} available",
        n,
        start,
        data.len()
    );
    *pos = start + n as usize;
    &data[start..*pos]
}

/// Types that can be packed and unpacked by a [`Puper`].
///
/// Implementations must traverse exactly the same fields in the same order
/// in every mode; the helpers in this crate (and the
/// [`impl_pup_struct!`](crate::impl_pup_struct) macro) make that automatic.
pub trait Pup {
    /// Drive this object's state through the puper.
    fn pup(&mut self, p: &mut Puper<'_>);
}

/// Pup a fixed-size array in place (Charm++'s `PUParray`).
pub fn pup_array<T: Pup, const N: usize>(p: &mut Puper<'_>, arr: &mut [T; N]) {
    for v in arr.iter_mut() {
        v.pup(p);
    }
}

/// Compute the packed size of `v` without serializing it.
pub fn packed_size<T: Pup + ?Sized>(v: &mut T) -> usize {
    let mut p = Puper::sizer();
    v.pup(&mut p);
    p.size()
}

/// Serialize `v` to bytes (sizing pass first so the buffer is exact-fit).
pub fn to_bytes<T: Pup + ?Sized>(v: &mut T) -> Vec<u8> {
    let n = packed_size(v);
    let mut p = Puper::packer(n);
    v.pup(&mut p);
    p.into_bytes()
}

/// Deserialize a `T` from bytes produced by [`to_bytes`].
///
/// # Panics
/// Panics if the stream is truncated or structurally invalid for `T`.
pub fn from_bytes<T: Pup + Default>(bytes: &[u8]) -> T {
    let mut v = T::default();
    let mut p = Puper::unpacker(bytes);
    v.pup(&mut p);
    v
}

/// Like [`from_bytes`] but verifies the entire stream was consumed,
/// returning an error message otherwise. Used when restoring checkpoints.
pub fn from_bytes_exact<T: Pup + Default>(bytes: &[u8]) -> Result<T, String> {
    let mut v = T::default();
    let mut p = Puper::unpacker(bytes);
    v.pup(&mut p);
    if p.remaining() != 0 {
        return Err(format!(
            "PUP stream has {} trailing bytes after unpacking {}",
            p.remaining(),
            std::any::type_name::<T>()
        ));
    }
    Ok(v)
}

/// Round-trip a value through pack/unpack — a convenient migration
/// simulation used heavily in tests.
pub fn roundtrip<T: Pup + Default>(v: &mut T) -> T {
    let bytes = to_bytes(v);
    from_bytes(&bytes)
}

/// FNV-1a digest of `v`'s packed representation, computed without
/// serializing. Equal packed bytes imply equal digests (same traversal,
/// same fold), so `digest_of(a) == digest_of(b)` whenever
/// `to_bytes(a) == to_bytes(b)`.
pub fn digest_of<T: Pup + ?Sized>(v: &mut T) -> u64 {
    let mut p = Puper::digester();
    v.pup(&mut p);
    p.digest()
}

/// FNV-1a over a raw byte slice — the same fold [`digest_of`] uses, exposed
/// for hashing already-packed buffers (log integrity checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, VecDeque};

    #[derive(Default, Debug, PartialEq, Clone)]
    struct Nested {
        id: u64,
        name: String,
        weights: Vec<f64>,
        flags: Option<Vec<bool>>,
        table: BTreeMap<u32, String>,
    }

    impl Pup for Nested {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.id);
            p.p(&mut self.name);
            p.p(&mut self.weights);
            p.p(&mut self.flags);
            p.p(&mut self.table);
        }
    }

    #[test]
    fn sizer_matches_packer() {
        let mut n = Nested {
            id: 42,
            name: "chare".into(),
            weights: vec![1.5, -2.5, 3.25],
            flags: Some(vec![true, false]),
            table: [(1, "a".to_string()), (9, "b".to_string())].into(),
        };
        assert_eq!(packed_size(&mut n), to_bytes(&mut n).len());
    }

    #[test]
    fn roundtrip_nested() {
        let mut n = Nested {
            id: 7,
            name: "x".into(),
            weights: vec![0.0; 17],
            flags: None,
            table: BTreeMap::new(),
        };
        assert_eq!(roundtrip(&mut n), n);
    }

    #[test]
    fn primitives_roundtrip() {
        macro_rules! check {
            ($($v:expr => $t:ty),* $(,)?) => {$(
                let mut x: $t = $v;
                assert_eq!(roundtrip(&mut x), x, "type {}", stringify!($t));
            )*}
        }
        check!(
            -5i8 => i8, 250u8 => u8, -1234i16 => i16, 65000u16 => u16,
            -7i32 => i32, 4_000_000_000u32 => u32,
            i64::MIN => i64, u64::MAX => u64,
            -3isize => isize, 99usize => usize,
            1.25f32 => f32, -2.5e300f64 => f64,
            true => bool, false => bool, 'λ' => char,
            () => (),
        );
    }

    #[test]
    fn tuples_and_arrays() {
        let mut t = (1u8, -2i32, 3.5f64, "four".to_string());
        assert_eq!(roundtrip(&mut t), t);
        let mut a = [9u32; 6];
        assert_eq!(roundtrip(&mut a), a);
    }

    #[test]
    fn collections_roundtrip() {
        let mut v: Vec<String> = vec!["a".into(), "bb".into()];
        assert_eq!(roundtrip(&mut v), v);
        let mut d: VecDeque<i32> = (0..10).collect();
        assert_eq!(roundtrip(&mut d), d);
        let mut h: HashMap<String, u64> = [("k".to_string(), 1u64)].into();
        assert_eq!(roundtrip(&mut h), h);
        let mut b: Box<i64> = Box::new(-12);
        assert_eq!(roundtrip(&mut b), b);
    }

    #[test]
    fn option_variants() {
        let mut s: Option<u32> = Some(5);
        assert_eq!(roundtrip(&mut s), Some(5));
        let mut n: Option<u32> = None;
        assert_eq!(roundtrip(&mut n), None);
    }

    #[test]
    fn raw_bytes_fast_path() {
        let mut v: Vec<u8> = (0..=255).collect();
        let mut p = Puper::packer(0);
        p.raw(&mut v);
        let bytes = p.into_bytes();
        assert_eq!(bytes.len(), 8 + 256);
        let mut out = Vec::new();
        let mut u = Puper::unpacker(&bytes);
        u.raw(&mut out);
        assert_eq!(out, v);
    }

    #[test]
    fn from_bytes_exact_detects_trailing_garbage() {
        let mut x = 1u32;
        let mut bytes = to_bytes(&mut x);
        bytes.push(0xFF);
        assert!(from_bytes_exact::<u32>(&bytes).is_err());
        bytes.pop();
        assert_eq!(from_bytes_exact::<u32>(&bytes).unwrap(), 1u32);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn truncated_stream_panics() {
        let mut x = 0u64;
        let bytes = to_bytes(&mut x);
        let _: u64 = from_bytes(&bytes[..4]);
    }

    #[test]
    fn is_unpacking_gates_rebuild() {
        #[derive(Default)]
        struct Cached {
            data: Vec<i32>,
            sum: i64, // derived, rebuilt on unpack
        }
        impl Pup for Cached {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.data);
                if p.is_unpacking() {
                    self.sum = self.data.iter().map(|&x| x as i64).sum();
                }
            }
        }
        let mut c = Cached {
            data: vec![1, 2, 3],
            sum: 6,
        };
        let r: Cached = roundtrip(&mut c);
        assert_eq!(r.sum, 6);
    }

    #[test]
    fn digest_matches_packed_bytes() {
        let mut n = Nested {
            id: 42,
            name: "chare".into(),
            weights: vec![1.5, -2.5, 3.25],
            flags: Some(vec![true, false]),
            table: [(1, "a".to_string()), (9, "b".to_string())].into(),
        };
        assert_eq!(digest_of(&mut n), fnv1a(&to_bytes(&mut n)));
    }

    #[test]
    fn zeros_digest_composes_and_never_walks_the_run() {
        // zeros(a); zeros(b) ≡ zeros(a + b), including runs far too long to
        // fold byte by byte (2^40 bytes at ~1 ns each would be ~20 min).
        for (a, b) in [
            (0u64, 0u64),
            (1, 7),
            (4096, 1),
            (1 << 40, 12_345),
            (u64::MAX / 2, 3),
        ] {
            let mut split = Puper::digester();
            split.zeros(a);
            split.zeros(b);
            let mut whole = Puper::digester();
            whole.zeros(a + b);
            assert_eq!(split.digest(), whole.digest(), "a={a} b={b}");
        }
        let mut p = Puper::sizer();
        p.zeros(1 << 40);
        assert_eq!(p.size(), 1 << 40);
    }

    #[test]
    fn digest_distinguishes_values() {
        let mut a = 1u64;
        let mut b = 2u64;
        assert_ne!(digest_of(&mut a), digest_of(&mut b));
        assert_eq!(digest_of(&mut a), digest_of(&mut 1u64.clone()));
    }

    #[test]
    fn digester_reports_mode() {
        let p = Puper::digester();
        assert_eq!(p.mode(), PupMode::Digesting);
        assert!(!p.is_packing() && !p.is_unpacking() && !p.is_sizing());
        assert_eq!(p.size(), 0);
    }

    #[test]
    fn macro_generated_impl() {
        #[derive(Default, Debug, PartialEq)]
        struct M {
            a: i32,
            b: Vec<u16>,
        }
        crate::impl_pup_struct!(M { a, b });
        let mut m = M {
            a: -3,
            b: vec![7, 8],
        };
        assert_eq!(roundtrip(&mut m), m);
    }
}
