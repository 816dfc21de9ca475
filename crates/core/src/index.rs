//! Chare-array indices.
//!
//! The paper (§II-D) lets an index "vary from being a one-dimensional to
//! six-dimensional structure or be a user defined name"; AMR3D (§IV-A)
//! additionally uses *bit-vector* indices encoding a position in an
//! oct-tree. [`Ix`] covers all of these.

use charm_pup::{Pup, Puper};

/// A chare-array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ix {
    /// One-dimensional index.
    I1(i64),
    /// Two-dimensional index.
    I2([i32; 2]),
    /// Three-dimensional index.
    I3([i32; 3]),
    /// Four-dimensional index.
    I4([i32; 4]),
    /// Six-dimensional index (LeanMD's pairwise `Computes`, §IV-B).
    I6([i32; 6]),
    /// Bit-vector index: a path in a tree, 3 bits per oct-tree level
    /// (AMR3D, §IV-A). `len` is the number of significant bits.
    Bits {
        /// The path bits, least-significant bits first.
        bits: u64,
        /// Number of significant bits (≤ 63).
        len: u8,
    },
    /// A user-defined name, pre-hashed to 64 bits.
    Named(u64),
}

impl Default for Ix {
    fn default() -> Self {
        Ix::I1(0)
    }
}

impl Ix {
    /// The root of a bit-vector (tree) index space.
    pub const ROOT: Ix = Ix::Bits { bits: 0, len: 0 };

    /// Construct a 1-D index.
    pub fn i1(a: i64) -> Ix {
        Ix::I1(a)
    }

    /// Construct a 2-D index.
    pub fn i2(a: i32, b: i32) -> Ix {
        Ix::I2([a, b])
    }

    /// Construct a 3-D index.
    pub fn i3(a: i32, b: i32, c: i32) -> Ix {
        Ix::I3([a, b, c])
    }

    /// Construct a 6-D index (e.g. a pair of 3-D cell coordinates).
    pub fn i6(a: [i32; 3], b: [i32; 3]) -> Ix {
        Ix::I6([a[0], a[1], a[2], b[0], b[1], b[2]])
    }

    /// Child `c` of a bit-vector index (appends `bits_per_level` bits).
    ///
    /// This is the "simple local operation on its own index" the paper uses
    /// in place of a replicated tree structure.
    pub fn tree_child(&self, c: u64, bits_per_level: u8) -> Ix {
        match self {
            Ix::Bits { bits, len } => {
                debug_assert!(c < (1 << bits_per_level));
                assert!(len + bits_per_level <= 63, "bitvector index overflow");
                Ix::Bits {
                    bits: bits | (c << len),
                    len: len + bits_per_level,
                }
            }
            other => panic!("tree_child on non-bitvector index {other:?}"),
        }
    }

    /// A stable 64-bit hash of the index (FNV-1a over the discriminant and
    /// payload), used for default home-PE assignment. Independent of the
    /// process's hash seeds so runs replay identically.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Ix::I1(a) => {
                h.byte(1);
                h.u64(*a as u64);
            }
            Ix::I2(v) => {
                h.byte(2);
                for x in v {
                    h.u64(*x as u64);
                }
            }
            Ix::I3(v) => {
                h.byte(3);
                for x in v {
                    h.u64(*x as u64);
                }
            }
            Ix::I4(v) => {
                h.byte(4);
                for x in v {
                    h.u64(*x as u64);
                }
            }
            Ix::I6(v) => {
                h.byte(6);
                for x in v {
                    h.u64(*x as u64);
                }
            }
            Ix::Bits { bits, len } => {
                h.byte(7);
                h.u64(*bits);
                h.byte(*len);
            }
            Ix::Named(n) => {
                h.byte(8);
                h.u64(*n);
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a hasher (stable across runs and platforms, unlike the
/// std `DefaultHasher` whose keys are unspecified).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl Pup for Ix {
    fn pup(&mut self, p: &mut Puper) {
        let mut tag: u8 = match self {
            Ix::I1(_) => 0,
            Ix::I2(_) => 1,
            Ix::I3(_) => 2,
            Ix::I4(_) => 3,
            Ix::I6(_) => 4,
            Ix::Bits { .. } => 5,
            Ix::Named(_) => 6,
        };
        p.p(&mut tag);
        if p.is_unpacking() {
            *self = match tag {
                0 => Ix::I1(0),
                1 => Ix::I2([0; 2]),
                2 => Ix::I3([0; 3]),
                3 => Ix::I4([0; 4]),
                4 => Ix::I6([0; 6]),
                5 => Ix::Bits { bits: 0, len: 0 },
                6 => Ix::Named(0),
                t => panic!("invalid Ix tag {t}"),
            };
        }
        match self {
            Ix::I1(a) => p.p(a),
            Ix::I2(v) => charm_pup::pup_array(p, v),
            Ix::I3(v) => charm_pup::pup_array(p, v),
            Ix::I4(v) => charm_pup::pup_array(p, v),
            Ix::I6(v) => charm_pup::pup_array(p, v),
            Ix::Bits { bits, len } => {
                p.p(bits);
                p.p(len);
            }
            Ix::Named(n) => p.p(n),
        }
    }
}

impl std::fmt::Display for Ix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ix::I1(a) => write!(f, "[{a}]"),
            Ix::I2(v) => write!(f, "[{},{}]", v[0], v[1]),
            Ix::I3(v) => write!(f, "[{},{},{}]", v[0], v[1], v[2]),
            Ix::I4(v) => write!(f, "[{},{},{},{}]", v[0], v[1], v[2], v[3]),
            Ix::I6(v) => write!(f, "[{},{},{};{},{},{}]", v[0], v[1], v[2], v[3], v[4], v[5]),
            Ix::Bits { bits, len } => write!(f, "[bits:{bits:b}/{len}]"),
            Ix::Named(n) => write!(f, "[name:{n:x}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_pup::roundtrip;

    #[test]
    fn pup_roundtrip_all_variants() {
        for mut ix in [
            Ix::i1(-7),
            Ix::i2(3, 4),
            Ix::i3(1, -2, 3),
            Ix::I4([9, 8, 7, 6]),
            Ix::i6([1, 2, 3], [4, 5, 6]),
            Ix::Bits {
                bits: 0b101_110,
                len: 6,
            },
            Ix::Named(0xC0FFEE),
        ] {
            assert_eq!(roundtrip(&mut ix), ix);
        }
    }

    #[test]
    fn tree_child_appends_its_slot() {
        let c5 = Ix::ROOT.tree_child(5, 3);
        assert_eq!(c5, Ix::Bits { bits: 5, len: 3 });
        let gc2 = c5.tree_child(2, 3);
        let want = Ix::Bits {
            bits: 5 | 2 << 3,
            len: 6,
        };
        assert_eq!(gc2, want);
    }

    #[test]
    fn tree_children_are_distinct() {
        let root = Ix::ROOT;
        let kids: Vec<Ix> = (0..8).map(|c| root.tree_child(c, 3)).collect();
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert_ne!(kids[i], kids[j]);
                }
            }
        }
    }

    #[test]
    fn stable_hash_is_stable_and_spread() {
        // Fixed expectations guard against accidental hash changes that
        // would silently re-map every home PE between versions.
        let h1 = Ix::i1(42).stable_hash();
        let h2 = Ix::i1(42).stable_hash();
        assert_eq!(h1, h2);
        // Different variants with the same numeric payload hash apart.
        assert_ne!(Ix::i1(1).stable_hash(), Ix::Named(1).stable_hash());
        // Reasonable spread over a bucket count.
        let mut buckets = [0u32; 16];
        for i in 0..1600 {
            buckets[(Ix::i1(i).stable_hash() % 16) as usize] += 1;
        }
        for b in buckets {
            assert!(b > 40, "home hashing badly skewed: {buckets:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ix::i1(3).to_string(), "[3]");
        assert_eq!(Ix::i3(1, 2, 3).to_string(), "[1,2,3]");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn deep_bitvector_overflow_guard() {
        let mut ix = Ix::ROOT;
        for _ in 0..22 {
            ix = ix.tree_child(0, 3);
        }
    }
}
