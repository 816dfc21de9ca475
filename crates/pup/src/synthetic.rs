//! [`SyntheticBlob`]: modeled application data as a length.

use crate::{Pup, Puper};

/// A synthetic payload of `len` bytes that serializes to its full size
/// without keeping the bytes in memory — gives chares (cells full of atoms,
/// mesh blocks, hydro domains) and messages (halo faces, coordinate
/// exchanges) *realistic checkpoint, migration and network volume* at
/// simulation scale.
///
/// It packs as a `u64` length followed by [`Puper::zeros`]`(len)`: exactly
/// what [`Puper::raw`] writes for `vec![0u8; len]`, in every mode.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SyntheticBlob {
    len: u64,
}

impl SyntheticBlob {
    /// A blob standing in for `len` bytes of application data.
    pub fn new(len: u64) -> Self {
        SyntheticBlob { len }
    }

    /// Size the blob represents.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-sized blob.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize (e.g. when atoms move between cells).
    pub fn set_len(&mut self, len: u64) {
        self.len = len;
    }
}

impl Pup for SyntheticBlob {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.len);
        // Modeled bytes: counted, skipped or folded in closed form; only a
        // packing pass ever materialises them.
        p.zeros(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{digest_of, fnv1a, packed_size, roundtrip, to_bytes};

    #[test]
    fn blob_serializes_to_full_size() {
        let mut b = SyntheticBlob::new(10_000);
        assert_eq!(packed_size(&mut b), 8 + 10_000);
        assert_eq!(to_bytes(&mut b).len(), 8 + 10_000);
        assert_eq!(roundtrip(&mut b), b);
    }

    #[test]
    fn blob_digest_is_the_fnv_of_its_packed_bytes() {
        for len in [0u64, 1, 4095, 4096, 4097, 100_000] {
            let mut b = SyntheticBlob::new(len);
            assert_eq!(digest_of(&mut b), fnv1a(&to_bytes(&mut b)), "len {len}");
        }
    }

    #[test]
    fn blob_packs_like_raw_zeros() {
        for len in [0usize, 1, 100_000] {
            let mut zeros = vec![0u8; len];
            let mut p = Puper::packer(0);
            p.raw(&mut zeros);
            let blob = to_bytes(&mut SyntheticBlob::new(len as u64));
            assert_eq!(blob, p.into_bytes(), "len {len}");
        }
    }

    #[test]
    fn terabyte_blob_sizes_and_digests_without_walking_it() {
        // An O(len) implementation would take ~20 minutes here.
        let mut b = SyntheticBlob::new(1 << 40);
        assert_eq!(packed_size(&mut b), 8 + (1 << 40));
        let d = digest_of(&mut b);
        assert_ne!(d, digest_of(&mut SyntheticBlob::new((1 << 40) + 1)));
    }

    #[test]
    fn empty_blob() {
        let mut b = SyntheticBlob::new(0);
        assert_eq!(packed_size(&mut b), 8);
        assert!(b.is_empty());
    }
}
