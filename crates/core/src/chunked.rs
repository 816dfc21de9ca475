//! An append-only array that never reallocates: elements live in
//! fixed-capacity chunks of `1 << BITS`, so growing appends a chunk and
//! never copies what is already stored. The envelope slab (64-element
//! chunks) and the replay recorder's per-message and per-exec tables hold
//! their records this way (DESIGN §4.4).
//!
//! A doubling `Vec` copies itself on every growth once glibc's dynamic mmap
//! threshold has risen past its size — which a process that has freed one
//! large block is already in — and the freed halves stay resident. A
//! `ChunkVec` holds what it stores plus less than one chunk, in the first
//! run of a process and in every later one.

use std::ops::{Index, IndexMut};

/// `BITS` of a recorder table: 4 096 entries a chunk (DESIGN §4.4,
/// "Recording memory").
pub(crate) const LOG_CHUNK_BITS: u32 = 12;

/// A `Vec`-like array of fixed-capacity chunks. Every chunk but the last is
/// full, and no chunk ever reallocates.
pub(crate) struct ChunkVec<T, const BITS: u32 = LOG_CHUNK_BITS> {
    chunks: Vec<Vec<T>>,
}

impl<T, const BITS: u32> ChunkVec<T, BITS> {
    /// Elements per chunk.
    pub(crate) const CHUNK: usize = 1 << BITS;

    /// An empty array; allocates nothing until the first push.
    pub(crate) const fn new() -> Self {
        ChunkVec { chunks: Vec::new() }
    }

    /// Chunk and offset of element `i`.
    #[inline]
    fn split(i: usize) -> (usize, usize) {
        (i >> BITS, i & ((1 << BITS) - 1))
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| ((self.chunks.len() - 1) << BITS) + c.len())
    }

    /// Append `v`, starting a new chunk when the last one is full.
    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < Self::CHUNK => c.push(v),
            _ => {
                let mut c = Vec::with_capacity(Self::CHUNK);
                c.push(v);
                self.chunks.push(c);
            }
        }
    }
}

impl<T, const BITS: u32> Index<usize> for ChunkVec<T, BITS> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        let (c, o) = Self::split(i);
        &self.chunks[c][o]
    }
}

impl<T, const BITS: u32> IndexMut<usize> for ChunkVec<T, BITS> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let (c, o) = Self::split(i);
        &mut self.chunks[c][o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four-element chunks, so every edge case is a few pushes away.
    type Small = ChunkVec<u32, 2>;
    const C: usize = Small::CHUNK;

    fn filled(n: usize) -> (Small, Vec<u32>) {
        let model: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut v = Small::new();
        for &x in &model {
            v.push(x);
        }
        (v, model)
    }

    fn agrees(v: &Small, model: &[u32]) {
        assert_eq!(v.len(), model.len());
        for (i, x) in model.iter().enumerate() {
            assert_eq!(v[i], *x);
        }
    }

    #[test]
    fn edge_lengths_match_a_vec() {
        for n in [0, 1, C - 1, C, C + 1, 2 * C, 3 * C + 2] {
            let (v, model) = filled(n);
            agrees(&v, &model);
            assert_eq!(
                v.chunks.len(),
                n.div_ceil(C),
                "no empty chunk at length {n}"
            );
            assert!(
                v.chunks.iter().all(|c| c.capacity() == C),
                "chunks never reallocate"
            );
        }
    }

    #[test]
    fn index_mut_writes_in_place() {
        let (mut v, mut model) = filled(2 * C + 1);
        v[C] ^= 1;
        model[C] ^= 1;
        agrees(&v, &model);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        // Push, read and index at random lengths, against a `Vec` of the
        // same values.
        #[test]
        fn random_lengths_match_a_vec(xs in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..40)) {
            let mut v = Small::new();
            for (i, &x) in xs.iter().enumerate() {
                v.push(x);
                proptest::prop_assert_eq!(v.len(), i + 1);
                proptest::prop_assert_eq!(v[i], x);
            }
            agrees(&v, &xs);
        }
    }
}
