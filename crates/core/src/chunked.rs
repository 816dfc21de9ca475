//! Append-only tables. [`ChunkVec`] never reallocates: elements live in
//! chunks of `1 << BITS`, so growing appends a chunk and never copies. The
//! envelope slab, the recorder's per-message and per-exec tables, the
//! location cache and the comm matrix hold their rows this way (DESIGN
//! §4.4). [`HandleIndex`] finds a row by key.
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
/// `BITS` of the location cache's and comm matrix's rows: a few KiB a chunk.
pub(crate) const ROW_CHUNK_BITS: u32 = 8;

/// A `Vec`-like array of fixed-capacity chunks. Every chunk but the last is
/// full, and no chunk ever reallocates.
#[derive(Default)]
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

/// An open-addressed index over a table whose rows, handles `0..n`, are
/// never removed one by one: a power-of-two number of 4-byte slots, each
/// `handle + 1` (0 = empty). A probe compares against the row's own key, so
/// a slot repeats nothing the table holds, and it ends at the first empty
/// slot. Below 2¹⁵ slots the index is at most half full, because a small
/// one is probed on every insert and send; above, three-quarters, because a
/// large one is where the bytes are (DESIGN §4.3–4.4).
#[derive(Default)]
pub(crate) struct HandleIndex(Vec<u32>);

impl HandleIndex {
    /// The handle `is` accepts among the rows hashed like it, else the
    /// empty slot its row would take. The slot comes from the hash's high
    /// bits: Fx hashing ends in a multiply, so those are the well mixed.
    #[inline]
    pub(crate) fn probe(&self, hash: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.0.is_empty() {
            return Err(0);
        }
        let mask = self.0.len() - 1;
        let mut at = (hash >> (64 - mask.count_ones())) as usize;
        loop {
            match self.0[at] {
                0 => return Err(at),
                s if is(s - 1) => return Ok(s - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Index the newest row, handle `h`, at the empty slot `at` its probe
    /// returned. Past the fill limit, double the slots (at least 16) and
    /// re-place every row in handle order by the hash `hash_of` gives.
    pub(crate) fn insert(&mut self, at: usize, h: u32, hash_of: impl Fn(u32) -> u64) {
        let len = self.0.len();
        let limit = if len < 1 << 15 { len / 2 } else { len / 4 * 3 };
        if (h as usize) < limit {
            self.0[at] = h + 1;
            return;
        }
        self.0 = vec![0; (2 * self.0.len()).max(16)];
        for r in 0..=h {
            let Err(at) = self.probe(hash_of(r), |_| false) else {
                unreachable!("a probe that accepts nothing ends at an empty slot")
            };
            self.0[at] = r + 1;
        }
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
