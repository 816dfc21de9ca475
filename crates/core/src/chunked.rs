//! An append-only array that never reallocates: elements live in
//! fixed-capacity chunks of `1 << BITS`, so growing appends a chunk and
//! never copies what is already stored. The envelope slab (64-element
//! chunks) and the replay log hold their records this way (DESIGN §4.4).
//!
//! A doubling `Vec` copies itself on every growth once glibc's dynamic mmap
//! threshold has risen past its size — which a process that has freed one
//! large block is already in — and the freed halves stay resident. A
//! `ChunkVec` holds what it stores plus less than one chunk, in the first
//! run of a process and in every later one.

use std::ops::{Index, IndexMut, Range};

/// `BITS` of a replay-log array: 4 096 records a chunk (DESIGN §4.4,
/// "Recording memory").
pub(crate) const LOG_CHUNK_BITS: u32 = 12;

/// A `Vec`-like array of fixed-capacity chunks. Every chunk but the last is
/// full, and no chunk ever reallocates.
pub struct ChunkVec<T, const BITS: u32 = LOG_CHUNK_BITS> {
    chunks: Vec<Vec<T>>,
}

impl<T, const BITS: u32> ChunkVec<T, BITS> {
    /// Elements per chunk.
    pub const CHUNK: usize = 1 << BITS;

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
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| ((self.chunks.len() - 1) << BITS) + c.len())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Append `v`, starting a new chunk when the last one is full.
    #[inline]
    pub fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < Self::CHUNK => c.push(v),
            _ => {
                let mut c = Vec::with_capacity(Self::CHUNK);
                c.push(v);
                self.chunks.push(c);
            }
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (c, o) = Self::split(i);
        self.chunks.get(c)?.get(o)
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.chunks.last()?.last()
    }

    /// Every element, in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.range(0..self.len())
    }

    /// The elements of `r`, in order; the range may straddle chunks.
    pub(crate) fn range(&self, r: Range<usize>) -> Iter<'_, T> {
        assert!(
            r.start <= r.end && r.end <= self.len(),
            "range {r:?} out of bounds for length {}",
            self.len()
        );
        let (c, o) = Self::split(r.start);
        let cur = self.chunks.get(c).map_or(&[][..], |ch| &ch[o..]);
        let rest = self.chunks.get(c + 1..).unwrap_or(&[]);
        Iter {
            rest: rest.iter(),
            cur: cur.iter(),
            left: r.end - r.start,
        }
    }

    /// The index of the first element for which `pred` is false, when
    /// `pred` holds for a prefix of the array (as `slice::partition_point`).
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let c = self
            .chunks
            .partition_point(|ch| ch.last().is_some_and(&mut pred));
        match self.chunks.get(c) {
            Some(ch) => (c << BITS) + ch.partition_point(pred),
            None => self.len(),
        }
    }
}

impl<T, const BITS: u32> Default for ChunkVec<T, BITS> {
    fn default() -> Self {
        Self::new()
    }
}

/// A clone keeps the last chunk's full capacity, so it too grows without
/// copying.
impl<T: Clone, const BITS: u32> Clone for ChunkVec<T, BITS> {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                let mut copy = Vec::with_capacity(Self::CHUNK);
                copy.extend_from_slice(c);
                copy
            })
            .collect();
        ChunkVec { chunks }
    }
}

/// Equal lengths mean equal chunk boundaries, so chunks compare pairwise.
impl<T: PartialEq, const BITS: u32> PartialEq for ChunkVec<T, BITS> {
    fn eq(&self, other: &Self) -> bool {
        self.chunks == other.chunks
    }
}

impl<T: std::fmt::Debug, const BITS: u32> std::fmt::Debug for ChunkVec<T, BITS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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

impl<T, const BITS: u32> Extend<T> for ChunkVec<T, BITS> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T, const BITS: u32> FromIterator<T> for ChunkVec<T, BITS> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = ChunkVec::new();
        v.extend(iter);
        v
    }
}

impl<'a, T, const BITS: u32> IntoIterator for &'a ChunkVec<T, BITS> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Consumes the array front to back, freeing each chunk once it is read.
impl<T, const BITS: u32> IntoIterator for ChunkVec<T, BITS> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter {
            rest: self.chunks.into_iter(),
            cur: Vec::new().into_iter(),
        }
    }
}

/// Borrowing iterator of [`ChunkVec::iter`] and [`ChunkVec::range`].
pub struct Iter<'a, T> {
    rest: std::slice::Iter<'a, Vec<T>>,
    cur: std::slice::Iter<'a, T>,
    left: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        if self.left == 0 {
            return None;
        }
        loop {
            if let Some(x) = self.cur.next() {
                self.left -= 1;
                return Some(x);
            }
            self.cur = self.rest.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

/// Owning iterator of a [`ChunkVec`].
pub struct IntoIter<T> {
    rest: std::vec::IntoIter<Vec<T>>,
    cur: std::vec::IntoIter<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        loop {
            if let Some(x) = self.cur.next() {
                return Some(x);
            }
            self.cur = self.rest.next()?.into_iter();
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
        (model.iter().copied().collect(), model)
    }

    fn agrees(v: &Small, model: &[u32]) {
        assert_eq!(v.len(), model.len());
        assert_eq!(v.is_empty(), model.is_empty());
        assert_eq!(v.last(), model.last());
        assert_eq!(v.iter().len(), model.len());
        assert!(v.iter().eq(model.iter()));
        assert!(v.clone().into_iter().eq(model.iter().copied()));
        for (i, x) in model.iter().enumerate() {
            assert_eq!((v[i], v.get(i)), (*x, Some(x)));
        }
        assert_eq!(v.get(model.len()), None);
        assert_eq!(format!("{v:?}"), format!("{model:?}"));
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
    fn ranges_straddle_chunks() {
        let (v, model) = filled(3 * C + 1);
        for a in 0..=model.len() {
            for b in a..=model.len() {
                let r = v.range(a..b);
                assert_eq!(r.len(), b - a);
                assert!(r.eq(model[a..b].iter()), "range {a}..{b}");
            }
        }
    }

    #[test]
    fn partition_point_matches_a_slice() {
        let v: Small = (0..3 * C as u32 + 1).map(|i| i / 2).collect();
        let model: Vec<u32> = v.iter().copied().collect();
        for k in 0..=model.len() as u32 {
            assert_eq!(
                v.partition_point(|&x| x < k),
                model.partition_point(|&x| x < k)
            );
        }
    }

    #[test]
    fn clone_keeps_full_capacity_and_equality_is_elementwise() {
        let (mut v, mut model) = filled(C + 1);
        let mut w = v.clone();
        assert!(w.chunks.iter().all(|c| c.capacity() == C));
        assert_eq!(v, w);
        w[C] ^= 1;
        assert_ne!(v, w);
        w[C] ^= 1;
        assert_eq!(v, w);
        w.push(7);
        assert_ne!(v, w, "lengths differ");
        v.push(7);
        model.push(7);
        agrees(&v, &model);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        // Push, read, index, iterate, compare and clone at random lengths,
        // against a `Vec` of the same values.
        #[test]
        fn random_lengths_match_a_vec(xs in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..40)) {
            let mut v = Small::new();
            for (i, &x) in xs.iter().enumerate() {
                v.push(x);
                proptest::prop_assert_eq!(v.len(), i + 1);
                proptest::prop_assert_eq!(v.last(), Some(&x));
            }
            agrees(&v, &xs);
            let c = v.clone();
            proptest::prop_assert!(c == v);
            agrees(&c, &xs);
        }
    }
}
