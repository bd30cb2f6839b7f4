//! A fixed-capacity bit set over node (or processor) indices.
//!
//! The flat 16-processor machine of the paper fit its sharer masks in a
//! `u16`; the hierarchical configurations reach 256 processors, so the
//! directory and the baseline engines track copy holders in this 256-bit
//! set instead. Iteration is in ascending index order, which keeps every
//! "first sharer" tie-break (ownership migration, victim scans) identical
//! to the old `u16` bit-scan behaviour.

use std::fmt;

/// Bit set holding indices `0..256`.
///
/// Lexicographic `Ord` over the words equals numeric order of the
/// underlying 256-bit integer only per-word, but any total order is enough
/// for the deterministic sorting the verifier's snapshots need.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeSet([u64; 4]);

impl NodeSet {
    /// Largest index count the set can hold.
    pub const CAPACITY: usize = 256;

    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        NodeSet([0; 4])
    }

    /// The set of indices `0..64` whose bits are set in `word` (bit `i`
    /// stands for index `i`).
    #[inline]
    pub const fn from_word(word: u64) -> Self {
        NodeSet([word, 0, 0, 0])
    }

    #[inline]
    fn split(i: u16) -> (usize, u64) {
        assert!((i as usize) < Self::CAPACITY, "index {i} out of range");
        ((i / 64) as usize, 1u64 << (i % 64))
    }

    #[inline]
    pub fn insert(&mut self, i: u16) {
        let (w, b) = Self::split(i);
        self.0[w] |= b;
    }

    #[inline]
    pub fn remove(&mut self, i: u16) {
        let (w, b) = Self::split(i);
        self.0[w] &= !b;
    }

    #[inline]
    pub fn contains(&self, i: u16) -> bool {
        let (w, b) = Self::split(i);
        self.0[w] & b != 0
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    pub fn clear(&mut self) {
        self.0 = [0; 4];
    }

    /// Members in ascending order.
    #[inline]
    pub fn iter(&self) -> NodeSetIter {
        NodeSetIter {
            words: self.0,
            word: 0,
        }
    }
}

/// Ascending-order member iterator.
pub struct NodeSetIter {
    words: [u64; 4],
    word: usize,
}

impl Iterator for NodeSetIter {
    type Item = u16;

    #[inline]
    fn next(&mut self) -> Option<u16> {
        while self.word < 4 {
            let w = self.words[self.word];
            if w != 0 {
                let bit = w.trailing_zeros();
                self.words[self.word] &= w - 1; // clear lowest set bit
                return Some((self.word as u32 * 64 + bit) as u16);
            }
            self.word += 1;
        }
        None
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u16> for NodeSet {
    fn from_iter<T: IntoIterator<Item = u16>>(iter: T) -> Self {
        let mut s = Self::empty();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::empty();
        assert!(s.is_empty());
        for i in [0u16, 15, 63, 64, 100, 255] {
            s.insert(i);
            assert!(s.contains(i));
        }
        assert_eq!(s.len(), 6);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 5);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_is_ascending_across_words() {
        let members = [250u16, 3, 64, 7, 128, 0];
        let s: NodeSet = members.into_iter().collect();
        let got: Vec<u16> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 7, 64, 128, 250]);
    }

    #[test]
    fn first_member_matches_u16_bit_scan() {
        // Ascending iteration must pick the same "first sharer" the old
        // u16 trailing-zeros scan picked.
        for mask in [0b1010u16, 0b1000_0000_0000_0001, 0b100] {
            let s: NodeSet = (0..16u16).filter(|i| mask & (1 << i) != 0).collect();
            assert_eq!(s.iter().next(), Some(mask.trailing_zeros() as u16));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut s = NodeSet::empty();
        s.insert(256);
    }

    #[test]
    fn debug_lists_members() {
        let s: NodeSet = [1u16, 65].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 65}");
    }
}
