//! Generic set-associative cache array with true-LRU within each set.
//!
//! The array is one flat slab of packed `(line, state)` slots: set `i`
//! owns the stride `[i * assoc, (i + 1) * assoc)`, with its valid entries
//! compacted at the front **in recency order** (slot 0 of the stride is
//! most-recently-used, the last valid slot is the LRU victim) and an
//! empty-slot sentinel terminating the run. Recency *is* the storage
//! order: a hit rotates its slot to the front of the stride, an insert
//! shifts the stride down and writes the front, and the eviction victim
//! is simply the stride's last slot — exactly the order a unique
//! monotone-tick true-LRU would produce, with no tick, per-slot LRU word,
//! or per-set length to maintain.
//!
//! The layout is the point: a 4-way set of 8-byte slots is half a 64-byte
//! cache line, so a probe — hit, miss, or evicting fill — touches a
//! single line of one array. Attraction memories are sized to a fraction
//! of the *working set* and do not fit in the host's caches; splitting
//! lines, states, and LRU ticks across parallel arrays (a previous
//! incarnation of this type) costs several DRAM misses per probe where
//! this layout pays one. Line keys are stored as `line + 1` in a `u32`
//! (`0` = empty): the simulated address space is allocated consecutively
//! from zero (paper §3), so real line numbers are far below `u32` range,
//! and the narrower key doubles how much of an attraction memory fits in
//! the host's caches and TLB reach. A rotation moves at most `assoc`
//! slots within one or two lines through a register-carried loop; a
//! `memmove` call would cost more than the copy.
//!
//! Every probe takes the line's set index from the caller. Set counts
//! are not powers of two (the paper's "odd cache sizes"), and every cache
//! of a level has the same geometry, so [`crate::Indexer`] reduces each
//! accessed line once per access for all of them. The array only checks
//! the index (in debug builds) and computes it itself, with a plain
//! modulo, in [`SetAssoc::set_of`] for the cold line-keyed callers.

use coma_types::{LineNum, MAX_LINE};

/// Stored key for an empty slot; occupied slots hold `line + 1`, so
/// lines run up to [`MAX_LINE`]. Simulated working sets top out orders
/// of magnitude below it — [`SetAssoc::insert`] enforces it.
const EMPTY: u32 = 0;

/// One packed cache slot: the resident line's key and its protocol state.
#[derive(Clone, Copy, Debug)]
struct Slot<S> {
    key: u32,
    state: S,
}

impl<S> Slot<S> {
    /// The resident line; only meaningful when `key != EMPTY`.
    #[inline]
    fn line(&self) -> LineNum {
        LineNum((self.key - 1) as u64)
    }
}

/// Key a probe compares against. Lines beyond [`MAX_LINE`] cannot be
/// resident (insert asserts), so their probes must simply miss — map
/// them to the unmatchable `u32::MAX` instead of letting the narrowing
/// conversion alias a small resident line.
#[inline]
fn probe_key(line: LineNum) -> u32 {
    if line.0 <= MAX_LINE {
        line.0 as u32 + 1
    } else {
        u32::MAX
    }
}

/// A set-associative array of `n_sets × assoc` line slots.
#[derive(Clone, Debug)]
pub struct SetAssoc<S> {
    n_sets: u64,
    assoc: usize,
    /// `n_sets * assoc` slots; each stride holds its valid entries at the
    /// front, most-recent first, then empty padding.
    slots: Vec<Slot<S>>,
    len: usize,
}

impl<S: Copy + Default> SetAssoc<S> {
    /// Create an empty array. `n_sets` and `assoc` must be non-zero.
    pub fn new(n_sets: u64, assoc: usize) -> Self {
        assert!(n_sets > 0 && assoc > 0);
        assert!(assoc <= u16::MAX as usize);
        let slots = (n_sets as usize)
            .checked_mul(assoc)
            .expect("cache slot count overflows usize");
        SetAssoc {
            n_sets,
            assoc,
            slots: vec![Slot::empty(); slots],
            len: 0,
        }
    }

    #[inline]
    pub fn n_sets(&self) -> u64 {
        self.n_sets
    }

    #[inline]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Total valid entries across all sets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set index for a line (the cold path: hot callers pass the index
    /// their [`crate::Indexer`] computed).
    #[inline]
    pub fn set_of(&self, line: LineNum) -> usize {
        (line.0 % self.n_sets) as usize
    }

    /// Stride base of `set`, which must be `line`'s own set.
    #[inline]
    fn base(&self, line: LineNum, set: usize) -> usize {
        debug_assert_eq!(set, self.set_of(line), "set {set} is not {line:?}'s own");
        set * self.assoc
    }

    /// Slot index of `line` if resident in its set `set`.
    #[inline]
    fn find(&self, line: LineNum, set: usize) -> Option<usize> {
        let key = probe_key(line);
        let base = self.base(line, set);
        for i in base..base + self.assoc {
            let k = self.slots[i].key;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
        }
        None
    }

    /// Put `slot` at the front of the stride starting at `base`, shifting
    /// the entries in `[base, end)` one slot down, and return the slot
    /// pushed out at `end - 1` (an empty one if the run ended earlier).
    #[inline]
    fn push_front(&mut self, base: usize, end: usize, mut carry: Slot<S>) -> Slot<S> {
        for slot in &mut self.slots[base..end] {
            std::mem::swap(slot, &mut carry);
            if carry.key == EMPTY {
                break;
            }
        }
        carry
    }

    /// State of a line without touching LRU state.
    #[inline]
    pub fn peek(&self, line: LineNum, set: usize) -> Option<S> {
        self.find(line, set).map(|i| self.slots[i].state)
    }

    /// State of a line, marking it most-recently-used on hit.
    #[inline]
    pub fn lookup(&mut self, line: LineNum, set: usize) -> Option<S> {
        let i = self.find(line, set)?;
        let hit = self.slots[i];
        self.push_front(set * self.assoc, i + 1, hit);
        Some(hit.state)
    }

    /// The state of a resident line, for in-place update. Does not touch
    /// LRU order.
    #[inline]
    pub fn state_mut(&mut self, line: LineNum, set: usize) -> Option<&mut S> {
        let i = self.find(line, set)?;
        Some(&mut self.slots[i].state)
    }

    /// Remove a line; returns its state if it was present. The stride is
    /// shifted up (not swap-removed) so the survivors keep their recency
    /// order.
    pub fn remove(&mut self, line: LineNum, set: usize) -> Option<S> {
        let i = self.find(line, set)?;
        let end = (set + 1) * self.assoc;
        let mut carry = Slot::empty();
        for slot in self.slots[i..end].iter_mut().rev() {
            std::mem::swap(slot, &mut carry);
        }
        self.len -= 1;
        Some(carry.state)
    }

    /// Insert a line known to be absent. Panics (debug) if the set is full
    /// or the line already resident — callers must evict first.
    pub fn insert(&mut self, line: LineNum, set: usize, state: S) {
        debug_assert!(self.find(line, set).is_none(), "duplicate insert");
        let base = self.base(line, set);
        let out = self.push_front(base, base + self.assoc, Slot::new(line, state));
        debug_assert_eq!(out.key, EMPTY, "insert into full set");
        self.len += 1;
    }

    /// Fused update-or-insert-with-eviction (the SLC fill path), costing a
    /// single pass over the set where the naive peek / free-slot check /
    /// LRU-victim search / remove / insert sequence costs five.
    ///
    /// If `line` is resident its state is updated in place (no LRU touch,
    /// matching the unfused sequence). Otherwise `line` is inserted
    /// most-recently-used, evicting the set's true-LRU entry — the last
    /// valid slot — if the set is full; the evicted `(line, state)` is
    /// returned.
    pub fn insert_evicting(&mut self, line: LineNum, set: usize, state: S) -> Option<(LineNum, S)> {
        let fresh = Slot::new(line, state);
        let base = self.base(line, set);
        let end = base + self.assoc;
        for i in base..end {
            if self.slots[i].key == fresh.key {
                self.slots[i].state = state;
                return None;
            }
            if self.slots[i].key == EMPTY {
                self.push_front(base, i + 1, fresh);
                self.len += 1;
                return None;
            }
        }
        let out = self.push_front(base, end, fresh);
        Some((out.line(), out.state))
    }

    /// Visit every valid entry of `line`'s set `set`, in recency order:
    /// most-recently-used first, the LRU victim last. One contiguous
    /// pass — callers that need several facts about a set (occupancy,
    /// LRU victim under a predicate, residency) fold them out of a
    /// single scan, taking the *last* matching visit where they want the
    /// least-recent entry.
    #[inline]
    pub fn scan_set(&self, line: LineNum, set: usize, mut visit: impl FnMut(LineNum, S)) {
        let base = self.base(line, set);
        for slot in &self.slots[base..base + self.assoc] {
            if slot.key == EMPTY {
                break;
            }
            visit(slot.line(), slot.state);
        }
    }

    /// Iterate over all valid entries (diagnostics / invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (LineNum, S)> + '_ {
        self.slots.chunks_exact(self.assoc).flat_map(|stride| {
            stride
                .iter()
                .take_while(|slot| slot.key != EMPTY)
                .map(|slot| (slot.line(), slot.state))
        })
    }
}

impl<S: Default> Slot<S> {
    #[inline]
    fn empty() -> Self {
        Slot {
            key: EMPTY,
            state: S::default(),
        }
    }

    /// An occupied slot; `line` must fit the `u32` key.
    #[inline]
    fn new(line: LineNum, state: S) -> Self {
        assert!(line.0 <= MAX_LINE, "line number exceeds u32 key range");
        Slot {
            key: line.0 as u32 + 1,
            state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(n_sets: u64, assoc: usize) -> SetAssoc<u8> {
        SetAssoc::new(n_sets, assoc)
    }

    // Line-keyed shorthands: each computes the set and calls the
    // set-taking operation.
    fn ins(c: &mut SetAssoc<u8>, l: u64, s: u8) {
        c.insert(LineNum(l), c.set_of(LineNum(l)), s)
    }
    fn look(c: &mut SetAssoc<u8>, l: u64) -> Option<u8> {
        c.lookup(LineNum(l), c.set_of(LineNum(l)))
    }
    fn peek(c: &SetAssoc<u8>, l: u64) -> Option<u8> {
        c.peek(LineNum(l), c.set_of(LineNum(l)))
    }
    fn rm(c: &mut SetAssoc<u8>, l: u64) -> Option<u8> {
        c.remove(LineNum(l), c.set_of(LineNum(l)))
    }
    fn fill(c: &mut SetAssoc<u8>, l: u64, s: u8) -> Option<(LineNum, u8)> {
        c.insert_evicting(LineNum(l), c.set_of(LineNum(l)), s)
    }
    /// `l`'s set, most-recent first.
    fn set(c: &SetAssoc<u8>, l: u64) -> Vec<(u64, u8)> {
        let mut seen = Vec::new();
        c.scan_set(LineNum(l), c.set_of(LineNum(l)), |x, s| seen.push((x.0, s)));
        seen
    }
    /// The LRU entry of `l`'s set (the scan's last visit).
    fn lru(c: &SetAssoc<u8>, l: u64) -> Option<u64> {
        set(c, l).last().map(|&(x, _)| x)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = arr(4, 2);
        ins(&mut c, 5, 1);
        assert_eq!(look(&mut c, 5), Some(1));
        assert!(look(&mut c, 9).is_none()); // same set (9 % 4 == 1), absent
    }

    #[test]
    fn free_slot_tracking() {
        let mut c = arr(4, 2);
        ins(&mut c, 0, 0);
        assert_eq!(set(&c, 0).len(), 1);
        ins(&mut c, 4, 0); // same set: now full
        assert_eq!(set(&c, 0).len(), 2);
        assert!(set(&c, 1).is_empty()); // different set untouched
    }

    #[test]
    fn lru_order_follows_access() {
        let mut c = arr(1, 3);
        ins(&mut c, 0, 0);
        ins(&mut c, 1, 0);
        ins(&mut c, 2, 0);
        // Touch 0, making 1 the LRU.
        look(&mut c, 0);
        assert_eq!(lru(&c, 0), Some(1));
    }

    #[test]
    fn lru_matching_respects_predicate() {
        // The last matching visit of a scan is the LRU match (how the AM
        // picks its least-recent Shared victim).
        let mut c = arr(1, 3);
        ins(&mut c, 0, 10);
        ins(&mut c, 1, 20);
        ins(&mut c, 2, 10);
        let lru_of = |want: u8| set(&c, 0).into_iter().rfind(|&(_, s)| s == want);
        assert_eq!(lru_of(10), Some((0, 10)));
        assert_eq!(lru_of(20), Some((1, 20)));
        assert_eq!(lru_of(99), None);
    }

    #[test]
    fn remove_returns_state_and_compacts() {
        let mut c = arr(2, 2);
        ins(&mut c, 3, 7);
        assert_eq!(rm(&mut c, 3), Some(7));
        assert_eq!(rm(&mut c, 3), None);
        assert_eq!(c.len(), 0);
        // Removing the front of a full stride keeps the survivor findable.
        ins(&mut c, 1, 1);
        ins(&mut c, 3, 3);
        assert_eq!(rm(&mut c, 1), Some(1));
        assert_eq!(peek(&c, 3), Some(3));
        assert_eq!(set(&c, 3), vec![(3, 3)]);
    }

    #[test]
    fn remove_preserves_recency_of_survivors() {
        let mut c = arr(1, 3);
        ins(&mut c, 0, 0);
        ins(&mut c, 1, 1);
        ins(&mut c, 2, 2);
        // Recency: 2 > 1 > 0. Removing 1 must keep 0 as the LRU.
        rm(&mut c, 1);
        assert_eq!(set(&c, 0), vec![(2, 2), (0, 0)]);
    }

    #[test]
    fn set_state_in_place() {
        let mut c = arr(2, 2);
        ins(&mut c, 3, 7);
        ins(&mut c, 1, 1);
        *c.state_mut(LineNum(3), 1).unwrap() = 9;
        assert_eq!(set(&c, 3), vec![(1, 1), (3, 9)]); // recency untouched
        assert!(c.state_mut(LineNum(5), 1).is_none());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = arr(1, 2);
        ins(&mut c, 0, 0);
        ins(&mut c, 1, 0);
        peek(&c, 0);
        // 0 was inserted first and peek didn't refresh it: still LRU.
        assert_eq!(lru(&c, 0), Some(0));
    }

    #[test]
    fn insert_evicting_updates_resident_in_place() {
        let mut c = arr(1, 1);
        ins(&mut c, 0, 1);
        assert_eq!(fill(&mut c, 0, 2), None);
        assert_eq!(peek(&c, 0), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_evicting_evicts_true_lru() {
        let mut c = arr(1, 2);
        ins(&mut c, 0, 10);
        ins(&mut c, 1, 11);
        look(&mut c, 0); // 1 becomes LRU
        assert_eq!(fill(&mut c, 2, 12), Some((LineNum(1), 11)));
        assert_eq!(peek(&c, 2), Some(12));
        assert_eq!(peek(&c, 0), Some(10));
        assert_eq!(c.len(), 2);
        // The fresh insert is MRU: next eviction takes line 0.
        assert_eq!(fill(&mut c, 3, 13), Some((LineNum(0), 10)));
    }

    #[test]
    fn insert_evicting_uses_free_slot_first() {
        let mut c = arr(1, 2);
        ins(&mut c, 0, 1);
        assert_eq!(fill(&mut c, 1, 2), None);
        assert_eq!(c.len(), 2);
        assert_eq!(set(&c, 0), vec![(1, 2), (0, 1)]);
    }

    #[test]
    fn scan_set_sees_only_own_set() {
        let mut c = arr(2, 2);
        ins(&mut c, 0, 1);
        ins(&mut c, 1, 2);
        ins(&mut c, 2, 3);
        let mut seen = set(&c, 0);
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn scan_set_visits_mru_first() {
        let mut c = arr(1, 3);
        ins(&mut c, 0, 0);
        ins(&mut c, 1, 1);
        ins(&mut c, 2, 2);
        look(&mut c, 1);
        let order: Vec<u64> = set(&c, 0).into_iter().map(|(l, _)| l).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn non_power_of_two_set_count() {
        let mut c = arr(13, 2);
        ins(&mut c, 5, 1);
        ins(&mut c, 18, 2); // 18 % 13 == 5: same set
        assert_eq!(set(&c, 5).len(), 2);
        assert_eq!(peek(&c, 18), Some(2));
        assert_eq!(peek(&c, 31), None);
    }

    #[test]
    fn out_of_range_probe_misses_without_aliasing() {
        let mut c = arr(4, 2);
        ins(&mut c, 3, 1);
        // (2^32 + 3) mod 4 == 3: same set, and the narrowed key would
        // alias line 3 without the probe-key guard.
        let huge = (1u64 << 32) + 3;
        assert_eq!(peek(&c, huge), None);
        assert_eq!(look(&mut c, huge), None);
        assert_eq!(rm(&mut c, huge), None);
        assert!(c.state_mut(LineNum(huge), 3).is_none());
        assert_eq!(peek(&c, 3), Some(1));
    }

    #[test]
    #[should_panic(expected = "u32 key range")]
    fn oversized_line_insert_panics() {
        let mut c = arr(4, 2);
        ins(&mut c, u64::MAX - 1, 0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn duplicate_insert_panics_in_debug() {
        let mut c = arr(2, 2);
        ins(&mut c, 0, 0);
        ins(&mut c, 0, 0);
    }

    #[test]
    #[should_panic(expected = "is not")]
    #[cfg(debug_assertions)]
    fn foreign_set_index_panics_in_debug() {
        let c = arr(4, 2);
        c.peek(LineNum(5), 2);
    }
}
