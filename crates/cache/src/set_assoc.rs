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
//! the host's caches and TLB reach. The rotation memmove is at most
//! `assoc - 1` slots within one or two lines.
//!
//! Set indexing uses a precomputed [`FastMod`] because set counts are not
//! powers of two (the paper's "odd cache sizes").

use coma_types::{FastMod, LineNum, MAX_LINE};

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
    set_mod: FastMod,
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
            set_mod: FastMod::new(n_sets),
            slots: vec![
                Slot {
                    key: EMPTY,
                    state: S::default()
                };
                slots
            ],
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

    /// Set index for a line.
    #[inline]
    pub fn set_of(&self, line: LineNum) -> u64 {
        self.set_mod.reduce(line.0)
    }

    /// Stride base of the set that `line` maps to.
    #[inline]
    fn base_of(&self, line: LineNum) -> usize {
        self.set_of(line) as usize * self.assoc
    }

    /// Slot index of `line` if resident.
    #[inline]
    fn find(&self, line: LineNum) -> Option<usize> {
        let key = probe_key(line);
        let base = self.base_of(line);
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

    /// State of a line without touching LRU state.
    #[inline]
    pub fn peek(&self, line: LineNum) -> Option<S> {
        self.find(line).map(|i| self.slots[i].state)
    }

    /// State of a line, marking it most-recently-used on hit.
    #[inline]
    pub fn lookup(&mut self, line: LineNum) -> Option<S> {
        let i = self.find(line)?;
        let hit = self.slots[i];
        let base = self.base_of(line);
        self.slots.copy_within(base..i, base + 1);
        self.slots[base] = hit;
        Some(hit.state)
    }

    /// Update the state of a resident line; returns false if not present.
    /// Does not touch LRU order.
    pub fn set_state(&mut self, line: LineNum, state: S) -> bool {
        match self.find(line) {
            Some(i) => {
                self.slots[i].state = state;
                true
            }
            None => false,
        }
    }

    /// Remove a line; returns its state if it was present. The stride is
    /// shifted up (not swap-removed) so the survivors keep their recency
    /// order.
    pub fn remove(&mut self, line: LineNum) -> Option<S> {
        let i = self.find(line)?;
        let state = self.slots[i].state;
        let base = self.base_of(line);
        let last = base + self.assoc - 1;
        self.slots.copy_within(i + 1..last + 1, i);
        self.slots[last].key = EMPTY;
        self.len -= 1;
        Some(state)
    }

    /// Does the line's set have a free slot?
    #[inline]
    pub fn has_free_slot(&self, line: LineNum) -> bool {
        let base = self.base_of(line);
        self.slots[base + self.assoc - 1].key == EMPTY
    }

    /// Insert a line known to be absent. Panics (debug) if the set is full
    /// or the line already resident — callers must evict first.
    pub fn insert(&mut self, line: LineNum, state: S) {
        assert!(line.0 <= MAX_LINE, "line number exceeds u32 key range");
        debug_assert!(self.find(line).is_none(), "duplicate insert");
        let base = self.base_of(line);
        let last = base + self.assoc - 1;
        debug_assert_eq!(self.slots[last].key, EMPTY, "insert into full set");
        self.slots.copy_within(base..last, base + 1);
        self.slots[base] = Slot {
            key: line.0 as u32 + 1,
            state,
        };
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
    pub fn insert_evicting(&mut self, line: LineNum, state: S) -> Option<(LineNum, S)> {
        assert!(line.0 <= MAX_LINE, "line number exceeds u32 key range");
        let key = line.0 as u32 + 1;
        let base = self.base_of(line);
        let last = base + self.assoc - 1;
        for i in base..base + self.assoc {
            if self.slots[i].key == key {
                self.slots[i].state = state;
                return None;
            }
        }
        let evicted = match self.slots[last].key {
            EMPTY => {
                self.len += 1;
                None
            }
            _ => Some((self.slots[last].line(), self.slots[last].state)),
        };
        self.slots.copy_within(base..last, base + 1);
        self.slots[base] = Slot { key, state };
        evicted
    }

    /// Visit every valid entry of the set that `line` maps to, in recency
    /// order: most-recently-used first, the LRU victim last. One
    /// contiguous pass — callers that need several facts about a set
    /// (occupancy, LRU victim under a predicate, residency) fold them out
    /// of a single scan, taking the *last* matching visit where they want
    /// the least-recent entry.
    #[inline]
    pub fn scan_set(&self, line: LineNum, mut visit: impl FnMut(LineNum, S)) {
        let base = self.base_of(line);
        for slot in &self.slots[base..base + self.assoc] {
            if slot.key == EMPTY {
                break;
            }
            visit(slot.line(), slot.state);
        }
    }

    /// Least-recently-used entry of `line`'s set among entries matching
    /// `pred`, or `None` if none match.
    pub fn lru_matching(
        &self,
        line: LineNum,
        mut pred: impl FnMut(LineNum, S) -> bool,
    ) -> Option<(LineNum, S)> {
        let mut best = None;
        self.scan_set(line, |l, s| {
            if pred(l, s) {
                best = Some((l, s));
            }
        });
        best
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

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(n_sets: u64, assoc: usize) -> SetAssoc<u8> {
        SetAssoc::new(n_sets, assoc)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = arr(4, 2);
        c.insert(LineNum(5), 1);
        assert_eq!(c.lookup(LineNum(5)), Some(1));
        assert!(c.lookup(LineNum(9)).is_none()); // same set (9 % 4 == 1), absent
    }

    #[test]
    fn free_slot_tracking() {
        let mut c = arr(4, 2);
        assert!(c.has_free_slot(LineNum(0)));
        c.insert(LineNum(0), 0);
        assert!(c.has_free_slot(LineNum(0)));
        c.insert(LineNum(4), 0); // same set
        assert!(!c.has_free_slot(LineNum(0)));
        assert!(c.has_free_slot(LineNum(1))); // different set untouched
    }

    #[test]
    fn lru_order_follows_access() {
        let mut c = arr(1, 3);
        c.insert(LineNum(0), 0);
        c.insert(LineNum(1), 0);
        c.insert(LineNum(2), 0);
        // Touch 0, making 1 the LRU.
        c.lookup(LineNum(0));
        let (lru, _) = c.lru_matching(LineNum(0), |_, _| true).unwrap();
        assert_eq!(lru, LineNum(1));
    }

    #[test]
    fn lru_matching_respects_predicate() {
        let mut c = arr(1, 3);
        c.insert(LineNum(0), 10);
        c.insert(LineNum(1), 20);
        c.insert(LineNum(2), 10);
        let (lru20, _) = c.lru_matching(LineNum(0), |_, s| s == 20).unwrap();
        assert_eq!(lru20, LineNum(1));
        assert!(c.lru_matching(LineNum(0), |_, s| s == 99).is_none());
    }

    #[test]
    fn remove_returns_state_and_compacts() {
        let mut c = arr(2, 2);
        c.insert(LineNum(3), 7);
        assert_eq!(c.remove(LineNum(3)), Some(7));
        assert_eq!(c.remove(LineNum(3)), None);
        assert_eq!(c.len(), 0);
        // Removing the front of a full stride keeps the survivor findable.
        c.insert(LineNum(1), 1);
        c.insert(LineNum(3), 3);
        assert_eq!(c.remove(LineNum(1)), Some(1));
        assert_eq!(c.peek(LineNum(3)), Some(3));
        assert!(c.has_free_slot(LineNum(3)));
    }

    #[test]
    fn remove_preserves_recency_of_survivors() {
        let mut c = arr(1, 3);
        c.insert(LineNum(0), 0);
        c.insert(LineNum(1), 1);
        c.insert(LineNum(2), 2);
        // Recency: 2 > 1 > 0. Removing 1 must keep 0 as the LRU.
        c.remove(LineNum(1));
        assert_eq!(
            c.lru_matching(LineNum(0), |_, _| true).unwrap().0,
            LineNum(0)
        );
    }

    #[test]
    fn set_state_in_place() {
        let mut c = arr(2, 2);
        c.insert(LineNum(3), 7);
        assert!(c.set_state(LineNum(3), 9));
        assert_eq!(c.peek(LineNum(3)), Some(9));
        assert!(!c.set_state(LineNum(5), 1));
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = arr(1, 2);
        c.insert(LineNum(0), 0);
        c.insert(LineNum(1), 0);
        c.peek(LineNum(0));
        // 0 was inserted first and peek didn't refresh it: still LRU.
        assert_eq!(
            c.lru_matching(LineNum(0), |_, _| true).unwrap().0,
            LineNum(0)
        );
    }

    #[test]
    fn insert_evicting_updates_resident_in_place() {
        let mut c = arr(1, 1);
        c.insert(LineNum(0), 1);
        assert_eq!(c.insert_evicting(LineNum(0), 2), None);
        assert_eq!(c.peek(LineNum(0)), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_evicting_evicts_true_lru() {
        let mut c = arr(1, 2);
        c.insert(LineNum(0), 10);
        c.insert(LineNum(1), 11);
        c.lookup(LineNum(0)); // 1 becomes LRU
        assert_eq!(c.insert_evicting(LineNum(2), 12), Some((LineNum(1), 11)));
        assert_eq!(c.peek(LineNum(2)), Some(12));
        assert_eq!(c.peek(LineNum(0)), Some(10));
        assert_eq!(c.len(), 2);
        // The fresh insert is MRU: next eviction takes line 0.
        assert_eq!(c.insert_evicting(LineNum(3), 13), Some((LineNum(0), 10)));
    }

    #[test]
    fn insert_evicting_uses_free_slot_first() {
        let mut c = arr(1, 2);
        c.insert(LineNum(0), 1);
        assert_eq!(c.insert_evicting(LineNum(1), 2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn scan_set_sees_only_own_set() {
        let mut c = arr(2, 2);
        c.insert(LineNum(0), 1);
        c.insert(LineNum(1), 2);
        c.insert(LineNum(2), 3);
        let mut seen = Vec::new();
        c.scan_set(LineNum(0), |l, s| seen.push((l.0, s)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn scan_set_visits_mru_first() {
        let mut c = arr(1, 3);
        c.insert(LineNum(0), 0);
        c.insert(LineNum(1), 1);
        c.insert(LineNum(2), 2);
        c.lookup(LineNum(1));
        let mut order = Vec::new();
        c.scan_set(LineNum(0), |l, _| order.push(l.0));
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn non_power_of_two_set_count() {
        let mut c = arr(13, 2);
        c.insert(LineNum(5), 1);
        c.insert(LineNum(18), 2); // 18 % 13 == 5: same set
        assert!(!c.has_free_slot(LineNum(5)));
        assert_eq!(c.peek(LineNum(18)), Some(2));
        assert_eq!(c.peek(LineNum(31)), None);
    }

    #[test]
    fn out_of_range_probe_misses_without_aliasing() {
        let mut c = arr(4, 2);
        c.insert(LineNum(3), 1);
        // (2^32 + 3) mod 4 == 3: same set, and the narrowed key would
        // alias line 3 without the probe-key guard.
        let huge = LineNum((1u64 << 32) + 3);
        assert_eq!(c.peek(huge), None);
        assert_eq!(c.lookup(huge), None);
        assert_eq!(c.remove(huge), None);
        assert!(!c.set_state(huge, 9));
        assert_eq!(c.peek(LineNum(3)), Some(1));
    }

    #[test]
    #[should_panic(expected = "u32 key range")]
    fn oversized_line_insert_panics() {
        let mut c = arr(4, 2);
        c.insert(LineNum(u64::MAX - 1), 0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn duplicate_insert_panics_in_debug() {
        let mut c = arr(2, 2);
        c.insert(LineNum(0), 0);
        c.insert(LineNum(0), 0);
    }
}
