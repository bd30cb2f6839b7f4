//! Flat containers for the coherence engines' line and page state.
//!
//! Line and page numbers are dense from zero: the workload lays its
//! working set and sync lines out consecutively, and the paper allocates
//! pages consecutively on demand (§3). So the hot maps are plain arrays
//! indexed by number, and hashing is kept for the cold sparse maps:
//!
//! * [`LineTable`] — line number → entry, one `Vec` slot per line up to
//!   the highest line touched, `V::default()` meaning "no entry". A
//!   lookup is one bounds check and one indexed load. Both line
//!   directories (the COMA root table and the NUMA home table) live in
//!   one, so no directory lookup hashes.
//! * [`PageHomes`] — the first-touch page table, page number → home node,
//!   the same idea one level up.
//! * [`OpenTable`] — open addressing with linear probing over one flat
//!   slot array, power-of-two capacity, a Fibonacci-multiply hash of the
//!   `u64` keys, and backward-shift deletion (no tombstones, so load never
//!   rots). It holds the two sparse sets: the spilled wide
//!   sharer sets and the COMA engine's paged-out lines.

use coma_types::{NodeId, MAX_LINE};

/// Sentinel stored key marking an empty slot.
const EMPTY: u32 = u32::MAX;

/// Largest insertable key. Keys are stored narrowed to `u32`: real keys
/// are line numbers, so the line bound [`MAX_LINE`] covers them, and the
/// narrow key shrinks every slot.
const MAX_KEY: u64 = MAX_LINE;

/// Knuth's multiplicative constant (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One packed table slot: key and value side by side, so a probe that
/// finds its key has already pulled the value into cache.
#[derive(Clone, Copy, Debug)]
struct TableSlot<V> {
    key: u32,
    val: V,
}

/// Stored key a probe compares against. Keys beyond [`MAX_KEY`] cannot be
/// present (insertion rejects them), so their probes must simply miss —
/// map them to the unmatchable sentinel instead of letting the narrowing
/// conversion alias a small resident key.
#[inline]
fn probe_key(key: u64) -> u32 {
    if key <= MAX_KEY {
        key as u32
    } else {
        EMPTY
    }
}

/// An open-addressing hash table from `u64` keys to copyable values.
#[derive(Clone, Debug)]
pub struct OpenTable<V> {
    slots: Vec<TableSlot<V>>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
    /// Right-shift turning a 64-bit hash into a slot index.
    shift: u32,
    len: usize,
}

impl<V: Copy + Default> Default for OpenTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> OpenTable<V> {
    pub fn new() -> Self {
        Self::with_capacity_pow2(64)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        OpenTable {
            slots: vec![
                TableSlot {
                    key: EMPTY,
                    val: V::default()
                };
                cap
            ],
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let needle = probe_key(key);
        if needle == EMPTY {
            return None; // out-of-range key: cannot be resident
        }
        let mut i = self.slot_of(key);
        loop {
            let k = self.slots[i].key;
            if k == needle {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.slots[i].val)
    }

    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.slots[i].val)
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        assert!(key <= MAX_KEY, "key exceeds u32 storage range");
        let needle = key as u32;
        self.reserve_one();
        let mut i = self.slot_of(key);
        loop {
            let k = self.slots[i].key;
            if k == needle {
                return Some(std::mem::replace(&mut self.slots[i].val, val));
            }
            if k == EMPTY {
                self.slots[i] = TableSlot { key: needle, val };
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove `key`, returning its value if present. Uses backward-shift
    /// deletion: later entries of the probe chain are moved up so that no
    /// tombstone is ever left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let out = self.slots[i].val;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.slots[j].key == EMPTY {
                break;
            }
            // `slots[j]` may back-fill the hole at `i` only if its home
            // slot does not lie cyclically within (i, j] — otherwise the
            // move would break its own probe chain.
            let home = self.slot_of(self.slots[j].key as u64);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.slots[i] = self.slots[j];
                i = j;
            }
        }
        self.slots[i].key = EMPTY;
        self.len -= 1;
        Some(out)
    }

    /// Iterate all entries (diagnostics; order is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter(|s| s.key != EMPTY)
            .map(|s| (s.key as u64, &s.val))
    }

    /// Grow (×2) when the next insert would push load past 1/2. Linear
    /// probing degrades sharply for *unsuccessful* probes as load rises,
    /// and the paged-out set is probed with absent lines on every first
    /// touch — buying short miss chains with memory is the right trade.
    #[inline]
    fn reserve_one(&mut self) {
        if (self.len + 1) * 2 > self.mask + 1 {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        let mut bigger = Self::with_capacity_pow2((self.mask + 1) * 2);
        for slot in &self.slots {
            if slot.key != EMPTY {
                let mut i = bigger.slot_of(slot.key as u64);
                while bigger.slots[i].key != EMPTY {
                    i = (i + 1) & bigger.mask;
                }
                bigger.slots[i] = *slot;
                bigger.len += 1;
            }
        }
        *self = bigger;
    }
}

/// A dense map from line number to `V`, with `V::default()` as the empty
/// entry. It holds one slot per line from 0 to the highest line touched
/// through [`Self::entry`], and no more: growth follows `Vec`'s amortized
/// doubling, with no minimum capacity, so a small run (or a model
/// checker's per-transition engine clone) keeps a small table. Lookups
/// beyond the last slot read as empty and never grow it.
#[derive(Clone, Debug, Default)]
pub struct LineTable<V> {
    slots: Vec<V>,
}

impl<V: Copy + Default> LineTable<V> {
    pub fn new() -> Self {
        LineTable { slots: Vec::new() }
    }

    /// The entry of `line`; `V::default()` if it was never written.
    #[inline]
    pub fn get(&self, line: u64) -> V {
        self.slots.get(line as usize).copied().unwrap_or_default()
    }

    /// The slot of `line`, if the table reaches it.
    #[inline]
    pub fn get_mut(&mut self, line: u64) -> Option<&mut V> {
        self.slots.get_mut(line as usize)
    }

    /// The slot of `line`, growing the table to reach it.
    #[inline]
    pub fn entry(&mut self, line: u64) -> &mut V {
        let i = line as usize;
        if i >= self.slots.len() {
            self.grow_to(line);
        }
        &mut self.slots[i]
    }

    #[cold]
    fn grow_to(&mut self, line: u64) {
        assert!(line <= MAX_LINE, "line {line} beyond the line range");
        self.slots.resize(line as usize + 1, V::default());
    }

    /// Every slot with its line number, ascending, empty ones included.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (0u64..).zip(&self.slots)
    }
}

/// The first-touch page table: page number → home node, as a flat array.
#[derive(Clone, Debug, Default)]
pub struct PageHomes {
    /// Home node per page; `u16::MAX` marks an untouched page.
    homes: Vec<u16>,
}

const UNTOUCHED: u16 = u16::MAX;

impl PageHomes {
    pub fn new() -> Self {
        PageHomes::default()
    }

    /// Home node of `page`, allocating it to `toucher` on first touch.
    #[inline]
    pub fn home_of(&mut self, page: u64, toucher: NodeId) -> NodeId {
        let p = page as usize;
        if p >= self.homes.len() {
            // Amortized growth; pages are touched roughly consecutively.
            self.homes
                .resize((p + 1).max(self.homes.len() * 2), UNTOUCHED);
        }
        let h = &mut self.homes[p];
        if *h == UNTOUCHED {
            *h = toucher.0;
        }
        NodeId(*h)
    }

    /// Number of allocated pages.
    pub fn allocated(&self) -> usize {
        self.homes.iter().filter(|&&h| h != UNTOUCHED).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut t: OpenTable<u32> = OpenTable::new();
        assert_eq!(t.insert(5, 10), None);
        assert_eq!(t.get(5), Some(10));
        assert_eq!(t.insert(5, 11), Some(10));
        assert_eq!(t.get(5), Some(11));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(6), None);
    }

    #[test]
    fn remove_with_backward_shift_keeps_chains_probeable() {
        let mut t: OpenTable<u64> = OpenTable::new();
        // Force a long collision chain by saturating a small table.
        for k in 0..48u64 {
            t.insert(k, k * 2);
        }
        // Remove every third key and verify the rest stay findable.
        for k in (0..48u64).step_by(3) {
            assert_eq!(t.remove(k), Some(k * 2));
            assert_eq!(t.remove(k), None);
        }
        for k in 0..48u64 {
            let want = if k % 3 == 0 { None } else { Some(k * 2) };
            assert_eq!(t.get(k), want, "key {k}");
        }
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t: OpenTable<u64> = OpenTable::new();
        for k in 0..10_000u64 {
            t.insert(k, !k);
        }
        assert_eq!(t.len(), 10_000);
        for k in (0..10_000u64).step_by(997) {
            assert_eq!(t.get(k), Some(!k));
        }
    }

    #[test]
    fn unit_value_acts_as_set() {
        let mut s: OpenTable<()> = OpenTable::new();
        assert_eq!(s.insert(3, ()), None);
        assert!(s.contains(3));
        assert_eq!(s.remove(3), Some(()));
        assert!(!s.contains(3));
    }

    #[test]
    fn iter_yields_all_live_entries() {
        let mut t: OpenTable<u8> = OpenTable::new();
        for k in [2u64, 7, 11] {
            t.insert(k, k as u8);
        }
        t.remove(7);
        let mut got: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 11]);
    }

    #[test]
    fn out_of_range_key_probes_miss_without_aliasing() {
        let mut t: OpenTable<u8> = OpenTable::new();
        t.insert(7, 1);
        // (2^32 + 7) narrows to 7 — the guard must keep it a miss.
        assert_eq!(t.get((1u64 << 32) + 7), None);
        assert!(!t.contains((1u64 << 32) + 7));
        assert_eq!(t.remove(u64::MAX), None);
        assert_eq!(t.get(7), Some(1));
    }

    #[test]
    #[should_panic(expected = "u32 storage range")]
    fn oversized_key_insert_panics() {
        OpenTable::<u8>::new().insert(u64::MAX - 1, 1);
    }

    #[test]
    fn line_table_grows_to_the_highest_line_touched() {
        let mut t: LineTable<u32> = LineTable::new();
        assert_eq!(t.get(1_000), 0);
        assert!(t.get_mut(3).is_none(), "a read grew the table");
        *t.entry(9) = 7;
        assert_eq!(t.slots.len(), 10);
        *t.entry(2) += 1;
        assert_eq!(t.slots.len(), 10, "a low line grew the table");
        assert_eq!((t.get(9), t.get(2), t.get(3), t.get(10)), (7, 1, 0, 0));
        *t.get_mut(9).unwrap() = 8;
        let live: Vec<(u64, u32)> = t
            .iter()
            .filter(|e| *e.1 != 0)
            .map(|(l, &v)| (l, v))
            .collect();
        assert_eq!(live, vec![(2, 1), (9, 8)]);
    }

    #[test]
    #[should_panic(expected = "beyond the line range")]
    fn line_table_rejects_lines_beyond_the_range() {
        LineTable::<u8>::new().entry(MAX_LINE + 1);
    }

    #[test]
    fn page_homes_first_touch_wins() {
        let mut p = PageHomes::new();
        assert_eq!(p.home_of(0, NodeId(3)), NodeId(3));
        assert_eq!(p.home_of(0, NodeId(5)), NodeId(3));
        assert_eq!(p.home_of(700, NodeId(1)), NodeId(1));
        assert_eq!(p.allocated(), 2);
    }
}
