//! Flat hot-path containers for the coherence engines.
//!
//! Every simulated miss probes the line directory, the page table and the
//! paged-out set; with `std::collections::HashMap` each probe pays SipHash
//! or (with a custom hasher) still a bucket indirection per access. The
//! two structures here are built for the access pattern the simulator
//! actually has:
//!
//! * [`OpenTable`] — open addressing with linear probing over one flat
//!   slot array, power-of-two capacity, a Fibonacci-multiply hash of the
//!   already well-distributed `u64` keys, and backward-shift deletion (no
//!   tombstones, so load never rots). A lookup is one multiply, one shift
//!   and a short contiguous scan.
//! * [`PageHomes`] — the first-touch page table. The paper allocates
//!   pages *consecutively* on demand (§3), so page numbers are dense from
//!   zero and the map degenerates into a plain array indexed by page
//!   number; hashing it at all is wasted work.

use coma_types::{NodeId, MAX_LINE};

/// Sentinel stored key marking an empty slot.
const EMPTY: u32 = u32::MAX;

/// Largest insertable key. Keys are stored narrowed to `u32`: real keys
/// are line or page numbers, so the line bound [`MAX_LINE`] covers both,
/// and the narrow key shrinks every slot — the line directory is
/// DRAM-resident at working-set scale, so slot bytes translate directly
/// into host cache and TLB reach.
const MAX_KEY: u64 = MAX_LINE;

/// Knuth's multiplicative constant (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// One packed table slot: key and value side by side, so a probe that
/// finds its key has already pulled the value into cache (split key/value
/// arrays cost a second miss per hit on tables too big for the host LLC,
/// which the line directory always is).
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

    /// Value for `key`, inserting `default` first if absent.
    pub fn get_or_insert(&mut self, key: u64, default: V) -> &mut V {
        assert!(key <= MAX_KEY, "key exceeds u32 storage range");
        let needle = key as u32;
        self.reserve_one();
        let mut i = self.slot_of(key);
        loop {
            let k = self.slots[i].key;
            if k == needle {
                return &mut self.slots[i].val;
            }
            if k == EMPTY {
                self.slots[i] = TableSlot {
                    key: needle,
                    val: default,
                };
                self.len += 1;
                return &mut self.slots[i].val;
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
    /// and the directory is probed with cold (absent) lines constantly —
    /// buying short miss chains with memory is the right trade here.
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
    fn get_or_insert_keeps_existing() {
        let mut t: OpenTable<u32> = OpenTable::new();
        *t.get_or_insert(9, 1) += 5;
        assert_eq!(*t.get_or_insert(9, 100), 6);
        assert_eq!(t.len(), 1);
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
    fn page_homes_first_touch_wins() {
        let mut p = PageHomes::new();
        assert_eq!(p.home_of(0, NodeId(3)), NodeId(3));
        assert_eq!(p.home_of(0, NodeId(5)), NodeId(3));
        assert_eq!(p.home_of(700, NodeId(1)), NodeId(1));
        assert_eq!(p.allocated(), 2);
    }
}
