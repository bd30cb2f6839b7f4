//! The compact sharer set both line directories embed: the COMA root
//! directory's Shared-replica nodes and the NUMA home directory's
//! reader processors.
//!
//! A full [`NodeSet`] is 32 bytes, sized for 256-node machines, but a
//! directory holds one entry per live line and is probed on every miss,
//! so entry bytes are host-cache reach. Sets of at most four members
//! (the overwhelming majority) keep the IDs inline, unordered; wider
//! sets park a `NodeSet` in a side table keyed like the directory
//! itself, and stay spilled until taken or cleared — demotion would buy
//! bytes back for a case too rare to matter at the cost of churn on
//! every removal.

use crate::table::OpenTable;
use coma_types::NodeSet;

/// Inline capacity. Four IDs keep a directory entry at 12 bytes and its
/// table slot at 16 (four slots per host cache line).
const INLINE: usize = 4;

/// `SharerSet::n` marker: the set lives in the spill table.
const SPILLED: u8 = u8::MAX;

const MISSING: &str = "spilled sharer set missing";

/// Sets too wide for inline storage, keyed by the owning entry's key.
pub type SpillTable = OpenTable<NodeSet>;

/// A set of node or processor IDs, stored inline up to four members and
/// in a [`SpillTable`] beyond. Every operation takes the spill table and
/// the key of the directory entry that holds the set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharerSet {
    /// Count of valid `inline` IDs, or [`SPILLED`].
    n: u8,
    inline: [u16; INLINE],
}

impl SharerSet {
    #[inline]
    fn inline_set(&self) -> NodeSet {
        let mut s = NodeSet::empty();
        for &id in &self.inline[..self.n as usize] {
            s.insert(id);
        }
        s
    }

    /// The members as a full set, wherever they are stored.
    #[inline]
    pub fn members(&self, spill: &SpillTable, key: u64) -> NodeSet {
        if self.n == SPILLED {
            spill.get(key).expect(MISSING)
        } else {
            self.inline_set()
        }
    }

    /// Add `id` (idempotent), spilling when a fifth member arrives.
    #[inline]
    pub fn insert(&mut self, spill: &mut SpillTable, key: u64, id: u16) {
        if self.n == SPILLED {
            spill.get_mut(key).expect(MISSING).insert(id);
            return;
        }
        let n = self.n as usize;
        if self.inline[..n].contains(&id) {
            return;
        }
        if n < INLINE {
            self.inline[n] = id;
            self.n += 1;
        } else {
            let mut s = self.inline_set();
            s.insert(id);
            self.n = SPILLED;
            spill.insert(key, s);
        }
    }

    /// Drop `id` if present. Inline removal is a swap-remove: order is
    /// immaterial, the set is materialized through [`NodeSet`].
    #[inline]
    pub fn remove(&mut self, spill: &mut SpillTable, key: u64, id: u16) {
        if self.n == SPILLED {
            spill.get_mut(key).expect(MISSING).remove(id);
            return;
        }
        let n = self.n as usize;
        if let Some(i) = self.inline[..n].iter().position(|&x| x == id) {
            self.inline[i] = self.inline[n - 1];
            self.n -= 1;
        }
    }

    /// Materialize the members and empty the set.
    #[inline]
    pub fn take(&mut self, spill: &mut SpillTable, key: u64) -> NodeSet {
        let s = if self.n == SPILLED {
            spill.remove(key).expect(MISSING)
        } else {
            self.inline_set()
        };
        self.n = 0;
        s
    }

    /// Empty the set.
    #[inline]
    pub fn clear(&mut self, spill: &mut SpillTable, key: u64) {
        if self.n == SPILLED {
            spill.remove(key);
        }
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::Rng64;

    #[test]
    fn matches_a_plain_node_set_across_the_spill_boundary() {
        let mut rng = Rng64::new(0x5AA2_E125);
        let mut spill = SpillTable::new();
        for key in 0..64u64 {
            let mut set = SharerSet::default();
            let mut model = NodeSet::empty();
            // A small ID universe forces duplicates; up to 12 members
            // take most sets past four.
            let universe = rng.range(5, 13) as u16;
            for _ in 0..rng.range(1, 80) {
                let id = rng.below(universe as u64) as u16;
                if rng.chance(0.6) {
                    set.insert(&mut spill, key, id);
                    model.insert(id);
                } else {
                    set.remove(&mut spill, key, id);
                    model.remove(id);
                }
                assert_eq!(set.members(&spill, key), model, "key {key}");
                assert_eq!(spill.contains(key), set.n == SPILLED);
            }
            if rng.chance(0.5) {
                assert_eq!(set.take(&mut spill, key), model);
            } else {
                set.clear(&mut spill, key);
            }
            assert_eq!(set.members(&spill, key), NodeSet::empty());
            assert!(!spill.contains(key), "emptied set left a spill entry");
        }
        assert!(spill.is_empty());
    }

    #[test]
    fn fifth_member_spills_and_survives_removal() {
        let mut spill = SpillTable::new();
        let mut set = SharerSet::default();
        for id in [3u16, 9, 200, 17, 9] {
            set.insert(&mut spill, 7, id); // the second 9 is a duplicate
        }
        assert_eq!(set.n, 4);
        assert!(spill.is_empty());
        set.insert(&mut spill, 7, 255);
        assert_eq!(set.n, SPILLED);
        set.remove(&mut spill, 7, 3);
        set.remove(&mut spill, 7, 3);
        let got: Vec<u16> = set.members(&spill, 7).iter().collect();
        assert_eq!(got, vec![9, 17, 200, 255]);
        set.insert(&mut spill, 7, 3);
        assert_eq!(set.take(&mut spill, 7).len(), 5);
        assert!(spill.is_empty());
        // Emptied sets start inline again.
        set.insert(&mut spill, 7, 1);
        assert_eq!((set.n, spill.len()), (1, 0));
    }
}
