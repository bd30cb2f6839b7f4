//! The compact sharer set both line directories embed: the COMA root
//! directory's Shared-replica nodes and the NUMA home directory's
//! reader processors.
//!
//! A full [`NodeSet`] is 32 bytes, sized for 256-node machines, but a
//! directory holds one entry per line, so entry bytes are host-cache
//! reach. Members 0–63 are kept inline as one 64-bit mask, which covers
//! every machine of at most 64 nodes (COMA) or 64 processors (NUMA)
//! whatever its sharing; a set that an id of 64 or more joins parks a
//! `NodeSet` in a side table keyed like the directory itself, and stays
//! spilled until taken or cleared — demotion would buy bytes back for a
//! case too rare to matter at the cost of churn on every removal.

use crate::table::OpenTable;
use coma_types::NodeSet;

/// Ids below this bound fit the inline mask.
const INLINE: u16 = 64;

const MISSING: &str = "spilled sharer set missing";

/// Sets too wide for inline storage, keyed by the owning entry's key.
pub type SpillTable = OpenTable<NodeSet>;

/// A set of node or processor IDs: an inline bit mask while every member
/// is below 64, a [`SpillTable`] entry once a wider id joins. Every
/// operation takes the spill table and the key of the directory entry
/// that holds the set.
///
/// Packed to 2-byte alignment so the set is 10 bytes and a directory
/// entry (a `u16` plus this) stays at 12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, packed(2))]
pub struct SharerSet {
    /// Bit `i` set ⇔ id `i` is a member; unused while spilled.
    bits: u64,
    /// The members live in the spill table.
    spilled: bool,
}

impl SharerSet {
    /// The members as a full set, wherever they are stored.
    #[inline]
    pub fn members(&self, spill: &SpillTable, key: u64) -> NodeSet {
        if self.spilled {
            spill.get(key).expect(MISSING)
        } else {
            NodeSet::from_word(self.bits)
        }
    }

    /// Add `id` (idempotent), spilling when an id of 64 or more arrives.
    #[inline]
    pub fn insert(&mut self, spill: &mut SpillTable, key: u64, id: u16) {
        if self.spilled {
            spill.get_mut(key).expect(MISSING).insert(id);
        } else if id < INLINE {
            self.bits |= 1 << id;
        } else {
            let mut s = NodeSet::from_word(self.bits);
            s.insert(id);
            spill.insert(key, s);
            *self = SharerSet {
                bits: 0,
                spilled: true,
            };
        }
    }

    /// Drop `id` if present.
    #[inline]
    pub fn remove(&mut self, spill: &mut SpillTable, key: u64, id: u16) {
        if self.spilled {
            spill.get_mut(key).expect(MISSING).remove(id);
        } else if id < INLINE {
            self.bits &= !(1 << id);
        }
    }

    /// Materialize the members and empty the set.
    #[inline]
    pub fn take(&mut self, spill: &mut SpillTable, key: u64) -> NodeSet {
        let s = if self.spilled {
            spill.remove(key).expect(MISSING)
        } else {
            NodeSet::from_word(self.bits)
        };
        *self = Self::default();
        s
    }

    /// Empty the set.
    #[inline]
    pub fn clear(&mut self, spill: &mut SpillTable, key: u64) {
        if self.spilled {
            spill.remove(key);
        }
        *self = Self::default();
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
            // Small universes force duplicates and never spill; 65 puts
            // the first spilling id at the edge; 256 reaches id 255.
            let universe = [12u64, 64, 65, 256][key as usize % 4];
            for _ in 0..rng.range(1, 80) {
                let id = rng.below(universe) as u16;
                if rng.chance(0.6) {
                    set.insert(&mut spill, key, id);
                    model.insert(id);
                } else {
                    set.remove(&mut spill, key, id);
                    model.remove(id);
                }
                assert_eq!(set.members(&spill, key), model, "key {key}");
                assert_eq!(spill.contains(key), set.spilled);
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
    fn id_64_spills_and_survives_removal() {
        let mut spill = SpillTable::new();
        let mut set = SharerSet::default();
        for id in [3u16, 9, 63, 17, 9, 0] {
            set.insert(&mut spill, 7, id); // the second 9 is a duplicate
        }
        assert!(!set.spilled);
        assert!(spill.is_empty());
        let got: Vec<u16> = set.members(&spill, 7).iter().collect();
        assert_eq!(got, vec![0, 3, 9, 17, 63]);
        set.insert(&mut spill, 7, 64);
        assert!(set.spilled);
        set.remove(&mut spill, 7, 3);
        set.remove(&mut spill, 7, 3);
        let got: Vec<u16> = set.members(&spill, 7).iter().collect();
        assert_eq!(got, vec![0, 9, 17, 63, 64]);
        set.insert(&mut spill, 7, 255);
        assert_eq!(set.take(&mut spill, 7).len(), 6);
        assert!(spill.is_empty());
        // Emptied sets start inline again.
        set.insert(&mut spill, 7, 1);
        assert_eq!((set.spilled, spill.len()), (false, 0));
    }
}
