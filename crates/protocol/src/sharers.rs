//! The compact sharer set both line directories embed: the COMA root
//! directory's Shared-replica nodes and the NUMA home directory's
//! reader processors.
//!
//! A full [`NodeSet`] is 32 bytes, sized for 256-node machines, but a
//! directory holds one entry per line, so entry bytes are host-cache
//! reach. Members 0–63 are kept inline as one 64-bit mask, which covers
//! every machine of at most 64 nodes (COMA) or 64 processors (NUMA)
//! whatever its sharing; a set that an id of 64 or more joins parks a
//! `NodeSet` in the slot of its line in a side [`LineTable`], and stays
//! spilled until taken or cleared, which empty the slot again — demotion
//! would buy bytes back for a case too rare to matter at the cost of
//! churn on every removal. The side table holds 32 bytes per line up to
//! the highest line whose set ever spilled, and smaller machines never
//! write it.

use crate::table::LineTable;
use coma_types::NodeSet;

/// Ids below this bound fit the inline mask.
const INLINE: u16 = 64;

const MISSING: &str = "spilled sharer set missing";

/// Sets too wide for inline storage, indexed by the owning entry's line;
/// the empty set is an empty slot.
pub type SpillTable = LineTable<NodeSet>;

/// A set of node or processor IDs: an inline bit mask while every member
/// is below 64, a [`SpillTable`] slot once a wider id joins. Every
/// operation takes the spill table and the line of the directory entry
/// that holds the set.
///
/// Packed to 2-byte alignment so the set is 10 bytes and a directory
/// entry (a `u16` plus this) stays at 12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, packed(2))]
pub struct SharerSet {
    /// Bit `i` set ⇔ id `i` is a member; unused while spilled.
    bits: u64,
    /// The members live in the spill table, whose slot of the set's
    /// line is reachable from then on; a missing slot panics.
    spilled: bool,
}

impl SharerSet {
    /// The members as a full set, wherever they are stored.
    #[inline]
    pub fn members(&self, spill: &SpillTable, key: u64) -> NodeSet {
        if self.spilled {
            *spill.slot(key).expect(MISSING)
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
            let s = spill.entry(key);
            *s = NodeSet::from_word(self.bits);
            s.insert(id);
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
            std::mem::take(spill.get_mut(key).expect(MISSING))
        } else {
            NodeSet::from_word(self.bits)
        };
        *self = Self::default();
        s
    }

    /// Empty the set.
    #[inline]
    pub fn clear(&mut self, spill: &mut SpillTable, key: u64) {
        self.take(spill, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::Rng64;

    /// No slot of `spill` holds a member.
    fn all_empty(spill: &SpillTable) -> bool {
        spill.iter().all(|(_, s)| s.is_empty())
    }

    #[test]
    fn matches_a_plain_node_set_across_the_spill_boundary() {
        let mut rng = Rng64::new(0x5AA2_E125);
        let mut spill = SpillTable::default();
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
                if !set.spilled {
                    assert!(spill.get(key).is_empty(), "unspilled set's slot in use");
                }
            }
            if rng.chance(0.5) {
                assert_eq!(set.take(&mut spill, key), model);
            } else {
                set.clear(&mut spill, key);
            }
            assert_eq!(set.members(&spill, key), NodeSet::empty());
            assert!(spill.get(key).is_empty(), "emptied set left a spill entry");
        }
        assert!(all_empty(&spill));
    }

    #[test]
    fn id_64_spills_and_survives_removal() {
        let mut spill = SpillTable::default();
        let mut set = SharerSet::default();
        for id in [3u16, 9, 63, 17, 9, 0] {
            set.insert(&mut spill, 7, id); // the second 9 is a duplicate
        }
        assert!(!set.spilled);
        assert!(all_empty(&spill));
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
        assert!(all_empty(&spill));
        // Emptied sets start inline again.
        set.insert(&mut spill, 7, 1);
        assert!(!set.spilled && all_empty(&spill));
    }

    #[test]
    #[should_panic(expected = "spilled sharer set missing")]
    fn spilled_set_without_a_slot_fails_loudly() {
        let mut spill = SpillTable::default();
        let mut set = SharerSet::default();
        set.insert(&mut spill, 3, 64);
        // A table that never reached line 9 cannot hold line 9's set.
        set.members(&spill, 9);
    }
}
