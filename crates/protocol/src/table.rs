//! Flat containers for the coherence engines' line and page state.
//!
//! Line and page numbers are dense from zero: the workload lays its
//! working set and sync lines out consecutively, the paper allocates
//! pages on demand to the first-touching node, and a line no node
//! accepts goes to the OS (§3.1). So every line- and page-keyed map of
//! the engines is a plain array indexed by number:
//!
//! * [`LineTable`] — line number → entry, one `Vec` slot per line up to
//!   the highest line written, `V::default()` meaning "no entry". A
//!   lookup is one bounds check and one indexed load. It holds both line
//!   directories (the COMA root table and the NUMA home table), the
//!   spilled wide sharer sets and the COMA engine's paged-out lines, so
//!   no line lookup hashes.
//! * [`PageHomes`] — the first-touch page table, page number → home
//!   node, a [`LineTable`] one level up, looked up by line.

use coma_types::{LineNum, NodeId, LINE_SHIFT, MAX_LINE, PAGE_SHIFT};

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
    /// The entry of `line`; `V::default()` if it was never written.
    #[inline]
    pub fn get(&self, line: u64) -> V {
        self.slots.get(line as usize).copied().unwrap_or_default()
    }

    /// The slot of `line`, if the table reaches it.
    #[inline]
    pub fn slot(&self, line: u64) -> Option<&V> {
        self.slots.get(line as usize)
    }

    /// The slot of `line` for update, if the table reaches it.
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

/// The first-touch page table: page number → home node. Both engines
/// allocate a page on demand to the node that first touches it and keep
/// it there (paper §3.1).
#[derive(Clone, Debug, Default)]
pub struct PageHomes {
    /// Home node per page, stored as `home + 1` (`0` = untouched).
    homes: LineTable<u16>,
}

impl PageHomes {
    /// Lines per page is `1 << LINES_SHIFT` (4096 / 64).
    const LINES_SHIFT: u32 = PAGE_SHIFT - LINE_SHIFT;

    /// Home node of `line`'s page, allocating the page to `toucher` on
    /// first touch.
    #[inline]
    pub fn home_of(&mut self, line: LineNum, toucher: NodeId) -> NodeId {
        let h = self.homes.entry(line.0 >> Self::LINES_SHIFT);
        if *h == 0 {
            *h = toucher.0 + 1;
        }
        NodeId(*h - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_table_grows_to_the_highest_line_touched() {
        let mut t: LineTable<u32> = LineTable::default();
        assert_eq!(t.get(1_000), 0);
        assert!(t.get_mut(3).is_none(), "a read grew the table");
        *t.entry(9) = 7;
        assert_eq!(t.slots.len(), 10);
        *t.entry(2) += 1;
        assert_eq!(t.slots.len(), 10, "a low line grew the table");
        assert_eq!((t.get(9), t.get(2), t.get(3), t.get(10)), (7, 1, 0, 0));
        *t.get_mut(9).unwrap() = 8;
        assert_eq!((t.slot(9), t.slot(10)), (Some(&8), None));
        // Lines index the table unnarrowed: no far line aliases line 9.
        assert_eq!((t.get((1 << 32) + 9), t.slot(u64::MAX)), (0, None));
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
        LineTable::<u8>::default().entry(MAX_LINE + 1);
    }

    #[test]
    fn page_homes_first_touch_wins() {
        let mut p = PageHomes::default();
        let home = |p: &mut PageHomes, line, toucher| p.home_of(LineNum(line), NodeId(toucher));
        assert_eq!(home(&mut p, 0, 3), NodeId(3));
        assert_eq!(home(&mut p, 63, 5), NodeId(3), "line 63 is on page 0");
        assert_eq!(home(&mut p, 64, 5), NodeId(5), "line 64 starts page 1");
        assert_eq!(home(&mut p, 700 * 64 + 9, 1), NodeId(1));
        assert_eq!(home(&mut p, 699 * 64, 0), NodeId(0));
        assert_eq!(home(&mut p, 3 * 64, 255), NodeId(255));
        assert_eq!(home(&mut p, 3 * 64 + 63, 0), NodeId(255));
    }
}
