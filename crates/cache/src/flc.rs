//! First-level cache: 4 KB direct-mapped, zero hit latency (paper §3.1).
//!
//! The FLC acts as a filter in front of the SLC. Each slot tracks the
//! resident line and whether the processor currently holds write
//! permission for it (mirroring the SLC's Modified state). Reads that hit
//! count as *busy* time; writes complete locally only when the slot is
//! writable, otherwise they drain through the write buffer into the SLC.

use crate::index::LineIndex;
use coma_types::LineNum;

#[derive(Clone, Copy, Debug)]
struct Slot {
    line: LineNum,
    writable: bool,
}

/// A direct-mapped first-level cache. Probed on every memory reference,
/// so it takes the slot from the access's [`LineIndex`] rather than
/// reducing the line itself.
#[derive(Clone, Debug)]
pub struct Flc {
    slots: Vec<Option<Slot>>,
}

impl Flc {
    /// Create an FLC with `n_sets` line slots (4096 / 64 = 64 in the paper).
    pub fn new(n_sets: u64) -> Self {
        assert!(n_sets > 0);
        Flc {
            slots: vec![None; n_sets as usize],
        }
    }

    /// The slot of `ix`, which must be its line's own.
    #[inline]
    fn idx(&self, ix: LineIndex) -> usize {
        debug_assert_eq!(
            ix.flc as u64,
            ix.line.0 % self.slots.len() as u64,
            "FLC slot {} is not {:?}'s own",
            ix.flc,
            ix.line
        );
        ix.flc
    }

    /// Is the line resident (readable)?
    #[inline]
    pub fn read_hit(&self, ix: LineIndex) -> bool {
        matches!(self.slots[self.idx(ix)], Some(s) if s.line == ix.line)
    }

    /// Is the line resident with write permission?
    #[inline]
    pub fn write_hit(&self, ix: LineIndex) -> bool {
        matches!(self.slots[self.idx(ix)], Some(s) if s.line == ix.line && s.writable)
    }

    /// Fill a line after an SLC (or deeper) access; displaces whatever was
    /// in the slot (FLC is a subset of the SLC, so silent displacement is
    /// safe — the SLC still holds the displaced line).
    #[inline]
    pub fn fill(&mut self, ix: LineIndex, writable: bool) {
        let i = self.idx(ix);
        self.slots[i] = Some(Slot {
            line: ix.line,
            writable,
        });
    }

    /// Invalidate a line (inclusion: the SLC lost it, or coherence).
    #[inline]
    pub fn invalidate(&mut self, ix: LineIndex) {
        let i = self.idx(ix);
        if matches!(self.slots[i], Some(s) if s.line == ix.line) {
            self.slots[i] = None;
        }
    }

    /// Downgrade write permission (coherence: another processor reads).
    #[inline]
    pub fn downgrade(&mut self, ix: LineIndex) {
        let i = self.idx(ix);
        if let Some(s) = &mut self.slots[i] {
            if s.line == ix.line {
                s.writable = false;
            }
        }
    }

    /// Iterate all resident lines as `(line, writable)` (verification).
    pub fn lines(&self) -> impl Iterator<Item = (LineNum, bool)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|s| (s.line, s.writable)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `l`'s index in a 64-slot FLC (the other levels' fields are unused).
    fn ix(l: u64) -> LineIndex {
        LineIndex {
            line: LineNum(l),
            am: 0,
            slc: 0,
            flc: (l % 64) as usize,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut f = Flc::new(64);
        assert!(!f.read_hit(ix(10)));
        f.fill(ix(10), false);
        assert!(f.read_hit(ix(10)));
        assert!(!f.write_hit(ix(10)));
    }

    #[test]
    fn writable_fill_gives_write_hit() {
        let mut f = Flc::new(64);
        f.fill(ix(10), true);
        assert!(f.write_hit(ix(10)));
    }

    #[test]
    fn conflicting_line_displaces() {
        let mut f = Flc::new(64);
        f.fill(ix(10), false);
        f.fill(ix(74), false); // 74 % 64 == 10
        assert!(!f.read_hit(ix(10)));
        assert!(f.read_hit(ix(74)));
    }

    #[test]
    fn invalidate_only_matching_line() {
        let mut f = Flc::new(64);
        f.fill(ix(10), true);
        f.invalidate(ix(74)); // maps to same slot but different line
        assert!(f.read_hit(ix(10)));
        f.invalidate(ix(10));
        assert!(!f.read_hit(ix(10)));
    }

    #[test]
    fn downgrade_keeps_read() {
        let mut f = Flc::new(64);
        f.fill(ix(5), true);
        f.downgrade(ix(5));
        assert!(f.read_hit(ix(5)));
        assert!(!f.write_hit(ix(5)));
    }
}
