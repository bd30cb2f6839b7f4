//! First-level cache: 4 KB direct-mapped, zero hit latency (paper §3.1).
//!
//! The FLC acts as a filter in front of the SLC. Each slot tracks the
//! resident line and whether the processor currently holds write
//! permission for it (mirroring the SLC's Modified state). Reads that hit
//! count as *busy* time; writes complete locally only when the slot is
//! writable, otherwise they drain through the write buffer into the SLC.

use coma_types::{FastMod, LineNum};

#[derive(Clone, Copy, Debug)]
struct Slot {
    line: LineNum,
    writable: bool,
}

/// A direct-mapped first-level cache.
#[derive(Clone, Debug)]
pub struct Flc {
    slots: Vec<Option<Slot>>,
    /// Division-free slot mapping: the FLC is probed on every single
    /// memory reference, so even one hardware modulo here is measurable.
    idx_mod: FastMod,
}

impl Flc {
    /// Create an FLC with `n_sets` line slots (4096 / 64 = 64 in the paper).
    pub fn new(n_sets: u64) -> Self {
        assert!(n_sets > 0);
        Flc {
            slots: vec![None; n_sets as usize],
            idx_mod: FastMod::new(n_sets),
        }
    }

    #[inline]
    fn idx(&self, line: LineNum) -> usize {
        self.idx_mod.reduce(line.0) as usize
    }

    /// Is the line resident (readable)?
    #[inline]
    pub fn read_hit(&self, line: LineNum) -> bool {
        matches!(self.slots[self.idx(line)], Some(s) if s.line == line)
    }

    /// Is the line resident with write permission?
    #[inline]
    pub fn write_hit(&self, line: LineNum) -> bool {
        matches!(self.slots[self.idx(line)], Some(s) if s.line == line && s.writable)
    }

    /// Fill a line after an SLC (or deeper) access; displaces whatever was
    /// in the slot (FLC is a subset of the SLC, so silent displacement is
    /// safe — the SLC still holds the displaced line).
    pub fn fill(&mut self, line: LineNum, writable: bool) {
        let i = self.idx(line);
        self.slots[i] = Some(Slot { line, writable });
    }

    /// Invalidate a line (inclusion: the SLC lost it, or coherence).
    pub fn invalidate(&mut self, line: LineNum) {
        let i = self.idx(line);
        if matches!(self.slots[i], Some(s) if s.line == line) {
            self.slots[i] = None;
        }
    }

    /// Downgrade write permission (coherence: another processor reads).
    pub fn downgrade(&mut self, line: LineNum) {
        let i = self.idx(line);
        if let Some(s) = &mut self.slots[i] {
            if s.line == line {
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

    #[test]
    fn fill_then_hit() {
        let mut f = Flc::new(64);
        assert!(!f.read_hit(LineNum(10)));
        f.fill(LineNum(10), false);
        assert!(f.read_hit(LineNum(10)));
        assert!(!f.write_hit(LineNum(10)));
    }

    #[test]
    fn writable_fill_gives_write_hit() {
        let mut f = Flc::new(64);
        f.fill(LineNum(10), true);
        assert!(f.write_hit(LineNum(10)));
    }

    #[test]
    fn conflicting_line_displaces() {
        let mut f = Flc::new(64);
        f.fill(LineNum(10), false);
        f.fill(LineNum(74), false); // 74 % 64 == 10
        assert!(!f.read_hit(LineNum(10)));
        assert!(f.read_hit(LineNum(74)));
    }

    #[test]
    fn invalidate_only_matching_line() {
        let mut f = Flc::new(64);
        f.fill(LineNum(10), true);
        f.invalidate(LineNum(74)); // maps to same slot but different line
        assert!(f.read_hit(LineNum(10)));
        f.invalidate(LineNum(10));
        assert!(!f.read_hit(LineNum(10)));
    }

    #[test]
    fn downgrade_keeps_read() {
        let mut f = Flc::new(64);
        f.fill(LineNum(5), true);
        f.downgrade(LineNum(5));
        assert!(f.read_hit(LineNum(5)));
        assert!(!f.write_hit(LineNum(5)));
    }
}
