//! Second-level cache: per-processor, set-associative, write-back, MSI.
//!
//! The SLC is sized at working-set/128 (paper §3.1) and sits between the
//! processor's FLC and the node's attraction memory. Inclusion holds in
//! both directions relevant to the protocol: every SLC line is present in
//! the node's AM, and a `Modified` SLC line implies the AM holds the line
//! `Exclusive`. Evicted Modified lines are written back into the AM (which
//! already has a slot for them, so SLC evictions never trigger AM
//! replacements).

use crate::index::LineIndex;
use crate::set_assoc::SetAssoc;
use crate::state::SlcState;
use coma_types::LineNum;

/// A per-processor second-level cache.
#[derive(Clone, Debug)]
pub struct Slc {
    array: SetAssoc<SlcState>,
}

impl Slc {
    pub fn new(n_sets: u64, assoc: usize) -> Self {
        Slc {
            array: SetAssoc::new(n_sets, assoc),
        }
    }

    /// State of a resident line (Invalid if absent). Touches LRU.
    #[inline]
    pub fn lookup(&mut self, ix: LineIndex) -> SlcState {
        self.array
            .lookup(ix.line, ix.slc)
            .unwrap_or(SlcState::Invalid)
    }

    /// State without touching LRU.
    #[inline]
    pub fn peek(&self, ix: LineIndex) -> SlcState {
        self.array
            .peek(ix.line, ix.slc)
            .unwrap_or(SlcState::Invalid)
    }

    /// Insert a line, evicting the set's LRU entry if the set is full.
    /// Returns the evicted `(line, state)` if any; a `Modified` eviction
    /// must be written back to the AM by the caller.
    pub fn insert(&mut self, ix: LineIndex, state: SlcState) -> Option<(LineNum, SlcState)> {
        debug_assert!(state.is_valid());
        self.array.insert_evicting(ix.line, ix.slc, state)
    }

    /// Invalidate (coherence or AM-inclusion). Returns the previous state.
    #[inline]
    pub fn invalidate(&mut self, ix: LineIndex) -> SlcState {
        self.array
            .remove(ix.line, ix.slc)
            .unwrap_or(SlcState::Invalid)
    }

    /// Downgrade Modified → Shared (another reader appeared). Returns true
    /// if the line was Modified (i.e. a writeback of current data occurs).
    #[inline]
    pub fn downgrade(&mut self, ix: LineIndex) -> bool {
        match self.array.state_mut(ix.line, ix.slc) {
            Some(s) if *s == SlcState::Modified => {
                *s = SlcState::Shared;
                true
            }
            _ => false,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Iterate resident lines (for invariant checks).
    pub fn lines(&self) -> impl Iterator<Item = (LineNum, SlcState)> + '_ {
        self.array.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `l`'s index in `s` (the other levels' fields are unused here).
    fn ix(s: &Slc, l: u64) -> LineIndex {
        LineIndex {
            line: LineNum(l),
            am: 0,
            slc: (l % s.array.n_sets()) as usize,
            flc: 0,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut s = Slc::new(4, 2);
        assert_eq!(s.lookup(ix(&s, 1)), SlcState::Invalid);
        s.insert(ix(&s, 1), SlcState::Shared);
        assert_eq!(s.lookup(ix(&s, 1)), SlcState::Shared);
    }

    #[test]
    fn eviction_returns_victim() {
        let mut s = Slc::new(1, 2);
        s.insert(ix(&s, 0), SlcState::Shared);
        s.insert(ix(&s, 1), SlcState::Modified);
        // Touch 1 so 0 is LRU.
        s.lookup(ix(&s, 1));
        let ev = s.insert(ix(&s, 2), SlcState::Shared);
        assert_eq!(ev, Some((LineNum(0), SlcState::Shared)));
        assert_eq!(s.peek(ix(&s, 0)), SlcState::Invalid);
    }

    #[test]
    fn modified_eviction_reported_for_writeback() {
        let mut s = Slc::new(1, 1);
        s.insert(ix(&s, 0), SlcState::Modified);
        let ev = s.insert(ix(&s, 1), SlcState::Shared);
        assert_eq!(ev, Some((LineNum(0), SlcState::Modified)));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut s = Slc::new(1, 1);
        s.insert(ix(&s, 0), SlcState::Shared);
        let ev = s.insert(ix(&s, 0), SlcState::Modified);
        assert_eq!(ev, None);
        assert_eq!(s.peek(ix(&s, 0)), SlcState::Modified);
    }

    #[test]
    fn invalidate_returns_previous() {
        let mut s = Slc::new(2, 2);
        s.insert(ix(&s, 0), SlcState::Modified);
        assert_eq!(s.invalidate(ix(&s, 0)), SlcState::Modified);
        assert_eq!(s.invalidate(ix(&s, 0)), SlcState::Invalid);
    }

    #[test]
    fn downgrade_only_modified() {
        let mut s = Slc::new(2, 2);
        s.insert(ix(&s, 0), SlcState::Modified);
        s.insert(ix(&s, 1), SlcState::Shared);
        assert!(s.downgrade(ix(&s, 0)));
        assert_eq!(s.peek(ix(&s, 0)), SlcState::Shared);
        assert!(!s.downgrade(ix(&s, 1)));
        assert!(!s.downgrade(ix(&s, 7)));
    }
}
