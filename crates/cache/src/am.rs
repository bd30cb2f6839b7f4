//! The attraction memory: a node's entire memory organized as a huge
//! set-associative cache with COMA states (paper §2, §3.1).
//!
//! Unlike a conventional cache, an AM cannot silently drop everything:
//! `Owner`/`Exclusive` lines are the *responsible* copies and must be
//! relocated ("injected") into another node on replacement, because there
//! is no backing main memory. [`AttractionMemory::make_room`] implements
//! the paper's victim priority (Shared replicas first), and
//! [`AttractionMemory::accept_slot`] implements the receiving side of the
//! accept-based replacement strategy (Invalid slots before Shared slots,
//! so that injections never cascade).

use crate::index::LineIndex;
use crate::policy::{AcceptPolicy, VictimPolicy};
use crate::set_assoc::SetAssoc;
use crate::state::AmState;
use coma_types::LineNum;

/// What a full (or non-full) set must sacrifice to admit a new line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Victim {
    /// The set has a free slot; nothing is displaced.
    FreeSlot,
    /// A Shared replica is dropped silently (an Owner survives elsewhere).
    DropShared(LineNum),
    /// A responsible copy is displaced and must be injected elsewhere.
    Inject(LineNum, AmState),
}

/// What a receiving node would sacrifice to accept an injected line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcceptSlot {
    /// A free (Invalid) slot: the preferred receiver.
    Invalid,
    /// A Shared replica that would be overwritten (shrinking replication).
    Shared(LineNum),
}

/// One node's attraction memory.
#[derive(Clone, Debug)]
pub struct AttractionMemory {
    array: SetAssoc<AmState>,
    victim_policy: VictimPolicy,
}

impl AttractionMemory {
    pub fn new(n_sets: u64, assoc: usize, victim_policy: VictimPolicy) -> Self {
        AttractionMemory {
            array: SetAssoc::new(n_sets, assoc),
            victim_policy,
        }
    }

    /// Current state of a line (Invalid if absent), by line number alone:
    /// the cold form for checkers and tests. Does not touch LRU.
    pub fn state(&self, line: LineNum) -> AmState {
        self.array
            .peek(line, self.array.set_of(line))
            .unwrap_or(AmState::Invalid)
    }

    /// Current state of a line (Invalid if absent). Does not touch LRU.
    #[inline]
    pub fn peek(&self, ix: LineIndex) -> AmState {
        self.array.peek(ix.line, ix.am).unwrap_or(AmState::Invalid)
    }

    /// State of a line, marking it most-recently-used.
    #[inline]
    pub fn touch(&mut self, ix: LineIndex) -> AmState {
        self.array
            .lookup(ix.line, ix.am)
            .unwrap_or(AmState::Invalid)
    }

    /// Transition a resident line to a new valid state; no-op if absent.
    pub fn set_state(&mut self, ix: LineIndex, state: AmState) {
        if state.is_valid() {
            if let Some(s) = self.array.state_mut(ix.line, ix.am) {
                *s = state;
            }
        } else {
            self.array.remove(ix.line, ix.am);
        }
    }

    /// Remove a line (invalidation); returns its previous state.
    #[inline]
    pub fn remove(&mut self, ix: LineIndex) -> AmState {
        self.array
            .remove(ix.line, ix.am)
            .unwrap_or(AmState::Invalid)
    }

    /// Decide what must be displaced so that `ix`'s line can be inserted
    /// into its set. Does **not** perform the insertion or the
    /// displacement. One scan of the set — which visits in recency
    /// order, so the *last* visit of a kind is its LRU — counts the
    /// occupancy and collects the overall and Shared-only LRU entries
    /// that both victim policies choose between.
    pub fn make_room(&self, ix: LineIndex) -> Victim {
        let mut occupied = 0usize;
        let mut lru_any: Option<(LineNum, AmState)> = None;
        let mut lru_shared: Option<LineNum> = None;
        self.array.scan_set(ix.line, ix.am, |l, s| {
            occupied += 1;
            lru_any = Some((l, s));
            if s == AmState::Shared {
                lru_shared = Some(l);
            }
        });
        if occupied < self.array.assoc() {
            return Victim::FreeSlot;
        }
        let (lru_line, lru_state) = lru_any.expect("full set is non-empty");
        match self.victim_policy {
            VictimPolicy::SharedFirst => match lru_shared {
                Some(l) => Victim::DropShared(l),
                None => Victim::Inject(lru_line, lru_state),
            },
            VictimPolicy::StrictLru => {
                if lru_state == AmState::Shared {
                    Victim::DropShared(lru_line)
                } else {
                    Victim::Inject(lru_line, lru_state)
                }
            }
        }
    }

    /// Would this node accept an injection of `line` under `policy`, and
    /// at what cost? `None` means the set is entirely Owner/Exclusive and
    /// acceptance would cascade — so the node refuses (paper: the accept
    /// mechanism avoids avalanching replacements).
    ///
    /// A node that already holds the line cannot be its receiver.
    pub fn accept_slot(&self, ix: LineIndex, policy: AcceptPolicy) -> Option<AcceptSlot> {
        // One scan answers all three questions: already resident?, set
        // occupancy, and the LRU Shared replica (the last Shared visited,
        // since the scan runs most-recent first) if any.
        let mut resident = false;
        let mut occupied = 0usize;
        let mut lru_shared: Option<LineNum> = None;
        self.array.scan_set(ix.line, ix.am, |l, s| {
            resident |= l == ix.line;
            occupied += 1;
            if s == AmState::Shared {
                lru_shared = Some(l);
            }
        });
        if resident {
            return None;
        }
        let free = occupied < self.array.assoc();
        let shared = lru_shared.map(AcceptSlot::Shared);
        match policy {
            AcceptPolicy::InvalidThenShared => {
                if free {
                    Some(AcceptSlot::Invalid)
                } else {
                    shared
                }
            }
            AcceptPolicy::SharedThenInvalid => shared.or(if free {
                Some(AcceptSlot::Invalid)
            } else {
                None
            }),
        }
    }

    /// Insert a line known to be absent, into a set known to have room.
    pub fn insert(&mut self, ix: LineIndex, state: AmState) {
        debug_assert!(state.is_valid());
        self.array.insert(ix.line, ix.am, state);
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> u64 {
        self.array.n_sets() * self.array.assoc() as u64
    }

    /// Count of resident lines per state `(shared, owner, exclusive)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut s = 0;
        let mut o = 0;
        let mut e = 0;
        for (_, state) in self.array.iter() {
            match state {
                AmState::Shared => s += 1,
                AmState::Owner => o += 1,
                AmState::Exclusive => e += 1,
                AmState::Invalid => unreachable!("invalid entries are not stored"),
            }
        }
        (s, o, e)
    }

    /// Iterate resident lines (for invariant checks).
    pub fn lines(&self) -> impl Iterator<Item = (LineNum, AmState)> + '_ {
        self.array.iter()
    }

    pub fn n_sets(&self) -> u64 {
        self.array.n_sets()
    }

    pub fn assoc(&self) -> usize {
        self.array.assoc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn am(n_sets: u64, assoc: usize) -> AttractionMemory {
        AttractionMemory::new(n_sets, assoc, VictimPolicy::SharedFirst)
    }

    /// `l`'s index in `a` (the other levels' fields are unused here).
    fn ix(a: &AttractionMemory, l: u64) -> LineIndex {
        let line = LineNum(l);
        LineIndex {
            line,
            am: (l % a.n_sets()) as usize,
            slc: 0,
            flc: 0,
        }
    }

    #[test]
    fn empty_set_has_free_slot() {
        let a = am(4, 2);
        assert_eq!(a.make_room(ix(&a, 0)), Victim::FreeSlot);
    }

    #[test]
    fn shared_victim_preferred_over_owner() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 0), AmState::Owner);
        a.insert(ix(&a, 1), AmState::Shared);
        // Owner is older (LRU) but Shared is the victim under SharedFirst.
        assert_eq!(a.make_room(ix(&a, 2)), Victim::DropShared(LineNum(1)));
    }

    #[test]
    fn all_responsible_forces_injection() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 0), AmState::Exclusive);
        a.insert(ix(&a, 1), AmState::Owner);
        // LRU is line 0 (inserted first, never touched).
        assert_eq!(
            a.make_room(ix(&a, 2)),
            Victim::Inject(LineNum(0), AmState::Exclusive)
        );
    }

    #[test]
    fn strict_lru_injects_even_with_shared_present() {
        let mut a = AttractionMemory::new(1, 2, VictimPolicy::StrictLru);
        a.insert(ix(&a, 0), AmState::Owner);
        a.insert(ix(&a, 1), AmState::Shared);
        assert_eq!(
            a.make_room(ix(&a, 2)),
            Victim::Inject(LineNum(0), AmState::Owner)
        );
    }

    #[test]
    fn accept_prefers_invalid_slot() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 1), AmState::Shared);
        assert_eq!(
            a.accept_slot(ix(&a, 2), AcceptPolicy::InvalidThenShared),
            Some(AcceptSlot::Invalid)
        );
    }

    #[test]
    fn accept_overwrites_shared_when_full() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 1), AmState::Shared);
        a.insert(ix(&a, 3), AmState::Owner);
        assert_eq!(
            a.accept_slot(ix(&a, 2), AcceptPolicy::InvalidThenShared),
            Some(AcceptSlot::Shared(LineNum(1)))
        );
    }

    #[test]
    fn accept_refuses_all_responsible_set() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 1), AmState::Owner);
        a.insert(ix(&a, 3), AmState::Exclusive);
        assert_eq!(
            a.accept_slot(ix(&a, 2), AcceptPolicy::InvalidThenShared),
            None
        );
    }

    #[test]
    fn holder_cannot_accept_its_own_line() {
        let mut a = am(1, 4);
        a.insert(ix(&a, 2), AmState::Shared);
        assert_eq!(
            a.accept_slot(ix(&a, 2), AcceptPolicy::InvalidThenShared),
            None
        );
    }

    #[test]
    fn shared_then_invalid_sacrifices_replica_first() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 1), AmState::Shared);
        assert_eq!(
            a.accept_slot(ix(&a, 2), AcceptPolicy::SharedThenInvalid),
            Some(AcceptSlot::Shared(LineNum(1)))
        );
    }

    /// Every accept policy must be observable: on a set that holds both a
    /// free slot and a Shared replica, no two policies answer alike.
    #[test]
    fn accept_policies_are_distinguishable() {
        // The match is exhaustive, so a new variant does not compile until
        // it takes a place in `ALL`.
        const ALL: [AcceptPolicy; 2] = [
            AcceptPolicy::InvalidThenShared,
            AcceptPolicy::SharedThenInvalid,
        ];
        let place = |p: AcceptPolicy| match p {
            AcceptPolicy::InvalidThenShared => 0,
            AcceptPolicy::SharedThenInvalid => 1,
        };
        let mut a = am(1, 2);
        a.insert(ix(&a, 1), AmState::Shared);
        let answers: Vec<_> = ALL
            .into_iter()
            .map(|p| {
                assert_eq!(ALL[place(p)], p);
                a.accept_slot(ix(&a, 2), p)
            })
            .collect();
        for (i, x) in answers.iter().enumerate() {
            for (j, y) in answers.iter().enumerate().skip(i + 1) {
                assert_ne!(x, y, "{:?} and {:?} accept alike", ALL[i], ALL[j]);
            }
        }
    }

    #[test]
    fn census_counts_states() {
        let mut a = am(4, 2);
        a.insert(ix(&a, 0), AmState::Shared);
        a.insert(ix(&a, 1), AmState::Owner);
        a.insert(ix(&a, 2), AmState::Exclusive);
        a.insert(ix(&a, 3), AmState::Exclusive);
        assert_eq!(a.census(), (1, 1, 2));
    }

    #[test]
    fn set_state_invalid_removes() {
        let mut a = am(4, 2);
        a.insert(ix(&a, 0), AmState::Shared);
        a.set_state(ix(&a, 0), AmState::Invalid);
        assert_eq!(a.state(LineNum(0)), AmState::Invalid);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn touch_changes_lru_victim() {
        let mut a = am(1, 2);
        a.insert(ix(&a, 0), AmState::Shared);
        a.insert(ix(&a, 1), AmState::Shared);
        a.touch(ix(&a, 0)); // now line 1 is LRU
        assert_eq!(a.make_room(ix(&a, 2)), Victim::DropShared(LineNum(1)));
    }
}
