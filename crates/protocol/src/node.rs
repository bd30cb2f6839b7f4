//! Per-node state: the attraction memory plus the private cache
//! hierarchies of the node's processors.
//!
//! The node also keeps a [`ResidencyFilter`] — an exact-counting,
//! conservative summary of which lines are resident in *any* of the
//! node's SLCs. The filter is private to the node: its private-cache
//! probes on the remote paths ([`NodeState::slc_holds`],
//! [`NodeState::dirty_peer`] and the invalidation and downgrade helpers)
//! consult it first, because those probes almost always miss and each
//! one is a cold host-cache access into a per-processor slab. A zero
//! count proves the line is in no SLC of the node — and, because the
//! FLCs are strict subsets of their SLCs, in no FLC either — so the
//! probe loop can be skipped without changing a single protocol
//! transition. A non-zero count (real residency or a hash collision)
//! falls through to the exact probes, so behaviour is byte-identical
//! either way. The filter pays for itself at 4 processors per node
//! (DESIGN.md §9 has the measurement without it).

use coma_cache::{AttractionMemory, Flc, LineIndex, Slc, SlcState, VictimPolicy};
use coma_types::{LineNum, MachineGeometry};

/// Knuth's multiplicative constant (2^64 / φ): a Fibonacci hash of the
/// line number picks its filter slot.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Exact counting filter over a node's SLC-resident lines.
///
/// Every SLC membership change (fill, eviction, invalidation) adjusts the
/// count of the line's hash slot, so `count == 0` is a proof of absence
/// while `count > 0` is only a hint (collisions conflate lines). The
/// filter never influences protocol decisions directly — it only gates
/// whether the exact private-cache probes run at all.
#[derive(Clone, Debug)]
pub struct ResidencyFilter {
    counts: Box<[u16]>,
    /// Right-shift turning a 64-bit hash into a slot index.
    shift: u32,
}

impl ResidencyFilter {
    fn new(lines_hint: usize) -> Self {
        // 4× the maximum resident-line count keeps collision-induced
        // false positives rare without outgrowing the host caches.
        let cap = (lines_hint * 4).next_power_of_two().clamp(1024, 1 << 16);
        ResidencyFilter {
            counts: vec![0u16; cap].into_boxed_slice(),
            shift: 64 - cap.trailing_zeros(),
        }
    }

    #[inline]
    fn slot(&self, line: LineNum) -> usize {
        (line.0.wrapping_mul(FIB) >> self.shift) as usize
    }

    #[inline]
    fn add(&mut self, line: LineNum) {
        self.counts[self.slot(line)] += 1;
    }

    #[inline]
    fn remove(&mut self, line: LineNum) {
        let s = self.slot(line);
        debug_assert!(self.counts[s] > 0, "filter underflow for {line:?}");
        self.counts[s] -= 1;
    }

    /// Could `line` be resident in some SLC? `false` is exact.
    #[inline]
    pub fn may_hold(&self, line: LineNum) -> bool {
        self.counts[self.slot(line)] != 0
    }
}

/// One cluster node (Figure 1 of the paper): `procs_per_node` processors,
/// each with a private FLC and SLC, sharing one attraction memory.
///
/// The `slcs`/`flcs` arrays stay public for read-only inspection
/// (verification, invariant checks, statistics), but *membership*
/// mutations of the SLCs must go through [`NodeState::slc_fill`] and the
/// invalidation helpers below so the residency filter stays exact —
/// [`NodeState::filter_consistent`] (run by the engine's invariant
/// checker) catches any bypass.
#[derive(Clone, Debug)]
pub struct NodeState {
    pub am: AttractionMemory,
    /// Private SLCs, indexed by the processor's index *within the node*.
    pub slcs: Vec<Slc>,
    /// Private FLCs, same indexing.
    pub flcs: Vec<Flc>,
    /// Conservative union-of-SLC-contents summary (see module docs).
    filter: ResidencyFilter,
}

impl NodeState {
    pub fn new(geom: &MachineGeometry, victim_policy: VictimPolicy) -> Self {
        let slc_lines = geom.slc_sets as usize * geom.slc_assoc * geom.procs_per_node;
        NodeState {
            am: AttractionMemory::new(geom.am_sets, geom.am_assoc, victim_policy),
            slcs: (0..geom.procs_per_node)
                .map(|_| Slc::new(geom.slc_sets, geom.slc_assoc))
                .collect(),
            flcs: (0..geom.procs_per_node)
                .map(|_| Flc::new(geom.flc_sets))
                .collect(),
            filter: ResidencyFilter::new(slc_lines),
        }
    }

    /// Insert `ix`'s line into processor `pidx`'s SLC, keeping the
    /// residency filter exact. Same contract as [`Slc::insert`]: returns
    /// the evicted `(line, state)` if the set was full.
    pub fn slc_fill(
        &mut self,
        pidx: usize,
        ix: LineIndex,
        state: SlcState,
    ) -> Option<(LineNum, SlcState)> {
        let slc = &mut self.slcs[pidx];
        let before = slc.len();
        let evicted = slc.insert(ix, state);
        // Three cases: update-in-place (no membership change), fill of a
        // free slot (line joins), evicting fill (line joins, victim
        // leaves).
        if evicted.is_some() || slc.len() > before {
            self.filter.add(ix.line());
        }
        if let Some((victim, _)) = evicted {
            self.filter.remove(victim);
        }
        evicted
    }

    /// Does some SLC of this node actually hold `line` (valid state)?
    #[inline]
    pub fn slc_holds(&self, ix: LineIndex) -> bool {
        self.filter.may_hold(ix.line()) && self.slcs.iter().any(|s| s.peek(ix).is_valid())
    }

    /// Enforce inclusion: the AM lost `line`, so every private cache in
    /// the node must drop it too.
    pub fn invalidate_private(&mut self, ix: LineIndex) {
        if !self.filter.may_hold(ix.line()) {
            return; // no SLC holds it, hence (FLC ⊆ SLC) no FLC either
        }
        let NodeState {
            slcs, flcs, filter, ..
        } = self;
        for slc in slcs.iter_mut() {
            if slc.invalidate(ix).is_valid() {
                filter.remove(ix.line());
            }
        }
        for flc in flcs.iter_mut() {
            flc.invalidate(ix);
        }
    }

    /// Downgrade every private copy to read-only (a reader appeared
    /// elsewhere). Returns true if some SLC held the line Modified.
    pub fn downgrade_private(&mut self, ix: LineIndex) -> bool {
        if !self.filter.may_hold(ix.line()) {
            return false;
        }
        let mut had_dirty = false;
        for slc in &mut self.slcs {
            had_dirty |= slc.downgrade(ix);
        }
        for flc in &mut self.flcs {
            flc.downgrade(ix);
        }
        had_dirty
    }

    /// Index of a peer SLC (≠ `except`) holding `line` Modified, if any.
    pub fn dirty_peer(&self, ix: LineIndex, except: usize) -> Option<usize> {
        if !self.filter.may_hold(ix.line()) {
            return None;
        }
        self.slcs
            .iter()
            .enumerate()
            .find(|(i, s)| *i != except && s.peek(ix) == SlcState::Modified)
            .map(|(i, _)| i)
    }

    /// Invalidate `line` in every private cache except processor `except`
    /// (intra-node write invalidation). Returns true if a dirty peer copy
    /// was destroyed-by-upgrade (its data first merged via the AM).
    pub fn invalidate_peers(&mut self, ix: LineIndex, except: usize) -> bool {
        if !self.filter.may_hold(ix.line()) {
            return false;
        }
        let mut had_dirty = false;
        let NodeState {
            slcs, flcs, filter, ..
        } = self;
        for (i, slc) in slcs.iter_mut().enumerate() {
            if i != except {
                let prev = slc.invalidate(ix);
                if prev.is_valid() {
                    filter.remove(ix.line());
                }
                had_dirty |= prev == SlcState::Modified;
            }
        }
        for (i, flc) in flcs.iter_mut().enumerate() {
            if i != except {
                flc.invalidate(ix);
            }
        }
        had_dirty
    }

    /// Verify the residency filter exactly matches the SLC contents
    /// (invariant check: catches any mutation that bypassed the
    /// filter-maintaining methods).
    pub fn filter_consistent(&self) -> Result<(), String> {
        let mut expect = vec![0u16; self.filter.counts.len()];
        for slc in &self.slcs {
            for (line, _) in slc.lines() {
                expect[self.filter.slot(line)] += 1;
            }
        }
        if expect[..] != self.filter.counts[..] {
            let bad = expect
                .iter()
                .zip(self.filter.counts.iter())
                .position(|(e, g)| e != g)
                .unwrap();
            return Err(format!(
                "SLC residency filter slot {bad} holds {} but SLC contents say {}",
                self.filter.counts[bad], expect[bad]
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_cache::Indexer;
    use coma_types::{MachineConfig, MemoryPressure};

    /// A 4-processor node and its machine's indexer.
    fn node() -> (NodeState, Indexer) {
        let cfg = MachineConfig::paper(4, MemoryPressure::MP_50);
        let geom = cfg.geometry(1 << 20).unwrap();
        (
            NodeState::new(&geom, VictimPolicy::SharedFirst),
            Indexer::new(&geom),
        )
    }

    #[test]
    fn construction_matches_geometry() {
        let (n, _) = node();
        assert_eq!(n.slcs.len(), 4);
        assert_eq!(n.flcs.len(), 4);
        assert!(n.am.capacity() > 0);
    }

    #[test]
    fn invalidate_private_clears_all_levels() {
        let (mut n, ixr) = node();
        let l = ixr.index(LineNum(5));
        n.slc_fill(1, l, SlcState::Shared);
        n.flcs[1].fill(l, false);
        n.invalidate_private(l);
        assert_eq!(n.slcs[1].peek(l), SlcState::Invalid);
        assert!(!n.flcs[1].read_hit(l));
        n.filter_consistent().unwrap();
    }

    #[test]
    fn dirty_peer_found_and_excluded() {
        let (mut n, ixr) = node();
        let l = ixr.index(LineNum(9));
        n.slc_fill(2, l, SlcState::Modified);
        assert_eq!(n.dirty_peer(l, 0), Some(2));
        assert_eq!(n.dirty_peer(l, 2), None);
    }

    #[test]
    fn downgrade_reports_dirty() {
        let (mut n, ixr) = node();
        let l = ixr.index(LineNum(3));
        n.slc_fill(0, l, SlcState::Modified);
        n.slc_fill(1, l, SlcState::Shared);
        assert!(n.downgrade_private(l));
        assert_eq!(n.slcs[0].peek(l), SlcState::Shared);
        assert!(!n.downgrade_private(l));
        n.filter_consistent().unwrap();
    }

    #[test]
    fn invalidate_peers_spares_writer() {
        let (mut n, ixr) = node();
        let l = ixr.index(LineNum(4));
        n.slc_fill(0, l, SlcState::Shared);
        n.slc_fill(1, l, SlcState::Shared);
        let dirty = n.invalidate_peers(l, 0);
        assert!(!dirty);
        assert_eq!(n.slcs[0].peek(l), SlcState::Shared);
        assert_eq!(n.slcs[1].peek(l), SlcState::Invalid);
        n.filter_consistent().unwrap();
    }

    #[test]
    fn filter_tracks_fill_update_and_eviction() {
        let (mut n, ixr) = node();
        // Fresh fill: filter sees the line.
        let l = ixr.index(LineNum(10));
        assert!(n.slc_fill(0, l, SlcState::Shared).is_none());
        assert!(n.filter.may_hold(LineNum(10)));
        // Update in place: count unchanged (still consistent).
        assert!(n.slc_fill(0, l, SlcState::Modified).is_none());
        n.filter_consistent().unwrap();
        // Fill the set until line 10's set evicts it; whatever is evicted
        // must leave the filter.
        let assoc = n.slcs[0].len(); // currently 1
        assert_eq!(assoc, 1);
        let mut evicted = Vec::new();
        for k in 1..100_000u64 {
            if let Some((l, _)) = n.slc_fill(0, ixr.index(LineNum(k)), SlcState::Shared) {
                evicted.push(l);
                break;
            }
        }
        assert!(!evicted.is_empty(), "no eviction after 100k fills");
        n.filter_consistent().unwrap();
    }

    #[test]
    fn zero_count_is_exact_absence() {
        let (mut n, ixr) = node();
        let l = ixr.index(LineNum(77));
        n.slc_fill(3, l, SlcState::Shared);
        n.invalidate_private(l);
        assert!(!n.slc_holds(l));
        n.filter_consistent().unwrap();
        // slc_holds on a never-seen line must not probe wrongly either.
        assert!(!n.slc_holds(ixr.index(LineNum(123_456))));
    }

    #[test]
    fn filter_consistency_catches_bypass() {
        let (mut n, ixr) = node();
        // Mutating the SLC directly (bypassing slc_fill) desynchronizes
        // the filter, and the checker must say so.
        n.slcs[0].insert(ixr.index(LineNum(42)), SlcState::Shared);
        assert!(n.filter_consistent().is_err());
    }
}
