//! Global line directory: one root entry per live line.
//!
//! The modeled hardware locates lines by snooping; the simulator shortcuts
//! the search with a directory mapping each live line to its responsible
//! (Owner/Exclusive) node and the set of Shared replica holders. The
//! directory is *simulation state*, not modeled hardware — it must stay
//! consistent with the per-node attraction memories, which the engine's
//! invariant checker verifies.
//!
//! In a hierarchical topology a line's root entry also answers the one
//! question a tree directory's presence bits would: how far a write
//! upgrade's invalidation must climb ([`LineInfo::farthest_present`]).
//! The answer is derived from the entry on demand, so no per-level state
//! exists to fall out of step with it.
//!
//! The root table is a [`LineTable`] indexed by line number: these
//! lookups sit on the hot path of every simulated miss, and line numbers
//! are dense from zero, so a lookup is one indexed load — see the module
//! docs of [`crate::table`].

use crate::sharers::{SharerSet, SpillTable};
use crate::table::LineTable;
use coma_types::{LineNum, NodeId, NodeSet, Placement};

/// Where a live line's copies are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LineInfo {
    /// Node holding the responsible (Owner or Exclusive) copy.
    pub owner: NodeId,
    /// Set of nodes holding Shared replicas (owner never a member).
    pub sharers: NodeSet,
}

impl LineInfo {
    /// Number of Shared replicas.
    pub fn n_sharers(self) -> u32 {
        self.sharers.len() as u32
    }

    /// Nodes in the sharer set, ascending (bit-scan, no per-call
    /// allocation; cost proportional to the population count).
    pub fn sharer_nodes(self) -> impl Iterator<Item = NodeId> {
        self.sharers.iter().map(NodeId)
    }

    /// Among the groups holding a copy of the line, the one *farthest*
    /// from `from_group` (greatest LCA height, lowest group index on
    /// ties). This is the question a hierarchical write upgrade asks —
    /// "how high must my invalidation climb?". `None` on flat machines.
    pub fn farthest_present(self, place: &Placement, from_group: usize) -> Option<usize> {
        let topo = place.topology();
        if topo.is_flat() {
            return None;
        }
        // At most 64 groups (`MachineConfig::validate`).
        let mut mask = 1u64 << place.group_of(self.owner);
        for s in self.sharer_nodes() {
            mask |= 1 << place.group_of(s);
        }
        let mut best: Option<(usize, usize)> = None; // (height, group)
        while mask != 0 {
            let g = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let h = topo.lca_height(from_group, g);
            if best.is_none_or(|(bh, _)| h > bh) {
                best = Some((h, g));
            }
        }
        best.map(|(_, g)| g)
    }
}

/// Compact stored form of a [`LineInfo`]: the root table holds one entry
/// per line and is probed on every global action, so its slots are the
/// single largest host-cache consumer in the simulator. The sharers are a
/// [`SharerSet`], inline for nodes 0–63.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RootEntry {
    /// Node holding the responsible copy, stored as `owner + 1` (`0` =
    /// a dead line) so the all-zero entry is the empty one.
    owner_p1: u16,
    sharers: SharerSet,
}

// Twelve bytes per line of the line universe.
const _: () = assert!(std::mem::size_of::<RootEntry>() == 12);

impl RootEntry {
    #[inline]
    fn is_live(&self) -> bool {
        self.owner_p1 != 0
    }
}

/// The entry of a live line in `map`, for update.
#[inline]
fn live_mut(map: &mut LineTable<RootEntry>, line: LineNum) -> Option<&mut RootEntry> {
    map.get_mut(line.0).filter(|e| e.is_live())
}

/// The machine-wide line directory: the root table plus the spill
/// table for wide sharer sets.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    map: LineTable<RootEntry>,
    /// Number of live lines.
    live: usize,
    /// Sharer sets of lines too wide for inline storage (see [`SharerSet`]).
    spill: SpillTable,
}

impl Directory {
    /// Materialize the full [`LineInfo`] a live entry denotes.
    #[inline]
    fn info_of(&self, line: u64, e: RootEntry) -> LineInfo {
        LineInfo {
            owner: NodeId(e.owner_p1 - 1),
            sharers: e.sharers.members(&self.spill, line),
        }
    }

    /// Look up a live line.
    #[inline]
    pub fn get(&self, line: LineNum) -> Option<LineInfo> {
        let e = self.map.get(line.0);
        e.is_live().then(|| self.info_of(line.0, e))
    }

    /// Is the line live anywhere in the machine?
    #[inline]
    pub fn contains(&self, line: LineNum) -> bool {
        self.map.get(line.0).is_live()
    }

    /// Register a brand-new line with a sole (Exclusive) copy.
    pub fn insert_sole(&mut self, line: LineNum, owner: NodeId) {
        let e = self.map.entry(line.0);
        debug_assert!(!e.is_live(), "line {line:?} already live");
        *e = RootEntry {
            owner_p1: owner.0 + 1,
            sharers: SharerSet::default(),
        };
        self.live += 1;
    }

    /// Add a Shared replica holder (idempotent, set semantics).
    pub fn add_sharer(&mut self, line: LineNum, node: NodeId) {
        let e = live_mut(&mut self.map, line).expect("sharer of dead line");
        debug_assert_ne!(e.owner_p1, node.0 + 1, "owner cannot also be a sharer");
        e.sharers.insert(&mut self.spill, line.0, node.0);
    }

    /// Drop a Shared replica holder.
    pub fn remove_sharer(&mut self, line: LineNum, node: NodeId) {
        if let Some(e) = live_mut(&mut self.map, line) {
            e.sharers.remove(&mut self.spill, line.0, node.0);
        }
    }

    /// Is `node` a registered sharer?
    pub fn is_sharer(&self, line: LineNum, node: NodeId) -> bool {
        self.get(line)
            .map(|i| i.sharers.contains(node.0))
            .unwrap_or(false)
    }

    /// Move the responsible copy to `node` (which must not be a sharer
    /// afterward). Keeps the remaining sharer set unless cleared by the
    /// caller.
    pub fn set_owner(&mut self, line: LineNum, node: NodeId) {
        let e = live_mut(&mut self.map, line).expect("owner of dead line");
        e.owner_p1 = node.0 + 1;
        e.sharers.remove(&mut self.spill, line.0, node.0);
    }

    /// Replace the sharer set wholesale (used by write invalidations).
    pub fn clear_sharers(&mut self, line: LineNum) {
        if let Some(e) = live_mut(&mut self.map, line) {
            e.sharers.clear(&mut self.spill, line.0);
        }
    }

    /// Remove a line entirely (page-out).
    pub fn remove(&mut self, line: LineNum) -> Option<LineInfo> {
        let mut e = std::mem::take(live_mut(&mut self.map, line)?);
        self.live -= 1;
        Some(LineInfo {
            owner: NodeId(e.owner_p1 - 1),
            sharers: e.sharers.take(&mut self.spill, line.0),
        })
    }

    /// Number of live lines.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate all live lines in ascending order (invariant checking).
    pub fn iter(&self) -> impl Iterator<Item = (LineNum, LineInfo)> + '_ {
        self.map
            .iter()
            .filter(|(_, e)| e.is_live())
            .map(move |(l, e)| (LineNum(l), self.info_of(l, *e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::{MachineConfig, Rng64, Topology};

    #[test]
    fn sole_insert_then_sharers() {
        let mut d = Directory::default();
        d.insert_sole(LineNum(7), NodeId(2));
        d.add_sharer(LineNum(7), NodeId(5));
        d.add_sharer(LineNum(7), NodeId(0));
        let info = d.get(LineNum(7)).unwrap();
        assert_eq!(info.owner, NodeId(2));
        assert_eq!(info.n_sharers(), 2);
        let sharers: Vec<NodeId> = info.sharer_nodes().collect();
        assert_eq!(sharers, vec![NodeId(0), NodeId(5)]);
    }

    #[test]
    fn remove_sharer_idempotent() {
        let mut d = Directory::default();
        d.insert_sole(LineNum(1), NodeId(0));
        d.add_sharer(LineNum(1), NodeId(3));
        d.remove_sharer(LineNum(1), NodeId(3));
        d.remove_sharer(LineNum(1), NodeId(3));
        assert_eq!(d.get(LineNum(1)).unwrap().n_sharers(), 0);
    }

    #[test]
    fn owner_migration_clears_new_owner_from_sharers() {
        let mut d = Directory::default();
        d.insert_sole(LineNum(1), NodeId(0));
        d.add_sharer(LineNum(1), NodeId(3));
        d.set_owner(LineNum(1), NodeId(3));
        let info = d.get(LineNum(1)).unwrap();
        assert_eq!(info.owner, NodeId(3));
        assert_eq!(info.n_sharers(), 0);
    }

    #[test]
    fn remove_kills_line() {
        let mut d = Directory::default();
        d.insert_sole(LineNum(9), NodeId(1));
        assert!(d.remove(LineNum(9)).is_some());
        assert!(!d.contains(LineNum(9)));
        assert!(d.remove(LineNum(9)).is_none());
    }

    #[test]
    fn is_sharer_checks_membership() {
        let mut d = Directory::default();
        d.insert_sole(LineNum(2), NodeId(0));
        d.add_sharer(LineNum(2), NodeId(15));
        assert!(d.is_sharer(LineNum(2), NodeId(15)));
        assert!(!d.is_sharer(LineNum(2), NodeId(14)));
        assert!(!d.is_sharer(LineNum(3), NodeId(15)));
    }

    #[test]
    fn sharers_beyond_sixteen_nodes() {
        let mut d = Directory::default();
        d.insert_sole(LineNum(4), NodeId(200));
        for n in [17u16, 63, 64, 255] {
            d.add_sharer(LineNum(4), NodeId(n));
        }
        let info = d.get(LineNum(4)).unwrap();
        assert_eq!(info.n_sharers(), 4);
        assert!(d.is_sharer(LineNum(4), NodeId(255)));
        assert_eq!(info.sharer_nodes().next(), Some(NodeId(17)));
    }

    #[test]
    fn matches_a_btreemap_model_across_growths() {
        use std::collections::BTreeMap;
        let mut rng = Rng64::new(0xD1_7AB1E);
        let mut d = Directory::default();
        let mut model: BTreeMap<u64, LineInfo> = BTreeMap::new();
        // Nodes on both sides of the inline mask's 64-id bound.
        let node = |rng: &mut Rng64| {
            let universe = if rng.chance(0.5) { 64 } else { 256 };
            NodeId(rng.below(universe) as u16)
        };
        for step in 0..3000 {
            // Log-uniform lines: the table grows through several sizes,
            // and half the steps revisit a live line.
            let line = match model.keys().nth(rng.below(model.len() as u64 + 1) as usize) {
                Some(&l) if rng.chance(0.5) => l,
                _ => {
                    let bits = rng.range(1, 13);
                    rng.below(1 << bits)
                }
            };
            let l = LineNum(line);
            match (model.get_mut(&line), rng.below(6)) {
                (None, 0..=2) => {
                    let owner = node(&mut rng);
                    d.insert_sole(l, owner);
                    model.insert(line, info(owner.0, &[]));
                }
                (None, 3) => assert_eq!(d.remove(l), None),
                (None, 4) => d.remove_sharer(l, node(&mut rng)),
                (None, _) => d.clear_sharers(l),
                (Some(m), 0 | 1) => {
                    let s = node(&mut rng);
                    if s != m.owner {
                        d.add_sharer(l, s);
                        m.sharers.insert(s.0);
                    }
                }
                (Some(m), 2) => {
                    let s = match m.sharer_nodes().next() {
                        Some(s) if rng.chance(0.5) => s,
                        _ => node(&mut rng),
                    };
                    d.remove_sharer(l, s);
                    m.sharers.remove(s.0);
                }
                (Some(m), 3) => {
                    let o = match m.sharer_nodes().last() {
                        Some(s) if rng.chance(0.5) => s,
                        _ => node(&mut rng),
                    };
                    d.set_owner(l, o);
                    m.owner = o;
                    m.sharers.remove(o.0);
                }
                (Some(m), 4) => {
                    d.clear_sharers(l);
                    m.sharers.clear();
                }
                (Some(_), _) => assert_eq!(d.remove(l), model.remove(&line)),
            }
            let probe = LineNum(rng.below(1 << 13));
            for l in [l, probe] {
                assert_eq!(d.get(l), model.get(&l.0).copied(), "step {step} {l:?}");
                assert_eq!(d.contains(l), model.contains_key(&l.0));
            }
            assert_eq!(d.len(), model.len());
            assert_eq!(d.is_empty(), model.is_empty());
            let got: Vec<(u64, LineInfo)> = d.iter().map(|(l, i)| (l.0, i)).collect();
            let want: Vec<(u64, LineInfo)> = model.iter().map(|(&l, &i)| (l, i)).collect();
            assert_eq!(got, want, "step {step}");
        }
        assert!(
            d.map.iter().count() > 1 << 11,
            "the lines never spanned a growth"
        );
        for (&line, &i) in &model {
            assert_eq!(d.remove(LineNum(line)), Some(i));
        }
        assert!(
            d.is_empty() && d.spill.iter().all(|(_, s)| s.is_empty()),
            "removal leaked"
        );
    }

    /// The placement of `n_procs` single-processor nodes on `topology`.
    fn place_on(n_procs: usize, topology: Topology) -> Placement {
        let cfg = MachineConfig {
            n_procs,
            topology,
            ..Default::default()
        };
        Placement::new(&cfg.geometry(4 << 20).unwrap())
    }

    fn info(owner: u16, sharers: &[u16]) -> LineInfo {
        let mut set = NodeSet::default();
        for &s in sharers {
            set.insert(s);
        }
        LineInfo {
            owner: NodeId(owner),
            sharers: set,
        }
    }

    #[test]
    fn flat_machine_has_no_farthest_group() {
        let p = place_on(16, Topology::flat());
        assert_eq!(info(0, &[5, 9]).farthest_present(&p, 0), None);
        assert_eq!(info(3, &[7]).farthest_present(&p, 0), None);
    }

    #[test]
    fn owner_only_line_is_farthest_in_the_owners_group() {
        // 8 nodes in 4 groups of 2 under one root level.
        let p = place_on(8, Topology::two_level(4));
        assert_eq!(info(0, &[]).farthest_present(&p, 0), Some(0));
        assert_eq!(info(5, &[]).farthest_present(&p, 0), Some(2));
        assert_eq!(info(5, &[]).farthest_present(&p, 2), Some(2));
    }

    #[test]
    fn equal_heights_pick_the_lowest_group() {
        // Every pair of distinct groups meets at the single root level.
        let p = place_on(8, Topology::two_level(4));
        let line = info(6, &[2, 5]); // groups 3, 1 and 2
        assert_eq!(line.farthest_present(&p, 0), Some(1));
        assert_eq!(line.farthest_present(&p, 1), Some(2));
        assert_eq!(line.farthest_present(&p, 3), Some(1));
    }

    #[test]
    fn deep_tree_picks_the_highest_lca() {
        // 16 nodes in 8 groups over 3 levels (fanout 2); copies in
        // groups 0 (node 0) and 5 (node 10).
        let p = place_on(16, Topology::tree(8, 3));
        let line = info(0, &[10]);
        assert_eq!(line.farthest_present(&p, 0), Some(5)); // height 3
        assert_eq!(line.farthest_present(&p, 1), Some(5)); // 1 vs 3
        assert_eq!(line.farthest_present(&p, 4), Some(0)); // 3 vs 1
        assert_eq!(line.farthest_present(&p, 5), Some(0));
        assert_eq!(line.farthest_present(&p, 7), Some(0)); // 3 vs 2
    }

    #[test]
    fn farthest_present_matches_brute_force() {
        let mut rng = Rng64::new(0xD1_2EC7);
        for topo in [
            Topology::two_level(4),
            Topology::tree(8, 3),
            Topology::tree(16, 2),
            Topology::tree(6, 2),
        ] {
            let n_nodes = 48;
            let p = place_on(n_nodes, topo);
            let group = |n: u16| n as usize / (n_nodes / topo.n_groups);
            for _ in 0..500 {
                let owner = rng.below(n_nodes as u64) as u16;
                let sharers: Vec<u16> = (0..rng.below(6))
                    .map(|_| rng.below(n_nodes as u64) as u16)
                    .filter(|&s| s != owner)
                    .collect();
                let from = rng.below(topo.n_groups as u64) as usize;
                let expect = std::iter::once(owner)
                    .chain(sharers.iter().copied())
                    .map(group)
                    .max_by_key(|&g| (topo.lca_height(from, g), std::cmp::Reverse(g)));
                assert_eq!(
                    info(owner, &sharers).farthest_present(&p, from),
                    expect,
                    "{topo:?} owner {owner} sharers {sharers:?} from group {from}"
                );
            }
        }
    }
}
