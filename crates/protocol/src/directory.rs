//! Global line directory: one root entry per live line.
//!
//! The modeled hardware locates lines by snooping; the simulator shortcuts
//! the search with a directory mapping each live line to its responsible
//! (Owner/Exclusive) node and the set of Shared replica holders. The
//! directory is *simulation state*, not modeled hardware — it must stay
//! consistent with the per-node attraction memories, which the engine's
//! invariant checker verifies.
//!
//! In a hierarchical topology the directory also answers the one
//! question a tree directory's presence bits would: how far a write
//! upgrade's invalidation must climb ([`Directory::farthest_present`]).
//! The answer is derived from the root entry on demand, so no per-level
//! state exists to fall out of step with it.
//!
//! Keys are line numbers; the maps are in-repo open-addressing tables
//! ([`OpenTable`]) because these lookups sit on the hot path of every
//! simulated miss — see the module docs of [`crate::table`].

use crate::sharers::{SharerSet, SpillTable};
use crate::table::OpenTable;
use coma_types::{LineNum, MachineGeometry, NodeId, NodeSet, Topology};

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
}

/// Compact stored form of a [`LineInfo`]: the root table holds one entry
/// per live line and is probed on every global action, so its slots are
/// the single largest host-cache consumer in the simulator. The sharers
/// are a [`SharerSet`], inline up to four nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RootEntry {
    owner: u16,
    sharers: SharerSet,
}

// Twelve bytes keep a root-table slot (with its `u32` key) at 16.
const _: () = assert!(std::mem::size_of::<RootEntry>() == 12);

/// The machine-wide line directory: the root table plus the spill
/// table for wide sharer sets, and the tree shape that
/// [`Directory::farthest_present`] measures distance in.
#[derive(Clone, Debug)]
pub struct Directory {
    map: OpenTable<RootEntry>,
    /// Sharer sets of lines too wide for inline storage (see [`SharerSet`]).
    spill: SpillTable,
    topo: Topology,
    nodes_per_group: usize,
}

impl Default for Directory {
    /// A flat single-bus directory.
    fn default() -> Self {
        Directory {
            map: OpenTable::new(),
            spill: OpenTable::new(),
            topo: Topology::flat(),
            nodes_per_group: usize::MAX, // any node maps to group 0
        }
    }
}

impl Directory {
    /// Directory for a machine geometry.
    pub fn for_geometry(geom: &MachineGeometry) -> Self {
        Directory {
            topo: geom.topology,
            nodes_per_group: geom.nodes_per_group(),
            ..Self::default()
        }
    }

    /// Cluster group of a node.
    #[inline]
    pub fn group_of(&self, node: NodeId) -> usize {
        node.0 as usize / self.nodes_per_group
    }

    /// Materialize the full [`LineInfo`] a stored entry denotes.
    #[inline]
    fn info_of(&self, line: u64, e: RootEntry) -> LineInfo {
        LineInfo {
            owner: NodeId(e.owner),
            sharers: e.sharers.members(&self.spill, line),
        }
    }

    /// Among the groups holding a copy of the line `info` describes,
    /// the one *farthest* from `from_group` (greatest LCA height, lowest
    /// group index on ties). This is the question a hierarchical write
    /// upgrade asks — "how high must my invalidation climb?" — answered
    /// from the root owner/sharer sets. `None` on flat machines.
    pub fn farthest_present(&self, info: LineInfo, from_group: usize) -> Option<usize> {
        if self.topo.is_flat() {
            return None;
        }
        let mut mask = 1u64 << self.group_of(info.owner);
        for s in info.sharer_nodes() {
            mask |= 1 << self.group_of(s);
        }
        let mut best: Option<(usize, usize)> = None; // (height, group)
        while mask != 0 {
            let g = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let h = self.topo.lca_height(from_group, g);
            if best.map(|(bh, _)| h > bh).unwrap_or(true) {
                best = Some((h, g));
            }
        }
        best.map(|(_, g)| g)
    }

    /// Look up a live line.
    #[inline]
    pub fn get(&self, line: LineNum) -> Option<LineInfo> {
        self.map.get(line.0).map(|e| self.info_of(line.0, e))
    }

    /// Is the line live anywhere in the machine?
    #[inline]
    pub fn contains(&self, line: LineNum) -> bool {
        self.map.contains(line.0)
    }

    /// Register a brand-new line with a sole (Exclusive) copy.
    pub fn insert_sole(&mut self, line: LineNum, owner: NodeId) {
        let prev = self.map.insert(
            line.0,
            RootEntry {
                owner: owner.0,
                sharers: SharerSet::default(),
            },
        );
        debug_assert!(prev.is_none(), "line {line:?} already live");
    }

    /// Add a Shared replica holder (idempotent, set semantics).
    pub fn add_sharer(&mut self, line: LineNum, node: NodeId) {
        let e = self.map.get_mut(line.0).expect("sharer of dead line");
        debug_assert_ne!(e.owner, node.0, "owner cannot also be a sharer");
        e.sharers.insert(&mut self.spill, line.0, node.0);
    }

    /// Drop a Shared replica holder.
    pub fn remove_sharer(&mut self, line: LineNum, node: NodeId) {
        if let Some(e) = self.map.get_mut(line.0) {
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
        let e = self.map.get_mut(line.0).expect("owner of dead line");
        e.owner = node.0;
        e.sharers.remove(&mut self.spill, line.0, node.0);
    }

    /// Replace the sharer set wholesale (used by write invalidations).
    pub fn clear_sharers(&mut self, line: LineNum) {
        if let Some(e) = self.map.get_mut(line.0) {
            e.sharers.clear(&mut self.spill, line.0);
        }
    }

    /// Remove a line entirely (page-out).
    pub fn remove(&mut self, line: LineNum) -> Option<LineInfo> {
        let mut e = self.map.remove(line.0)?;
        let sharers = e.sharers.take(&mut self.spill, line.0);
        Some(LineInfo {
            owner: NodeId(e.owner),
            sharers,
        })
    }

    /// Number of live lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all live lines (invariant checking).
    pub fn iter(&self) -> impl Iterator<Item = (LineNum, LineInfo)> + '_ {
        self.map
            .iter()
            .map(move |(l, e)| (LineNum(l), self.info_of(l, *e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::{MachineConfig, Rng64};

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
    fn hasher_distributes_sequential_keys() {
        // Sequential line numbers must not collide into one bucket chain:
        // just verify inserts/lookups work at scale.
        let mut d = Directory::default();
        for i in 0..10_000u64 {
            d.insert_sole(LineNum(i), NodeId((i % 16) as u16));
        }
        assert_eq!(d.len(), 10_000);
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(d.get(LineNum(i)).unwrap().owner, NodeId((i % 16) as u16));
        }
    }

    /// A directory for `n_procs` single-processor nodes on `topology`.
    fn dir_on(n_procs: usize, topology: Topology) -> Directory {
        let cfg = MachineConfig {
            n_procs,
            topology,
            ..Default::default()
        };
        Directory::for_geometry(&cfg.geometry(4 << 20).unwrap())
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
        let d = Directory::default();
        assert_eq!(d.farthest_present(info(0, &[5, 9]), 0), None);
        let d = dir_on(16, Topology::flat());
        assert_eq!(d.farthest_present(info(3, &[7]), 0), None);
    }

    #[test]
    fn owner_only_line_is_farthest_in_the_owners_group() {
        // 8 nodes in 4 groups of 2 under one root level.
        let d = dir_on(8, Topology::two_level(4));
        assert_eq!(d.farthest_present(info(0, &[]), 0), Some(0));
        assert_eq!(d.farthest_present(info(5, &[]), 0), Some(2));
        assert_eq!(d.farthest_present(info(5, &[]), 2), Some(2));
    }

    #[test]
    fn equal_heights_pick_the_lowest_group() {
        // Every pair of distinct groups meets at the single root level.
        let d = dir_on(8, Topology::two_level(4));
        let line = info(6, &[2, 5]); // groups 3, 1 and 2
        assert_eq!(d.farthest_present(line, 0), Some(1));
        assert_eq!(d.farthest_present(line, 1), Some(2));
        assert_eq!(d.farthest_present(line, 3), Some(1));
    }

    #[test]
    fn deep_tree_picks_the_highest_lca() {
        // 16 nodes in 8 groups over 3 levels (fanout 2); copies in
        // groups 0 (node 0) and 5 (node 10).
        let d = dir_on(16, Topology::tree(8, 3));
        let line = info(0, &[10]);
        assert_eq!(d.farthest_present(line, 0), Some(5)); // height 3
        assert_eq!(d.farthest_present(line, 1), Some(5)); // 1 vs 3
        assert_eq!(d.farthest_present(line, 4), Some(0)); // 3 vs 1
        assert_eq!(d.farthest_present(line, 5), Some(0));
        assert_eq!(d.farthest_present(line, 7), Some(0)); // 3 vs 2
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
            let d = dir_on(n_nodes, topo);
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
                    d.farthest_present(info(owner, &sharers), from),
                    expect,
                    "{topo:?} owner {owner} sharers {sharers:?} from group {from}"
                );
            }
        }
    }
}
