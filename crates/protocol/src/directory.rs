//! Global line directory — flat root plus the directory-level tree.
//!
//! The modeled hardware locates lines by snooping; the simulator shortcuts
//! the search with a directory mapping each live line to its responsible
//! (Owner/Exclusive) node and the set of Shared replica holders. The
//! directory is *simulation state*, not modeled hardware — it must stay
//! consistent with the per-node attraction memories, which the engine's
//! invariant checker verifies.
//!
//! In a hierarchical topology the directory additionally keeps one
//! [`DirectoryLevel`] per tree level above the cluster-group buses. Level
//! `h` records, per line, a presence bitmask over the directory units at
//! level `h-1` whose subtree holds any copy — the state a real
//! directory-tree COMA (DDM-style) uses to filter snoops: a request only
//! descends into subtrees whose presence bit is set, and climbs only when
//! some bit outside its own subtree is set. The masks are *redundant* with
//! the root's owner/sharer sets, which is exactly what makes them
//! checkable: the engine's live auditor, the model checker and the fuzzer
//! all recompute them independently and fail loudly on any divergence.
//!
//! The flat machine keeps zero levels and pays zero maintenance.
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

/// One directory level of the tree: per-line presence masks over the
/// units of the level below.
#[derive(Clone, Debug)]
pub struct DirectoryLevel {
    /// Height in the tree (1 = directly above the group buses).
    height: usize,
    /// line → bitmask of level-`height-1` units whose subtree holds a copy.
    map: OpenTable<u64>,
}

impl DirectoryLevel {
    fn new(height: usize) -> Self {
        DirectoryLevel {
            height,
            map: OpenTable::new(),
        }
    }

    /// Height of this level above the group buses.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Stored presence mask for a line.
    #[inline]
    pub fn presence(&self, line: LineNum) -> Option<u64> {
        self.map.get(line.0)
    }

    /// Iterate all lines tracked at this level.
    pub fn iter(&self) -> impl Iterator<Item = (LineNum, u64)> + '_ {
        self.map.iter().map(|(l, m)| (LineNum(l), *m))
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

/// The machine-wide line directory (root state + level tree).
#[derive(Clone, Debug)]
pub struct Directory {
    map: OpenTable<RootEntry>,
    /// Sharer sets of lines too wide for inline storage (see [`SharerSet`]).
    spill: SpillTable,
    topo: Topology,
    nodes_per_group: usize,
    levels: Vec<DirectoryLevel>,
}

impl Default for Directory {
    fn default() -> Self {
        Self::flat()
    }
}

impl Directory {
    /// Flat single-bus directory (no levels, no presence state).
    pub fn flat() -> Self {
        Directory {
            map: OpenTable::new(),
            spill: OpenTable::new(),
            topo: Topology::flat(),
            nodes_per_group: usize::MAX, // any node maps to group 0
            levels: Vec::new(),
        }
    }

    pub fn new() -> Self {
        Self::flat()
    }

    /// Directory for a machine geometry: one [`DirectoryLevel`] per tree
    /// level above the group buses (none when flat).
    pub fn for_geometry(geom: &MachineGeometry) -> Self {
        let topo = geom.topology;
        Directory {
            map: OpenTable::new(),
            spill: OpenTable::new(),
            topo,
            nodes_per_group: if topo.is_flat() {
                usize::MAX
            } else {
                geom.nodes_per_group()
            },
            levels: (1..=topo.levels).map(DirectoryLevel::new).collect(),
        }
    }

    /// The hierarchy shape this directory tracks.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Cluster group of a node.
    #[inline]
    pub fn group_of(&self, node: NodeId) -> usize {
        node.0 as usize / self.nodes_per_group
    }

    /// The directory levels above the group buses (empty when flat).
    #[inline]
    pub fn levels(&self) -> &[DirectoryLevel] {
        &self.levels
    }

    /// Presence mask a line *should* have at level `height`, derived from
    /// the root owner/sharer state.
    pub fn expected_presence(&self, height: usize, info: LineInfo) -> u64 {
        let mut mask = 1u64 << self.topo.unit_of(self.group_of(info.owner), height - 1);
        for s in info.sharer_nodes() {
            mask |= 1 << self.topo.unit_of(self.group_of(s), height - 1);
        }
        mask
    }

    /// Materialize the full [`LineInfo`] a stored entry denotes.
    #[inline]
    fn info_of(&self, line: u64, e: RootEntry) -> LineInfo {
        LineInfo {
            owner: NodeId(e.owner),
            sharers: e.sharers.members(&self.spill, line),
        }
    }

    /// Re-derive every level's presence mask for `line` from the root
    /// entry (or drop them when the line died). Called after every
    /// root-state mutation; a no-op on flat machines.
    fn sync_presence(&mut self, line: LineNum) {
        if self.levels.is_empty() {
            return;
        }
        match self.map.get(line.0) {
            Some(e) => {
                let info = self.info_of(line.0, e);
                for h in 1..=self.levels.len() {
                    let mask = self.expected_presence(h, info);
                    self.levels[h - 1].map.insert(line.0, mask);
                }
            }
            None => {
                for lvl in &mut self.levels {
                    lvl.map.remove(line.0);
                }
            }
        }
    }

    /// Among the groups whose presence bit is set at level 1, the one
    /// whose copies are *farthest* from `from_group` (greatest LCA height,
    /// lowest group index on ties). This is the snoop-filter question a
    /// hierarchical write asks — "how high must my invalidation climb?" —
    /// answered from the stored masks, not the root sets, so corrupted
    /// presence state changes routing. `None` on flat machines.
    pub fn farthest_present(&self, line: LineNum, from_group: usize) -> Option<usize> {
        let mask = self.levels.first()?.presence(line)?;
        let mut best: Option<(usize, usize)> = None; // (height, group)
        for g in 0..64usize {
            if mask & (1 << g) == 0 {
                continue;
            }
            let h = self.topo.lca_height(from_group, g);
            if best.map(|(bh, _)| h > bh).unwrap_or(true) {
                best = Some((h, g));
            }
        }
        best.map(|(_, g)| g)
    }

    /// Mutable stored presence mask — a **fault-injection seam** for the
    /// verification mutants, never used by the protocol itself.
    pub fn presence_mut(&mut self, height: usize, line: LineNum) -> Option<&mut u64> {
        self.levels.get_mut(height - 1)?.map.get_mut(line.0)
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
        self.sync_presence(line);
    }

    /// Add a Shared replica holder (idempotent, set semantics).
    pub fn add_sharer(&mut self, line: LineNum, node: NodeId) {
        let e = self.map.get_mut(line.0).expect("sharer of dead line");
        debug_assert_ne!(e.owner, node.0, "owner cannot also be a sharer");
        e.sharers.insert(&mut self.spill, line.0, node.0);
        self.sync_presence(line);
    }

    /// Drop a Shared replica holder.
    pub fn remove_sharer(&mut self, line: LineNum, node: NodeId) {
        if let Some(e) = self.map.get_mut(line.0) {
            e.sharers.remove(&mut self.spill, line.0, node.0);
            self.sync_presence(line);
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
        self.sync_presence(line);
    }

    /// Replace the sharer set wholesale (used by write invalidations).
    pub fn clear_sharers(&mut self, line: LineNum) {
        if let Some(e) = self.map.get_mut(line.0) {
            e.sharers.clear(&mut self.spill, line.0);
            self.sync_presence(line);
        }
    }

    /// Remove a line entirely (page-out).
    pub fn remove(&mut self, line: LineNum) -> Option<LineInfo> {
        let mut e = self.map.remove(line.0)?;
        let sharers = e.sharers.take(&mut self.spill, line.0);
        self.sync_presence(line);
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
    use coma_types::MachineConfig;

    #[test]
    fn sole_insert_then_sharers() {
        let mut d = Directory::new();
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
        let mut d = Directory::new();
        d.insert_sole(LineNum(1), NodeId(0));
        d.add_sharer(LineNum(1), NodeId(3));
        d.remove_sharer(LineNum(1), NodeId(3));
        d.remove_sharer(LineNum(1), NodeId(3));
        assert_eq!(d.get(LineNum(1)).unwrap().n_sharers(), 0);
    }

    #[test]
    fn owner_migration_clears_new_owner_from_sharers() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(1), NodeId(0));
        d.add_sharer(LineNum(1), NodeId(3));
        d.set_owner(LineNum(1), NodeId(3));
        let info = d.get(LineNum(1)).unwrap();
        assert_eq!(info.owner, NodeId(3));
        assert_eq!(info.n_sharers(), 0);
    }

    #[test]
    fn remove_kills_line() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(9), NodeId(1));
        assert!(d.remove(LineNum(9)).is_some());
        assert!(!d.contains(LineNum(9)));
        assert!(d.remove(LineNum(9)).is_none());
    }

    #[test]
    fn is_sharer_checks_membership() {
        let mut d = Directory::new();
        d.insert_sole(LineNum(2), NodeId(0));
        d.add_sharer(LineNum(2), NodeId(15));
        assert!(d.is_sharer(LineNum(2), NodeId(15)));
        assert!(!d.is_sharer(LineNum(2), NodeId(14)));
        assert!(!d.is_sharer(LineNum(3), NodeId(15)));
    }

    #[test]
    fn sharers_beyond_sixteen_nodes() {
        let mut d = Directory::new();
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
        let mut d = Directory::new();
        for i in 0..10_000u64 {
            d.insert_sole(LineNum(i), NodeId((i % 16) as u16));
        }
        assert_eq!(d.len(), 10_000);
        for i in (0..10_000u64).step_by(997) {
            assert_eq!(d.get(LineNum(i)).unwrap().owner, NodeId((i % 16) as u16));
        }
    }

    fn two_level_dir() -> Directory {
        // 16 procs, 8 nodes, 4 groups of 2 nodes, one root level.
        let cfg = MachineConfig {
            procs_per_node: 2,
            topology: Topology::two_level(4),
            ..Default::default()
        };
        Directory::for_geometry(&cfg.geometry(4 << 20).unwrap())
    }

    #[test]
    fn flat_directory_keeps_no_levels() {
        let d = Directory::new();
        assert!(d.levels().is_empty());
        assert!(d.farthest_present(LineNum(0), 0).is_none());
    }

    #[test]
    fn presence_tracks_owner_and_sharers() {
        let mut d = two_level_dir();
        d.insert_sole(LineNum(1), NodeId(0)); // group 0
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b0001));
        d.add_sharer(LineNum(1), NodeId(5)); // group 2
        d.add_sharer(LineNum(1), NodeId(7)); // group 3
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b1101));
        d.remove_sharer(LineNum(1), NodeId(5));
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b1001));
        d.clear_sharers(LineNum(1));
        assert_eq!(d.levels()[0].presence(LineNum(1)), Some(0b0001));
        d.remove(LineNum(1));
        assert_eq!(d.levels()[0].presence(LineNum(1)), None);
    }

    #[test]
    fn presence_follows_ownership_migration() {
        let mut d = two_level_dir();
        d.insert_sole(LineNum(2), NodeId(0)); // group 0
        d.add_sharer(LineNum(2), NodeId(6)); // group 3
        d.set_owner(LineNum(2), NodeId(6));
        // Old owner's group no longer holds a copy.
        assert_eq!(d.levels()[0].presence(LineNum(2)), Some(0b1000));
    }

    #[test]
    fn farthest_present_uses_stored_masks() {
        let mut d = two_level_dir();
        d.insert_sole(LineNum(3), NodeId(0)); // group 0
                                              // Only the writer's own group holds it: farthest is itself.
        assert_eq!(d.farthest_present(LineNum(3), 0), Some(0));
        d.add_sharer(LineNum(3), NodeId(2)); // group 1
        assert_eq!(d.farthest_present(LineNum(3), 0), Some(1));
        // Corrupt the stored mask through the fault-injection seam: the
        // routing answer changes even though the root sets did not.
        *d.presence_mut(1, LineNum(3)).unwrap() = 0b0001;
        assert_eq!(d.farthest_present(LineNum(3), 0), Some(0));
        assert_ne!(
            d.levels()[0].presence(LineNum(3)).unwrap(),
            d.expected_presence(1, d.get(LineNum(3)).unwrap()),
            "corruption must be visible to the invariant checkers"
        );
    }

    #[test]
    fn deep_tree_presence_folds_upward() {
        // 16 nodes in 8 groups over 3 levels (fanout 2).
        let cfg = MachineConfig {
            topology: Topology::tree(8, 3),
            ..Default::default()
        };
        let mut d = Directory::for_geometry(&cfg.geometry(4 << 20).unwrap());
        d.insert_sole(LineNum(9), NodeId(0)); // group 0
        d.add_sharer(LineNum(9), NodeId(10)); // group 5
                                              // Level 1: groups {0, 5}. Level 2: units {0, 2}. Level 3: {0, 1}.
        assert_eq!(d.levels()[0].presence(LineNum(9)), Some(0b10_0001));
        assert_eq!(d.levels()[1].presence(LineNum(9)), Some(0b101));
        assert_eq!(d.levels()[2].presence(LineNum(9)), Some(0b11));
    }
}
