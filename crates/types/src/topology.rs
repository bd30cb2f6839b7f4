//! Hierarchical machine topology (cluster groups + directory-tree levels).
//!
//! The paper's machine is flat: every node hangs off one global snooping
//! bus. To scale past 16 processors the nodes are partitioned into
//! *cluster groups*, each with a local bus, and the groups are connected
//! by a tree of directory levels with a root directory as the global
//! backstop (the shape of the DDM/mgsim directory-tree COMAs). A
//! transaction between two groups climbs to their lowest common ancestor
//! and back down, crossing `2 × lca_height` inter-level links.
//!
//! The flat machine is the degenerate instance: one group, zero upper
//! levels — no links ever crossed, no subtree state kept.

/// Shape of the interconnect/directory hierarchy.
///
/// `levels` counts the directory levels *above* the per-group buses; the
/// root directory sits at height `levels`. The tree fans out uniformly:
/// the fanout is the smallest `r ≥ 2` with `r^levels ≥ n_groups`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Cluster groups (= leaf buses). 1 for the paper's flat machine.
    pub n_groups: usize,
    /// Directory levels above the group buses. 0 for the flat machine.
    pub levels: usize,
}

impl Default for Topology {
    fn default() -> Self {
        Self::flat()
    }
}

impl Topology {
    /// The paper's flat single-bus machine.
    #[inline]
    pub const fn flat() -> Self {
        Topology {
            n_groups: 1,
            levels: 0,
        }
    }

    /// `n_groups` local buses under a single root directory.
    #[inline]
    pub const fn two_level(n_groups: usize) -> Self {
        Topology {
            n_groups,
            levels: 1,
        }
    }

    /// An explicit group/level shape.
    #[inline]
    pub const fn tree(n_groups: usize, levels: usize) -> Self {
        Topology { n_groups, levels }
    }

    /// Is this the degenerate flat machine?
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.levels == 0
    }

    /// Uniform tree fanout: smallest `r ≥ 2` with `r^levels ≥ n_groups`.
    /// 1 for the flat machine (never used to route).
    pub fn fanout(&self) -> usize {
        if self.levels == 0 {
            return 1;
        }
        let mut r = 2usize;
        while r.pow(self.levels as u32) < self.n_groups {
            r += 1;
        }
        r
    }

    /// Height of the lowest common ancestor of two groups: 0 when they
    /// share a bus, otherwise the lowest level at which they fall into the
    /// same directory unit. A transaction between them crosses
    /// `2 × lca_height` links.
    pub fn lca_height(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        let r = self.fanout();
        let (mut a, mut b, mut h) = (a, b, 0);
        while a != b {
            a /= r;
            b /= r;
            h += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_degenerate() {
        let t = Topology::flat();
        assert!(t.is_flat());
        assert_eq!(t.n_groups, 1);
        assert_eq!(t.lca_height(0, 0), 0);
    }

    #[test]
    fn two_level_fanout_spans_all_groups() {
        let t = Topology::two_level(5);
        // One level: the root must reach all 5 groups directly.
        assert_eq!(t.fanout(), 5);
        assert_eq!(t.lca_height(0, 4), 1);
        assert_eq!(t.lca_height(3, 3), 0);
    }

    #[test]
    fn three_level_tree_heights() {
        // 16 groups over 2 levels: fanout 4 (4² = 16).
        let t = Topology::tree(16, 2);
        assert_eq!(t.fanout(), 4);
        // Same 4-group cluster: meet at level 1.
        assert_eq!(t.lca_height(0, 3), 1);
        // Different clusters: climb to the root.
        assert_eq!(t.lca_height(0, 4), 2);
        assert_eq!(t.lca_height(15, 12), 1);
    }

    #[test]
    fn ragged_group_count() {
        // 6 groups over 2 levels: fanout 3 (3² = 9 ≥ 6 > 2² = 4).
        let t = Topology::tree(6, 2);
        assert_eq!(t.fanout(), 3);
        assert_eq!(t.lca_height(0, 2), 1);
        assert_eq!(t.lca_height(2, 3), 2);
    }
}
