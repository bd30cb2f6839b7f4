//! What one access did — the interface between the functional protocol
//! and the timing model in `coma-sim`.

use coma_stats::Level;
use coma_types::NodeId;

/// The effects of a single read or write walked through the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The level that satisfied the access (read: supplied data;
    /// write: granted ownership). Determines the latency path.
    pub level: Level,
    /// Index *within the node* of a peer SLC that supplied dirty data.
    pub peer_slc: Option<usize>,
    /// Remote node that supplied data / held the responsible copy.
    pub remote_node: Option<NodeId>,
    /// A global invalidation broadcast happened (write upgrade).
    pub upgrade: bool,
    /// Farthest node (by tree distance) whose copy an upgrade
    /// invalidated: the first node of the group that
    /// [`crate::directory::LineInfo::farthest_present`] picks from the
    /// line's root entry. The invalidation must climb to the LCA of
    /// writer and this node. `None` on flat machines (the broadcast reaches everyone
    /// anyway).
    pub inval_scope: Option<NodeId>,
    /// A read-exclusive data fetch happened (write miss).
    pub read_exclusive: bool,
    /// A responsible copy was injected to this node (extra bus + remote
    /// DRAM work, off the requester's critical path).
    pub injected_to: Option<NodeId>,
    /// The injection resolved as an ownership migration to a replica.
    pub ownership_migrated: bool,
    /// The replica that took over responsibility in an ownership
    /// migration (routes the off-critical-path command).
    pub migrated_to: Option<NodeId>,
    /// An injection found no receiver: OS page-out (large penalty).
    pub pageout: bool,
    /// This access re-materialized a previously paged-out line (page-in).
    pub pagein: bool,
    /// The SLC fill evicted a Modified line (write-back into the AM).
    pub slc_writeback: bool,
    /// The access loaded a line into the local AM (DRAM fill occupancy).
    pub am_filled: bool,
}

impl Outcome {
    /// A fresh outcome at the given level with no side effects.
    pub fn at(level: Level) -> Self {
        Outcome {
            level,
            peer_slc: None,
            remote_node: None,
            upgrade: false,
            inval_scope: None,
            read_exclusive: false,
            injected_to: None,
            ownership_migrated: false,
            migrated_to: None,
            pageout: false,
            pagein: false,
            slc_writeback: false,
            am_filled: false,
        }
    }

    /// Did the access cross the global bus at all?
    pub fn used_bus(&self) -> bool {
        self.level == Level::Remote
            || self.upgrade
            || self.read_exclusive
            || self.injected_to.is_some()
            || self.ownership_migrated
            || self.pageout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_hit_does_not_use_bus() {
        assert!(!Outcome::at(Level::Flc).used_bus());
        assert!(!Outcome::at(Level::Am).used_bus());
    }

    #[test]
    fn remote_and_side_effects_use_bus() {
        assert!(Outcome::at(Level::Remote).used_bus());
        let mut o = Outcome::at(Level::Am);
        o.injected_to = Some(NodeId(3));
        assert!(o.used_bus());
        let mut u = Outcome::at(Level::Am);
        u.upgrade = true;
        assert!(u.used_bus());
    }
}
