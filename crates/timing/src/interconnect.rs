//! The interconnect fabric.
//!
//! The paper's machine has exactly one global medium: a snooping bus all
//! inter-node transactions arbitrate for. The hierarchical configurations
//! replace it with a tree: one local bus per cluster group and a layer of
//! inter-level links above them, so a transaction only occupies the media
//! on the path between its endpoints. [`HierarchicalFabric`] models both,
//! routing by *group index*: the timing walk passes the source and
//! destination groups and the fabric decides which media the transaction
//! crosses.
//!
//! Two operations cover everything the protocol generates:
//!
//! * [`transfer`](HierarchicalFabric::transfer) — a critical-path
//!   transaction: the requester stalls until arbitration *and* the
//!   transfer latency complete on every medium crossed (read fills,
//!   upgrades, read-exclusives).
//! * [`post`](HierarchicalFabric::post) — a buffered transaction that
//!   consumes bandwidth along the path but does not stall the poster
//!   (injections, ownership migrations: replacements are buffered, §3.1).
//!
//! The paper's flat bus is the degenerate fabric with one group and zero
//! levels: both endpoints always map to group 0, so every operation is a
//! single arbitration on the single leaf [`Resource`] —
//! operation-for-operation identical to a bare snooping bus.

use crate::resource::Resource;
use coma_types::{Nanos, Topology};

/// A directory-tree fabric: one FIFO-arbitrated bus per cluster group and
/// one link [`Resource`] per directory unit and level above them.
///
/// A transaction between groups `a` and `b` climbs to their lowest common
/// ancestor at height `h = lca_height(a, b)` and back down, serializing
/// through `2h` links plus both endpoint buses. With one group and zero
/// levels this degenerates to the paper's single snooping bus: every
/// transaction is one `serve`/`acquire` on the lone leaf resource.
#[derive(Debug)]
pub struct HierarchicalFabric {
    topo: Topology,
    /// One bus per cluster group.
    leaves: Vec<Resource>,
    /// `links[h-1][u]`: the link connecting unit `u` at level `h-1` to its
    /// parent at level `h`.
    links: Vec<Vec<Resource>>,
    link_ns: Nanos,
    link_occ_ns: Nanos,
}

impl HierarchicalFabric {
    pub fn new(topo: Topology, link_ns: Nanos, link_occ_ns: Nanos) -> Self {
        let links = (1..=topo.levels)
            .map(|h| {
                (0..topo.units_at(h - 1))
                    .map(|_| Resource::default())
                    .collect()
            })
            .collect();
        HierarchicalFabric {
            topo,
            leaves: (0..topo.n_groups).map(|_| Resource::default()).collect(),
            links,
            link_ns,
            link_occ_ns,
        }
    }

    /// The paper's flat snooping bus (degenerate 1-group, 0-level tree).
    pub fn flat() -> Self {
        Self::new(Topology::flat(), 0, 0)
    }

    /// Arbitrate along the `src → dst` path starting at `now`, occupying
    /// each medium crossed, and return the completion time of a
    /// critical-path transfer whose per-bus latency is `lat_ns`.
    ///
    /// `src` and `dst` are *cluster group* indices; a flat machine passes
    /// `0, 0` everywhere.
    pub fn transfer(
        &mut self,
        now: Nanos,
        src: usize,
        dst: usize,
        occ_ns: Nanos,
        lat_ns: Nanos,
    ) -> Nanos {
        let mut t = self.leaves[src].serve(now, occ_ns, lat_ns);
        if src != dst {
            let h = self.topo.lca_height(src, dst);
            for l in 1..=h {
                let u = self.topo.unit_of(src, l - 1);
                t = self.links[l - 1][u].serve(t, self.link_occ_ns, self.link_ns);
            }
            for l in (1..=h).rev() {
                let u = self.topo.unit_of(dst, l - 1);
                t = self.links[l - 1][u].serve(t, self.link_occ_ns, self.link_ns);
            }
            t = self.leaves[dst].serve(t, occ_ns, lat_ns);
        }
        t
    }

    /// Consume bandwidth along the `src → dst` path starting no earlier
    /// than `now` for a buffered (off-critical-path) transaction; the
    /// caller does not wait.
    pub fn post(&mut self, now: Nanos, src: usize, dst: usize, occ_ns: Nanos) {
        self.leaves[src].acquire(now, occ_ns);
        if src != dst {
            let h = self.topo.lca_height(src, dst);
            for l in 1..=h {
                let u = self.topo.unit_of(src, l - 1);
                self.links[l - 1][u].acquire(now, self.link_occ_ns);
            }
            for l in (1..=h).rev() {
                let u = self.topo.unit_of(dst, l - 1);
                self.links[l - 1][u].acquire(now, self.link_occ_ns);
            }
            self.leaves[dst].acquire(now, occ_ns);
        }
    }

    /// Total time all media have been occupied, summed over every group
    /// bus and link (on the flat machine: the one bus's busy time).
    pub fn busy_ns(&self) -> Nanos {
        self.leaves
            .iter()
            .chain(self.links.iter().flatten())
            .map(Resource::busy_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_fabric_serializes_transfers() {
        let mut bus = HierarchicalFabric::flat();
        assert_eq!(bus.transfer(0, 0, 0, 28, 28), 28);
        // Second transfer at t=0 waits for the first's occupancy.
        assert_eq!(bus.transfer(0, 0, 0, 28, 28), 56);
        assert_eq!(bus.busy_ns(), 56);
    }

    #[test]
    fn flat_fabric_posts_consume_bandwidth() {
        let mut bus = HierarchicalFabric::flat();
        bus.post(0, 0, 0, 28);
        // A transfer arriving during the posted occupancy queues behind it.
        assert_eq!(bus.transfer(0, 0, 0, 28, 28), 56);
    }

    #[test]
    fn flat_fabric_matches_bare_resource() {
        // The degenerate-equivalence argument: the flat fabric must issue
        // the identical operation sequence a bare snooping-bus Resource
        // would, so every pre-hierarchy golden stays byte-identical.
        let mut fabric = HierarchicalFabric::flat();
        let mut bare = Resource::default();
        let ops = [
            (0u64, 20u64, 20u64),
            (5, 20, 20),
            (5, 40, 20),
            (100, 20, 60),
        ];
        for (now, occ, lat) in ops {
            assert_eq!(
                fabric.transfer(now, 0, 0, occ, lat),
                bare.serve(now, occ, lat)
            );
            fabric.post(now, 0, 0, occ);
            bare.acquire(now, occ);
        }
        assert_eq!(fabric.busy_ns(), bare.busy_ns());
    }

    #[test]
    fn same_group_transfer_stays_local() {
        let mut f = HierarchicalFabric::new(Topology::two_level(4), 20, 20);
        // Group 2 internal transfer: one bus phase, no links.
        assert_eq!(f.transfer(0, 2, 2, 20, 20), 20);
        // Group 0 is untouched: its bus is still free at t=0.
        assert_eq!(f.transfer(0, 0, 0, 20, 20), 20);
    }

    #[test]
    fn cross_group_transfer_crosses_links_and_both_buses() {
        let mut f = HierarchicalFabric::new(Topology::two_level(4), 20, 20);
        // src bus (20) + up link (20) + down link (20) + dst bus (20).
        assert_eq!(f.transfer(0, 0, 3, 20, 20), 80);
        assert_eq!(f.busy_ns(), 80);
    }

    #[test]
    fn three_level_route_length_follows_lca() {
        // 16 groups over 2 levels, fanout 4.
        let topo = Topology::tree(16, 2);
        let mut f = HierarchicalFabric::new(topo, 10, 10);
        // Same 4-group cluster: LCA at level 1 → 2 links.
        assert_eq!(f.transfer(0, 0, 3, 20, 20), 20 + 10 + 10 + 20);
        // Different clusters: LCA at the root → 4 links.
        let mut f = HierarchicalFabric::new(topo, 10, 10);
        assert_eq!(f.transfer(0, 0, 15, 20, 20), 20 + 4 * 10 + 20);
    }

    #[test]
    fn disjoint_group_pairs_do_not_contend() {
        let mut f = HierarchicalFabric::new(Topology::two_level(4), 20, 20);
        // 0→1 and 2→3 share no medium under a 1-level root: both finish
        // as if alone.
        assert_eq!(f.transfer(0, 0, 1, 20, 20), 80);
        assert_eq!(f.transfer(0, 2, 3, 20, 20), 80);
        // But a second transaction out of group 0 queues on group 0's bus.
        assert!(f.transfer(0, 0, 1, 20, 20) > 80);
    }

    #[test]
    fn fabric_posts_occupy_the_whole_path() {
        let mut f = HierarchicalFabric::new(Topology::two_level(2), 20, 20);
        f.post(0, 0, 1, 30);
        // Both leaf buses 30 + two links 20 each.
        assert_eq!(f.busy_ns(), 30 + 30 + 20 + 20);
        // A transfer out of group 1 queues behind the posted occupancy.
        assert_eq!(f.transfer(0, 1, 1, 20, 20), 50);
    }
}
