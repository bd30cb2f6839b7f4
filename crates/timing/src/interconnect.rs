//! The interconnect fabric's shape: which media a transfer crosses.
//!
//! The paper's machine has one global medium, a snooping bus all
//! inter-node transactions arbitrate for. The hierarchical configurations
//! replace it with a tree: one local bus per cluster group and a layer of
//! inter-level links above them, so a transaction only occupies the media
//! on the path between its endpoints. The flat bus is the degenerate tree
//! with one group and zero levels: one bus, no link.
//!
//! [`Fabric`] owns no [`Resource`](crate::Resource)s: the machine keeps
//! every contended server in one table, and the fabric names the ids of
//! its media there. The timing walk books a critical-path transfer (the
//! requester waits for each medium in turn) and a posted one (it only
//! consumes bandwidth) along the same path.

use coma_types::Topology;
use std::ops::Range;

/// The ids of a directory-tree fabric's media in the machine's resource
/// table: one bus per cluster group, then one link per directory unit
/// and level above them. A transfer between groups `a` and `b` crosses
/// `a`'s bus, the [`links`](Fabric::links) up to their lowest common
/// ancestor at height `h` and back down (`2h` of them), then `b`'s bus.
#[derive(Clone, Debug)]
pub struct Fabric {
    /// Id of group 0's bus; group `g`'s bus is `first + g`.
    first: usize,
    /// Per link level `l` (the links from level `l` up to `l + 1`):
    /// `(l0, span)`, the id of the level's first link and `fanout^l`, the
    /// number of groups one unit at level `l` spans. Group `g`'s link at
    /// level `l` is `l0 + g / span`.
    links: Vec<(usize, usize)>,
    /// One past the last id.
    end: usize,
}

impl Fabric {
    /// The fabric of `topo`, numbering its media from id `first` on.
    pub fn new(topo: Topology, first: usize) -> Self {
        let fanout = topo.fanout();
        let mut end = first + topo.n_groups;
        let links = (0..topo.levels)
            .map(|l| {
                let span = fanout.pow(l as u32);
                let level = (end, span);
                end += topo.n_groups.div_ceil(span);
                level
            })
            .collect();
        Fabric { first, links, end }
    }

    /// Every id of the fabric: the group buses, then the links.
    #[inline]
    pub fn ids(&self) -> Range<usize> {
        self.first..self.end
    }

    /// The bus of cluster group `g`.
    #[inline]
    pub fn bus(&self, g: usize) -> usize {
        self.first + g
    }

    /// The links a transfer from group `src` to group `dst` crosses, in
    /// order: up to the groups' lowest common ancestor and back down.
    /// None within one group.
    #[inline]
    pub fn links(&self, src: usize, dst: usize) -> impl Iterator<Item = usize> + '_ {
        // Once the two groups share a unit, they share every unit above.
        let h = self
            .links
            .iter()
            .take_while(|&&(_, span)| src / span != dst / span)
            .count();
        let up = self.links[..h]
            .iter()
            .map(move |&(l0, span)| l0 + src / span);
        let down = self.links[..h].iter().rev();
        up.chain(down.map(move |&(l0, span)| l0 + dst / span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resource;

    fn links(f: &Fabric, src: usize, dst: usize) -> Vec<usize> {
        f.links(src, dst).collect()
    }

    /// Every medium a transfer from `src` to `dst` books, in order: the
    /// source bus, the links, then the destination bus if it differs.
    fn path(f: &Fabric, src: usize, dst: usize) -> Vec<usize> {
        let far = (src != dst).then(|| f.bus(dst));
        std::iter::once(f.bus(src))
            .chain(f.links(src, dst))
            .chain(far)
            .collect()
    }

    /// Book a critical-path transfer along `path` in `table`: each
    /// medium starts when the previous one is done.
    fn transfer(table: &mut [Resource], path: &[usize], now: u64, occ: u64, lat: u64) -> u64 {
        path.iter().fold(now, |t, &id| table[id].serve(t, occ, lat))
    }

    #[test]
    fn flat_fabric_serializes_transfers() {
        // A flat transfer books the one bus and nothing else, so a second
        // transfer at t=0 waits for the first's occupancy.
        let f = Fabric::new(Topology::flat(), 0);
        let p = path(&f, 0, 0);
        assert_eq!(p, [0]);
        let mut table = vec![Resource::new(); f.ids().end];
        assert_eq!(transfer(&mut table, &p, 0, 28, 28), 28);
        assert_eq!(transfer(&mut table, &p, 0, 28, 28), 56);
        assert_eq!(table[f.bus(0)].busy_ns(), 56);
    }

    #[test]
    fn flat_fabric_posts_consume_bandwidth() {
        // A posted transfer books every medium of its path at `now`.
        let f = Fabric::new(Topology::flat(), 0);
        let p = path(&f, 0, 0);
        let mut table = vec![Resource::new(); f.ids().end];
        for &id in &p {
            table[id].acquire(0, 28);
        }
        // A transfer arriving during the posted occupancy queues behind it.
        assert_eq!(transfer(&mut table, &p, 0, 28, 28), 56);
    }

    #[test]
    fn flat_fabric_matches_bare_resource() {
        // The degenerate case: one bus and no link, so every transfer
        // books one resource, exactly as on a bare snooping bus, and
        // every pre-hierarchy golden stays byte-identical.
        let f = Fabric::new(Topology::flat(), 7);
        assert_eq!((f.ids(), f.bus(0)), (7..8, 7));
        assert_eq!(links(&f, 0, 0), []);
    }

    #[test]
    fn same_group_transfer_stays_local() {
        // 4 buses (ids 0–3), then 4 level-0 links (ids 4–7).
        let f = Fabric::new(Topology::two_level(4), 0);
        assert_eq!((f.ids(), f.bus(2)), (0..8, 2));
        assert_eq!(links(&f, 2, 2), []);
    }

    #[test]
    fn cross_group_transfer_crosses_links_and_both_buses() {
        // Between the two buses: group 0's up link, group 3's down link.
        let f = Fabric::new(Topology::two_level(4), 0);
        assert_eq!(links(&f, 0, 3), [4, 7]);
    }

    #[test]
    fn three_level_route_length_follows_lca() {
        // 16 groups over 2 levels, fanout 4: 16 buses, 16 level-0 links,
        // 4 level-1 links.
        let f = Fabric::new(Topology::tree(16, 2), 0);
        assert_eq!(f.ids(), 0..36);
        // 6 groups, fanout 3: 6 buses, 6 level-0 links, 2 level-1 links.
        assert_eq!(Fabric::new(Topology::tree(6, 2), 0).ids(), 0..14);
        // Same 4-group cluster: LCA at level 1 → 2 links.
        assert_eq!(links(&f, 0, 3), [16, 19]);
        // Different clusters: LCA at the root → 4 links.
        assert_eq!(links(&f, 0, 15), [16, 32, 35, 31]);
    }

    #[test]
    fn disjoint_group_pairs_do_not_contend() {
        // 0→1 and 2→3 share no medium under a 1-level root.
        let f = Fabric::new(Topology::two_level(4), 0);
        let crossed = |s, d| [f.bus(s), f.bus(d)].into_iter().chain(f.links(s, d));
        let b: Vec<usize> = crossed(2, 3).collect();
        assert!(crossed(0, 1).all(|id| !b.contains(&id)));
    }
}
