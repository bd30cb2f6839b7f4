//! Where each processor and node sits in the machine.
//!
//! Processors are assigned to nodes in sequential order and nodes to
//! cluster groups likewise ([`ProcId::node`], [`MachineGeometry::group_of`]).
//! Those are divisions by run-time constants; the per-access paths of
//! the engines and of the timing walk ask them on every miss, so a
//! [`Placement`] answers them from tables built once per machine.

use crate::config::MachineGeometry;
use crate::ids::{NodeId, ProcId};
use crate::topology::Topology;

/// The processor → node and node → group maps of one machine, plus the
/// tree shape that distances between groups are measured in.
#[derive(Clone, Debug)]
pub struct Placement {
    /// `proc → (node, index within the node)`.
    procs: Box<[(u16, u16)]>,
    /// `node → cluster group`.
    groups: Box<[u16]>,
    procs_per_node: usize,
    topology: Topology,
}

impl Placement {
    pub fn new(geom: &MachineGeometry) -> Self {
        let ppn = geom.procs_per_node;
        Placement {
            procs: (0..geom.n_procs)
                .map(|p| {
                    let proc = ProcId(p as u16);
                    (proc.node(ppn).0, proc.index_in_node(ppn) as u16)
                })
                .collect(),
            groups: (0..geom.n_nodes)
                .map(|n| geom.group_of(NodeId(n as u16)) as u16)
                .collect(),
            procs_per_node: ppn,
            topology: geom.topology,
        }
    }

    /// The node a processor belongs to.
    #[inline]
    pub fn node_of(&self, proc: ProcId) -> NodeId {
        NodeId(self.procs[proc.as_usize()].0)
    }

    /// The processor's index within its node.
    #[inline]
    pub fn index_in_node(&self, proc: ProcId) -> usize {
        self.procs[proc.as_usize()].1 as usize
    }

    /// The processor at `index` within `node`.
    #[inline]
    pub fn proc_at(&self, node: NodeId, index: usize) -> usize {
        node.as_usize() * self.procs_per_node + index
    }

    /// The cluster group a node's bus belongs to (0 on a flat machine).
    #[inline]
    pub fn group_of(&self, node: NodeId) -> usize {
        self.groups[node.as_usize()] as usize
    }

    /// The interconnect/directory hierarchy shape.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn tables_agree_with_the_divisions() {
        for (n_procs, ppn, topo) in [
            (16, 1, Topology::flat()),
            (16, 4, Topology::flat()),
            (64, 4, Topology::two_level(4)),
            (256, 2, Topology::tree(16, 2)),
        ] {
            let cfg = MachineConfig {
                n_procs,
                procs_per_node: ppn,
                topology: topo,
                ..Default::default()
            };
            let geom = cfg.geometry(4 << 20).unwrap();
            let place = Placement::new(&geom);
            for p in (0..n_procs).map(|p| ProcId(p as u16)) {
                let node = place.node_of(p);
                assert_eq!(node, p.node(ppn));
                assert_eq!(place.index_in_node(p), p.index_in_node(ppn));
                assert_eq!(place.proc_at(node, place.index_in_node(p)), p.as_usize());
                assert_eq!(place.group_of(node), geom.group_of(node));
            }
        }
    }
}
