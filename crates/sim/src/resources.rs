//! The machine's contended resources and the timing walk.
//!
//! One [`Resource`] per node controller, per AM DRAM, per SLC port, plus
//! the global bus (paper §3.2: "the memory system simulator models
//! contention effects for the node controllers, attraction memory DRAMs,
//! second-level caches and the shared bus").
//!
//! [`MachineResources::time_access`] converts a protocol [`Outcome`] into
//! a completion time by walking the affected resources in path order.
//! Contention-less totals reproduce the paper exactly: SLC 32 ns, AM
//! 148 ns, remote 332 ns (validated in tests).

use coma_protocol::Outcome;
use coma_stats::Level;
use coma_timing::{HierarchicalFabric, Resource};
use coma_types::{LatencyConfig, MachineGeometry, Nanos, NodeId, Placement, ProcId};

/// All contended hardware of the machine.
pub struct MachineResources {
    /// The interconnect fabric (the paper's snooping bus is the
    /// degenerate flat instance).
    pub bus: HierarchicalFabric,
    /// Node controller / AM state+tag pipeline, per node.
    pub ctrl: Vec<Resource>,
    /// Attraction-memory DRAM, per node.
    pub dram: Vec<Resource>,
    /// SLC port, per processor.
    pub slc: Vec<Resource>,
    place: Placement,
}

impl MachineResources {
    pub fn new(geom: &MachineGeometry, lat: &LatencyConfig) -> Self {
        MachineResources {
            bus: HierarchicalFabric::new(geom.topology, lat.link_ns, lat.link_occ_ns),
            ctrl: (0..geom.n_nodes).map(|_| Resource::new()).collect(),
            dram: (0..geom.n_nodes).map(|_| Resource::new()).collect(),
            slc: (0..geom.n_procs).map(|_| Resource::new()).collect(),
            place: Placement::new(geom),
        }
    }

    /// Completion time of an access that started at `now`, walking the
    /// resources dictated by `out`. Works for reads (processor stalls
    /// until the returned time) and writes (the returned time is the
    /// write-buffer completion time).
    pub fn time_access(
        &mut self,
        now: Nanos,
        proc: ProcId,
        out: &Outcome,
        lat: &LatencyConfig,
    ) -> Nanos {
        let p = proc.as_usize();
        let node = self.place.node_of(proc);
        let n = node.as_usize();

        // A node-controller pass costs `ctrl_ns` of latency; the lookup
        // and return passes of one access are queued as a single
        // double-occupancy reservation so that independent accesses
        // pipeline at the controller's *bandwidth* (occupancy) rather
        // than serializing on the whole access latency.
        let ctrl2 = 2 * lat.ctrl_occ_ns;
        let mut t = match out.level {
            Level::Flc => now,
            Level::Slc => self.slc[p].serve(now, lat.slc_occ_ns, lat.slc_ns),
            Level::PeerSlc => {
                // Own SLC miss check runs in parallel with the controller
                // lookup; the peer's SLC port supplies the data.
                self.slc[p].acquire(now, lat.slc_occ_ns);
                let t = self.ctrl[n].serve(now, ctrl2, lat.ctrl_ns);
                let peer_proc = self.place.proc_at(node, out.peer_slc.unwrap_or(0));
                let t = self.slc[peer_proc].serve(t, lat.slc_occ_ns, lat.slc_ns);
                t + lat.ctrl_ns
            }
            Level::Am => {
                // SLC checked in parallel; AM hit = ctrl + DRAM + ctrl.
                self.slc[p].acquire(now, lat.slc_occ_ns);
                let t = self.ctrl[n].serve(now, ctrl2, lat.ctrl_ns);
                let t = self.dram[n].serve(t, lat.dram_occ_ns, lat.dram_ns);
                t + lat.ctrl_ns
            }
            Level::Remote => {
                self.slc[p].acquire(now, lat.slc_occ_ns);
                let g = self.place.group_of(node);
                if out.upgrade && !out.read_exclusive {
                    // Invalidation: climbs only as high as the farthest
                    // copy's group (flat: the one broadcast).
                    let scope = out.inval_scope.map_or(g, |k| self.place.group_of(k));
                    let t = self.ctrl[n].serve(now, ctrl2, lat.ctrl_ns);
                    let t = self.bus.transfer(t, g, scope, lat.bus_occ_ns, lat.bus_ns);
                    t + lat.ctrl_ns
                } else {
                    // Data fetch from the remote (owner/home) node,
                    // request and response each routed through the levels
                    // between the two groups.
                    let remote = out
                        .remote_node
                        .unwrap_or(NodeId(((n + 1) % self.ctrl.len()) as u16));
                    let r = remote.as_usize();
                    let gr = self.place.group_of(remote);
                    let t = self.ctrl[n].serve(now, ctrl2, lat.ctrl_ns);
                    let t = self.bus.transfer(t, g, gr, lat.bus_occ_ns, lat.bus_ns);
                    let t = self.ctrl[r].serve(t, ctrl2, lat.ctrl_ns);
                    let t = self.dram[r].serve(t, lat.dram_occ_ns, lat.dram_ns);
                    let t = t + lat.ctrl_ns; // remote controller return pass
                    let t = self.bus.transfer(t, gr, g, lat.bus_occ_ns, lat.bus_ns);
                    let t = t + lat.ctrl_ns; // local controller return pass
                    t + lat.remote_extra_ns
                }
            }
        };

        // Off-critical-path work still consumes bandwidth.
        if out.am_filled && out.level == Level::Remote {
            // The incoming line is written into the local AM DRAM,
            // overlapped with the data return to the processor.
            self.dram[n].acquire(t, lat.dram_occ_ns);
        }
        if out.slc_writeback {
            self.dram[n].acquire(t, lat.dram_occ_ns);
        }
        if let Some(k) = out.injected_to {
            // Injection: one more fabric transfer plus the acceptor's
            // controller and DRAM time (replacements are buffered, so the
            // requester does not wait for them).
            let g = self.place.group_of(node);
            self.bus.post(t, g, self.place.group_of(k), lat.bus_occ_ns);
            self.ctrl[k.as_usize()].acquire(t, lat.ctrl_occ_ns);
            self.dram[k.as_usize()].acquire(t, lat.dram_occ_ns);
        }
        if out.ownership_migrated {
            let dst = out.migrated_to.unwrap_or(node);
            let g = self.place.group_of(node);
            self.bus
                .post(t, g, self.place.group_of(dst), lat.bus_occ_ns);
        }
        if out.pageout || out.pagein {
            // OS involvement: dominates everything else on this access.
            t += lat.pageout_ns;
        }
        t
    }

    /// Total DRAM busy time across nodes (report metric).
    pub fn dram_busy_ns(&self) -> Nanos {
        self.dram.iter().map(Resource::busy_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_stats::Level;
    use coma_types::{MachineConfig, MemoryPressure};

    fn setup(ppn: usize) -> (MachineResources, LatencyConfig) {
        let cfg = MachineConfig::paper(ppn, MemoryPressure::MP_50);
        let geom = cfg.geometry(1 << 20).unwrap();
        let lat = LatencyConfig::paper_default();
        (MachineResources::new(&geom, &lat), lat)
    }

    /// A 16-node machine in 4 groups of 4 under one root level.
    fn setup_hierarchical() -> (MachineResources, LatencyConfig) {
        let cfg = MachineConfig {
            topology: coma_types::Topology::two_level(4),
            ..MachineConfig::paper(1, MemoryPressure::MP_50)
        };
        let geom = cfg.geometry(1 << 20).unwrap();
        let lat = LatencyConfig::paper_default();
        (MachineResources::new(&geom, &lat), lat)
    }

    #[test]
    fn contention_less_latencies_match_paper() {
        let (mut r, lat) = setup(1);
        let flc = r.time_access(0, ProcId(0), &Outcome::at(Level::Flc), &lat);
        assert_eq!(flc, 0);
        let slc = r.time_access(1000, ProcId(1), &Outcome::at(Level::Slc), &lat);
        assert_eq!(slc - 1000, 32);
        let am = r.time_access(2000, ProcId(2), &Outcome::at(Level::Am), &lat);
        assert_eq!(am - 2000, 148);
        let mut remote = Outcome::at(Level::Remote);
        remote.remote_node = Some(NodeId(5));
        let rem = r.time_access(3000, ProcId(3), &remote, &lat);
        assert_eq!(rem - 3000, 332);
    }

    #[test]
    fn dram_contention_queues_same_node() {
        let (mut r, lat) = setup(4);
        // Two processors of node 0 hit the AM simultaneously.
        let a = r.time_access(0, ProcId(0), &Outcome::at(Level::Am), &lat);
        let b = r.time_access(0, ProcId(1), &Outcome::at(Level::Am), &lat);
        assert_eq!(a, 148);
        // Second access waits for ctrl (24) and DRAM (100) bandwidth.
        assert!(b > a, "no contention modeled: {b} <= {a}");
    }

    #[test]
    fn doubled_dram_bandwidth_reduces_queueing_not_latency() {
        // Under a sustained burst the DRAM (100 ns occupancy) is the
        // bottleneck; halving its occupancy must shorten the burst.
        let (mut r1, lat1) = setup(4);
        let (mut r2, _) = setup(4);
        let lat2 = LatencyConfig::paper_double_dram();
        let burst = |r: &mut MachineResources, lat: &LatencyConfig| {
            let mut last = 0;
            for i in 0..16 {
                last = r.time_access(0, ProcId(i % 4), &Outcome::at(Level::Am), lat);
            }
            last
        };
        let slow1 = burst(&mut r1, &lat1);
        let slow2 = burst(&mut r2, &lat2);
        assert!(
            slow2 < slow1,
            "double bandwidth should cut queueing: {slow2} !< {slow1}"
        );
        // First access latency unchanged.
        let (mut r3, _) = setup(4);
        assert_eq!(
            r3.time_access(0, ProcId(0), &Outcome::at(Level::Am), &lat2),
            148
        );
    }

    #[test]
    fn different_nodes_do_not_contend_on_dram() {
        let (mut r, lat) = setup(1);
        let a = r.time_access(0, ProcId(0), &Outcome::at(Level::Am), &lat);
        let b = r.time_access(0, ProcId(1), &Outcome::at(Level::Am), &lat);
        assert_eq!(a, 148);
        assert_eq!(b, 148);
    }

    #[test]
    fn remote_accesses_contend_on_bus() {
        let (mut r, lat) = setup(1);
        let mk = |node| {
            let mut o = Outcome::at(Level::Remote);
            o.remote_node = Some(NodeId(node));
            o
        };
        let a = r.time_access(0, ProcId(0), &mk(5), &lat);
        let b = r.time_access(0, ProcId(1), &mk(6), &lat);
        assert_eq!(a, 332);
        assert!(b > 332, "bus contention missing");
    }

    #[test]
    fn upgrade_is_cheaper_than_data_fetch() {
        let (mut r, lat) = setup(1);
        let mut up = Outcome::at(Level::Remote);
        up.upgrade = true;
        let t = r.time_access(0, ProcId(0), &up, &lat);
        assert!(t < 332, "upgrade {t} should beat full remote fetch");
    }

    #[test]
    fn pageout_penalty_applied() {
        let (mut r, lat) = setup(1);
        let mut o = Outcome::at(Level::Am);
        o.pageout = true;
        let t = r.time_access(0, ProcId(0), &o, &lat);
        assert!(t >= lat.pageout_ns);
    }

    #[test]
    fn same_group_remote_skips_the_upper_levels() {
        // Node 0 fetching from node 3 (same group of 4): both bus phases
        // stay on the group-0 bus, so the contention-less total is the
        // paper's flat 332 ns.
        let (mut r, lat) = setup_hierarchical();
        let mut o = Outcome::at(Level::Remote);
        o.remote_node = Some(NodeId(3));
        assert_eq!(r.time_access(0, ProcId(0), &o, &lat), 332);
    }

    #[test]
    fn cross_group_remote_pays_link_crossings_and_far_bus() {
        // Node 0 fetching from node 12 (group 3): each phase additionally
        // crosses two links (up+down) and arbitrates on the far group's
        // bus: 332 + 2 × (2·link + bus) = 332 + 2 × 60 = 452.
        let (mut r, lat) = setup_hierarchical();
        let mut o = Outcome::at(Level::Remote);
        o.remote_node = Some(NodeId(12));
        assert_eq!(r.time_access(0, ProcId(0), &o, &lat), 452);
    }

    #[test]
    fn upgrade_scope_bounds_the_invalidation_cost() {
        // An upgrade whose farthest holder is in the writer's own group
        // stays on the local bus; one reaching another group climbs the
        // tree and costs two extra link crossings plus the far bus.
        let (mut r, lat) = setup_hierarchical();
        let mut near = Outcome::at(Level::Remote);
        near.upgrade = true;
        near.inval_scope = Some(NodeId(1)); // group 0
        let t_near = r.time_access(0, ProcId(0), &near, &lat);
        let (mut r2, _) = setup_hierarchical();
        let mut far = near;
        far.inval_scope = Some(NodeId(15)); // group 3
        let t_far = r2.time_access(0, ProcId(0), &far, &lat);
        assert_eq!(t_far - t_near, 2 * lat.link_ns + lat.bus_ns);
    }

    #[test]
    fn disjoint_groups_do_not_contend() {
        // Two same-group remote fetches in different groups at once: no
        // shared medium, both complete in the contention-less 332 ns.
        let (mut r, lat) = setup_hierarchical();
        let mk = |node| {
            let mut o = Outcome::at(Level::Remote);
            o.remote_node = Some(NodeId(node));
            o
        };
        assert_eq!(r.time_access(0, ProcId(0), &mk(3), &lat), 332);
        assert_eq!(r.time_access(0, ProcId(4), &mk(7), &lat), 332);
    }

    #[test]
    fn injection_consumes_acceptor_bandwidth() {
        let (mut r, lat) = setup(1);
        let mut o = Outcome::at(Level::Am);
        o.injected_to = Some(NodeId(3));
        let t0 = r.time_access(0, ProcId(0), &o, &lat);
        // The acceptor's DRAM is now busy; its own AM hit queues.
        let t1 = r.time_access(t0, ProcId(3), &Outcome::at(Level::Am), &lat);
        assert!(t1 - t0 > 148);
    }
}
