//! The machine's contended resources and the timing walk.
//!
//! One [`Resource`] per SLC port, per node controller and per AM DRAM,
//! plus the fabric's group buses and links (paper §3.2: "the memory
//! system simulator models contention effects for the node controllers,
//! attraction memory DRAMs, second-level caches and the shared bus"),
//! all in one table addressed by id.
//!
//! [`MachineResources::time_access`] converts a protocol [`Outcome`] into
//! a completion time by walking the affected resources in path order.
//! Contention-less totals reproduce the paper exactly: SLC 32 ns, AM
//! 148 ns, remote 332 ns (validated in tests).

use coma_protocol::Outcome;
use coma_stats::Level;
use coma_timing::{Fabric, Resource};
use coma_types::{LatencyConfig, MachineGeometry, Nanos, Placement, ProcId};

/// All contended hardware of the machine.
pub struct MachineResources {
    /// Every contended server, by id: the SLC ports (id = processor),
    /// the node controllers, the AM DRAMs, then the fabric's group buses
    /// and links.
    table: Vec<Resource>,
    /// Id of node 0's controller; node `n`'s is `ctrl0 + n`.
    ctrl0: usize,
    /// Id of node 0's DRAM; node `n`'s is `dram0 + n`.
    dram0: usize,
    /// The fabric's ids (the paper's flat snooping bus is one id).
    fabric: Fabric,
    place: Placement,
}

impl MachineResources {
    /// Idle resources for `geom`. Bookings read their costs from
    /// [`Self::time_access`]'s `lat`.
    pub fn new(geom: &MachineGeometry, _lat: &LatencyConfig) -> Self {
        let ctrl0 = geom.n_procs;
        let dram0 = ctrl0 + geom.n_nodes;
        let fabric = Fabric::new(geom.topology, dram0 + geom.n_nodes);
        MachineResources {
            table: vec![Resource::new(); fabric.ids().end],
            ctrl0,
            dram0,
            fabric,
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
        let slc = proc.as_usize();
        let node = self.place.node_of(proc);
        let n = node.as_usize();
        let (ctrl, dram) = (self.ctrl0 + n, self.dram0 + n);

        // A node-controller pass costs `ctrl_ns` of latency; the lookup
        // and return passes of one access are queued as a single
        // double-occupancy reservation so that independent accesses
        // pipeline at the controller's *bandwidth* (occupancy) rather
        // than serializing on the whole access latency.
        let ctrl2 = 2 * lat.ctrl_occ_ns;
        let mut t = match out.level {
            Level::Flc => now,
            Level::Slc => self.table[slc].serve(now, lat.slc_occ_ns, lat.slc_ns),
            Level::PeerSlc => {
                // Own SLC miss check runs in parallel with the controller
                // lookup; the peer's SLC port supplies the data.
                self.table[slc].acquire(now, lat.slc_occ_ns);
                let t = self.table[ctrl].serve(now, ctrl2, lat.ctrl_ns);
                let peer = self.place.proc_at(node, out.peer_slc.unwrap_or(0));
                let t = self.table[peer].serve(t, lat.slc_occ_ns, lat.slc_ns);
                t + lat.ctrl_ns
            }
            Level::Am => {
                // SLC checked in parallel; AM hit = ctrl + DRAM + ctrl.
                self.table[slc].acquire(now, lat.slc_occ_ns);
                let t = self.table[ctrl].serve(now, ctrl2, lat.ctrl_ns);
                let t = self.table[dram].serve(t, lat.dram_occ_ns, lat.dram_ns);
                t + lat.ctrl_ns
            }
            Level::Remote => {
                self.table[slc].acquire(now, lat.slc_occ_ns);
                let g = self.place.group_of(node);
                if out.upgrade && !out.read_exclusive {
                    // Invalidation: climbs only as high as the farthest
                    // copy's group (flat: the one broadcast).
                    let scope = out.inval_scope.map_or(g, |k| self.place.group_of(k));
                    let t = self.table[ctrl].serve(now, ctrl2, lat.ctrl_ns);
                    let t = self.transfer(t, g, scope, lat, false);
                    t + lat.ctrl_ns
                } else {
                    // Data fetch from the remote (owner/home) node,
                    // request and response each routed through the levels
                    // between the two groups.
                    let remote = out.remote_node.expect("a remote fetch names its node");
                    let r = remote.as_usize();
                    let gr = self.place.group_of(remote);
                    let t = self.table[ctrl].serve(now, ctrl2, lat.ctrl_ns);
                    let t = self.transfer(t, g, gr, lat, false);
                    let t = self.table[self.ctrl0 + r].serve(t, ctrl2, lat.ctrl_ns);
                    let t = self.table[self.dram0 + r].serve(t, lat.dram_occ_ns, lat.dram_ns);
                    let t = t + lat.ctrl_ns; // remote controller return pass
                    let t = self.transfer(t, gr, g, lat, false);
                    let t = t + lat.ctrl_ns; // local controller return pass
                    t + lat.remote_extra_ns
                }
            }
        };

        // Off-critical-path work still consumes bandwidth.
        if out.am_filled && out.level == Level::Remote {
            // The incoming line is written into the local AM DRAM,
            // overlapped with the data return to the processor.
            self.table[dram].acquire(t, lat.dram_occ_ns);
        }
        if out.slc_writeback {
            self.table[dram].acquire(t, lat.dram_occ_ns);
        }
        if let Some(k) = out.injected_to {
            // Injection: one more fabric transfer plus the acceptor's
            // controller and DRAM time (replacements are buffered, so the
            // requester does not wait for them).
            let g = self.place.group_of(node);
            self.transfer(t, g, self.place.group_of(k), lat, true);
            self.table[self.ctrl0 + k.as_usize()].acquire(t, lat.ctrl_occ_ns);
            self.table[self.dram0 + k.as_usize()].acquire(t, lat.dram_occ_ns);
        }
        if out.ownership_migrated {
            let dst = out.migrated_to.unwrap_or(node);
            let g = self.place.group_of(node);
            self.transfer(t, g, self.place.group_of(dst), lat, true);
        }
        if out.pageout || out.pagein {
            // OS involvement: dominates everything else on this access.
            t += lat.pageout_ns;
        }
        t
    }

    /// Book every medium from group `src` to group `dst`: `src`'s bus,
    /// then the links between the groups and `dst`'s bus. A critical-path
    /// transfer (read fills, upgrades, read-exclusives) starts each medium
    /// when the previous one is done and returns the completion time. A
    /// `posted` one (injections, ownership migrations: replacements are
    /// buffered, §3.1) only consumes bandwidth: it books every medium at
    /// `now`, and the poster does not wait for it.
    #[inline]
    fn transfer(
        &mut self,
        now: Nanos,
        src: usize,
        dst: usize,
        lat: &LatencyConfig,
        posted: bool,
    ) -> Nanos {
        let bus = self.fabric.bus(src);
        let mut t = self.table[bus].serve(now, lat.bus_occ_ns, lat.bus_ns);
        if src != dst {
            for id in self.fabric.links(src, dst) {
                let start = if posted { now } else { t };
                t = self.table[id].serve(start, lat.link_occ_ns, lat.link_ns);
            }
            let start = if posted { now } else { t };
            t = self.table[self.fabric.bus(dst)].serve(start, lat.bus_occ_ns, lat.bus_ns);
        }
        t
    }

    /// Total fabric busy time, summed over every group bus and link (on
    /// the flat machine: the one bus's busy time; report metric).
    pub fn bus_busy_ns(&self) -> Nanos {
        self.table[self.fabric.ids()]
            .iter()
            .map(Resource::busy_ns)
            .sum()
    }

    /// Total DRAM busy time across nodes (report metric).
    pub fn dram_busy_ns(&self) -> Nanos {
        let drams = self.dram0..self.fabric.ids().start;
        self.table[drams].iter().map(Resource::busy_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_protocol::{BaselineEngine, BaselineKind, MemorySystem};
    use coma_stats::Level;
    use coma_types::{LineNum, MachineConfig, MemoryPressure, NodeId, Topology};

    /// The paper's machine at `ppn` processors per node in `topology`.
    fn geometry(ppn: usize, topology: Topology) -> MachineGeometry {
        let cfg = MachineConfig {
            topology,
            ..MachineConfig::paper(ppn, MemoryPressure::MP_50)
        };
        cfg.geometry(1 << 20).unwrap()
    }

    fn setup(ppn: usize) -> (MachineResources, LatencyConfig) {
        let lat = LatencyConfig::paper_default();
        (
            MachineResources::new(&geometry(ppn, Topology::flat()), &lat),
            lat,
        )
    }

    /// A 16-node machine in 4 groups of 4 under one root level.
    fn setup_hierarchical() -> (MachineResources, LatencyConfig) {
        let lat = LatencyConfig::paper_default();
        let geom = geometry(1, Topology::two_level(4));
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

    #[test]
    fn flat_fabric_serializes_transfers() {
        let (mut r, lat) = setup(1);
        assert_eq!(r.transfer(0, 0, 0, &lat, false), 20);
        // A second transfer at t=0 waits for the first's occupancy, and
        // one after a posted transfer waits for the posted occupancy.
        assert_eq!(r.transfer(0, 0, 0, &lat, false), 40);
        r.transfer(0, 0, 0, &lat, true);
        assert_eq!(r.transfer(0, 0, 0, &lat, false), 80);
        assert_eq!(r.bus_busy_ns(), 80);
    }

    #[test]
    fn fabric_posts_occupy_the_whole_path() {
        let lat = LatencyConfig::paper_default();
        let mut r = MachineResources::new(&geometry(1, Topology::two_level(2)), &lat);
        r.transfer(0, 0, 1, &lat, true);
        // Both group buses and two links.
        assert_eq!(r.bus_busy_ns(), 2 * lat.bus_occ_ns + 2 * lat.link_occ_ns);
        // A transfer out of group 1 queues behind the posted occupancy.
        assert_eq!(
            r.transfer(0, 1, 1, &lat, false),
            lat.bus_occ_ns + lat.bus_ns
        );
    }

    #[test]
    fn cross_group_fetch_fills_the_report_sums() {
        // The table's layout, seen through the report sums: a fetch from
        // group 3 crosses two buses and two links each way, and reads
        // the remote DRAM once; no SLC port or controller is summed.
        let (mut r, lat) = setup_hierarchical();
        let mut o = Outcome::at(Level::Remote);
        o.remote_node = Some(NodeId(12));
        r.time_access(0, ProcId(0), &o, &lat);
        assert_eq!(r.bus_busy_ns(), 4 * lat.bus_occ_ns + 4 * lat.link_occ_ns);
        assert_eq!(r.dram_busy_ns(), lat.dram_occ_ns);
    }

    #[test]
    fn baseline_upgrade_reaches_a_far_home() {
        // P0 upgrades a line it shares with the line's home processor.
        // The request must reach the home directory, so a home in another
        // group costs the two link crossings plus the far bus that
        // `upgrade_scope_bounds_the_invalidation_cost` pins for COMA.
        let lat = LatencyConfig::paper_default();
        let upgrade = |kind, topology, home| {
            let geom = geometry(1, topology);
            let mut e = BaselineEngine::new(geom, kind);
            e.read(ProcId(home), LineNum(0)); // first touch: homed at `home`
            e.read(ProcId(0), LineNum(0));
            let out = e.write(ProcId(0), LineNum(0));
            assert!(out.upgrade && !out.read_exclusive, "{out:?}");
            let t = MachineResources::new(&geom, &lat).time_access(0, ProcId(0), &out, &lat);
            (t, out.inval_scope)
        };
        for kind in [BaselineKind::Numa, BaselineKind::Uma] {
            let (near, _) = upgrade(kind, Topology::two_level(4), 1);
            let (far, _) = upgrade(kind, Topology::two_level(4), 12);
            assert_eq!(far - near, 2 * lat.link_ns + lat.bus_ns, "{kind:?}");
            // Flat outcomes keep no scope: the broadcast reaches everyone.
            assert_eq!(upgrade(kind, Topology::flat(), 12).1, None, "{kind:?}");
        }
    }
}
