//! Machine and timing configuration (paper §3.1–§3.2).
//!
//! [`MachineConfig`] describes the structural parameters that the paper
//! varies (processors per node, AM associativity, memory pressure) plus
//! the ones it holds fixed but the ablations still turn (16 processors,
//! SLC = working-set/128, 10-entry write buffer). The parameters nothing
//! varies are constants: 64-byte lines ([`LINE_BYTES`]), the 4 KB
//! direct-mapped FLC ([`FLC_BYTES`]) and the SLC associativity
//! ([`SLC_ASSOC`]).
//!
//! [`LatencyConfig`] carries the §3.2 timing model, with *occupancy*
//! (bandwidth) separated from *latency* so the paper's bandwidth
//! sensitivity experiments ("if the DRAM bandwidth is doubled while the
//! latency is held constant…") are a one-field change.

use crate::addr::LINE_BYTES;
use crate::ids::NodeId;
use crate::nodeset::NodeSet;
use crate::pressure::MemoryPressure;
use crate::time::Nanos;
use crate::topology::Topology;
use std::fmt;

/// First-level cache size per processor in bytes (4 KB, direct-mapped).
pub const FLC_BYTES: u64 = 4096;

/// Second-level cache associativity.
pub const SLC_ASSOC: usize = 4;

/// Structural machine parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Total processors in the machine (16 throughout the paper).
    pub n_procs: usize,
    /// Processors sharing each node / attraction memory (1, 2 or 4).
    pub procs_per_node: usize,
    /// The second-level cache is `working_set / slc_ws_ratio` (128).
    pub slc_ws_ratio: u64,
    /// Attraction-memory associativity (4 default, 8 in the Fig. 4 variant).
    pub am_assoc: usize,
    /// Target memory pressure; the AM size is derived from it.
    pub memory_pressure: MemoryPressure,
    /// Write-buffer entries per processor (10, release consistency).
    pub write_buffer_entries: usize,
    /// Whether dirty lines may be transferred directly between SLCs within
    /// a node (on in the paper's model; ablation knob).
    pub intra_node_transfers: bool,
    /// Whether the SLCs are inclusive in the attraction memory (the
    /// paper's base model). `false` implements the §4.2 suggestion of
    /// breaking inclusion so SLC replicas survive AM replacements.
    pub inclusive_hierarchy: bool,
    /// Interconnect/directory hierarchy shape (flat for the paper's
    /// single-bus machine).
    pub topology: Topology,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_procs: 16,
            procs_per_node: 1,
            slc_ws_ratio: 128,
            am_assoc: 4,
            memory_pressure: MemoryPressure::MP_50,
            write_buffer_entries: 10,
            intra_node_transfers: true,
            inclusive_hierarchy: true,
            topology: Topology::flat(),
        }
    }
}

/// Errors produced by [`MachineConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `n_procs` must be a positive multiple of `procs_per_node`.
    ProcsNotDivisible {
        n_procs: usize,
        procs_per_node: usize,
    },
    /// A structural parameter was zero.
    ZeroParameter(&'static str),
    /// The derived cache would have no capacity for this working set.
    DegenerateCache { which: &'static str, ws_bytes: u64 },
    /// `procs_per_node` cannot exceed the total processor count.
    ProcsPerNodeExceedsProcs {
        n_procs: usize,
        procs_per_node: usize,
    },
    /// More nodes than the sharer sets can represent.
    TooManyNodes { n_nodes: usize, max: usize },
    /// More cluster groups than the `u64` group mask that a write
    /// upgrade folds a line's copies into (`LineInfo::farthest_present`)
    /// holds.
    TooManyGroups { n_groups: usize, max: usize },
    /// Every group must contain the same whole number of nodes.
    GroupsDontDivideNodes { n_nodes: usize, n_groups: usize },
    /// Level count inconsistent with the group count (flat needs 0 levels,
    /// multiple groups need 1 ≤ levels ≤ ⌈log₂ n_groups⌉).
    LevelsOutOfRange { n_groups: usize, levels: usize },
    /// A workload must supply exactly one reference stream per processor.
    StreamCount { streams: usize, procs: usize },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ProcsNotDivisible { n_procs, procs_per_node } => write!(
                f,
                "n_procs ({n_procs}) must be a positive multiple of procs_per_node ({procs_per_node})"
            ),
            ConfigError::ZeroParameter(p) => write!(f, "parameter {p} must be non-zero"),
            ConfigError::DegenerateCache { which, ws_bytes } => write!(
                f,
                "{which} degenerates to zero capacity for working set of {ws_bytes} bytes"
            ),
            ConfigError::ProcsPerNodeExceedsProcs { n_procs, procs_per_node } => write!(
                f,
                "procs_per_node ({procs_per_node}) exceeds n_procs ({n_procs})"
            ),
            ConfigError::TooManyNodes { n_nodes, max } => {
                write!(f, "{n_nodes} nodes exceed the sharer-set capacity of {max}")
            }
            ConfigError::TooManyGroups { n_groups, max } => {
                write!(f, "{n_groups} groups exceed the directory's group-mask capacity of {max}")
            }
            ConfigError::GroupsDontDivideNodes { n_nodes, n_groups } => write!(
                f,
                "{n_groups} groups do not evenly partition {n_nodes} nodes"
            ),
            ConfigError::LevelsOutOfRange { n_groups, levels } => write!(
                f,
                "{levels} directory levels inconsistent with {n_groups} groups \
                 (flat needs 0; multiple groups need 1..=ceil(log2 n_groups))"
            ),
            ConfigError::StreamCount { streams, procs } => {
                write!(f, "workload has {streams} streams for {procs} processors")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl MachineConfig {
    /// Paper default with the given clustering degree and memory pressure.
    pub fn paper(procs_per_node: usize, memory_pressure: MemoryPressure) -> Self {
        MachineConfig {
            procs_per_node,
            memory_pressure,
            ..Default::default()
        }
    }

    /// Number of nodes (= attraction memories).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_procs / self.procs_per_node
    }

    /// Check structural consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("n_procs", self.n_procs),
            ("procs_per_node", self.procs_per_node),
            ("am_assoc", self.am_assoc),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        if self.slc_ws_ratio == 0 {
            return Err(ConfigError::ZeroParameter("slc_ws_ratio"));
        }
        if self.procs_per_node > self.n_procs {
            return Err(ConfigError::ProcsPerNodeExceedsProcs {
                n_procs: self.n_procs,
                procs_per_node: self.procs_per_node,
            });
        }
        if !self.n_procs.is_multiple_of(self.procs_per_node) {
            return Err(ConfigError::ProcsNotDivisible {
                n_procs: self.n_procs,
                procs_per_node: self.procs_per_node,
            });
        }
        let n_nodes = self.n_nodes();
        if n_nodes > NodeSet::CAPACITY {
            return Err(ConfigError::TooManyNodes {
                n_nodes,
                max: NodeSet::CAPACITY,
            });
        }
        let Topology { n_groups, levels } = self.topology;
        if n_groups == 0 {
            return Err(ConfigError::ZeroParameter("topology.n_groups"));
        }
        if n_groups > 64 {
            return Err(ConfigError::TooManyGroups { n_groups, max: 64 });
        }
        // Flat ⇔ zero levels; a multi-group tree needs at least one level
        // and no more than a binary tree would (deeper chains degenerate).
        let max_levels = if n_groups == 1 {
            0
        } else {
            n_groups.next_power_of_two().trailing_zeros() as usize
        };
        let min_levels = usize::from(n_groups > 1);
        if levels < min_levels || levels > max_levels {
            return Err(ConfigError::LevelsOutOfRange { n_groups, levels });
        }
        if n_groups > n_nodes || !n_nodes.is_multiple_of(n_groups) {
            return Err(ConfigError::GroupsDontDivideNodes { n_nodes, n_groups });
        }
        Ok(())
    }

    /// Derive the concrete cache geometry for a given working-set size.
    pub fn geometry(&self, ws_bytes: u64) -> Result<MachineGeometry, ConfigError> {
        self.validate()?;
        let flc_sets = FLC_BYTES / LINE_BYTES;

        let slc_bytes = ws_bytes / self.slc_ws_ratio;
        let slc_lines = slc_bytes / LINE_BYTES;
        let slc_sets = (slc_lines / SLC_ASSOC as u64).max(1);
        if slc_lines == 0 {
            return Err(ConfigError::DegenerateCache {
                which: "SLC",
                ws_bytes,
            });
        }

        // Total AM derived from pressure; held constant *per processor*
        // across clustering degrees (paper §3.1), so a 4-processor node has
        // a 4× larger AM than a single-processor node.
        let total_am = self.memory_pressure.total_am_bytes(ws_bytes);
        let am_per_proc_lines = total_am / self.n_procs as u64 / LINE_BYTES;
        let am_node_lines = am_per_proc_lines * self.procs_per_node as u64;
        let am_sets = (am_node_lines / self.am_assoc as u64).max(1);
        if am_node_lines < self.am_assoc as u64 {
            return Err(ConfigError::DegenerateCache {
                which: "AM",
                ws_bytes,
            });
        }

        Ok(MachineGeometry {
            n_procs: self.n_procs,
            n_nodes: self.n_nodes(),
            procs_per_node: self.procs_per_node,
            flc_sets,
            slc_sets,
            slc_assoc: SLC_ASSOC,
            am_sets,
            am_assoc: self.am_assoc,
            topology: self.topology,
        })
    }
}

/// Concrete cache geometry derived from a [`MachineConfig`] and a working
/// set. All caches use 64-byte lines; set counts may be "odd" (not powers
/// of two) exactly as in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineGeometry {
    pub n_procs: usize,
    pub n_nodes: usize,
    pub procs_per_node: usize,
    /// FLC: direct-mapped, `flc_sets` lines.
    pub flc_sets: u64,
    pub slc_sets: u64,
    pub slc_assoc: usize,
    pub am_sets: u64,
    pub am_assoc: usize,
    /// Interconnect/directory hierarchy shape.
    pub topology: Topology,
}

impl MachineGeometry {
    /// Nodes sharing each cluster-group bus.
    #[inline]
    pub fn nodes_per_group(&self) -> usize {
        self.n_nodes / self.topology.n_groups
    }

    /// Cluster group a node's bus belongs to.
    #[inline]
    pub fn group_of(&self, node: NodeId) -> usize {
        node.0 as usize / self.nodes_per_group()
    }

    /// Attraction-memory capacity per node, in lines.
    #[inline]
    pub fn am_node_lines(&self) -> u64 {
        self.am_sets * self.am_assoc as u64
    }

    /// Total attraction-memory capacity of the machine, in lines.
    #[inline]
    pub fn am_total_lines(&self) -> u64 {
        self.am_node_lines() * self.n_nodes as u64
    }

    /// SLC capacity per processor, in lines.
    #[inline]
    pub fn slc_lines(&self) -> u64 {
        self.slc_sets * self.slc_assoc as u64
    }
}

/// The §3.2 timing model. All values in nanoseconds.
///
/// Contention-less access times reproduce the paper's:
/// FLC hit 0 ns; SLC hit 32 ns; AM hit 148 ns (24 controller + 100 DRAM +
/// 24 controller); remote access 332 ns of which the global bus is occupied
/// 2 × 20 ns. `remote_extra_ns` covers arbitration and the (overlapped)
/// local-AM fill and is calibrated so the contention-less remote total is
/// exactly 332 ns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// SLC access latency and port occupancy.
    pub slc_ns: Nanos,
    pub slc_occ_ns: Nanos,
    /// Node controller / AM state+tag latency per pass (two passes per AM
    /// access: lookup and data return).
    pub ctrl_ns: Nanos,
    pub ctrl_occ_ns: Nanos,
    /// AM DRAM data access latency.
    pub dram_ns: Nanos,
    /// AM DRAM occupancy per access; halving this doubles DRAM bandwidth
    /// at constant latency (paper §4.3).
    pub dram_occ_ns: Nanos,
    /// Global bus latency per phase (request / response).
    pub bus_ns: Nanos,
    /// Global bus occupancy per phase.
    pub bus_occ_ns: Nanos,
    /// Inter-level link latency per directory level crossed (hierarchical
    /// topologies only; the flat machine crosses no links).
    pub link_ns: Nanos,
    /// Inter-level link occupancy per crossing.
    pub link_occ_ns: Nanos,
    /// Remainder of the remote path (arbitration + overlapped local fill).
    pub remote_extra_ns: Nanos,
    /// Penalty for an injection that finds no receiving slot anywhere:
    /// the OS must page out to backing store and later page back in.
    pub pageout_ns: Nanos,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl LatencyConfig {
    /// The paper's original configuration (DRAM occupied 100 ns per access).
    pub const fn paper_default() -> Self {
        LatencyConfig {
            slc_ns: 32,
            slc_occ_ns: 32,
            ctrl_ns: 24,
            ctrl_occ_ns: 24,
            dram_ns: 100,
            dram_occ_ns: 100,
            bus_ns: 20,
            bus_occ_ns: 20,
            link_ns: 20,
            link_occ_ns: 20,
            // 24 (local miss) + 20 (req) + 24+100+24 (remote AM) + 20 (resp)
            // + 24 (local return) = 236; +96 → the paper's 332 ns.
            remote_extra_ns: 96,
            pageout_ns: 20_000,
        }
    }

    /// Doubled DRAM bandwidth at constant latency — the configuration used
    /// for the Figure 5 execution-time results.
    pub const fn paper_double_dram() -> Self {
        LatencyConfig {
            dram_occ_ns: 50,
            ..Self::paper_default()
        }
    }

    /// Quadrupled DRAM bandwidth plus doubled node-controller bandwidth
    /// (paper §4.3: with this, all applications except LU-non match or beat
    /// single-processor nodes even at 50 % MP).
    pub const fn paper_quad_dram_double_ctrl() -> Self {
        LatencyConfig {
            dram_occ_ns: 25,
            ctrl_occ_ns: 12,
            ..Self::paper_default()
        }
    }

    /// Halved global-bus bandwidth (paper §4.3: makes clustering even more
    /// attractive since the remote penalty grows).
    pub const fn paper_half_bus() -> Self {
        LatencyConfig {
            bus_occ_ns: 40,
            ..Self::paper_double_dram()
        }
    }

    /// Contention-less AM hit latency (should be the paper's 148 ns).
    #[inline]
    pub const fn am_hit_ns(&self) -> Nanos {
        self.ctrl_ns + self.dram_ns + self.ctrl_ns
    }

    /// Contention-less remote access latency (should be the paper's 332 ns).
    #[inline]
    pub const fn remote_ns(&self) -> Nanos {
        // local miss detect + request phase + remote AM access
        // + response phase + local controller return + calibrated extra
        self.ctrl_ns
            + self.bus_ns
            + self.am_hit_ns()
            + self.bus_ns
            + self.ctrl_ns
            + self.remote_extra_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_machine() {
        let c = MachineConfig::default();
        assert_eq!(c.n_procs, 16);
        assert_eq!(c.n_nodes(), 16);
        assert_eq!(c.write_buffer_entries, 10);
        c.validate().unwrap();
    }

    #[test]
    fn node_counts_per_clustering() {
        for (ppn, nodes) in [(1, 16), (2, 8), (4, 4)] {
            let c = MachineConfig::paper(ppn, MemoryPressure::MP_50);
            assert_eq!(c.n_nodes(), nodes);
        }
    }

    #[test]
    fn invalid_divisibility_rejected() {
        let c = MachineConfig {
            procs_per_node: 3,
            ..Default::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ProcsNotDivisible { .. })
        ));
    }

    #[test]
    fn zero_assoc_rejected() {
        let c = MachineConfig {
            am_assoc: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroParameter("am_assoc")));
    }

    #[test]
    fn am_per_processor_constant_across_clustering() {
        let ws = 4 << 20; // 4 MiB
        let mut per_proc = Vec::new();
        for ppn in [1usize, 2, 4] {
            let c = MachineConfig::paper(ppn, MemoryPressure::MP_50);
            let g = c.geometry(ws).unwrap();
            per_proc.push(g.am_node_lines() / ppn as u64);
        }
        assert_eq!(per_proc[0], per_proc[1]);
        assert_eq!(per_proc[1], per_proc[2]);
    }

    #[test]
    fn higher_pressure_means_smaller_am() {
        let ws = 4 << 20;
        let small = MachineConfig::paper(1, MemoryPressure::MP_87)
            .geometry(ws)
            .unwrap();
        let large = MachineConfig::paper(1, MemoryPressure::MP_6)
            .geometry(ws)
            .unwrap();
        assert!(large.am_total_lines() > small.am_total_lines());
        // At MP 6.25% total AM = 16× working set.
        assert_eq!(large.am_total_lines(), 16 * (ws / LINE_BYTES));
    }

    #[test]
    fn total_am_capacity_covers_working_set() {
        // The OS guarantees the working set fits: total AM lines ≥ WS lines.
        let ws = 3_333_333u64; // deliberately ragged
        for mp in MemoryPressure::PAPER_SWEEP {
            for ppn in [1usize, 2, 4] {
                let c = MachineConfig::paper(ppn, mp);
                let g = c.geometry(ws).unwrap();
                assert!(
                    g.am_total_lines() * LINE_BYTES >= ws - (ws % LINE_BYTES),
                    "AM too small at {mp} ppn={ppn}"
                );
            }
        }
    }

    #[test]
    fn slc_is_ws_over_128() {
        let ws = 8 << 20;
        let c = MachineConfig::default();
        let g = c.geometry(ws).unwrap();
        assert_eq!(g.slc_lines() * LINE_BYTES, ws / 128);
    }

    #[test]
    fn degenerate_slc_rejected() {
        let c = MachineConfig::default();
        assert!(matches!(
            c.geometry(1024), // SLC would be 8 bytes
            Err(ConfigError::DegenerateCache { which: "SLC", .. })
        ));
    }

    #[test]
    fn paper_latencies() {
        let l = LatencyConfig::paper_default();
        assert_eq!(l.am_hit_ns(), 148);
        assert_eq!(l.remote_ns(), 332);
    }

    #[test]
    fn double_dram_keeps_latency() {
        let l = LatencyConfig::paper_double_dram();
        assert_eq!(l.am_hit_ns(), 148);
        assert_eq!(l.dram_occ_ns, 50);
        assert_eq!(l.dram_ns, 100);
    }

    #[test]
    fn half_bus_only_changes_occupancy() {
        let l = LatencyConfig::paper_half_bus();
        assert_eq!(l.remote_ns(), 332);
        assert_eq!(l.bus_occ_ns, 40);
    }

    #[test]
    fn oversized_node_rejected() {
        let c = MachineConfig {
            n_procs: 8,
            procs_per_node: 16,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::ProcsPerNodeExceedsProcs {
                n_procs: 8,
                procs_per_node: 16,
            })
        );
    }

    #[test]
    fn too_many_nodes_rejected() {
        let c = MachineConfig {
            n_procs: 512,
            procs_per_node: 1,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyNodes {
                n_nodes: 512,
                max: 256,
            })
        );
    }

    #[test]
    fn group_and_level_ranges_enforced() {
        let with_topo = |n_procs, ppn, topology| MachineConfig {
            n_procs,
            procs_per_node: ppn,
            topology,
            ..Default::default()
        };
        // Zero groups.
        assert_eq!(
            with_topo(16, 1, Topology::tree(0, 1)).validate(),
            Err(ConfigError::ZeroParameter("topology.n_groups"))
        );
        // More groups than the directory's u64 group mask holds.
        assert_eq!(
            with_topo(256, 1, Topology::tree(128, 7)).validate(),
            Err(ConfigError::TooManyGroups {
                n_groups: 128,
                max: 64,
            })
        );
        // Flat machine with a spurious upper level, and a multi-group
        // machine with none.
        assert!(matches!(
            with_topo(16, 1, Topology::tree(1, 1)).validate(),
            Err(ConfigError::LevelsOutOfRange { .. })
        ));
        assert!(matches!(
            with_topo(16, 1, Topology::tree(4, 0)).validate(),
            Err(ConfigError::LevelsOutOfRange { .. })
        ));
        // Deeper than a binary tree needs.
        assert!(matches!(
            with_topo(16, 1, Topology::tree(4, 3)).validate(),
            Err(ConfigError::LevelsOutOfRange { .. })
        ));
        // Groups must evenly partition the nodes.
        assert_eq!(
            with_topo(16, 2, Topology::two_level(3)).validate(),
            Err(ConfigError::GroupsDontDivideNodes {
                n_nodes: 8,
                n_groups: 3,
            })
        );
        // A well-formed 64-processor 2-level machine passes.
        with_topo(64, 4, Topology::two_level(4)).validate().unwrap();
    }

    #[test]
    fn hierarchical_geometry_carries_topology() {
        let c = MachineConfig {
            n_procs: 64,
            procs_per_node: 4,
            topology: Topology::two_level(4),
            ..Default::default()
        };
        let g = c.geometry(4 << 20).unwrap();
        assert_eq!(g.topology, Topology::two_level(4));
        assert_eq!(g.nodes_per_group(), 4);
        assert_eq!(g.group_of(NodeId(0)), 0);
        assert_eq!(g.group_of(NodeId(5)), 1);
        assert_eq!(g.group_of(NodeId(15)), 3);
    }

    #[test]
    fn link_latency_defaults_match_bus_phase() {
        let l = LatencyConfig::paper_default();
        assert_eq!(l.link_ns, 20);
        assert_eq!(l.link_occ_ns, 20);
        // The bandwidth-variant constructors inherit the link timing.
        assert_eq!(LatencyConfig::paper_half_bus().link_ns, 20);
    }
}
