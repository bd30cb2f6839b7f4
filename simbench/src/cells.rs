//! The benchmark's workloads: each is a fixed list of simulation cells
//! (an application on one machine shape), plus the oracle that decides
//! whether a cell's `SimReport` is correct.

use coma_sim::canon::{fnv1a_u64, FNV_OFFSET};
use coma_sim::{MemoryModel, SimParams};
use coma_stats::{AccessCounts, ExecBreakdown, SimReport, Traffic};
use coma_types::{MemoryPressure, Topology};
use coma_workloads::{AppId, Scale, Workload};

/// The seed every workload defaults to, and the one the digests are
/// pinned at.
pub const DEFAULT_SEED: u64 = 42;

/// One simulation: an application on one machine.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub name: &'static str,
    pub app: AppId,
    pub procs: usize,
    pub ppn: usize,
    pub mp: MemoryPressure,
    pub model: MemoryModel,
    pub topology: Topology,
    /// `digest` of the cell's report at [`DEFAULT_SEED`], pinned from the
    /// simulator as it stood when the benchmark was written.
    pub pinned: u64,
}

impl Cell {
    pub fn params(&self) -> SimParams {
        let mut p = SimParams::default();
        p.machine.n_procs = self.procs;
        p.machine.procs_per_node = self.ppn;
        p.machine.memory_pressure = self.mp;
        p.machine.topology = self.topology;
        p.memory_model = self.model;
        p
    }

    pub fn build(&self, seed: u64) -> Workload {
        self.app.build(self.procs, seed, Scale::SMOKE)
    }
}

/// A named set of cells, timed together.
pub struct WorkloadDef {
    pub name: &'static str,
    pub cells: &'static [Cell],
}

const FLAT: Topology = Topology {
    n_groups: 1,
    levels: 0,
};

const TREE: Topology = Topology {
    n_groups: 4,
    levels: 1,
};

const fn flat16(
    name: &'static str,
    app: AppId,
    ppn: usize,
    mp: MemoryPressure,
    model: MemoryModel,
    pinned: u64,
) -> Cell {
    Cell {
        name,
        app,
        procs: 16,
        ppn,
        mp,
        model,
        topology: FLAT,
        pinned,
    }
}

const fn tree64(name: &'static str, app: AppId, pinned: u64) -> Cell {
    Cell {
        name,
        app,
        procs: 64,
        ppn: 4,
        mp: MemoryPressure::MP_50,
        model: MemoryModel::Coma,
        topology: TREE,
        pinned,
    }
}

use AppId::{Fft, GraphBfs, KvZipf, Radiosity, Raytrace};
use MemoryModel::{Coma, Numa};
use MemoryPressure as Mp;

/// The paper's Fig 3/4 regime: AM replacement, injections and the
/// directory carry most of the host work.
#[rustfmt::skip]
const COMA_PRESSURE: [Cell; 4] = [
    flat16("fft_2p_mp81", Fft, 2, Mp::MP_81, Coma, 0x0654_8482_4817_9b32),
    flat16("radiosity_2p_mp87", Radiosity, 2, Mp::MP_87, Coma, 0x0ec1_1524_bb52_a145),
    flat16("kv_zipf_2p_mp81", KvZipf, 2, Mp::MP_81, Coma, 0x11b6_0b93_5c2f_2dc8),
    flat16("graph_bfs_1p_mp87", GraphBfs, 1, Mp::MP_87, Coma, 0x761d_8f46_5713_048d),
];

/// The same four cells on the NUMA baseline: the control for any COMA
/// engine change, and the only workload timing `BaselineEngine`.
#[rustfmt::skip]
const NUMA_ANCHOR: [Cell; 4] = [
    flat16("numa_fft_2p_mp81", Fft, 2, Mp::MP_81, Numa, 0x8298_18e3_88fb_2de2),
    flat16("numa_radiosity_2p_mp87", Radiosity, 2, Mp::MP_87, Numa, 0x8e34_57fa_54a8_38f3),
    flat16("numa_kv_zipf_2p_mp81", KvZipf, 2, Mp::MP_81, Numa, 0x0d8a_6d33_f83a_a700),
    flat16("numa_graph_bfs_1p_mp87", GraphBfs, 1, Mp::MP_87, Numa, 0x815f_8d05_69dc_66c9),
];

/// 64 processors on a two-level tree: fabric links, presence masks and
/// the 64-slot event queue.
const TREE64: [Cell; 2] = [
    tree64("tree64_fft_4p_mp50", Fft, 0x7461_70ba_a6c9_37d0),
    tree64("tree64_raytrace_4p_mp50", Raytrace, 0xa19b_8e60_cac0_5e12),
];

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "coma_pressure",
        cells: &COMA_PRESSURE,
    },
    WorkloadDef {
        name: "numa_anchor",
        cells: &NUMA_ANCHOR,
    },
    WorkloadDef {
        name: "tree64",
        cells: &TREE64,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// FNV-1a over every field of a report, in declaration order.
///
/// The destructuring is exhaustive on purpose: a field added to
/// `SimReport` (or its parts) fails to compile here until the digest
/// covers it.
pub fn digest(r: &SimReport) -> u64 {
    let SimReport {
        exec_time_ns,
        counts,
        traffic,
        per_proc,
        injections,
        ownership_migrations,
        shared_drops,
        cold_allocs,
        bus_busy_ns,
        dram_busy_ns,
        read_latency,
    } = r;
    let AccessCounts { reads, writes } = counts;
    let Traffic {
        read_bytes,
        write_bytes,
        replace_bytes,
        read_txns,
        write_txns,
        replace_txns,
        pageouts,
    } = traffic;
    let mut words = vec![*exec_time_ns];
    words.extend_from_slice(reads);
    words.extend_from_slice(writes);
    words.extend_from_slice(&[
        *read_bytes,
        *write_bytes,
        *replace_bytes,
        *read_txns,
        *write_txns,
        *replace_txns,
        *pageouts,
        per_proc.len() as u64,
    ]);
    for b in per_proc {
        let ExecBreakdown {
            busy_ns,
            slc_ns,
            am_ns,
            remote_ns,
            sync_ns,
        } = b;
        words.extend_from_slice(&[*busy_ns, *slc_ns, *am_ns, *remote_ns, *sync_ns]);
    }
    words.extend_from_slice(&[
        *injections,
        *ownership_migrations,
        *shared_drops,
        *cold_allocs,
        *bus_busy_ns,
        *dram_busy_ns,
    ]);
    words.extend(read_latency.to_words());
    words.into_iter().fold(FNV_OFFSET, fnv1a_u64)
}

/// Decides whether one repetition's report is correct: equal to the
/// pinned digest at the default seed, otherwise equal to the first
/// repetition seen in this run.
pub struct Oracle {
    pinned: Option<u64>,
    first: Option<SimReport>,
}

impl Oracle {
    pub fn new(cell: &Cell, seed: u64) -> Self {
        Oracle {
            pinned: (seed == DEFAULT_SEED).then_some(cell.pinned),
            first: None,
        }
    }

    pub fn check(&mut self, r: &SimReport) -> Result<(), String> {
        if r.counts.total_reads() + r.counts.total_writes() == 0 {
            return Err("report simulated no accesses".into());
        }
        if let Some(want) = self.pinned {
            let got = digest(r);
            return if got == want {
                Ok(())
            } else {
                Err(format!("report digest {got:#018x} != pinned {want:#018x}"))
            };
        }
        match &self.first {
            None => {
                self.first = Some(r.clone());
                Ok(())
            }
            Some(first) if first == r => Ok(()),
            Some(first) => Err(format!(
                "report differs from the first repetition in: {}",
                differing_fields(first, r).join(", ")
            )),
        }
    }
}

/// Names of the top-level report fields on which `a` and `b` differ.
pub fn differing_fields(a: &SimReport, b: &SimReport) -> Vec<&'static str> {
    let checks: [(&'static str, bool); 11] = [
        ("exec_time_ns", a.exec_time_ns == b.exec_time_ns),
        ("counts", a.counts == b.counts),
        ("traffic", a.traffic == b.traffic),
        ("per_proc", a.per_proc == b.per_proc),
        ("injections", a.injections == b.injections),
        (
            "ownership_migrations",
            a.ownership_migrations == b.ownership_migrations,
        ),
        ("shared_drops", a.shared_drops == b.shared_drops),
        ("cold_allocs", a.cold_allocs == b.cold_allocs),
        ("bus_busy_ns", a.bus_busy_ns == b.bus_busy_ns),
        ("dram_busy_ns", a.dram_busy_ns == b.dram_busy_ns),
        ("read_latency", a.read_latency == b.read_latency),
    ];
    checks
        .into_iter()
        .filter(|(_, same)| !same)
        .map(|(name, _)| name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::run_cell;

    fn report(cell: &Cell, seed: u64) -> SimReport {
        run_cell(cell, seed).expect("cell runs").report
    }

    #[test]
    fn every_cell_matches_its_pinned_digest() {
        for def in &WORKLOADS {
            for c in def.cells {
                let mut oracle = Oracle::new(c, DEFAULT_SEED);
                assert_eq!(oracle.check(&report(c, DEFAULT_SEED)), Ok(()), "{}", c.name);
            }
        }
    }

    #[test]
    fn a_perturbed_report_is_flagged() {
        let cell = &COMA_PRESSURE[0];
        let good = report(cell, DEFAULT_SEED);
        type Perturbation = (&'static str, fn(&mut SimReport));
        let perturbations: [Perturbation; 8] = [
            ("exec_time_ns", |r| r.exec_time_ns += 1),
            ("counts", |r| r.counts.reads[4] += 1),
            ("traffic", |r| r.traffic.pageouts += 1),
            ("per_proc", |r| r.per_proc[3].sync_ns += 1),
            ("injections", |r| r.injections += 1),
            ("cold_allocs", |r| r.cold_allocs += 1),
            ("dram_busy_ns", |r| r.dram_busy_ns += 1),
            ("read_latency", |r| r.read_latency.record(7)),
        ];
        for (field, perturb) in perturbations {
            let mut bad = good.clone();
            perturb(&mut bad);
            let mut pinned = Oracle::new(cell, DEFAULT_SEED);
            assert!(pinned.check(&bad).is_err(), "pinned oracle missed {field}");
            let mut held_out = Oracle::new(cell, 7);
            assert_eq!(held_out.check(&good), Ok(()));
            let err = held_out.check(&bad).expect_err(field);
            assert!(err.contains(field), "{err} does not name {field}");
        }
    }

    #[test]
    fn a_held_out_seed_repeats_exactly() {
        for def in &WORKLOADS {
            let cell = &def.cells[0];
            let mut oracle = Oracle::new(cell, 7);
            for _ in 0..2 {
                assert_eq!(oracle.check(&report(cell, 7)), Ok(()), "{}", cell.name);
            }
        }
    }

    #[test]
    fn cell_names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .flat_map(|w| w.cells.iter().map(|c| c.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
