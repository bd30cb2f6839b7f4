//! The application catalog — Table 1 of the paper.
//!
//! Working sets are the paper's, scaled down by [`WS_SCALE_DIV`] with all
//! capacity *ratios* preserved (SLC = WS/128; AM sized from the memory
//! pressure), so every relative quantity the paper reports is unchanged.
//! Entries the paper's table truncates (LU "512×512", Ocean "258×258",
//! Radix "2M keys") use the standard SPLASH-2 sizes: 512²×8 B = 2 MB,
//! Ocean ≈ 14.3 MB, Radix 2M×8 B = 16 MB.

use crate::apps;
use crate::stream::Scale;
use crate::workload::Workload;

/// Factor by which Table-1 working sets are scaled down (see DESIGN.md §2).
pub const WS_SCALE_DIV: u64 = 16;

/// The fourteen SPLASH-2 applications of Table 1, plus the two
/// production-shaped traffic families ([`AppId::TRAFFIC`]) that extend
/// the study beyond HPC sharing patterns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppId {
    Barnes,
    Cholesky,
    Fft,
    Fmm,
    LuCont,
    LuNon,
    OceanCont,
    OceanNon,
    Radiosity,
    Radix,
    Raytrace,
    Volrend,
    WaterN2,
    WaterSp,
    /// Zipf-skewed key-value / OLTP traffic (read-hot, shard-locked
    /// updates) — the favourable case for AM replication.
    KvZipf,
    /// Irregular graph analysis (level-synchronized BFS + pointer
    /// chasing) — the adversarial, locality-free case.
    GraphBfs,
}

impl AppId {
    /// All applications, in Table 1 order.
    pub const ALL: [AppId; 14] = [
        AppId::Barnes,
        AppId::Cholesky,
        AppId::Fft,
        AppId::Fmm,
        AppId::LuCont,
        AppId::LuNon,
        AppId::OceanCont,
        AppId::OceanNon,
        AppId::Radiosity,
        AppId::Radix,
        AppId::Raytrace,
        AppId::Volrend,
        AppId::WaterN2,
        AppId::WaterSp,
    ];

    /// The eight applications for which clustering is consistently
    /// effective across all memory pressures (paper Figure 3).
    pub const FIG3_GROUP: [AppId; 8] = [
        AppId::Cholesky,
        AppId::Fft,
        AppId::LuNon,
        AppId::OceanCont,
        AppId::OceanNon,
        AppId::Radix,
        AppId::WaterN2,
        AppId::WaterSp,
    ];

    /// The six applications that develop conflict misses at 87.5 % MP
    /// (paper Figure 4).
    pub const FIG4_GROUP: [AppId; 6] = [
        AppId::Barnes,
        AppId::Fmm,
        AppId::LuCont,
        AppId::Radiosity,
        AppId::Raytrace,
        AppId::Volrend,
    ];

    /// The production-shaped traffic families (not part of the paper's
    /// Table 1 suite; swept by the `traffic` experiment).
    pub const TRAFFIC: [AppId; 2] = [AppId::KvZipf, AppId::GraphBfs];

    /// Table-1 name.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Barnes => "Barnes",
            AppId::Cholesky => "Cholesky",
            AppId::Fft => "FFT",
            AppId::Fmm => "FMM",
            AppId::LuCont => "LU cont",
            AppId::LuNon => "LU non",
            AppId::OceanCont => "Ocean cont",
            AppId::OceanNon => "Ocean non",
            AppId::Radiosity => "Radiosity",
            AppId::Radix => "Radix",
            AppId::Raytrace => "Raytrace",
            AppId::Volrend => "Volrend",
            AppId::WaterN2 => "Water n2",
            AppId::WaterSp => "Water sp",
            AppId::KvZipf => "KV Zipf",
            AppId::GraphBfs => "Graph BFS",
        }
    }

    /// Table-1 description.
    pub fn description(self) -> &'static str {
        match self {
            AppId::Barnes => "N-body, 16K part.",
            AppId::Cholesky => "Sparse matrix factorization, tk29.O",
            AppId::Fft => "1-dim. Six-step FFT, 1M data points",
            AppId::Fmm => "N-body, two cluster, 16K part.",
            AppId::LuCont => "Blocked LU-fact., enhanced locality, 512x512",
            AppId::LuNon => "Blocked LU-factorization, 512x512",
            AppId::OceanCont => "Ocean movement simul., enhanced locality, 258x258",
            AppId::OceanNon => "Ocean movement simulation, 258x258",
            AppId::Radiosity => "Light distribution, -room -batch",
            AppId::Radix => "Integer sorting, 2M keys, radix 1024",
            AppId::Raytrace => "Hierarchical ray tracing, car.env -a1",
            AppId::Volrend => "3-D volume rendering, 256x256x126 vx head",
            AppId::WaterN2 => "Molecular dyn. N-body O(n2), 512 mol.",
            AppId::WaterSp => "Molecular dyn. N-body O(n), larger data structure, 512 mol.",
            AppId::KvZipf => "Zipf(1.0) key-value store, 16K keys, 10% locked updates",
            AppId::GraphBfs => "Irregular graph, 32K vx R-MAT, level-sync BFS + ptr chase",
        }
    }

    /// Table-1 working set in whole-size megabytes (before scaling).
    /// Values the table truncates use the standard SPLASH-2 sizes.
    pub fn paper_ws_mb(self) -> f64 {
        match self {
            AppId::Barnes => 3.5,
            AppId::Cholesky => 40.5,
            AppId::Fft => 50.0,
            AppId::Fmm => 29.0,
            AppId::LuCont => 2.0,
            AppId::LuNon => 2.0,
            AppId::OceanCont => 14.3,
            AppId::OceanNon => 14.3,
            AppId::Radiosity => 29.0,
            AppId::Radix => 16.0,
            AppId::Raytrace => 36.0,
            AppId::Volrend => 22.5,
            AppId::WaterN2 => 1.0,
            AppId::WaterSp => 1.7,
            // Not Table-1 entries; sized mid-suite so the standard MP
            // sweep exercises the same pressure range. Chosen so the
            // scaled store holds exactly 16 Ki keys / 32 Ki vertices.
            AppId::KvZipf => 18.0,
            AppId::GraphBfs => 36.0,
        }
    }

    /// Scaled working set in bytes used by the simulations.
    pub fn ws_bytes(self) -> u64 {
        let bytes = self.paper_ws_mb() * (1u64 << 20) as f64;
        (bytes as u64) / WS_SCALE_DIV
    }

    /// Build the workload for `nprocs` processors.
    pub fn build(self, nprocs: usize, seed: u64, scale: Scale) -> Workload {
        let ws = self.ws_bytes();
        match self {
            AppId::Barnes => apps::barnes::build(nprocs, seed, scale, ws),
            AppId::Cholesky => apps::cholesky::build(nprocs, seed, scale, ws),
            AppId::Fft => apps::fft::build(nprocs, seed, scale, ws),
            AppId::Fmm => apps::fmm::build(nprocs, seed, scale, ws),
            AppId::LuCont => apps::lu::build_cont(nprocs, seed, scale, ws),
            AppId::LuNon => apps::lu::build_non(nprocs, seed, scale, ws),
            AppId::OceanCont => apps::ocean::build_cont(nprocs, seed, scale, ws),
            AppId::OceanNon => apps::ocean::build_non(nprocs, seed, scale, ws),
            AppId::Radiosity => apps::radiosity::build(nprocs, seed, scale, ws),
            AppId::Radix => apps::radix::build(nprocs, seed, scale, ws),
            AppId::Raytrace => apps::raytrace::build(nprocs, seed, scale, ws),
            AppId::Volrend => apps::volrend::build(nprocs, seed, scale, ws),
            AppId::WaterN2 => apps::water::build_n2(nprocs, seed, scale, ws),
            AppId::WaterSp => apps::water::build_sp(nprocs, seed, scale, ws),
            AppId::KvZipf => apps::kv_zipf::build(nprocs, seed, scale, ws),
            AppId::GraphBfs => apps::graph_bfs::build(nprocs, seed, scale, ws),
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AppId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_lowercase().replace([' ', '-', '_'], "");
        AppId::ALL
            .into_iter()
            .chain(AppId::TRAFFIC)
            .find(|a| a.name().to_ascii_lowercase().replace(' ', "") == norm)
            .ok_or_else(|| format!("unknown application '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    /// Every registered application: the Table-1 suite plus the traffic
    /// families.
    fn every_app() -> impl Iterator<Item = AppId> {
        AppId::ALL.into_iter().chain(AppId::TRAFFIC)
    }

    #[test]
    fn groups_partition_the_suite() {
        let mut all: Vec<AppId> = AppId::FIG3_GROUP
            .into_iter()
            .chain(AppId::FIG4_GROUP)
            .collect();
        all.sort_by_key(|a| a.name());
        all.dedup();
        assert_eq!(all.len(), 14);
    }

    #[test]
    fn every_app_builds_and_produces_ops() {
        for app in every_app() {
            let mut wl = app.build(16, 1, Scale::SMOKE);
            assert_eq!(wl.streams.len(), 16, "{app}");
            assert!(wl.ws_bytes > 0);
            let mut refs = 0u64;
            while let Some(op) = wl.streams[0].next_op() {
                if matches!(op, Op::Read(_) | Op::Write(_)) {
                    refs += 1;
                }
                if refs > 50 {
                    break;
                }
            }
            assert!(refs > 10, "{app} produced only {refs} refs");
        }
    }

    #[test]
    fn every_app_stays_inside_working_set() {
        for app in every_app() {
            let mut wl = app.build(4, 2, Scale::SMOKE);
            let ws = wl.ws_bytes;
            for s in &mut wl.streams {
                let mut n = 0;
                while let Some(op) = s.next_op() {
                    if let Op::Read(a) | Op::Write(a) = op {
                        assert!(a.0 < ws, "{app}: {a} outside ws {ws}");
                    }
                    n += 1;
                    if n > 200_000 {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn every_app_lock_ids_in_range() {
        for app in every_app() {
            let mut wl = app.build(4, 3, Scale::SMOKE);
            let n_locks = wl.n_locks;
            for s in &mut wl.streams {
                while let Some(op) = s.next_op() {
                    if let Op::Lock(l) | Op::Unlock(l) = op {
                        assert!(l < n_locks, "{app}: lock {l} out of {n_locks}");
                    }
                }
            }
        }
    }

    #[test]
    fn barrier_sequences_identical_on_all_procs() {
        for app in every_app() {
            let mut wl = app.build(4, 4, Scale::SMOKE);
            let seqs: Vec<Vec<u32>> = wl
                .streams
                .iter_mut()
                .map(|s| {
                    let mut v = Vec::new();
                    while let Some(op) = s.next_op() {
                        if let Op::Barrier(b) = op {
                            v.push(b);
                        }
                    }
                    v
                })
                .collect();
            for s in &seqs[1..] {
                assert_eq!(*s, seqs[0], "{app}: barrier sequences diverge");
            }
        }
    }

    #[test]
    fn parse_names() {
        assert_eq!("fft".parse::<AppId>().unwrap(), AppId::Fft);
        assert_eq!("LU cont".parse::<AppId>().unwrap(), AppId::LuCont);
        assert_eq!("water-n2".parse::<AppId>().unwrap(), AppId::WaterN2);
        assert_eq!("kv-zipf".parse::<AppId>().unwrap(), AppId::KvZipf);
        assert_eq!("kv_zipf".parse::<AppId>().unwrap(), AppId::KvZipf);
        assert_eq!("graph bfs".parse::<AppId>().unwrap(), AppId::GraphBfs);
        assert!("nosuch".parse::<AppId>().is_err());
    }

    #[test]
    fn traffic_families_are_not_in_the_paper_suite() {
        for t in AppId::TRAFFIC {
            assert!(!AppId::ALL.contains(&t), "{t} leaked into Table 1");
        }
    }

    #[test]
    fn traffic_default_specs_hold_round_universes() {
        use crate::apps::{graph_bfs, kv_zipf};
        assert_eq!(kv_zipf::keys_for(AppId::KvZipf.ws_bytes()), 16 * 1024);
        assert_eq!(
            graph_bfs::vertices_for(AppId::GraphBfs.ws_bytes()),
            32 * 1024
        );
    }

    #[test]
    fn scaled_working_sets_match_table_ratio() {
        for app in every_app() {
            let expected = (app.paper_ws_mb() * (1u64 << 20) as f64) as u64 / WS_SCALE_DIV;
            assert_eq!(app.ws_bytes(), expected);
        }
        // Largest and smallest keep their Table-1 ordering.
        assert!(AppId::Fft.ws_bytes() > AppId::WaterN2.ws_bytes());
    }

    #[test]
    fn deterministic_builds() {
        for app in [
            AppId::Radiosity,
            AppId::Barnes,
            AppId::Radix,
            AppId::KvZipf,
            AppId::GraphBfs,
        ] {
            let run = || {
                let mut wl = app.build(2, 9, Scale::SMOKE);
                let mut v = Vec::new();
                for _ in 0..500 {
                    match wl.streams[0].next_op() {
                        Some(op) => v.push(op),
                        None => break,
                    }
                }
                v
            };
            assert_eq!(run(), run(), "{app} not deterministic");
        }
    }
}
