//! # coma — cluster-based COMA multiprocessor simulator
//!
//! A from-scratch reproduction of *Landin & Karlgren, "A Study of the
//! Efficiency of Shared Attraction Memories in Cluster-Based COMA
//! Multiprocessors"* (IPPS 1997): a 16-processor bus-based COMA with
//! 1/2/4 processors per node sharing each attraction memory, driven by
//! synthetic SPLASH-2-analogue workloads.
//!
//! This façade re-exports the public API of the workspace crates:
//!
//! * [`sim`] — build and run whole-machine simulations;
//! * [`workloads`] — the 14-application catalog and generator framework;
//! * [`types`] — machine/latency configuration and memory pressure;
//! * [`stats`] — reports: RNMr, traffic decomposition, time breakdowns;
//! * [`cache`], [`protocol`], [`timing`] — the underlying substrates.
//!
//! ```
//! use coma::prelude::*;
//!
//! let mut params = SimParams::default();
//! params.machine.procs_per_node = 4;                 // 4-way clustering
//! params.machine.memory_pressure = MemoryPressure::MP_81;
//! params.latency = LatencyConfig::paper_double_dram();
//!
//! let workload = AppId::WaterSp.build(16, 42, Scale::SMOKE);
//! let report = run_simulation(workload, &params);
//! println!("RNMr = {:.3}%", report.rnm_rate() * 100.0);
//! ```

#![forbid(unsafe_code)]

pub use coma_cache as cache;
pub use coma_protocol as protocol;
pub use coma_sim as sim;
pub use coma_stats as stats;
pub use coma_timing as timing;
pub use coma_types as types;
pub use coma_workloads as workloads;

/// Everything needed for typical experiments.
pub mod prelude {
    pub use coma_sim::{run_simulation, MemoryModel, SimParams, Simulation};
    pub use coma_stats::{ExecBreakdown, SimReport, Table, Traffic};
    pub use coma_types::{
        full_replication_threshold, LatencyConfig, MachineConfig, MemoryPressure,
    };
    pub use coma_workloads::{AppId, Scale, Workload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_runs_a_simulation() {
        let params = SimParams::default();
        let wl = AppId::WaterN2.build(16, 1, Scale::SMOKE);
        let r = run_simulation(wl, &params);
        assert!(r.exec_time_ns > 0);
    }
}
