//! Shared helpers for the benches.
//!
//! Each bench regenerates a reduced-scale version of one paper table or
//! figure (the full-scale regeneration lives in `coma-experiments`; the
//! benches measure how fast the simulator produces each figure's grid and
//! guard against performance regressions). The benches run on the
//! dependency-free [`harness`] so the workspace builds fully offline.

#![forbid(unsafe_code)]

use coma_sim::{run_simulation, SimParams};
use coma_stats::SimReport;
use coma_types::{LatencyConfig, MemoryPressure};
use coma_workloads::{AppId, Scale};

pub mod columnar;
pub mod harness;
pub mod json;

/// Trace scale used by all benches.
pub const BENCH_SCALE: Scale = Scale::SMOKE;

/// Run one simulation point at bench scale.
pub fn run_point(
    app: AppId,
    ppn: usize,
    mp: MemoryPressure,
    assoc: usize,
    lat: LatencyConfig,
) -> SimReport {
    let mut params = SimParams::default();
    params.machine.procs_per_node = ppn;
    params.machine.memory_pressure = mp;
    params.machine.am_assoc = assoc;
    params.latency = lat;
    let wl = app.build(16, 42, BENCH_SCALE);
    run_simulation(wl, &params)
}

/// A small representative application set (one from each behaviour class:
/// all-to-all, neighbour, wide-replication, compute-bound).
pub const REP_APPS: [AppId; 4] = [AppId::Fft, AppId::OceanNon, AppId::Raytrace, AppId::WaterN2];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_point_smoke() {
        let r = run_point(
            AppId::WaterN2,
            4,
            MemoryPressure::MP_50,
            4,
            LatencyConfig::paper_default(),
        );
        assert!(r.exec_time_ns > 0);
    }
}
