//! COMA vs CC-NUMA vs UMA — the comparison the paper's Section 2
//! motivates but does not plot: COMA's migration/replication removes most
//! remote accesses at sane memory pressures, while at very high pressure
//! its replacement overhead erodes the advantage "thus removing much of
//! the potential performance benefits offered by the COMA over NUMA and
//! UMA systems".
//!
//! NUMA/UMA performance is memory-pressure-independent (the extra DRAM is
//! simply unused), so the COMA columns sweep MP while the baselines give
//! one number each. All 36 cells (6 apps × (4 COMA pressures + 2
//! baselines)) run as one sweep matrix.

use crate::{fig5_latency, run_sweep, ExpCtx, RunSpec};
use coma_sim::MemoryModel;
use coma_stats::Table;
use coma_types::MemoryPressure;
use coma_workloads::AppId;

const APPS: [AppId; 6] = [
    AppId::Fft,
    AppId::OceanCont,
    AppId::OceanNon,
    AppId::Raytrace,
    AppId::Barnes,
    AppId::WaterN2,
];

pub fn run(ctx: &ExpCtx) {
    // Per app: the 4 COMA pressure cells, then the NUMA and UMA baselines
    // (which use the default machine — pressure is irrelevant to them).
    let mut specs: Vec<RunSpec> = Vec::new();
    for app in APPS {
        for mp in MemoryPressure::PAPER_SWEEP {
            if mp == MemoryPressure::MP_75 {
                continue;
            }
            specs.push(RunSpec::new(app, 1, mp).with_latency(fig5_latency()));
        }
        for model in [MemoryModel::Numa, MemoryModel::Uma] {
            specs.push(
                RunSpec::new(app, 1, MemoryPressure::MP_50)
                    .with_latency(fig5_latency())
                    .with_model(model),
            );
        }
    }
    let sweep = run_sweep(ctx, "coma_vs_numa", &specs);
    let rows_per_app = 6;

    let mut t = Table::new(vec![
        "Application",
        "COMA @6.25%",
        "COMA @50%",
        "COMA @81.25%",
        "COMA @87.5%",
        "NUMA",
        "UMA",
    ]);
    for (a, app) in APPS.into_iter().enumerate() {
        let row0 = a * rows_per_app;
        let numa = sweep.u64("exec_time_ns", row0 + 4) as f64;
        let uma = sweep.u64("exec_time_ns", row0 + 5) as f64;
        let base = numa; // normalize everything to NUMA = 100%
        let mut cells = vec![app.name().to_string()];
        for k in 0..4 {
            let exec = sweep.u64("exec_time_ns", row0 + k);
            cells.push(format!("{:.0}%", exec as f64 / base * 100.0));
        }
        cells.push("100%".to_string());
        cells.push(format!("{:.0}%", uma / base * 100.0));
        t.row(cells);
    }
    println!("COMA vs CC-NUMA vs UMA execution time (single-processor nodes,");
    println!("doubled DRAM bandwidth; NUMA = 100%, lower is better)\n");
    println!("{}", t.render());
    println!("COMA's replication advantage shrinks as memory pressure rises;");
    println!("NUMA/UMA are pressure-independent (their spare DRAM is wasted).");
    ctx.write_csv("coma_vs_numa", &t);
}
