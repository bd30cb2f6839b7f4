//! §4.3 bandwidth sensitivity — the paper's prose experiments:
//!
//! 1. **Original DRAM bandwidth** (100 ns occupancy): several
//!    applications degrade significantly under 4-way clustering at 50 %
//!    MP (paper: five).
//! 2. **Doubled DRAM bandwidth**: only LU-non (−17.8 %), Radix (−12.7 %)
//!    and Ocean-non (−5.5 %) still degrade.
//! 3. **Quadrupled DRAM + doubled controller bandwidth**: everything but
//!    LU-non matches or beats single-processor nodes.
//! 4. **Halved global bus bandwidth**: clustering becomes even more
//!    attractive (largest effect: Barnes, FFT, LU-non).

use crate::{run_sweep, ExpCtx, RunSpec};
use coma_stats::Table;
use coma_types::{LatencyConfig, MemoryPressure};
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    let mp = MemoryPressure::MP_50;
    let configs: [(&str, LatencyConfig); 4] = [
        ("default", LatencyConfig::paper_default()),
        ("2x DRAM", LatencyConfig::paper_double_dram()),
        (
            "4x DRAM + 2x ctrl",
            LatencyConfig::paper_quad_dram_double_ctrl(),
        ),
        ("2x DRAM, half bus", LatencyConfig::paper_half_bus()),
    ];

    // One matrix: app-major, then configuration, then 1p/4p (112 cells).
    let mut specs: Vec<RunSpec> = Vec::new();
    for app in AppId::ALL {
        for (_, lat) in &configs {
            specs.push(RunSpec::new(app, 1, mp).with_latency(lat.clone()));
            specs.push(RunSpec::new(app, 4, mp).with_latency(lat.clone()));
        }
    }
    let sweep = run_sweep(ctx, "sensitivity", &specs);

    let mut t = Table::new(vec![
        "Application",
        "default",
        "2x DRAM",
        "4x DRAM+2x ctrl",
        "half bus",
    ]);
    let mut degradations = [0usize; 4];
    for (a, app) in AppId::ALL.into_iter().enumerate() {
        let mut cells = vec![app.name().to_string()];
        for (k, hit) in degradations.iter_mut().enumerate() {
            let row = (a * configs.len() + k) * 2;
            let t1 = sweep.u64("exec_time_ns", row);
            let t4 = sweep.u64("exec_time_ns", row + 1);
            let ratio = t4 as f64 / t1.max(1) as f64;
            if ratio > 1.02 {
                *hit += 1;
            }
            cells.push(format!("{:+.1}%", (ratio - 1.0) * 100.0));
        }
        t.row(cells);
    }
    println!("Sensitivity (§4.3): 4-way clustering execution time vs 1-way at 50% MP");
    println!("(positive = clustering slower; per node-bandwidth configuration)\n");
    println!("{}", t.render());
    println!(
        "applications degraded >2%: default {}, 2x DRAM {}, 4x DRAM+2x ctrl {}, half bus {}",
        degradations[0], degradations[1], degradations[2], degradations[3]
    );
    println!("(paper: 5 with default DRAM, 3 with doubled, 1 with quadrupled)");
    ctx.write_csv("sensitivity", &t);
}
