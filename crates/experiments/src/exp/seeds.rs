//! Seed robustness — are the headline numbers artifacts of one workload
//! seed? This re-measures the Figure 2 clustering gain and the Figure 5
//! clustering speedup across several seeds and reports mean ± stddev.
//! Small coefficients of variation mean the single-seed figures are
//! representative.
//!
//! All 100 cells (5 apps × 4 metric cells × 5 seeds) run as one sweep;
//! each seed is a cell coordinate ([`RunSpec::with_seed_offset`]), so the
//! per-seed runs land in the `seeds` columnar store like any other grid.

use crate::{fig5_latency, mean_cv, run_sweep, ExpCtx, RunSpec};
use coma_stats::Table;
use coma_types::MemoryPressure;
use coma_workloads::AppId;

const SEEDS: usize = 5;
const APPS: [AppId; 5] = [
    AppId::Fft,
    AppId::OceanNon,
    AppId::Barnes,
    AppId::Radix,
    AppId::WaterN2,
];

pub fn run(ctx: &ExpCtx) {
    // Per app, four metric cells — Figure 2's 1p and 4p at 6.25 % MP,
    // Figure 5's 1p and 4p at 81.25 % MP — each at SEEDS consecutive seeds.
    let mut specs: Vec<RunSpec> = Vec::new();
    for app in APPS {
        for spec in [
            RunSpec::new(app, 1, MemoryPressure::MP_6),
            RunSpec::new(app, 4, MemoryPressure::MP_6),
            RunSpec::new(app, 1, MemoryPressure::MP_81).with_latency(fig5_latency()),
            RunSpec::new(app, 4, MemoryPressure::MP_81).with_latency(fig5_latency()),
        ] {
            specs.extend((0..SEEDS as u64).map(|k| spec.clone().with_seed_offset(k)));
        }
    }
    let sweep = run_sweep(ctx, "seeds", &specs);
    // (mean, cv) of one metric cell's SEEDS rows, in seed order.
    let across = |cell: usize, metric: &dyn Fn(usize) -> f64| {
        let values: Vec<f64> = (cell * SEEDS..(cell + 1) * SEEDS).map(metric).collect();
        mean_cv(&values)
    };
    let rnm = |row| sweep.f64("rnm_rate", row);
    let exec = |row| sweep.u64("exec_time_ns", row) as f64;

    let mut t = Table::new(vec![
        "Application",
        "rel RNMr 4p (mean)",
        "cv",
        "exec 4p/1p @81% (mean)",
        "cv ",
    ]);
    for (a, app) in APPS.into_iter().enumerate() {
        // Figure 2 metric: relative RNMr, 4-way vs 1-way at 6.25% MP.
        let (rnm1, rnm1_cv) = across(4 * a, &rnm);
        let (rnm4, rnm4_cv) = across(4 * a + 1, &rnm);
        let rel = rnm4 / rnm1;
        let rel_cv = (rnm4_cv.powi(2) + rnm1_cv.powi(2)).sqrt();

        // Figure 5 metric: execution-time ratio at 81.25% MP.
        let (t1, t1_cv) = across(4 * a + 2, &exec);
        let (t4, t4_cv) = across(4 * a + 3, &exec);
        let speed = t4 / t1;
        let speed_cv = (t4_cv.powi(2) + t1_cv.powi(2)).sqrt();

        t.row(vec![
            app.name().to_string(),
            format!("{:.1}%", rel * 100.0),
            format!("{:.1}%", rel_cv * 100.0),
            format!("{:.1}%", speed * 100.0),
            format!("{:.1}%", speed_cv * 100.0),
        ]);
    }
    println!("Seed robustness over {SEEDS} seeds (cv = combined coefficient of variation)\n");
    println!("{}", t.render());
    println!("small cv ⇒ the single-seed figures elsewhere are representative");
    ctx.write_csv("seeds", &t);
}
