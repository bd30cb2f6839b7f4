//! Figure 2 — read node miss rate at low memory pressure (6.25 %) for
//! 2- and 4-way clustering, relative to single-processor nodes.
//!
//! Paper result: clustering reduces the RNMr for every application;
//! average relative RNMr ≈ 82 % (2-way) and ≈ 62 % (4-way).

use crate::{run_sweep, ExpCtx, RunSpec};
use coma_stats::{Bar, BarChart, Table};
use coma_types::MemoryPressure;
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    let mp = MemoryPressure::MP_6;

    let specs: Vec<RunSpec> = AppId::ALL
        .into_iter()
        .flat_map(|app| [1usize, 2, 4].map(|ppn| RunSpec::new(app, ppn, mp)))
        .collect();
    let sweep = run_sweep(ctx, "fig2", &specs);

    let mut t = Table::new(vec![
        "Application",
        "RNMr 1p",
        "RNMr 2p",
        "RNMr 4p",
        "rel 2p",
        "rel 4p",
    ]);
    let (mut sum2, mut sum4) = (0.0, 0.0);
    let mut chart = BarChart::new(
        "Figure 2: relative read node miss rate at 6.25% memory pressure",
        vec!["relative RNMr".into()],
        "% of 1-processor-node RNMr",
    );
    for (i, app) in AppId::ALL.into_iter().enumerate() {
        let r1 = sweep.f64("rnm_rate", 3 * i);
        let r2 = sweep.f64("rnm_rate", 3 * i + 1);
        let r4 = sweep.f64("rnm_rate", 3 * i + 2);
        sum2 += r2 / r1;
        sum4 += r4 / r1;
        let g = chart.group(app.name());
        for (label, v) in [("2p", r2 / r1), ("4p", r4 / r1)] {
            g.bars.push(Bar {
                label: label.to_string(),
                segments: vec![v * 100.0],
            });
        }
        t.row(vec![
            app.name().to_string(),
            format!("{:.3}%", r1 * 100.0),
            format!("{:.3}%", r2 * 100.0),
            format!("{:.3}%", r4 * 100.0),
            format!("{:.1}%", r2 / r1 * 100.0),
            format!("{:.1}%", r4 / r1 * 100.0),
        ]);
    }
    let n = AppId::ALL.len() as f64;
    println!("Figure 2: relative read node miss rate at {mp} memory pressure\n");
    println!("{}", t.render());
    println!(
        "average relative RNMr: 2-way {:.1}%  4-way {:.1}%   (paper: 82% / 62%)",
        sum2 / n * 100.0,
        sum4 / n * 100.0
    );
    ctx.write_csv("fig2", &t);
    ctx.write_svg("fig2", &chart);
}
