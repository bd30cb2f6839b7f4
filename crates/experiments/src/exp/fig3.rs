//! Figure 3 — global bus traffic (read / write / replacement) for 1- and
//! 4-processor nodes at 6.25 %, 50 %, 75 %, 81.25 % and 87.5 % memory
//! pressure, for the eight applications where clustering is consistently
//! effective.
//!
//! As in the paper, bars are normalized per application to the largest
//! bar (100 %).

use crate::{run_sweep, ExpCtx, RunSpec};
use coma_stats::{Bar, BarChart, Table};
use coma_types::MemoryPressure;
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    let mps = MemoryPressure::PAPER_SWEEP;

    // One matrix for the whole figure, app-major: 10 rows per application
    // (2 clustering degrees × 5 memory pressures).
    let specs: Vec<RunSpec> = AppId::FIG3_GROUP
        .into_iter()
        .flat_map(|app| {
            [1usize, 4]
                .into_iter()
                .flat_map(move |ppn| mps.map(move |mp| RunSpec::new(app, ppn, mp)))
        })
        .collect();
    let sweep = run_sweep(ctx, "fig3", &specs);
    let rows_per_app = 2 * mps.len();

    let mut t = Table::new(vec![
        "Application",
        "ppn",
        "MP",
        "read%",
        "write%",
        "replace%",
        "total%",
        "bytes",
    ]);
    let mut chart = BarChart::new(
        "Figure 3: traffic for 1 and 4-processor nodes",
        vec!["read".into(), "write".into(), "replace".into()],
        "% of largest bar",
    );
    for (a, app) in AppId::FIG3_GROUP.into_iter().enumerate() {
        let rows = a * rows_per_app..(a + 1) * rows_per_app;
        let max = rows
            .clone()
            .map(|row| sweep.u64("total_bytes", row))
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let g = chart.group(app.name());
        for row in rows {
            let read = sweep.u64("read_bytes", row);
            let write = sweep.u64("write_bytes", row);
            let replace = sweep.u64("replace_bytes", row);
            let total = sweep.u64("total_bytes", row);
            g.bars.push(Bar {
                label: format!("{}p@{}", sweep.ppn(row), sweep.mp(row)),
                segments: vec![
                    read as f64 / max * 100.0,
                    write as f64 / max * 100.0,
                    replace as f64 / max * 100.0,
                ],
            });
            t.row(vec![
                app.name().to_string(),
                sweep.ppn(row).to_string(),
                sweep.mp(row).to_string(),
                format!("{:.1}", read as f64 / max * 100.0),
                format!("{:.1}", write as f64 / max * 100.0),
                format!("{:.1}", replace as f64 / max * 100.0),
                format!("{:.1}", total as f64 / max * 100.0),
                total.to_string(),
            ]);
        }
    }
    println!("Figure 3: traffic for 1 and 4-processor nodes across memory pressures");
    println!("(read/write/replace segments, % of each application's largest bar)\n");
    println!("{}", t.render());
    ctx.write_csv("fig3", &t);
    ctx.write_svg("fig3", &chart);
}
