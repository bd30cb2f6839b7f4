//! Figure 4 — traffic for the six applications that develop conflict
//! misses at very high memory pressure (Barnes, FMM, LU-cont, Radiosity,
//! Raytrace, Volrend): the Figure 3 series **plus** two extra bars at
//! 87.5 % MP with 8-way-associative attraction memories.
//!
//! Paper result: the 8-way bars shrink the 87.5 % traffic dramatically,
//! identifying AM conflict misses as the cause (except LU-cont, where
//! associativity explains only part of the increase).

use crate::{run_sweep, ExpCtx, RunSpec};
use coma_stats::{Bar, BarChart, Table};
use coma_types::MemoryPressure;
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    let mps = MemoryPressure::PAPER_SWEEP;

    // One matrix for the whole figure, app-major: 12 rows per application
    // (2 clustering degrees × (5 pressures + the extra 8-way 87.5% bar)).
    let mut specs: Vec<RunSpec> = Vec::new();
    for app in AppId::FIG4_GROUP {
        for ppn in [1usize, 4] {
            for mp in mps {
                specs.push(RunSpec::new(app, ppn, mp));
                if mp == MemoryPressure::MP_87 {
                    // The extra 8-way bar right after the normal 87.5% bar.
                    specs.push(RunSpec::new(app, ppn, mp).with_assoc(8));
                }
            }
        }
    }
    let sweep = run_sweep(ctx, "fig4", &specs);
    let rows_per_app = 2 * (mps.len() + 1);

    let mut t = Table::new(vec![
        "Application",
        "ppn",
        "MP",
        "assoc",
        "read%",
        "write%",
        "replace%",
        "total%",
        "bytes",
    ]);
    let mut chart = BarChart::new(
        "Figure 4: traffic for the conflict-miss applications (with 8-way bars)",
        vec!["read".into(), "write".into(), "replace".into()],
        "% of largest bar",
    );
    for (a, app) in AppId::FIG4_GROUP.into_iter().enumerate() {
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
                label: format!(
                    "{}p@{}{}",
                    sweep.ppn(row),
                    sweep.mp(row),
                    if sweep.assoc(row) == 8 { "/8w" } else { "" }
                ),
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
                format!("{}-way", sweep.assoc(row)),
                format!("{:.1}", read as f64 / max * 100.0),
                format!("{:.1}", write as f64 / max * 100.0),
                format!("{:.1}", replace as f64 / max * 100.0),
                format!("{:.1}", total as f64 / max * 100.0),
                total.to_string(),
            ]);
        }
    }
    println!("Figure 4: traffic for the conflict-miss applications, with 8-way");
    println!("associativity bars at 87.5% MP\n");
    println!("{}", t.render());
    ctx.write_csv("fig4", &t);
    ctx.write_svg("fig4", &chart);
}
