//! Figure 5 — execution time, decomposed into Busy / SLC-stall /
//! AM-stall / Remote-stall, for single-processor nodes at 50 % and
//! 81.25 % MP and 4-processor nodes at 81.25 % MP, with doubled DRAM
//! bandwidth (the paper's Figure 5 machine).
//!
//! Bars are normalized per application to the 1-processor / 50 % MP run
//! (= 100 %).

use crate::{fig5_latency, run_sweep, ExpCtx, RunSpec};
use coma_stats::{Bar, BarChart, Table};
use coma_types::MemoryPressure;
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    let bars = [
        (1usize, MemoryPressure::MP_50),
        (1, MemoryPressure::MP_81),
        (4, MemoryPressure::MP_81),
    ];

    let specs: Vec<RunSpec> = AppId::ALL
        .into_iter()
        .flat_map(|app| {
            bars.map(|(ppn, mp)| RunSpec::new(app, ppn, mp).with_latency(fig5_latency()))
        })
        .collect();
    let sweep = run_sweep(ctx, "fig5", &specs);

    let mut t = Table::new(vec![
        "Application",
        "bar",
        "busy%",
        "SLC%",
        "AM%",
        "remote%",
        "total%",
    ]);
    let mut clustering_wins = 0;
    let mut chart = BarChart::new(
        "Figure 5: execution time (1p@50% = 100%), doubled DRAM bandwidth",
        vec!["busy".into(), "SLC".into(), "AM".into(), "remote".into()],
        "% of 1p@50% execution time",
    );
    for (i, app) in AppId::ALL.into_iter().enumerate() {
        let base = sweep.u64("exec_time_ns", 3 * i).max(1) as f64;
        let g = chart.group(app.name());
        for (k, (ppn, mp)) in bars.iter().enumerate() {
            let row = 3 * i + k;
            // The store holds the machine-average breakdown; fold sync
            // into remote exactly as `ExecBreakdown::figure5_segments`.
            let busy = sweep.u64("busy_ns", row);
            let slc = sweep.u64("slc_ns", row);
            let am = sweep.u64("am_ns", row);
            let rem = sweep.u64("remote_ns", row) + sweep.u64("sync_ns", row);
            // Normalize segment sums to the bar's execution time so the
            // stacked bar height equals exec-time relative to the baseline.
            let total = (busy + slc + am + rem).max(1) as f64;
            let height = sweep.u64("exec_time_ns", row) as f64 / base * 100.0;
            let seg = |x: u64| x as f64 / total * height;
            g.bars.push(Bar {
                label: format!("{}p@{}", ppn, mp),
                segments: vec![seg(busy), seg(slc), seg(am), seg(rem)],
            });
            t.row(vec![
                app.name().to_string(),
                format!("{}p @ {}", ppn, mp),
                format!("{:.1}", seg(busy)),
                format!("{:.1}", seg(slc)),
                format!("{:.1}", seg(am)),
                format!("{:.1}", seg(rem)),
                format!("{:.1}", height),
            ]);
        }
        let t81 = sweep.u64("exec_time_ns", 3 * i + 1);
        let c81 = sweep.u64("exec_time_ns", 3 * i + 2);
        if c81 < t81 {
            clustering_wins += 1;
        }
    }
    println!("Figure 5: execution time for 1-way clustering at 50 and 81.25% MP and");
    println!("for 4-way clustering at 81.25% MP (doubled DRAM bandwidth; 1p@50% = 100%)\n");
    println!("{}", t.render());
    println!(
        "4-way clustering beats 1-way at 81.25% MP for {}/{} applications (paper: 13/14)",
        clustering_wins,
        AppId::ALL.len()
    );
    ctx.write_csv("fig5", &t);
    ctx.write_svg("fig5", &chart);
}
