//! §4.2 inclusion-breaking — the paper's own suggested remedy for the
//! very-high-pressure conflict misses: "A way to overcome this limitation
//! is to break the inclusion in the cache hierarchy as studied in [9, 2]."
//!
//! With a non-inclusive hierarchy, clean SLC replicas survive
//! attraction-memory replacements, so the private caches act as extra
//! replication capacity exactly where the 4-way AM runs out of it.
//! This experiment measures traffic and execution time for the six
//! Figure-4 applications at 87.5 % MP, inclusive vs non-inclusive, for
//! both clustering degrees.

use crate::{fig5_latency, run_sweep, ExpCtx, RunSpec};
use coma_stats::Table;
use coma_types::MemoryPressure;
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    // One matrix: per app, per clustering degree, inclusive then
    // non-inclusive (24 cells).
    let mut specs: Vec<RunSpec> = Vec::new();
    for app in AppId::FIG4_GROUP {
        for ppn in [1usize, 4] {
            for inclusive in [true, false] {
                specs.push(
                    RunSpec::new(app, ppn, MemoryPressure::MP_87)
                        .with_latency(fig5_latency())
                        .tweak(|p| p.machine.inclusive_hierarchy = inclusive),
                );
            }
        }
    }
    let sweep = run_sweep(ctx, "inclusion", &specs);

    let mut t = Table::new(vec![
        "Application",
        "ppn",
        "traffic incl (KB)",
        "traffic non-incl (KB)",
        "traffic delta",
        "exec delta",
    ]);
    for (a, app) in AppId::FIG4_GROUP.into_iter().enumerate() {
        for (p, ppn) in [1usize, 4].into_iter().enumerate() {
            let row = (a * 2 + p) * 2;
            let b_incl = sweep.u64("total_bytes", row);
            let t_incl = sweep.u64("exec_time_ns", row);
            let b_non = sweep.u64("total_bytes", row + 1);
            let t_non = sweep.u64("exec_time_ns", row + 1);
            t.row(vec![
                app.name().to_string(),
                ppn.to_string(),
                (b_incl / 1024).to_string(),
                (b_non / 1024).to_string(),
                format!(
                    "{:+.1}%",
                    (b_non as f64 / b_incl.max(1) as f64 - 1.0) * 100.0
                ),
                format!(
                    "{:+.1}%",
                    (t_non as f64 / t_incl.max(1) as f64 - 1.0) * 100.0
                ),
            ]);
        }
    }
    println!("Breaking SLC/AM inclusion at 87.5% MP (the paper's §4.2 remedy);");
    println!("negative deltas = the non-inclusive hierarchy helps\n");
    println!("{}", t.render());
    ctx.write_csv("inclusion", &t);
}
