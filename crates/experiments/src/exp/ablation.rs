//! Design-choice ablations (DESIGN.md §8) — quantifying the protocol
//! decisions the paper takes as given:
//!
//! * victim priority (Shared-first vs strict LRU),
//! * injection accept priority (Invalid-then-Shared vs Shared-then-Invalid),
//! * write-buffer depth under release consistency (0 / 2 / 10 / 64),
//! * intra-node dirty SLC-to-SLC transfers on/off.

use crate::{run_sweep, ExpCtx, RunSpec};
use coma_cache::{AcceptPolicy, VictimPolicy};
use coma_stats::Table;
use coma_types::MemoryPressure;
use coma_workloads::AppId;

const APPS: [AppId; 4] = [AppId::Fft, AppId::OceanNon, AppId::Barnes, AppId::WaterN2];

const VARIANTS: [&str; 6] = [
    "victim: strict LRU",
    "accept: shared-first",
    "WB depth 0 (blocking writes)",
    "WB depth 2",
    "WB depth 64",
    "no intra-node transfers",
];

fn base(app: AppId) -> RunSpec {
    RunSpec::new(app, 4, MemoryPressure::MP_81)
}

fn variant(app: AppId, k: usize) -> RunSpec {
    base(app).tweak(|p| match k {
        0 => p.victim_policy = VictimPolicy::StrictLru,
        1 => p.accept_policy = AcceptPolicy::SharedThenInvalid,
        2 => p.machine.write_buffer_entries = 0,
        3 => p.machine.write_buffer_entries = 2,
        4 => p.machine.write_buffer_entries = 64,
        5 => p.machine.intra_node_transfers = false,
        _ => unreachable!(),
    })
}

pub fn run(ctx: &ExpCtx) {
    println!("Ablations at 4-way clustering, 81.25% MP\n");

    // One matrix: per app, the baseline then the 6 variants (28 cells).
    let mut specs: Vec<RunSpec> = Vec::new();
    for app in APPS {
        specs.push(base(app));
        for k in 0..VARIANTS.len() {
            specs.push(variant(app, k));
        }
    }
    let sweep = run_sweep(ctx, "ablation", &specs);
    let rows_per_app = 1 + VARIANTS.len();

    let mut t = Table::new(vec![
        "Application",
        "variant",
        "exec vs base",
        "traffic vs base",
    ]);
    for (a, app) in APPS.into_iter().enumerate() {
        let row0 = a * rows_per_app;
        let base_t = sweep.u64("exec_time_ns", row0);
        let base_b = sweep.u64("total_bytes", row0);
        for (k, name) in VARIANTS.into_iter().enumerate() {
            let row = row0 + 1 + k;
            let exec = sweep.u64("exec_time_ns", row);
            let bytes = sweep.u64("total_bytes", row);
            t.row(vec![
                app.name().to_string(),
                name.to_string(),
                format!("{:+.1}%", (exec as f64 / base_t as f64 - 1.0) * 100.0),
                format!("{:+.1}%", (bytes as f64 / base_b as f64 - 1.0) * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    ctx.write_csv("ablation", &t);
}
