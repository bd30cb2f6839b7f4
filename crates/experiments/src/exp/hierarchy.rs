//! Hierarchy — the paper's clustering question re-asked at 64–256
//! processors, where a single snooping bus is no longer credible.
//!
//! The paper (16 processors, one bus) concludes that clustering pays off
//! mainly by *sharing* the attraction memory, and that bus contention is
//! what ultimately caps the machine. This experiment scales the machine
//! to 64/128/256 processors under two interconnects:
//!
//! * **flat** — the paper's single snooping bus, stretched far past its
//!   design point (every transaction arbitrates one global resource);
//! * **tree** — a directory hierarchy: 4 nodes per group bus, fanout-4
//!   link levels above, so same-group traffic never leaves its bus and
//!   cross-group traffic pays `2·levels` link crossings instead of
//!   contending with the whole machine.
//!
//! For each scale we run both clustering degrees the paper compares
//! (1 and 4 processors per node) at moderate and high memory pressure,
//! and ask where the 16-processor conclusions hold, shift, or invert.
//!
//! `smoke` (the binary's `--smoke` flag) restricts the matrix to
//! one 64-processor cell per topology (the CI hierarchy-smoke gate).

use crate::{run_sweep, ExpCtx, RunSpec, Source};
use coma_stats::{Bar, BarChart, Table};
use coma_types::{MemoryPressure, Topology};
use coma_workloads::AppId;

/// The tree topology used at every scale: 4 nodes per group bus, then
/// fanout-4 levels until a single root unit covers the machine.
fn tree_for(n_nodes: usize) -> Topology {
    let n_groups = (n_nodes / 4).max(2);
    let mut levels = 0;
    let mut units = n_groups;
    while units > 1 {
        units = units.div_ceil(4);
        levels += 1;
    }
    Topology { n_groups, levels }
}

fn topo_label(t: Topology) -> String {
    if t.levels == 0 {
        "flat".into()
    } else {
        format!("{}g×{}l", t.n_groups, t.levels)
    }
}

pub fn run(ctx: &ExpCtx, smoke: bool) {
    let apps = [AppId::Fft, AppId::WaterN2];
    let scales: &[usize] = if smoke { &[64] } else { &[64, 128, 256] };
    let ppns: &[usize] = if smoke { &[4] } else { &[1, 4] };
    let mps: &[MemoryPressure] = if smoke {
        &[MemoryPressure::MP_50]
    } else {
        &[MemoryPressure::MP_50, MemoryPressure::MP_81]
    };
    let apps: &[AppId] = if smoke { &apps[..1] } else { &apps };

    let mut specs: Vec<RunSpec> = Vec::new();
    for &app in apps {
        for &procs in scales {
            for &ppn in ppns {
                for &mp in mps {
                    let n_nodes = procs / ppn;
                    for topo in [Topology::flat(), tree_for(n_nodes)] {
                        specs.push(RunSpec::new(app, ppn, mp).tweak(|p| {
                            p.machine.n_procs = procs;
                            p.machine.topology = topo;
                        }));
                    }
                }
            }
        }
    }
    let sweep = run_sweep(ctx, "hierarchy", &specs);

    let mut t = Table::new(vec![
        "Application",
        "procs",
        "ppn",
        "MP",
        "topology",
        "exec (ms)",
        "vs flat",
        "RNMr",
        "fabric occ",
        "injections",
    ]);
    // Per (app, procs, ppn, mp) pair the flat run precedes its tree run.
    let mut flat_ns = 0u64;
    for row in 0..sweep.n_rows() {
        let exec = sweep.u64("exec_time_ns", row);
        let topo = sweep.topology(row);
        if topo.levels == 0 {
            flat_ns = exec;
        }
        t.row(vec![
            sweep.app(row).name().to_string(),
            sweep.procs(row).to_string(),
            sweep.ppn(row).to_string(),
            sweep.mp(row).to_string(),
            topo_label(topo),
            format!("{:.3}", exec as f64 / 1e6),
            format!("{:.1}%", exec as f64 / flat_ns.max(1) as f64 * 100.0),
            format!("{:.3}%", sweep.f64("rnm_rate", row) * 100.0),
            // Aggregate fabric occupancy: busy-ns summed over every
            // group bus and link, over the run — can exceed 100% on
            // trees (that is the point: parallel media).
            format!(
                "{:.1}%",
                sweep.u64("bus_busy_ns", row) as f64 / exec.max(1) as f64 * 100.0
            ),
            sweep.u64("injections", row).to_string(),
        ]);
    }

    // Chart: execution time normalized to the flat 1-ppn machine at each
    // scale — the paper's Figure 5 comparison, re-staged per machine size.
    let mut chart = BarChart::new(
        "Hierarchy: execution time, flat bus vs directory tree (paper apps, 64-256p)",
        vec!["exec".into()],
        "% of flat 1-ppn at same scale",
    );
    for &app in apps {
        for &procs in scales {
            let mp = *mps.last().unwrap();
            // This (app, scale) pair's rows at the chart's pressure.
            let rows = (0..sweep.n_rows()).filter(|&row| {
                sweep.app(row) == Source::App(app)
                    && sweep.procs(row) == procs
                    && sweep.mp(row) == mp
            });
            let base = rows
                .clone()
                .find(|&row| sweep.ppn(row) == ppns[0] && sweep.topology(row).levels == 0)
                .map(|row| sweep.u64("exec_time_ns", row))
                .unwrap_or(1)
                .max(1) as f64;
            let g = chart.group(format!("{} {procs}p", app.name()));
            for row in rows {
                let (ppn, topo) = (sweep.ppn(row), sweep.topology(row));
                g.bars.push(Bar {
                    label: format!("{ppn}ppn/{}", topo_label(topo)),
                    segments: vec![sweep.u64("exec_time_ns", row) as f64 / base * 100.0],
                });
            }
        }
    }

    println!("Hierarchy: the clustering conclusions at 64-256 processors\n");
    println!("{}", t.render());
    ctx.write_csv("hierarchy", &t);
    ctx.write_svg("hierarchy", &chart);
}
