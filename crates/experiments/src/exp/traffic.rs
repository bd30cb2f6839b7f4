//! Traffic — the paper's clustering/pressure questions re-asked for
//! production-shaped traffic instead of HPC sharing patterns.
//!
//! Sweeps both traffic families (`kv_zipf`: Zipf-skewed key-value
//! serving, the favourable case for attraction-memory replication;
//! `graph_bfs`: irregular graph analysis, the adversarial case) across
//! the standard memory pressures, {1,2,4}-processor clusters and
//! {4,8}-way AMs, against a CC-NUMA baseline at every clustering degree.
//! NUMA is pressure- and AM-associativity-independent, so its three
//! cells (one per clustering degree) anchor the comparison at 100 %.
//!
//! All cells run through the cached parallel sweep engine and
//! persist to the `traffic` columnar store; the table, chart and the
//! printed findings are derived from the stored rows.

use crate::{fig5_latency, run_sweep, ExpCtx, RunSpec, Source};
use coma_sim::MemoryModel;
use coma_stats::{Bar, BarChart, Table};
use coma_types::MemoryPressure;
use coma_workloads::AppId;

pub fn run(ctx: &ExpCtx) {
    let mps = MemoryPressure::PAPER_SWEEP;
    let ppns = [1usize, 2, 4];
    let assocs = [4usize, 8];

    let mut specs: Vec<RunSpec> = Vec::new();
    for app in AppId::TRAFFIC {
        for ppn in ppns {
            // The NUMA anchor: memory pressure only sizes the AM, which a
            // NUMA machine does not have, so one cell per clustering degree.
            specs.push(
                RunSpec::new(app, ppn, MemoryPressure::MP_50)
                    .with_latency(fig5_latency())
                    .with_model(MemoryModel::Numa),
            );
            for assoc in assocs {
                for mp in mps {
                    specs.push(
                        RunSpec::new(app, ppn, mp)
                            .with_latency(fig5_latency())
                            .with_assoc(assoc),
                    );
                }
            }
        }
    }
    let sweep = run_sweep(ctx, "traffic", &specs);
    let rows = 0..sweep.n_rows();
    let is = |row: usize, app: Source, model: MemoryModel| {
        sweep.app(row) == app && sweep.model(row) == model
    };

    // NUMA anchor per (family, clustering degree).
    let numa_ns = |app: Source, ppn: usize| {
        rows.clone()
            .find(|&row| is(row, app, MemoryModel::Numa) && sweep.ppn(row) == ppn)
            .map(|row| sweep.u64("exec_time_ns", row))
            .unwrap_or(1)
            .max(1)
    };

    let mut t = Table::new(vec![
        "Family",
        "model",
        "MP",
        "ppn",
        "AM assoc",
        "exec (ms)",
        "vs NUMA",
        "RNMr",
        "read (KB)",
        "replace (KB)",
        "injections",
    ]);
    for row in rows.clone() {
        let (app, ppn) = (sweep.app(row), sweep.ppn(row));
        let exec = sweep.u64("exec_time_ns", row);
        let base = numa_ns(app, ppn);
        t.row(vec![
            app.name().to_string(),
            match sweep.model(row) {
                MemoryModel::Numa => "NUMA".to_string(),
                _ => "COMA".to_string(),
            },
            sweep.mp(row).to_string(),
            ppn.to_string(),
            sweep.assoc(row).to_string(),
            format!("{:.3}", exec as f64 / 1e6),
            format!("{:.1}%", exec as f64 / base as f64 * 100.0),
            format!("{:.3}%", sweep.f64("rnm_rate", row) * 100.0),
            (sweep.u64("read_bytes", row) / 1024).to_string(),
            (sweep.u64("replace_bytes", row) / 1024).to_string(),
            sweep.u64("injections", row).to_string(),
        ]);
    }

    // Chart: per family and clustering degree, COMA exec across the
    // pressure sweep (4-way AM) against the NUMA = 100 anchor.
    let mut chart = BarChart::new(
        "Traffic families: COMA execution time across memory pressure (NUMA = 100%)",
        vec!["exec".into()],
        "% of NUMA at same clustering degree",
    );
    for app in AppId::TRAFFIC {
        for ppn in ppns {
            let base = numa_ns(Source::App(app), ppn) as f64;
            let g = chart.group(format!("{} {ppn}ppn", app.name()));
            g.bars.push(Bar {
                label: "NUMA".to_string(),
                segments: vec![100.0],
            });
            for row in rows.clone() {
                if is(row, Source::App(app), MemoryModel::Coma)
                    && sweep.ppn(row) == ppn
                    && sweep.assoc(row) == assocs[0]
                {
                    g.bars.push(Bar {
                        label: format!("{}", sweep.mp(row)),
                        segments: vec![sweep.u64("exec_time_ns", row) as f64 / base * 100.0],
                    });
                }
            }
        }
    }

    // Where attraction behavior helps most / least, from the stored rows.
    for app in AppId::TRAFFIC.map(Source::App) {
        let mut best: Option<(f64, usize)> = None;
        let mut worst: Option<(f64, usize)> = None;
        for row in rows.clone().filter(|&row| is(row, app, MemoryModel::Coma)) {
            let rel = sweep.u64("exec_time_ns", row) as f64 / numa_ns(app, sweep.ppn(row)) as f64;
            if best.is_none_or(|(b, _)| rel < b) {
                best = Some((rel, row));
            }
            if worst.is_none_or(|(w, _)| rel > w) {
                worst = Some((rel, row));
            }
        }
        if let (Some((b, br)), Some((w, wr))) = (best, worst) {
            let at = |row: usize| {
                let (mp, ppn, assoc) = (sweep.mp(row), sweep.ppn(row), sweep.assoc(row));
                format!("{mp} {ppn}ppn {assoc}-way")
            };
            println!(
                "{}: COMA best {:.1}% of NUMA ({}), worst {:.1}% ({})",
                app.name(),
                b * 100.0,
                at(br),
                w * 100.0,
                at(wr)
            );
        }
    }

    println!("\nTraffic: production-shaped workloads, COMA vs NUMA\n");
    println!("{}", t.render());
    ctx.write_csv("traffic", &t);
    ctx.write_svg("traffic", &chart);
}
