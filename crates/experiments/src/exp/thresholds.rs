//! §4.2 replication-capacity thresholds — the paper's closed-form
//! arithmetic, checked against a micro-simulation.
//!
//! Analytic part: the highest memory pressure at which one line can still
//! be replicated in every node (49/64, 113/128, 13/16, 29/32 for the four
//! node-count × associativity combinations).
//!
//! Empirical part: a micro-workload in which every processor repeatedly
//! reads the same hot line while the rest of the working set fills the
//! AMs; below the threshold the hot line settles into every node (steady
//! remote rate ≈ 0), above it the replicas keep being displaced.
//!
//! The eight probe simulations run through the sweep scheduler's result
//! cache via [`cached_sim`] under a workload tag (the hot-line trace is
//! not a catalog application, so the tag stands in for the app name in
//! the cache key).

use crate::{cached_sim, report_sweep_stats, sweep::run_pool, ExpCtx};
use coma_sim::SimParams;
use coma_stats::Table;
use coma_types::Addr;
use coma_types::{full_replication_threshold, MemoryPressure};
use coma_workloads::{Op, OpStream, Workload};

/// Cache tag for the hot-line micro-workload; bump the suffix if the
/// trace shape below ever changes.
const WORKLOAD_TAG: &str = "hotline-v1";

/// Micro-workload: phase 1 touches the private fill (per-proc partition),
/// phase 2 re-reads one globally hot line interleaved with private reads.
struct HotLine {
    me: u64,
    n_lines: u64,
    part_lines: u64,
    probes: u64,
    state: u64,
}

impl OpStream for HotLine {
    fn next_op(&mut self) -> Option<Op> {
        let fill_end = self.part_lines;
        let s = self.state;
        self.state += 1;
        if s < fill_end {
            // Fill the own partition (keeps the AMs at pressure).
            let line = self.me * self.part_lines + s;
            return Some(Op::Write(Addr(line * 64)));
        }
        let probe = s - fill_end;
        if probe >= self.probes * 2 {
            return None;
        }
        if probe.is_multiple_of(2) {
            // The machine-wide hot line (line 0 of the shared page).
            Some(Op::Read(Addr(0)))
        } else {
            // Keep private data live so the AM stays full.
            let line = self.me * self.part_lines + (probe / 2) % self.part_lines;
            let _ = self.n_lines;
            Some(Op::Read(Addr(line * 64)))
        }
    }
}

fn hot_line_workload() -> Workload {
    let n_procs = 16usize;
    let ws_lines = 16 * 1024u64;
    let part = ws_lines / n_procs as u64;
    Workload {
        name: "hotline",
        ws_bytes: ws_lines * 64,
        n_locks: 0,
        streams: (0..n_procs)
            .map(|me| {
                Box::new(HotLine {
                    me: me as u64,
                    n_lines: ws_lines,
                    part_lines: part,
                    probes: 2000,
                    state: 0,
                }) as Box<dyn OpStream>
            })
            .collect(),
    }
}

/// Hot-line read-node-miss rate per probe, through the result cache.
/// Returns the rate and whether the cell was a cache hit.
fn hot_line_remote_rate(ctx: &ExpCtx, ppn: usize, assoc: usize, mp: MemoryPressure) -> (f64, bool) {
    let mut params = SimParams::default();
    params.machine.procs_per_node = ppn;
    params.machine.memory_pressure = mp;
    params.machine.am_assoc = assoc;
    let (row, hit) = cached_sim(ctx, WORKLOAD_TAG, &params, hot_line_workload);
    // Read node misses per hot-line probe (16 procs × 2000 probes).
    (row.u64("read_node_misses") as f64 / (16.0 * 2000.0), hit)
}

pub fn run(ctx: &ExpCtx) {
    let combos = [(1usize, 4usize), (1, 8), (4, 4), (4, 8)];

    // Each combo probes just below and just above its threshold: eight
    // independent simulations, scheduled across the worker pool.
    let cells: Vec<(usize, usize, MemoryPressure)> = combos
        .iter()
        .flat_map(|&(ppn, assoc)| {
            let nodes = (16 / ppn) as u32;
            let (num, den) = full_replication_threshold(nodes, assoc as u32);
            let frac = num as f64 / den as f64;
            let below = MemoryPressure::new((frac * 64.0) as u32 - 3, 64);
            let above = MemoryPressure::new(((frac * 64.0) as u32 + 3).min(63), 64);
            [(ppn, assoc, below), (ppn, assoc, above)]
        })
        .collect();
    let results = run_pool(ctx.threads, cells.len(), |i| {
        let (ppn, assoc, mp) = cells[i];
        hot_line_remote_rate(ctx, ppn, assoc, mp)
    });
    let hits = results.iter().filter(|(_, hit)| *hit).count();
    report_sweep_stats(ctx, "thresholds", hits, results.len() - hits, 0);

    let mut t = Table::new(vec![
        "nodes",
        "assoc",
        "threshold",
        "threshold %",
        "miss/probe below",
        "miss/probe above",
    ]);
    for (k, (ppn, assoc)) in combos.into_iter().enumerate() {
        let nodes = (16 / ppn) as u32;
        let (num, den) = full_replication_threshold(nodes, assoc as u32);
        let frac = num as f64 / den as f64;
        let (miss_below, _) = results[2 * k];
        let (miss_above, _) = results[2 * k + 1];
        t.row(vec![
            nodes.to_string(),
            format!("{assoc}-way"),
            format!("{num}/{den}"),
            format!("{:.1}%", frac * 100.0),
            format!("{:.4}", miss_below),
            format!("{:.4}", miss_above),
        ]);
    }
    println!("§4.2 replication thresholds: analytic values (paper: 49/64, 113/128,");
    println!("13/16, 29/32) and hot-line micro-benchmark miss rates on either side\n");
    println!("{}", t.render());
    ctx.write_csv("thresholds", &t);
}
