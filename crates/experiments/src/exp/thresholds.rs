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
//! The eight probe simulations are one `run_sweep` over the hot-line
//! source ([`Source::HotLine`]), so they share the pool, the result cache
//! and the store (`<out>/store/thresholds.cols`) with every other sweep.

use crate::{run_sweep, ExpCtx, RunSpec, Source};
use coma_stats::Table;
use coma_types::Addr;
use coma_types::{full_replication_threshold, MemoryPressure};
use coma_workloads::{Op, OpStream, Workload};

/// Hot-line reads per processor.
const PROBES: u64 = 2000;

/// Micro-workload: phase 1 touches the private fill (per-proc partition),
/// phase 2 re-reads one globally hot line interleaved with private reads.
struct HotLine {
    me: u64,
    part_lines: u64,
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
        if probe >= PROBES * 2 {
            return None;
        }
        if probe.is_multiple_of(2) {
            // The machine-wide hot line (line 0 of the shared page).
            Some(Op::Read(Addr(0)))
        } else {
            // Keep private data live so the AM stays full.
            let line = self.me * self.part_lines + (probe / 2) % self.part_lines;
            Some(Op::Read(Addr(line * 64)))
        }
    }
}

/// The hot-line probe on `n_procs` processors: a 16 Ki-line working set
/// split evenly between them.
pub(crate) fn hot_line_workload(n_procs: usize) -> Workload {
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
                    part_lines: part,
                    state: 0,
                }) as Box<dyn OpStream>
            })
            .collect(),
    }
}

pub fn run(ctx: &ExpCtx) {
    let combos = [(1usize, 4usize), (1, 8), (4, 4), (4, 8)];

    // Each combo probes just below and just above its threshold: eight
    // independent simulations, rows 2k and 2k + 1 for combo k.
    let specs: Vec<RunSpec> = combos
        .iter()
        .flat_map(|&(ppn, assoc)| {
            let nodes = (16 / ppn) as u32;
            let (num, den) = full_replication_threshold(nodes, assoc as u32);
            let frac = num as f64 / den as f64;
            let below = MemoryPressure::new((frac * 64.0) as u32 - 3, 64);
            let above = MemoryPressure::new(((frac * 64.0) as u32 + 3).min(63), 64);
            [below, above].map(|mp| RunSpec::of(Source::HotLine, ppn, mp).with_assoc(assoc))
        })
        .collect();
    let sweep = run_sweep(ctx, "thresholds", &specs);
    // Read node misses per hot-line probe (every processor probes).
    let miss_per_probe = |row: usize| {
        sweep.u64("read_node_misses", row) as f64 / (sweep.procs(row) as u64 * PROBES) as f64
    };

    let mut t = Table::new(vec![
        "nodes",
        "assoc",
        "threshold",
        "threshold %",
        "miss/probe below",
        "miss/probe above",
    ]);
    for row in (0..sweep.n_rows()).step_by(2) {
        let nodes = (sweep.procs(row) / sweep.ppn(row)) as u32;
        let assoc = sweep.assoc(row);
        let (num, den) = full_replication_threshold(nodes, assoc as u32);
        let frac = num as f64 / den as f64;
        t.row(vec![
            nodes.to_string(),
            format!("{assoc}-way"),
            format!("{num}/{den}"),
            format!("{:.1}%", frac * 100.0),
            format!("{:.4}", miss_per_probe(row)),
            format!("{:.4}", miss_per_probe(row + 1)),
        ]);
    }
    println!("§4.2 replication thresholds: analytic values (paper: 49/64, 113/128,");
    println!("13/16, 29/32) and hot-line micro-benchmark miss rates on either side\n");
    println!("{}", t.render());
    ctx.write_csv("thresholds", &t);
}
