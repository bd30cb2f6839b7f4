//! Differential fuzzing of the coherence engine against a flat
//! sequentially-consistent oracle.
//!
//! The engine does not model data, so the oracle tracks *versions*: every
//! write of a line bumps its version, and the harness maintains, for each
//! physical copy the protocol can serve a read from (a processor's
//! private caches, a node's AM, the paged-out "disk" image), which
//! version that copy currently holds. The serving copy for each read is
//! identified from the [`Outcome`](coma_protocol::Outcome); since the
//! harness applies ops one at a time, sequential consistency demands
//! that every read observe the line's latest version. A protocol bug
//! that leaves a stale copy behind — and later serves from it —
//! surfaces as a version mismatch.
//!
//! Data movement the `Outcome` does not name (injection of a *different*
//! victim line, ownership migration) is reconstructed after every op by
//! diffing the directory's owner map against the previous op's: when a
//! line's responsible copy moved between nodes, its version stamp moves
//! with it; when a line left the directory (page-out), its version is
//! filed as the paged-out image for a later page-in.
//!
//! Every op is additionally followed by the independent structural
//! invariant sweep ([`Snapshot::check`]), which catches damage the value
//! oracle cannot observe — a phantom directory sharer, a stale copy on a
//! line the stream never reads again.
//!
//! Failing op streams are shrunk to a 1-minimal reproducer (removing any
//! single op makes the failure disappear).

use crate::checker::OpLabel;
use crate::snapshot::Snapshot;
use crate::ProtocolModel;
use coma_protocol::CoherenceEngine;
use coma_stats::Level;
use coma_types::{LineNum, MachineGeometry, ProcId, Rng64, Topology};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The fuzzing configuration: machine shape, op universe and stream.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// The machine's shape: nodes, processors, cache sizes, topology.
    pub geom: MachineGeometry,
    /// Lines `0..n_lines` form the op universe. Keep it a small multiple
    /// of the total AM capacity so replacement and page-out stay hot.
    pub n_lines: u64,
    pub n_ops: u64,
    pub seed: u64,
    /// Percentage of ops that are writes.
    pub write_pct: u64,
}

impl FuzzConfig {
    /// A pressured 2×2 machine: 32-line universe over 16 AM slots, so
    /// replacement, injection, migration and page-out all fire steadily.
    pub fn pressured(n_ops: u64, seed: u64) -> Self {
        FuzzConfig {
            geom: MachineGeometry {
                n_procs: 4,
                n_nodes: 2,
                procs_per_node: 2,
                flc_sets: 4,
                slc_sets: 2,
                slc_assoc: 2,
                am_sets: 4,
                am_assoc: 2,
                topology: Topology::flat(),
            },
            n_lines: 32,
            n_ops,
            seed,
            write_pct: 35,
        }
    }

    /// A pressured hierarchical machine: 2 groups × 2 nodes with one
    /// directory level, 32 lines over 16 AM slots — cross-group
    /// invalidation, injection and migration all stay hot.
    pub fn pressured_two_level(n_ops: u64, seed: u64) -> Self {
        let mut cfg = Self::pressured(n_ops, seed);
        cfg.geom = MachineGeometry {
            n_procs: 4,
            n_nodes: 4,
            procs_per_node: 1,
            am_sets: 2,
            topology: Topology::two_level(2),
            ..cfg.geom
        };
        cfg
    }

    /// Build the clean engine for this configuration.
    pub fn build_engine(&self) -> CoherenceEngine {
        crate::clean_engine(self.geom, true)
    }

    fn gen_op(&self, rng: &mut Rng64) -> OpLabel {
        OpLabel {
            proc: ProcId(rng.below(self.geom.n_procs as u64) as u16),
            line: LineNum(rng.below(self.n_lines)),
            is_write: rng.below(100) < self.write_pct,
        }
    }
}

/// A failure the oracle detected, with the minimized reproducer.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Index (into the generated stream) of the op that observed it.
    pub op_index: u64,
    pub message: String,
    /// 1-minimal reproducing op stream (from an empty machine).
    pub minimized: Vec<OpLabel>,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle mismatch at op {}: {}",
            self.op_index, self.message
        )?;
        writeln!(f, "minimal reproducer ({} ops):", self.minimized.len())?;
        for (i, op) in self.minimized.iter().enumerate() {
            writeln!(f, "  {:>3}. {op}", i + 1)?;
        }
        Ok(())
    }
}

/// The result of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    pub ops_run: u64,
    pub failure: Option<FuzzFailure>,
}

/// The version-stamp oracle for one machine.
struct Oracle {
    n_lines: usize,
    procs_per_node: usize,
    /// Latest written version per line (0 = initial memory contents).
    version: Vec<u64>,
    /// Version held by each node's AM copy, `[node][line]`.
    am: Vec<Vec<u64>>,
    /// Version held by each processor's private (FLC/SLC) copy.
    private: Vec<Vec<u64>>,
    /// Version of the paged-out / never-cached memory image.
    disk: Vec<u64>,
    /// Directory owner per line as of the previous op.
    owner_of: Vec<Option<u16>>,
}

impl Oracle {
    fn new(cfg: &FuzzConfig) -> Self {
        let n = cfg.n_lines as usize;
        Oracle {
            n_lines: n,
            procs_per_node: cfg.geom.procs_per_node,
            version: vec![0; n],
            am: vec![vec![0; n]; cfg.geom.n_nodes],
            private: vec![vec![0; n]; cfg.geom.n_procs],
            disk: vec![0; n],
            owner_of: vec![None; n],
        }
    }

    /// Reconstruct unreported data movement (injections, migrations,
    /// page-outs of lines other than `op_line`) by diffing the directory.
    fn repair_owners(&mut self, engine: &CoherenceEngine, op_line: usize) {
        for l in 0..self.n_lines {
            let now = engine.directory().get(LineNum(l as u64)).map(|i| i.owner.0);
            if l == op_line {
                self.owner_of[l] = now;
                continue;
            }
            match (self.owner_of[l], now) {
                (Some(old), Some(new)) if old != new => {
                    // The responsible copy moved (injection or ownership
                    // migration): its data went with it.
                    self.am[new as usize][l] = self.am[old as usize][l];
                    self.owner_of[l] = Some(new);
                }
                (Some(old), None) => {
                    // Page-out: the OS wrote the line back to disk.
                    self.disk[l] = self.am[old as usize][l];
                    self.owner_of[l] = None;
                }
                (None, Some(_)) | (Some(_), Some(_)) | (None, None) => {
                    self.owner_of[l] = now;
                }
            }
        }
    }

    /// Apply one op to `model`, checking reads against the oracle.
    fn apply<M: ProtocolModel>(&mut self, model: &mut M, op: OpLabel) -> Result<(), String> {
        let l = op.line.0 as usize;
        let p = op.proc.as_usize();
        let n = op.proc.node(self.procs_per_node).as_usize();
        if op.is_write {
            self.version[l] += 1;
            let v = self.version[l];
            model.write(op.proc, op.line);
            self.repair_owners(model.engine(), l);
            // The writer's node ends with the only (Exclusive) copy.
            self.am[n][l] = v;
            self.private[p][l] = v;
            return Ok(());
        }

        let was_owner = self.owner_of[l];
        let out = model.read(op.proc, op.line);
        let served = match out.level {
            Level::Flc | Level::Slc => self.private[p][l],
            Level::PeerSlc => {
                let peer = out.peer_slc.expect("PeerSlc outcome names the peer");
                self.private[n * self.procs_per_node + peer][l]
            }
            Level::Am => match was_owner {
                // Live line: served from this node's (pre-existing) copy.
                Some(_) => self.am[n][l],
                // Cold local materialization: data comes off the page
                // frame (initial contents or the paged-out image).
                None => self.disk[l],
            },
            Level::Remote => match was_owner {
                Some(o) => self.am[o as usize][l],
                None => self.disk[l],
            },
        };
        if served != self.version[l] {
            return Err(format!(
                "{op}: read served version {served} (via {:?}), latest write is {}",
                out.level, self.version[l]
            ));
        }
        self.repair_owners(model.engine(), l);
        // Record the fills the read performed.
        self.private[p][l] = served;
        match out.level {
            Level::Remote => {
                self.am[n][l] = served;
                if was_owner.is_none() {
                    // Cold remote materialization also places the
                    // responsible copy at the line's home node.
                    if let Some(home) = out.remote_node {
                        self.am[home.as_usize()][l] = served;
                    }
                }
            }
            Level::Am if out.am_filled => self.am[n][l] = served,
            _ => {}
        }
        Ok(())
    }
}

impl Oracle {
    /// [`Oracle::apply`] with engine panics converted into failures — a
    /// corrupted model may trip the engine's internal assertions before
    /// the oracle sees a stale read, and that is still a caught bug —
    /// followed by a structural invariant sweep. Value visibility alone
    /// cannot see damage nobody reads through (a phantom directory
    /// sharer, a stale copy on a line the stream never revisits); the
    /// independent invariant suite can, and in release builds it also
    /// stands in for the engine's compiled-out debug assertions.
    fn apply_caught<M: ProtocolModel>(&mut self, model: &mut M, op: OpLabel) -> Result<(), String> {
        match catch_unwind(AssertUnwindSafe(|| self.apply(model, op))) {
            Ok(r) => r?,
            Err(p) => return Err(format!("engine panic: {}", crate::panic_message(&*p))),
        }
        let engine = model.engine();
        Snapshot::capture(engine)
            .check(engine.is_inclusive())
            .map_err(|e| format!("{op}: invariant violated: {e}"))
    }
}

/// Run `ops` through a fresh model from `factory`; returns the failing
/// op's index and the oracle's message, if any.
pub fn run_ops<M: ProtocolModel>(
    cfg: &FuzzConfig,
    factory: &dyn Fn() -> M,
    ops: &[OpLabel],
) -> Option<(usize, String)> {
    let mut model = factory();
    let mut oracle = Oracle::new(cfg);
    for (i, &op) in ops.iter().enumerate() {
        if let Err(msg) = oracle.apply_caught(&mut model, op) {
            return Some((i, msg));
        }
    }
    None
}

/// Shrink a failing stream to 1-minimality: repeatedly drop any single
/// op whose removal preserves the failure, until none can be dropped.
fn shrink<M: ProtocolModel>(
    cfg: &FuzzConfig,
    factory: &dyn Fn() -> M,
    mut ops: Vec<OpLabel>,
) -> Vec<OpLabel> {
    // First pass: binary-chop prefixes of removals in large chunks, then
    // settle with single-op removals to a fixpoint.
    let mut chunk = (ops.len() / 2).max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i < ops.len() {
            let end = (i + chunk).min(ops.len());
            let mut candidate = ops.clone();
            candidate.drain(i..end);
            if !candidate.is_empty() && run_ops(cfg, factory, &candidate).is_some() {
                ops = candidate;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    ops
}

/// Fuzz `n_ops` seeded random ops through the model, checking every read
/// against the sequentially-consistent oracle. On failure the stream is
/// truncated at the failing op and shrunk.
pub fn fuzz<M: ProtocolModel>(cfg: &FuzzConfig, factory: &dyn Fn() -> M) -> FuzzReport {
    let mut rng = Rng64::new(cfg.seed);
    let mut model = factory();
    let mut oracle = Oracle::new(cfg);
    let mut ops: Vec<OpLabel> = Vec::new();
    for i in 0..cfg.n_ops {
        let op = cfg.gen_op(&mut rng);
        ops.push(op);
        if let Err(message) = oracle.apply_caught(&mut model, op) {
            let minimized = shrink(cfg, factory, ops);
            return FuzzReport {
                ops_run: i + 1,
                failure: Some(FuzzFailure {
                    op_index: i,
                    message,
                    minimized,
                }),
            };
        }
    }
    FuzzReport {
        ops_run: cfg.n_ops,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_engine_sustains_ten_thousand_ops() {
        let cfg = FuzzConfig::pressured(10_000, 0xC0A);
        let r = fuzz(&cfg, &|| cfg.build_engine());
        assert!(r.failure.is_none(), "{}", r.failure.unwrap());
        assert_eq!(r.ops_run, 10_000);
    }

    #[test]
    fn clean_two_level_engine_sustains_ten_thousand_ops() {
        let cfg = FuzzConfig::pressured_two_level(10_000, 0xC0A);
        let r = fuzz(&cfg, &|| cfg.build_engine());
        assert!(r.failure.is_none(), "{}", r.failure.unwrap());
        assert_eq!(r.ops_run, 10_000);
    }

    #[test]
    fn oracle_versions_start_at_initial_contents() {
        // A read before any write must observe version 0 everywhere.
        let cfg = FuzzConfig::pressured(0, 1);
        let mut model = cfg.build_engine();
        let mut oracle = Oracle::new(&cfg);
        for p in 0..4u16 {
            for l in 0..cfg.n_lines {
                oracle
                    .apply(
                        &mut model,
                        OpLabel {
                            proc: ProcId(p),
                            line: LineNum(l),
                            is_write: false,
                        },
                    )
                    .unwrap();
            }
        }
    }
}
