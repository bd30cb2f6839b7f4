//! Exhaustive model checking of the coherence protocol over small
//! configurations.
//!
//! The checker enumerates, breadth-first, every machine state reachable
//! within `depth` operations, where each operation is any processor
//! reading or writing any line of a small universe. States are
//! canonicalized as [`Snapshot`]s and deduplicated, so the search visits
//! each distinct state once; the paper's protocol is finite-state over a
//! fixed line universe, so with enough depth the frontier drains and the
//! *entire* reachable space has been certified.
//!
//! After every transition the child state is checked against the
//! independent invariant suite ([`Snapshot::check`]) plus the transition
//! property that responsible copies are never silently dropped (every
//! line known to the parent — live or paged out — must still be known to
//! the child). A violation terminates the search with the op trace that
//! reproduces it from the initial (empty) machine.

use crate::snapshot::Snapshot;
use crate::ProtocolModel;
use coma_protocol::CoherenceEngine;
use coma_types::{LineNum, MachineGeometry, ProcId, Topology};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One transition label: which processor did what to which line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpLabel {
    pub proc: ProcId,
    pub line: LineNum,
    pub is_write: bool,
}

impl fmt::Display for OpLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P{} {} line {}",
            self.proc.0,
            if self.is_write { "writes" } else { "reads" },
            self.line.0
        )
    }
}

/// An invariant violation with the shortest op sequence reaching it
/// (BFS order guarantees minimality in op count).
#[derive(Clone, Debug)]
pub struct Violation {
    pub message: String,
    pub trace: Vec<OpLabel>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(
            f,
            "counterexample ({} ops from empty machine):",
            self.trace.len()
        )?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {op}", i + 1)?;
        }
        Ok(())
    }
}

/// The model-checking configuration: a deliberately tiny machine and the
/// op universe to close over.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// The machine's shape: nodes, processors, cache sizes, topology.
    pub geom: MachineGeometry,
    /// Lines `0..n_lines` form the op universe.
    pub n_lines: u64,
    /// Maximum op depth; `None` runs until the frontier drains (full
    /// reachable-space closure — finite, but use small universes).
    pub depth: Option<usize>,
    pub inclusive: bool,
    /// Safety valve for misconfigured searches.
    pub max_states: usize,
}

impl CheckConfig {
    /// A one-line closure over `n_nodes` single-processor nodes with one
    /// slot per cache.
    fn one_line(n_nodes: usize, topology: Topology) -> Self {
        CheckConfig {
            geom: MachineGeometry {
                n_procs: n_nodes,
                n_nodes,
                procs_per_node: 1,
                flc_sets: 1,
                slc_sets: 1,
                slc_assoc: 1,
                am_sets: 1,
                am_assoc: 1,
                topology,
            },
            n_lines: 1,
            depth: None,
            inclusive: true,
            max_states: 1 << 20,
        }
    }

    /// The smallest interesting machine: 2 nodes × 1 processor, 1 line.
    pub fn two_node_one_line() -> Self {
        Self::one_line(2, Topology::flat())
    }

    /// The smallest hierarchical machine: 2 groups × 2 nodes × 1
    /// processor with one directory level above the group buses, over a
    /// single line — small enough to close the reachable space while
    /// exercising cross-group invalidation.
    pub fn two_level() -> Self {
        Self::one_line(4, Topology::two_level(2))
    }

    /// A pressured configuration: more lines than AM slots per node, so
    /// replacement, injection and page-out are all reachable.
    pub fn pressured(n_nodes: usize, procs_per_node: usize, n_lines: u64) -> Self {
        CheckConfig {
            geom: MachineGeometry {
                n_procs: n_nodes * procs_per_node,
                n_nodes,
                procs_per_node,
                flc_sets: 2,
                slc_sets: 1,
                slc_assoc: 2,
                am_sets: 1,
                am_assoc: 2,
                topology: Topology::flat(),
            },
            n_lines,
            depth: Some(5),
            inclusive: true,
            max_states: 1 << 20,
        }
    }

    /// Build the clean engine for this configuration.
    pub fn build_engine(&self) -> CoherenceEngine {
        crate::clean_engine(self.geom, self.inclusive)
    }

    fn ops(&self) -> Vec<OpLabel> {
        let n_procs = self.geom.n_procs;
        let mut ops = Vec::with_capacity(n_procs * self.n_lines as usize * 2);
        for p in 0..n_procs {
            for l in 0..self.n_lines {
                for is_write in [false, true] {
                    ops.push(OpLabel {
                        proc: ProcId(p as u16),
                        line: LineNum(l),
                        is_write,
                    });
                }
            }
        }
        ops
    }
}

/// The result of a (completed or aborted) search.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Distinct states visited (including the initial state).
    pub states_explored: usize,
    /// Transitions that landed on an already-visited state.
    pub transitions_deduped: usize,
    /// Deepest BFS level reached.
    pub max_depth: usize,
    /// Whether the search ran to completion (frontier drained) rather
    /// than aborting at the state bound. With `depth: None` this
    /// certifies full closure of the reachable state space.
    pub exhausted: bool,
    pub violation: Option<Violation>,
}

/// Breadth-first exploration of the reachable state space of `model`'s
/// protocol under `cfg`'s op universe. The factory is invoked once for
/// the initial (empty-machine) state.
pub fn explore<M: ProtocolModel>(cfg: &CheckConfig, initial: M) -> CheckReport {
    let ops = cfg.ops();

    // Parent-pointer arena for counterexample reconstruction: entry i is
    // (parent index, op that produced it); the root is usize::MAX.
    let mut arena: Vec<(usize, OpLabel)> = Vec::new();
    let trace_of = |arena: &[(usize, OpLabel)], mut idx: usize| {
        let mut trace = Vec::new();
        while idx != usize::MAX {
            let (parent, op) = arena[idx];
            trace.push(op);
            idx = parent;
        }
        trace.reverse();
        trace
    };

    let mut seen: HashSet<Snapshot> = HashSet::new();
    let root_snap = Snapshot::capture(initial.engine());
    seen.insert(root_snap);
    // Frontier entries: (arena index of this state, depth, model).
    let mut frontier: VecDeque<(usize, usize, M)> = VecDeque::new();
    frontier.push_back((usize::MAX, 0, initial));

    let mut report = CheckReport {
        states_explored: 1,
        transitions_deduped: 0,
        max_depth: 0,
        exhausted: false,
        violation: None,
    };

    while let Some((idx, depth, model)) = frontier.pop_front() {
        if let Some(d) = cfg.depth {
            if depth >= d {
                continue;
            }
        }
        let parent_known = Snapshot::capture(model.engine()).known_lines();
        for &op in &ops {
            let mut child = model.clone();
            // A corrupted model may trip the engine's own debug
            // assertions before our checks see the state; treat that as
            // a caught violation, not a checker crash.
            let result = catch_unwind(AssertUnwindSafe(|| {
                if op.is_write {
                    child.write(op.proc, op.line);
                } else {
                    child.read(op.proc, op.line);
                }
            }));
            arena.push((idx, op));
            let child_idx = arena.len() - 1;
            let fail = |message: String| Violation {
                message,
                trace: trace_of(&arena, child_idx),
            };

            if let Err(panic) = result {
                let msg = crate::panic_message(&*panic);
                report.violation = Some(fail(format!("engine panic: {msg}")));
                return report;
            }

            let snap = Snapshot::capture(child.engine());
            if let Err(e) = snap.check(cfg.inclusive) {
                report.violation = Some(fail(e));
                return report;
            }
            // Transition property: responsible copies never silently
            // dropped — every line the parent knew must still exist.
            let child_known = snap.known_lines();
            for &l in &parent_known {
                if child_known.binary_search(&l).is_err() {
                    report.violation = Some(fail(format!(
                        "{:?} silently vanished (was live or paged out)",
                        LineNum(l)
                    )));
                    return report;
                }
            }

            if seen.insert(snap) {
                report.states_explored += 1;
                report.max_depth = report.max_depth.max(depth + 1);
                if report.states_explored >= cfg.max_states {
                    return report; // bound hit; exhausted stays false
                }
                frontier.push_back((child_idx, depth + 1, child));
            } else {
                report.transitions_deduped += 1;
            }
        }
    }
    report.exhausted = true;
    report
}

/// Explore the clean engine under `cfg`.
pub fn check(cfg: &CheckConfig) -> CheckReport {
    explore(cfg, cfg.build_engine())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_one_line_space_is_closed_and_clean() {
        let cfg = CheckConfig::two_node_one_line();
        let r = check(&cfg);
        assert!(r.exhausted, "frontier did not drain: {r:?}");
        assert!(r.violation.is_none(), "{}", r.violation.unwrap());
        // One line, two nodes: the reachable space is small but not
        // trivial (FLC/SLC/AM recency and permission combinations).
        assert!(r.states_explored > 4, "suspiciously few states: {r:?}");
        assert!(r.transitions_deduped > 0);
    }

    #[test]
    fn two_level_space_is_closed_and_clean() {
        let cfg = CheckConfig::two_level();
        let r = check(&cfg);
        assert!(r.exhausted, "frontier did not drain: {r:?}");
        assert!(r.violation.is_none(), "{}", r.violation.unwrap());
        // Four nodes in two groups reach strictly more states than two
        // flat nodes over the same line universe.
        let flat = check(&CheckConfig::two_node_one_line());
        assert!(r.states_explored > flat.states_explored);
    }

    #[test]
    fn depth_bound_is_respected() {
        let mut cfg = CheckConfig::two_node_one_line();
        cfg.depth = Some(2);
        let r = check(&cfg);
        assert!(r.max_depth <= 2);
        assert!(r.violation.is_none());
    }
}
