//! Canonical machine-state snapshots and the independent invariant
//! checks the model checker asserts on them.
//!
//! A [`Snapshot`] captures everything that determines future protocol
//! behavior: every cache's contents *in recency order* (LRU position
//! decides victims, so two states with the same contents but different
//! recency are not equivalent), the directory, and the paged-out set.
//! Equal snapshots are behaviorally identical states, which is exactly
//! what BFS dedup needs.
//!
//! The invariant checks here are deliberately written from the protocol
//! definition (paper §3.1), not by calling the engine's own
//! `check_invariants` — an engine bug that corrupted state *and* the
//! engine-side checker in a consistent way would slip past a borrowed
//! implementation.

use coma_cache::{AmState, SlcState};
use coma_protocol::{CoherenceEngine, MemorySystem};
use coma_types::{LineNum, NodeSet};

/// One node's cache contents. AM and SLC vectors are in the caches'
/// iteration order, which encodes recency (most-recent first within a
/// set); FLC slots are positional (direct-mapped).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NodeSnap {
    pub am: Vec<(u64, AmState)>,
    pub slcs: Vec<Vec<(u64, SlcState)>>,
    pub flcs: Vec<Vec<(u64, bool)>>,
}

/// A canonical snapshot of the whole machine's protocol state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Snapshot {
    pub nodes: Vec<NodeSnap>,
    /// Directory entries `(line, owner, sharer set)`, sorted by line (the
    /// directory iterates in ascending line order).
    pub dir: Vec<(u64, u16, NodeSet)>,
    /// Lines currently paged out to the OS, sorted.
    pub paged_out: Vec<u64>,
}

impl Snapshot {
    /// Capture the engine's current state.
    pub fn capture(e: &CoherenceEngine) -> Self {
        let geom = e.geometry();
        let nodes = (0..geom.n_nodes)
            .map(|n| {
                let node = e.node(n);
                NodeSnap {
                    am: node.am.lines().map(|(l, s)| (l.0, s)).collect(),
                    slcs: node
                        .slcs
                        .iter()
                        .map(|slc| slc.lines().map(|(l, s)| (l.0, s)).collect())
                        .collect(),
                    flcs: node
                        .flcs
                        .iter()
                        .map(|flc| flc.lines().map(|(l, w)| (l.0, w)).collect())
                        .collect(),
                }
            })
            .collect();
        let dir = e
            .directory()
            .iter()
            .map(|(l, info)| (l.0, info.owner.0, info.sharers))
            .collect();
        let paged_out = e.paged_out_lines().map(|l| l.0).collect();
        Snapshot {
            nodes,
            dir,
            paged_out,
        }
    }

    /// The set of lines that exist anywhere (live or paged out). The
    /// "responsible copies are never silently dropped" invariant is a
    /// *transition* property: this set may only grow.
    pub fn known_lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.dir.iter().map(|&(l, ..)| l).collect();
        v.extend_from_slice(&self.paged_out);
        v.sort_unstable();
        v
    }

    fn am_state(&self, node: usize, line: u64) -> AmState {
        self.nodes[node]
            .am
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, s)| s)
            .unwrap_or(AmState::Invalid)
    }

    fn node_slc_holds(&self, node: usize, line: u64) -> bool {
        self.nodes[node]
            .slcs
            .iter()
            .any(|slc| slc.iter().any(|&(l, _)| l == line))
    }

    /// Assert every single-state protocol invariant. `inclusive` selects
    /// whether the SLC ⊆ AM inclusion property is in force (the paper's
    /// §4.2 non-inclusive variant relaxes it to directory registration).
    pub fn check(&self, inclusive: bool) -> Result<(), String> {
        // Collect every line with any valid AM copy anywhere.
        let mut am_lines: Vec<u64> = self
            .nodes
            .iter()
            .flat_map(|n| n.am.iter().map(|&(l, _)| l))
            .collect();
        am_lines.sort_unstable();
        am_lines.dedup();

        for &line in &am_lines {
            let ln = LineNum(line);
            // Invariant 1: exactly one responsible (E/O) copy machine-wide.
            let responsible: Vec<usize> = (0..self.nodes.len())
                .filter(|&n| self.am_state(n, line).is_responsible())
                .collect();
            if responsible.len() != 1 {
                return Err(format!(
                    "{ln:?}: {} responsible copies (nodes {responsible:?}), protocol \
                     requires exactly one",
                    responsible.len()
                ));
            }
            let resp = responsible[0];

            // Invariant 2: Exclusive means the *only* valid copy.
            if self.am_state(resp, line) == AmState::Exclusive {
                for n in 0..self.nodes.len() {
                    if n != resp && self.am_state(n, line).is_valid() {
                        return Err(format!(
                            "{ln:?}: node {resp} Exclusive but node {n} also holds {}",
                            self.am_state(n, line)
                        ));
                    }
                    if n != resp && self.node_slc_holds(n, line) {
                        return Err(format!(
                            "{ln:?}: node {resp} Exclusive but node {n} has SLC copies"
                        ));
                    }
                }
            }

            // The directory must agree on the owner and cover every holder.
            let dir_entry = self.dir.iter().find(|&&(l, ..)| l == line);
            let Some(&(_, owner, sharers)) = dir_entry else {
                return Err(format!("{ln:?}: valid AM copies but no directory entry"));
            };
            if owner as usize != resp {
                return Err(format!(
                    "{ln:?}: responsible copy in node {resp}, directory says {owner}"
                ));
            }
            for n in 0..self.nodes.len() {
                let st = self.am_state(n, line);
                if st == AmState::Shared && !sharers.contains(n as u16) {
                    return Err(format!(
                        "{ln:?}: node {n} Shared but not a directory sharer"
                    ));
                }
            }
        }

        // Directory entries must be backed by a responsible copy, and
        // every registered sharer must actually hold one (inclusive
        // hierarchies: in the AM; non-inclusive: at least in an SLC).
        for &(line, owner, sharers) in &self.dir {
            let st = self.am_state(owner as usize, line);
            if !st.is_responsible() {
                return Err(format!(
                    "{:?}: directory owner {owner} holds {st}, not O/E",
                    LineNum(line)
                ));
            }
            for n in 0..self.nodes.len() {
                if !sharers.contains(n as u16) {
                    continue;
                }
                let holds_am = self.am_state(n, line) == AmState::Shared;
                if !holds_am && (inclusive || !self.node_slc_holds(n, line)) {
                    return Err(format!(
                        "{:?}: node {n} registered as sharer but holds {} ({})",
                        LineNum(line),
                        self.am_state(n, line),
                        if inclusive {
                            "inclusive"
                        } else {
                            "no SLC copy either"
                        },
                    ));
                }
            }
        }

        // Paged-out lines are dead everywhere.
        for &line in &self.paged_out {
            if self.dir.iter().any(|&(l, ..)| l == line) {
                return Err(format!("{:?}: both paged out and live", LineNum(line)));
            }
            for n in 0..self.nodes.len() {
                if self.am_state(n, line).is_valid() || self.node_slc_holds(n, line) {
                    return Err(format!(
                        "{:?}: paged out but node {n} holds a copy",
                        LineNum(line)
                    ));
                }
            }
        }

        // Per-node hierarchy invariants.
        for (n, node) in self.nodes.iter().enumerate() {
            for (pidx, slc) in node.slcs.iter().enumerate() {
                for &(line, st) in slc {
                    let am = self.am_state(n, line);
                    // Invariant 4: SLC ⊆ AM (inclusive hierarchies).
                    if inclusive && !am.is_valid() {
                        return Err(format!(
                            "{:?}: SLC {n}/{pidx} holds {st} but node AM is Invalid",
                            LineNum(line)
                        ));
                    }
                    // Invariant 5: a Modified SLC copy implies the node's
                    // AM holds the machine's only copy (Exclusive).
                    if st == SlcState::Modified && am != AmState::Exclusive {
                        return Err(format!(
                            "{:?}: SLC {n}/{pidx} Modified but node AM is {am}",
                            LineNum(line)
                        ));
                    }
                    // Non-inclusive: an SLC-only copy must still be
                    // registered in the directory (it is a live replica).
                    if !inclusive && !am.is_valid() {
                        let registered = self.dir.iter().any(|&(l, owner, sharers)| {
                            l == line && (owner as usize == n || sharers.contains(n as u16))
                        });
                        if !registered {
                            return Err(format!(
                                "{:?}: SLC-only copy in node {n} unregistered in directory",
                                LineNum(line)
                            ));
                        }
                    }
                }
                // FLC ⊆ SLC, and FLC write permission implies SLC Modified.
                for &(line, writable) in &node.flcs[pidx] {
                    let slc_st = slc
                        .iter()
                        .find(|&&(l, _)| l == line)
                        .map(|&(_, s)| s)
                        .unwrap_or(SlcState::Invalid);
                    if !slc_st.is_valid() {
                        return Err(format!(
                            "{:?}: FLC {n}/{pidx} holds the line but SLC does not",
                            LineNum(line)
                        ));
                    }
                    if writable && slc_st != SlcState::Modified {
                        return Err(format!(
                            "{:?}: FLC {n}/{pidx} writable but SLC is {slc_st}",
                            LineNum(line)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::{MachineGeometry, ProcId, Topology};

    fn tiny_engine() -> CoherenceEngine {
        crate::clean_engine(
            MachineGeometry {
                n_procs: 2,
                n_nodes: 2,
                procs_per_node: 1,
                flc_sets: 4,
                slc_sets: 2,
                slc_assoc: 2,
                am_sets: 2,
                am_assoc: 2,
                topology: Topology::flat(),
            },
            true,
        )
    }

    #[test]
    fn snapshot_equality_detects_identical_states() {
        let mut a = tiny_engine();
        let mut b = tiny_engine();
        a.write(ProcId(0), LineNum(1));
        b.write(ProcId(0), LineNum(1));
        assert_eq!(Snapshot::capture(&a), Snapshot::capture(&b));
        b.read(ProcId(1), LineNum(1));
        assert_ne!(Snapshot::capture(&a), Snapshot::capture(&b));
    }

    #[test]
    fn recency_differences_are_distinct_states() {
        // Same contents, different LRU order: future victims differ, so
        // the snapshots must not be deduplicated.
        let mut a = tiny_engine();
        a.write(ProcId(0), LineNum(0));
        a.write(ProcId(0), LineNum(2)); // same set (2 sets), 0 then 2
        let mut b = tiny_engine();
        b.write(ProcId(0), LineNum(2));
        b.write(ProcId(0), LineNum(0)); // 2 then 0
        assert_ne!(Snapshot::capture(&a), Snapshot::capture(&b));
    }

    #[test]
    fn clean_states_pass_independent_checks() {
        let mut e = tiny_engine();
        e.write(ProcId(0), LineNum(1));
        e.read(ProcId(1), LineNum(1));
        e.write(ProcId(1), LineNum(3));
        Snapshot::capture(&e).check(true).unwrap();
    }

    #[test]
    fn hierarchical_states_pass_independent_checks() {
        let mut e = crate::CheckConfig::two_level().build_engine();
        e.write(ProcId(0), LineNum(0));
        e.read(ProcId(3), LineNum(0)); // cross-group replica
        Snapshot::capture(&e).check(true).unwrap();
    }

    #[test]
    fn seeded_double_owner_is_caught() {
        let mut e = tiny_engine();
        e.write(ProcId(0), LineNum(1));
        // Corrupt: a second responsible copy appears in node 1.
        let ix = e.index(LineNum(1));
        e.node_mut(1).am.insert(ix, AmState::Owner);
        let err = Snapshot::capture(&e).check(true).unwrap_err();
        assert!(err.contains("responsible"), "unexpected message: {err}");
    }
}
