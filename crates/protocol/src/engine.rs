//! The coherence engine: every read and write of every processor walks
//! through here, mutating the machine's cache state and returning an
//! [`Outcome`] for the timing model.
//!
//! The engine is purely functional with respect to time — it does not
//! know what a nanosecond is. `coma-sim` layers the paper's §3.2 timing
//! (and resource contention) on top of the outcomes.
//!
//! This module is the thin coordinator: machine state, construction,
//! accessors and the [`MemorySystem`] implementation with the invariant
//! checker. The protocol logic proper is split by concern into the child
//! modules:
//!
//! * `read_path` — processor reads, from FLC hit down to the global
//!   bus read;
//! * `write_path` — ownership acquisition: upgrades and
//!   read-exclusive fetches;
//! * `replacement` — AM victim selection fallout: the accept-based
//!   injection protocol, ownership migration and page-out.
//!
//! All statistics are counts of [`ProtocolEvent`]s in one [`EventLog`]:
//! the protocol code reports *what happened* and `coma-stats` derives the
//! traffic bytes and counters from the counts when the report is built.

mod read_path;
mod replacement;
mod write_path;

use crate::directory::Directory;
use crate::memory::MemorySystem;
use crate::node::NodeState;
use crate::outcome::Outcome;
use crate::table::{LineTable, PageHomes};
use coma_cache::{
    AcceptPolicy, AcceptSlot, AmState, Indexer, LineIndex, SlcState, Victim, VictimPolicy,
};
use coma_stats::{EventLog, Level, ProtocolCounters, ProtocolEvent, Traffic};
use coma_types::{LineNum, MachineGeometry, NodeId, Placement, ProcId};
use std::any::Any;

/// The machine-wide coherence state machine.
///
/// `Clone` produces an independent snapshot of the entire machine state —
/// the model checker in `coma-verify` forks engines at every explored
/// transition.
#[derive(Clone)]
pub struct CoherenceEngine {
    geom: MachineGeometry,
    /// Every node's caches share one geometry: each access reduces its
    /// line once, for all of them.
    ix: Indexer,
    nodes: Vec<NodeState>,
    dir: Directory,
    /// On-demand page table: page number → first-touching (home) node.
    pages: PageHomes,
    /// Lines currently paged out to the OS: `true` at a paged-out line.
    /// One byte per line up to the highest line ever paged out; a machine
    /// that never pages out never grows it.
    paged_out: LineTable<bool>,
    accept_policy: AcceptPolicy,
    intra_node_transfers: bool,
    inclusive_hierarchy: bool,
    place: Placement,
    /// The engine's only statistics.
    log: EventLog,
    /// Live invariant auditor armed (see [`Self::set_audit`]).
    audit: bool,
}

impl CoherenceEngine {
    pub fn new(
        geom: MachineGeometry,
        victim_policy: VictimPolicy,
        accept_policy: AcceptPolicy,
        intra_node_transfers: bool,
    ) -> Self {
        Self::with_inclusion(
            geom,
            victim_policy,
            accept_policy,
            intra_node_transfers,
            true,
        )
    }

    /// Like [`CoherenceEngine::new`], with control over SLC/AM inclusion.
    /// With `inclusive = false`, SLC replicas survive attraction-memory
    /// replacements (the paper's §4.2 suggestion, after Joe & Hennessy):
    /// the private caches act as extra replication capacity when the AM
    /// sets fill with unique data at very high memory pressure.
    pub fn with_inclusion(
        geom: MachineGeometry,
        victim_policy: VictimPolicy,
        accept_policy: AcceptPolicy,
        intra_node_transfers: bool,
        inclusive_hierarchy: bool,
    ) -> Self {
        let nodes = (0..geom.n_nodes)
            .map(|_| NodeState::new(&geom, victim_policy))
            .collect();
        CoherenceEngine {
            geom,
            ix: Indexer::new(&geom),
            nodes,
            dir: Directory::default(),
            pages: PageHomes::default(),
            paged_out: LineTable::default(),
            accept_policy,
            intra_node_transfers,
            inclusive_hierarchy,
            place: Placement::new(&geom),
            log: EventLog::default(),
            audit: false,
        }
    }

    /// Live invariant audit: run `access`, then, if it emitted a protocol
    /// event (the event total moved), pay a full
    /// [`Self::check_invariants`]. Pure hits emit nothing and stay cheap.
    #[cold]
    fn audited(&mut self, access: impl FnOnce(&mut Self) -> Outcome) -> Outcome {
        let before = self.log.total();
        let out = access(self);
        if self.log.total() != before {
            if let Err(e) = self.check_invariants() {
                panic!("live audit: protocol invariant violated: {e}");
            }
        }
        out
    }

    /// Arm or disarm the live invariant auditor.
    pub fn set_audit(&mut self, on: bool) {
        self.audit = on;
    }

    /// Is the live invariant auditor armed?
    pub fn is_audited(&self) -> bool {
        self.audit
    }

    /// Access to node state for diagnostics and invariant checks.
    pub fn node(&self, n: usize) -> &NodeState {
        &self.nodes[n]
    }

    /// Mutable node access. This deliberately bypasses the protocol —
    /// it exists for fault injection in `coma-verify` (seeding a known
    /// corruption and proving the checkers catch it). Simulation code
    /// must never call it.
    pub fn node_mut(&mut self, n: usize) -> &mut NodeState {
        &mut self.nodes[n]
    }

    /// `line`'s set in every cache of this machine, for probing a node's
    /// caches from outside the engine.
    pub fn index(&self, line: LineNum) -> LineIndex {
        self.ix.index(line)
    }

    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Does the hierarchy keep SLC ⊆ AM (see [`Self::with_inclusion`])?
    pub fn is_inclusive(&self) -> bool {
        self.inclusive_hierarchy
    }

    /// Mutable directory access; same fault-injection caveat as
    /// [`Self::node_mut`].
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    /// The lines currently paged out to the OS, ascending (verification).
    pub fn paged_out_lines(&self) -> impl Iterator<Item = LineNum> + '_ {
        self.paged_out
            .iter()
            .filter(|&(_, &out)| out)
            .map(|(l, _)| LineNum(l))
    }
}

impl MemorySystem for CoherenceEngine {
    /// Perform a processor read of `line`, then (if the live auditor is
    /// armed) re-verify every machine-wide invariant when the access
    /// performed at least one protocol transaction.
    #[inline]
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        if self.audit {
            return self.audited(|e| e.read_inner(proc, line));
        }
        self.read_inner(proc, line)
    }

    /// Perform a processor write of `line`; audited like [`Self::read`].
    #[inline]
    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        if self.audit {
            return self.audited(|e| e.write_inner(proc, line));
        }
        self.write_inner(proc, line)
    }

    fn geometry(&self) -> &MachineGeometry {
        &self.geom
    }

    fn flush_stats(&mut self) {
        self.log.flush();
    }

    /// Global bus traffic, decomposed as in Figures 3–4.
    fn traffic(&self) -> &Traffic {
        self.log.traffic()
    }

    fn counters(&self) -> &ProtocolCounters {
        self.log.counters()
    }

    /// Verify every cross-structure invariant; returns a description of
    /// the first violation. Used by tests and the live auditor.
    fn check_invariants(&self) -> Result<(), String> {
        // Directory ↔ AM consistency.
        for (line, info) in self.dir.iter() {
            let ix = self.ix.index(line);
            let owner = info.owner.as_usize();
            let ostate = self.nodes[owner].am.peek(ix);
            if !ostate.is_responsible() {
                return Err(format!("{line:?}: owner {owner} has state {ostate}"));
            }
            if ostate == AmState::Exclusive && !info.sharers.is_empty() {
                return Err(format!("{line:?}: Exclusive with sharers"));
            }
            for sh in info.sharer_nodes() {
                let s = self.nodes[sh.as_usize()].am.peek(ix);
                let slc_only = !self.inclusive_hierarchy && self.nodes[sh.as_usize()].slc_holds(ix);
                if s != AmState::Shared && !(s == AmState::Invalid && slc_only) {
                    return Err(format!("{line:?}: sharer {sh} has state {s}"));
                }
            }
            for (k, node) in self.nodes.iter().enumerate() {
                let st = node.am.peek(ix);
                let is_registered = k == owner || info.sharers.contains(k as u16);
                if st.is_valid() && !is_registered {
                    return Err(format!(
                        "{line:?}: node {k} state {st} vs directory {info:?}"
                    ));
                }
                if !st.is_valid() && is_registered && k == owner {
                    return Err(format!("{line:?}: owner {k} has no AM copy"));
                }
                if !st.is_valid() && is_registered && self.inclusive_hierarchy {
                    return Err(format!(
                        "{line:?}: node {k} registered but holds nothing (inclusive mode)"
                    ));
                }
            }
        }
        // Every valid AM line is in the directory.
        for (k, node) in self.nodes.iter().enumerate() {
            for (line, st) in node.am.lines() {
                let info = self
                    .dir
                    .get(line)
                    .ok_or_else(|| format!("{line:?} in node {k} AM but not in directory"))?;
                match st {
                    AmState::Shared => {
                        if !self.dir.is_sharer(line, NodeId(k as u16)) {
                            return Err(format!("{line:?}: node {k} S but not a dir sharer"));
                        }
                    }
                    AmState::Owner | AmState::Exclusive => {
                        if info.owner.as_usize() != k {
                            return Err(format!(
                                "{line:?}: node {k} {st} but dir owner {:?}",
                                info.owner
                            ));
                        }
                    }
                    AmState::Invalid => unreachable!(),
                }
            }
            // SLC inclusion + M ⇒ AM Exclusive. Without inclusion, a
            // clean SLC copy may outlive its AM entry, but must then be
            // registered as a sharer (or be the owner) in the directory.
            for (pidx, slc) in node.slcs.iter().enumerate() {
                for (line, st) in slc.lines() {
                    let am_st = node.am.state(line);
                    if !am_st.is_valid() {
                        if self.inclusive_hierarchy {
                            return Err(format!(
                                "{line:?}: SLC {k}/{pidx} holds {st} but AM invalid"
                            ));
                        }
                        let info = self.dir.get(line).ok_or_else(|| {
                            format!("{line:?}: SLC-only copy in node {k} of dead line")
                        })?;
                        let registered =
                            info.owner.as_usize() == k || info.sharers.contains(k as u16);
                        if !registered {
                            return Err(format!(
                                "{line:?}: SLC-only copy in node {k} unregistered"
                            ));
                        }
                        if st == SlcState::Modified {
                            return Err(format!(
                                "{line:?}: SLC {k}/{pidx} Modified without AM backing"
                            ));
                        }
                        continue;
                    }
                    if st == SlcState::Modified && am_st != AmState::Exclusive {
                        return Err(format!("{line:?}: SLC {k}/{pidx} Modified but AM {am_st}"));
                    }
                }
            }
        }
        // Paged-out lines are dead.
        for line in self.paged_out_lines() {
            if self.dir.contains(line) {
                return Err(format!("{line:?} both paged out and live"));
            }
        }
        // Each node's SLC residency filter matches its SLC contents
        // (the filter gates private-cache probes; a stale count could
        // silently skip a required invalidation or downgrade).
        for (k, node) in self.nodes.iter().enumerate() {
            node.filter_consistent()
                .map_err(|e| format!("node {k}: {e}"))?;
        }
        Ok(())
    }

    /// Census over all AMs: `(shared, owner, exclusive)` entries.
    fn am_census(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for n in &self.nodes {
            let (s, o, e) = n.am.census();
            t.0 += s;
            t.1 += o;
            t.2 += e;
        }
        t
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
