//! The coherence engine: every read and write of every processor walks
//! through here, mutating the machine's cache state and returning an
//! [`Outcome`] for the timing model.
//!
//! The engine is purely functional with respect to time — it does not
//! know what a nanosecond is. `coma-sim` layers the paper's §3.2 timing
//! (and resource contention) on top of the outcomes.
//!
//! This module is the thin coordinator: machine state, construction,
//! accessors and the invariant checker. The protocol logic proper is
//! split by concern into the child modules:
//!
//! * `read_path` — processor reads, from FLC hit down to the global
//!   bus read;
//! * `write_path` — ownership acquisition: upgrades and
//!   read-exclusive fetches;
//! * `replacement` — AM victim selection fallout: the accept-based
//!   injection protocol, ownership migration and page-out.
//!
//! All statistics are counts of [`ProtocolEvent`]s in one array: the
//! protocol code reports *what happened* and `coma-stats` derives the
//! traffic bytes and counters from the counts when the report is built.

mod read_path;
mod replacement;
mod write_path;

use crate::directory::Directory;
use crate::node::NodeState;
use crate::outcome::Outcome;
use crate::table::{OpenTable, PageHomes};
use coma_cache::{AcceptPolicy, AcceptSlot, AmState, SlcState, Victim, VictimPolicy};
use coma_stats::{derive_stats, EventCounts, Level, ProtocolCounters, ProtocolEvent, Traffic};
use coma_types::{LineNum, MachineGeometry, NodeId, ProcId, LINE_SHIFT, PAGE_SHIFT};

/// Lines per page (4096 / 64).
const PAGE_LINES_SHIFT: u32 = PAGE_SHIFT - LINE_SHIFT;

/// The machine-wide coherence state machine.
///
/// `Clone` produces an independent snapshot of the entire machine state —
/// the model checker in `coma-verify` forks engines at every explored
/// transition.
#[derive(Clone)]
pub struct CoherenceEngine {
    geom: MachineGeometry,
    nodes: Vec<NodeState>,
    dir: Directory,
    /// On-demand page table: page number → first-touching (home) node.
    pages: PageHomes,
    /// Lines currently paged out to the OS (an [`OpenTable`] used as a set).
    paged_out: OpenTable<()>,
    accept_policy: AcceptPolicy,
    intra_node_transfers: bool,
    inclusive_hierarchy: bool,
    /// Precomputed `proc → (node, index-in-node)` so the per-access hot
    /// path never divides (ProcId::node is a `/`, index_in_node a `%`).
    proc_map: Box<[(u16, u16)]>,
    /// Occurrences of every protocol event: the engine's only statistics.
    events: EventCounts,
    /// Report views derived from `events` by [`Self::flush_stats`].
    traffic: Traffic,
    counters: ProtocolCounters,
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
        let proc_map = (0..geom.n_procs)
            .map(|p| {
                let proc = ProcId(p as u16);
                (
                    proc.node(geom.procs_per_node).0,
                    proc.index_in_node(geom.procs_per_node) as u16,
                )
            })
            .collect();
        CoherenceEngine {
            geom,
            nodes,
            dir: Directory::for_geometry(&geom),
            pages: PageHomes::new(),
            paged_out: OpenTable::new(),
            accept_policy,
            intra_node_transfers,
            inclusive_hierarchy,
            proc_map,
            events: EventCounts::default(),
            traffic: Traffic::default(),
            counters: ProtocolCounters::default(),
            audit: false,
        }
    }

    /// Perform a processor read of `line`, then (if the live auditor is
    /// armed) re-verify every machine-wide invariant when the access
    /// performed at least one protocol transaction.
    #[inline]
    pub fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        if self.audit {
            return self.audited(|e| e.read_inner(proc, line));
        }
        self.read_inner(proc, line)
    }

    /// Perform a processor write of `line`; audited like [`Self::read`].
    #[inline]
    pub fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        if self.audit {
            return self.audited(|e| e.write_inner(proc, line));
        }
        self.write_inner(proc, line)
    }

    /// Live invariant audit: run `access`, then, if it emitted a protocol
    /// event (the event total moved), pay a full
    /// [`Self::check_invariants`]. Pure hits emit nothing and stay cheap.
    #[cold]
    fn audited(&mut self, access: impl FnOnce(&mut Self) -> Outcome) -> Outcome {
        let before: u64 = self.events.iter().sum();
        let out = access(self);
        if self.events.iter().sum::<u64>() != before {
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

    /// Count one protocol event.
    #[inline]
    fn emit(&mut self, ev: ProtocolEvent) {
        self.events[ev.idx()] += 1;
    }

    /// Derive [`Self::traffic`] and [`Self::counters`] from the event
    /// counts (the driver does so once, when it builds the report).
    pub fn flush_stats(&mut self) {
        (self.traffic, self.counters) = derive_stats(&self.events);
    }

    /// Global bus traffic, decomposed as in Figures 3–4, as of the last
    /// [`Self::flush_stats`].
    #[inline]
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Replacement / allocation event counters, as of the last
    /// [`Self::flush_stats`].
    #[inline]
    pub fn counters(&self) -> &ProtocolCounters {
        &self.counters
    }

    /// Does any private cache in `node_idx` still hold `line`? Gated on
    /// the node's residency filter, so the usual no case is one probe.
    fn slc_holds(&self, node_idx: usize, line: LineNum) -> bool {
        self.nodes[node_idx].slc_holds(line)
    }

    #[inline]
    pub fn geometry(&self) -> &MachineGeometry {
        &self.geom
    }

    #[inline]
    fn node_of(&self, proc: ProcId) -> usize {
        self.proc_map[proc.as_usize()].0 as usize
    }

    /// The processor's index within its node (precomputed, no division).
    #[inline]
    fn pidx_of(&self, proc: ProcId) -> usize {
        self.proc_map[proc.as_usize()].1 as usize
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

    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Mutable directory access; same fault-injection caveat as
    /// [`Self::node_mut`].
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    /// The set of lines currently paged out to the OS (verification).
    pub fn paged_out_lines(&self) -> impl Iterator<Item = LineNum> + '_ {
        self.paged_out.iter().map(|(l, ())| LineNum(l))
    }

    /// Home node of a line's page, allocating the page on first touch.
    #[inline]
    fn home_of(&mut self, line: LineNum, toucher: usize) -> usize {
        let page = line.0 >> PAGE_LINES_SHIFT;
        self.pages.home_of(page, NodeId(toucher as u16)).as_usize()
    }

    /// Verify every cross-structure invariant; returns a description of
    /// the first violation. Used by tests and (in debug builds) sims.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Directory ↔ AM consistency.
        for (line, info) in self.dir.iter() {
            let owner = info.owner.as_usize();
            let ostate = self.nodes[owner].am.state(line);
            if !ostate.is_responsible() {
                return Err(format!("{line:?}: owner {owner} has state {ostate}"));
            }
            if ostate == AmState::Exclusive && !info.sharers.is_empty() {
                return Err(format!("{line:?}: Exclusive with sharers"));
            }
            for sh in info.sharer_nodes() {
                let s = self.nodes[sh.as_usize()].am.state(line);
                let slc_only = !self.inclusive_hierarchy && self.slc_holds(sh.as_usize(), line);
                if s != AmState::Shared && !(s == AmState::Invalid && slc_only) {
                    return Err(format!("{line:?}: sharer {sh} has state {s}"));
                }
            }
            for (k, node) in self.nodes.iter().enumerate() {
                let st = node.am.state(line);
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
        for (l, ()) in self.paged_out.iter() {
            let line = LineNum(l);
            if self.dir.contains(line) {
                return Err(format!("{line:?} both paged out and live"));
            }
        }
        // Directory-level presence masks agree with the root sets: every
        // live line's stored mask at each level equals the fold of the
        // owner+sharer groups, and no dead line lingers at any level.
        for (line, info) in self.dir.iter() {
            for lvl in self.dir.levels() {
                let h = lvl.height();
                let expect = self.dir.expected_presence(h, info);
                match lvl.presence(line) {
                    Some(mask) if mask == expect => {}
                    Some(mask) => {
                        return Err(format!(
                            "{line:?}: level-{h} presence {mask:#b} but copies span {expect:#b}"
                        ));
                    }
                    None => {
                        return Err(format!("{line:?}: live but untracked at level {h}"));
                    }
                }
            }
        }
        for lvl in self.dir.levels() {
            for (line, _) in lvl.iter() {
                if !self.dir.contains(line) {
                    return Err(format!(
                        "{line:?}: dead but still present at level {}",
                        lvl.height()
                    ));
                }
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
    pub fn am_census(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for n in &self.nodes {
            let (s, o, e) = n.am.census();
            t.0 += s;
            t.1 += o;
            t.2 += e;
        }
        t
    }
}
