//! The simulation driver: event-driven execution of one workload on one
//! machine configuration, producing a [`SimReport`].
//!
//! The per-event path is deliberately interpreter-free: each workload's
//! reference stream is compiled ahead of the run into a flat
//! [`OpArena`] (one fixed-width record per memory/sync operation, with
//! the preceding compute gap packed inline — see `coma-workloads`), so
//! the hot loop reads an array instead of re-running generator logic,
//! and each pure compute gap is folded into its processor's wake-up
//! time when the processor is scheduled, so every operation is one
//! step (DESIGN.md §13).

use crate::resources::MachineResources;
use crate::sync::{BarrierState, LockState};
use coma_cache::{AcceptPolicy, VictimPolicy};
use coma_protocol::{BaselineEngine, BaselineKind, CoherenceEngine, MemorySystem, Outcome};
use coma_stats::{AccessCounts, ExecBreakdown, Level, SimReport};
use coma_timing::{EventQueue, WriteBufferArray};
use coma_types::{Addr, ConfigError, LatencyConfig, LineNum, MachineConfig, Nanos, ProcId};
use coma_workloads::{FlatKind, OpArena, Workload};

/// Which memory architecture the machine implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemoryModel {
    /// The paper's bus-based COMA with attraction memories.
    #[default]
    Coma,
    /// CC-NUMA baseline: fixed first-touch homes, no attraction memory.
    Numa,
    /// UMA baseline: dancehall memory, every SLC miss is remote.
    Uma,
}

/// The memory systems the driver knows statically, plus a trait-object
/// escape hatch for externally constructed ones ([`Simulation::with_memory`]).
///
/// The built-in engines are dispatched through this enum rather than a
/// `Box<dyn MemorySystem>` so the two `mem.read`/`mem.write` calls on the
/// per-event hot path are direct (and cross-crate inlinable under LTO)
/// instead of virtual. Every simulation the crate itself assembles takes
/// the static arms; only an external architecture pays the indirect call.
/// The calls off the hot path go through [`Engine::system`].
enum Engine {
    Coma(CoherenceEngine),
    Baseline(BaselineEngine),
    Custom(Box<dyn MemorySystem>),
}

impl Engine {
    #[inline]
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        match self {
            Engine::Coma(e) => e.read(proc, line),
            Engine::Baseline(e) => e.read(proc, line),
            Engine::Custom(m) => m.read(proc, line),
        }
    }

    #[inline]
    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        match self {
            Engine::Coma(e) => e.write(proc, line),
            Engine::Baseline(e) => e.write(proc, line),
            Engine::Custom(m) => m.write(proc, line),
        }
    }

    /// The engine as a trait object, for the calls outside the event loop.
    fn system(&mut self) -> &mut dyn MemorySystem {
        match self {
            Engine::Coma(e) => e,
            Engine::Baseline(e) => e,
            Engine::Custom(m) => m.as_mut(),
        }
    }
}

/// Everything that parameterizes one simulation run.
#[derive(Clone, Debug)]
pub struct SimParams {
    pub machine: MachineConfig,
    pub latency: LatencyConfig,
    pub victim_policy: VictimPolicy,
    pub accept_policy: AcceptPolicy,
    pub memory_model: MemoryModel,
    /// Arm the live invariant auditor, panicking on a violation. The
    /// COMA engine re-verifies every machine-wide protocol invariant
    /// after each access that performed a protocol transaction; the
    /// NUMA/UMA engine checks its directory against the SLCs after each
    /// access that missed the private caches. Expensive — meant for
    /// tests and debugging, not measurement runs.
    pub audit: bool,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            machine: MachineConfig::default(),
            latency: LatencyConfig::paper_default(),
            victim_policy: VictimPolicy::SharedFirst,
            accept_policy: AcceptPolicy::InvalidThenShared,
            memory_model: MemoryModel::Coma,
            audit: false,
        }
    }
}

/// The §4.3 execution-time breakdown as parallel per-processor arrays
/// (structure-of-arrays): every event updates exactly one counter, so
/// the hot loop indexes one contiguous `Box<[Nanos]>` instead of
/// striding across five-field records.
struct BreakdownSoA {
    busy_ns: Box<[Nanos]>,
    slc_ns: Box<[Nanos]>,
    am_ns: Box<[Nanos]>,
    remote_ns: Box<[Nanos]>,
    sync_ns: Box<[Nanos]>,
}

impl BreakdownSoA {
    fn new(n_procs: usize) -> Self {
        let zeroed = || vec![0; n_procs].into_boxed_slice();
        BreakdownSoA {
            busy_ns: zeroed(),
            slc_ns: zeroed(),
            am_ns: zeroed(),
            remote_ns: zeroed(),
            sync_ns: zeroed(),
        }
    }

    /// Charge a memory access's stall to the level that supplied it.
    #[inline]
    fn bucket(&mut self, p: usize, level: Level, ns: Nanos) {
        match level {
            Level::Flc => self.busy_ns[p] += ns,
            Level::Slc => self.slc_ns[p] += ns,
            Level::PeerSlc | Level::Am => self.am_ns[p] += ns,
            Level::Remote => self.remote_ns[p] += ns,
        }
    }

    /// Reassemble the report's per-processor records.
    fn into_breakdowns(self) -> Vec<ExecBreakdown> {
        (0..self.busy_ns.len())
            .map(|p| ExecBreakdown {
                busy_ns: self.busy_ns[p],
                slc_ns: self.slc_ns[p],
                am_ns: self.am_ns[p],
                remote_ns: self.remote_ns[p],
                sync_ns: self.sync_ns[p],
            })
            .collect()
    }
}

/// A fully assembled machine + workload, ready to run.
pub struct Simulation {
    mem: Engine,
    res: MachineResources,
    lat: LatencyConfig,
    /// Every processor's reference stream, precompiled to flat records.
    ops: OpArena,
    /// Next record index per processor (SoA against `ops`).
    pos: Box<[u32]>,
    /// One-past-last record index per processor.
    end: Box<[u32]>,
    /// Set when a record's inline gap has been consumed but its
    /// operation not yet executed.
    gap_done: Box<[bool]>,
    /// Fold a record's compute gap into the processor's wake-up time
    /// (`wake_at`). Always on in real runs; the differential tests
    /// switch it off to replay the one-event-per-gap reference schedule.
    fuse_gaps: bool,
    wbs: WriteBufferArray,
    breakdown: BreakdownSoA,
    counts: AccessCounts,
    read_latency: coma_stats::LatencyHisto,
    queue: EventQueue,
    locks: Vec<LockState>,
    barrier: BarrierState,
    lock_addrs: Vec<Addr>,
    barrier_counter: Addr,
    barrier_flag: Addr,
    /// Completion time per processor; valid once the processor finished.
    finish: Box<[Nanos]>,
    n_done: usize,
    n_procs: usize,
}

impl Simulation {
    /// Assemble a machine for `workload` under `params`. Fails if the
    /// machine configuration is invalid or the workload does not supply
    /// one stream per processor ([`ConfigError::StreamCount`]).
    pub fn new(workload: Workload, params: &SimParams) -> Result<Self, ConfigError> {
        let geom = params.machine.geometry(workload.ws_bytes)?;
        let baseline = |kind| {
            let mut e = BaselineEngine::new(geom, kind);
            e.set_audit(params.audit);
            Engine::Baseline(e)
        };
        let mem = match params.memory_model {
            MemoryModel::Coma => {
                let mut e = CoherenceEngine::with_inclusion(
                    geom,
                    params.victim_policy,
                    params.accept_policy,
                    params.machine.intra_node_transfers,
                    params.machine.inclusive_hierarchy,
                );
                e.set_audit(params.audit);
                Engine::Coma(e)
            }
            MemoryModel::Numa => baseline(BaselineKind::Numa),
            MemoryModel::Uma => baseline(BaselineKind::Uma),
        };
        Self::assemble(workload, params, mem)
    }

    /// Assemble a machine around an externally constructed memory
    /// system. This is how a new architecture (or an instrumented
    /// engine) runs under the standard driver without touching it.
    /// Panics with [`ConfigError::StreamCount`]'s message if the workload
    /// does not have one stream per processor of `mem`'s geometry.
    pub fn with_memory(workload: Workload, params: &SimParams, mem: Box<dyn MemorySystem>) -> Self {
        Self::assemble(workload, params, Engine::Custom(mem)).unwrap_or_else(|e| panic!("{e}"))
    }

    fn assemble(
        workload: Workload,
        params: &SimParams,
        mut mem: Engine,
    ) -> Result<Self, ConfigError> {
        let geom = *mem.system().geometry();
        let n_procs = geom.n_procs;
        if workload.streams.len() != n_procs {
            return Err(ConfigError::StreamCount {
                streams: workload.streams.len(),
                procs: n_procs,
            });
        }
        let res = MachineResources::new(&geom, &params.latency);
        let lock_addrs = (0..workload.n_locks)
            .map(|i| workload.lock_addr(i))
            .collect();
        let barrier_counter = workload.barrier_counter_addr();
        let barrier_flag = workload.barrier_flag_addr();
        // Pay all generator dispatch once, up front: the run itself only
        // ever reads the arena.
        let ops = OpArena::compile(workload.streams);
        let pos = (0..n_procs).map(|p| ops.span(p).0).collect();
        let end = (0..n_procs).map(|p| ops.span(p).1).collect();
        let mut sim = Simulation {
            mem,
            res,
            lat: params.latency.clone(),
            ops,
            pos,
            end,
            gap_done: vec![false; n_procs].into_boxed_slice(),
            fuse_gaps: true,
            wbs: WriteBufferArray::new(n_procs, params.machine.write_buffer_entries),
            breakdown: BreakdownSoA::new(n_procs),
            counts: AccessCounts::default(),
            read_latency: coma_stats::LatencyHisto::new(),
            queue: EventQueue::new(),
            locks: vec![LockState::default(); workload.n_locks as usize],
            barrier: BarrierState::new(n_procs),
            lock_addrs,
            barrier_counter,
            barrier_flag,
            finish: vec![0; n_procs].into_boxed_slice(),
            n_done: 0,
            n_procs,
        };
        for p in (0..n_procs).map(|p| ProcId(p as u16)) {
            let t = sim.wake_at(p, 0);
            sim.queue.push(t, p);
        }
        Ok(sim)
    }

    /// Stop folding compute gaps into wake-up times, restoring the
    /// reference schedule in which every gap is its own event. Identical
    /// results either way (pinned by the `gap_fusion` differential
    /// tests); only the number of driver iterations differs.
    #[doc(hidden)]
    pub fn set_fuse_gaps(&mut self, on: bool) {
        self.fuse_gaps = on;
    }

    /// The time at which `p`, able to continue at `t`, next has work
    /// for the event loop: `t` plus the inline compute gap of its next
    /// record, which is charged to `p`'s busy time here and marked
    /// consumed. A gap advances nothing but `p`'s own clock and busy
    /// counter, so running it at schedule time rather than as its own
    /// event leaves the order of every side-effecting event unchanged.
    /// Every site that schedules a processor goes through here.
    #[inline]
    fn wake_at(&mut self, p: ProcId, t: Nanos) -> Nanos {
        let pi = p.as_usize();
        let pos = self.pos[pi];
        if !self.fuse_gaps || pos == self.end[pi] {
            return t;
        }
        let gap = self.ops.get(pos).gap_ns();
        self.breakdown.busy_ns[pi] += gap;
        self.gap_done[pi] = true;
        t + gap
    }

    /// Timed protocol read with stall accounting.
    fn do_read(&mut self, p: ProcId, addr: Addr, t: Nanos) -> Nanos {
        let out = self.mem.read(p, addr.line());
        let done = self.res.time_access(t, p, &out, &self.lat);
        self.counts.record_read(out.level);
        self.read_latency.record(done - t);
        self.breakdown.bucket(p.as_usize(), out.level, done - t);
        done
    }

    /// Timed protocol write (blocking — used for sync lines).
    fn do_write(&mut self, p: ProcId, addr: Addr, t: Nanos) -> Nanos {
        let out = self.mem.write(p, addr.line());
        let done = self.res.time_access(t, p, &out, &self.lat);
        self.counts.record_write(out.level);
        self.breakdown.bucket(p.as_usize(), out.level, done - t);
        done
    }

    /// Atomic read-modify-write (lock acquisition, barrier counter).
    fn rmw(&mut self, p: ProcId, addr: Addr, t: Nanos) -> Nanos {
        let t1 = self.do_read(p, addr, t);
        self.do_write(p, addr, t1)
    }

    /// Release the gathered barrier at `now`: every parked processor
    /// re-fetches the (just invalidated) flag line and resumes.
    fn release_barrier(&mut self, now: Nanos) {
        let released = self.barrier.release();
        for (q, parked) in released {
            let start = now.max(parked);
            self.breakdown.sync_ns[q.as_usize()] += start - parked;
            let done = self.do_read(q, self.barrier_flag, start);
            let wake = self.wake_at(q, done);
            self.queue.push(wake, q);
        }
    }

    /// A processor's stream ended at time `t`.
    fn finish_proc(&mut self, p: ProcId, t: Nanos) {
        let pi = p.as_usize();
        let drained = self.wbs.drain(pi, t);
        self.breakdown.sync_ns[pi] += drained - t;
        self.finish[pi] = drained;
        self.n_done += 1;
        // If the remaining processors are all waiting at a barrier this
        // processor will never reach, complete it for them.
        if self.barrier.retire_participant() {
            self.release_barrier(drained);
        }
    }

    /// Execute one compiled record of processor `p` popped at time `now`.
    ///
    /// Returns the time at which `p` itself resumes, or `None` if it
    /// parked (lock, barrier) or finished. Wake-ups for *other*
    /// processors are pushed directly; `p`'s own continuation is the
    /// caller's to schedule, so the run loop can keep stepping `p`
    /// without queue traffic while it remains the earliest wake-up.
    ///
    /// A record's inline compute gap has already been folded into `now`
    /// by `wake_at`. Only the unfused reference schedule reaches a
    /// record with its gap unconsumed; it then consumes the gap alone and
    /// returns, leaving the operation to the next step.
    fn step(&mut self, p: ProcId, now: Nanos) -> Option<Nanos> {
        let pi = p.as_usize();
        let pos = self.pos[pi];
        if pos == self.end[pi] {
            self.finish_proc(p, now);
            return None;
        }
        let rec = self.ops.get(pos);
        let kind = rec.kind();
        if kind == FlatKind::Gap {
            // A gap too long to pack inline: one pure time advance.
            self.breakdown.busy_ns[pi] += rec.payload();
            self.pos[pi] = pos + 1;
            return Some(now + rec.payload());
        }
        let gap = rec.gap_ns();
        if gap > 0 && !self.gap_done[pi] {
            debug_assert!(!self.fuse_gaps, "P{pi}: a wake site left a gap unfolded");
            self.breakdown.busy_ns[pi] += gap;
            self.gap_done[pi] = true;
            return Some(now + gap);
        }
        self.gap_done[pi] = false;
        self.pos[pi] = pos + 1;
        match kind {
            FlatKind::Read => {
                // One issue slot for the load instruction itself.
                self.breakdown.busy_ns[pi] += 1;
                Some(self.do_read(p, rec.addr(), now + 1))
            }
            FlatKind::Write => {
                self.breakdown.busy_ns[pi] += 1;
                let issue = now + 1;
                let out = self.mem.write(p, rec.addr().line());
                let completes = self.res.time_access(issue, p, &out, &self.lat);
                self.counts.record_write(out.level);
                // Release consistency: the processor stalls only if the
                // write buffer is full.
                let resume = self.wbs.push(pi, issue, completes);
                self.breakdown.bucket(pi, out.level, resume - issue);
                Some(resume)
            }
            FlatKind::Lock => {
                let id = rec.id() as usize;
                if self.locks[id].try_acquire(p) {
                    Some(self.rmw(p, self.lock_addrs[id], now))
                } else {
                    self.locks[id].park(p, now);
                    None
                }
            }
            FlatKind::Unlock => {
                let id = rec.id() as usize;
                // Release consistency: drain the write buffer first.
                let drained = self.wbs.drain(pi, now);
                self.breakdown.sync_ns[pi] += drained - now;
                let done = self.do_write(p, self.lock_addrs[id], drained);
                if let Some((next, parked)) = self.locks[id].release(p) {
                    let start = done.max(parked);
                    self.breakdown.sync_ns[next.as_usize()] += start - parked;
                    // The new holder re-acquires the (invalidated) lock line.
                    let acquired = self.rmw(next, self.lock_addrs[id], start);
                    let wake = self.wake_at(next, acquired);
                    self.queue.push(wake, next);
                }
                Some(done)
            }
            FlatKind::Barrier => {
                let id = rec.id();
                let drained = self.wbs.drain(pi, now);
                self.breakdown.sync_ns[pi] += drained - now;
                let counted = self.rmw(p, self.barrier_counter, drained);
                if self.barrier.arrive(id) {
                    // Last arrival: write the release flag (invalidating
                    // every waiter's copy) and wake everyone.
                    let released = self.do_write(p, self.barrier_flag, counted);
                    self.release_barrier(released);
                    Some(released)
                } else {
                    self.barrier.park(p, counted);
                    None
                }
            }
            FlatKind::Gap => unreachable!("handled above"),
        }
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> SimReport {
        self.run_loop();
        self.into_report()
    }

    /// Run to completion, verify every protocol invariant over the final
    /// machine state, and produce the report.
    pub fn run_checked(mut self) -> Result<SimReport, String> {
        self.run_loop();
        self.mem.system().check_invariants()?;
        Ok(self.into_report())
    }

    fn run_loop(&mut self) {
        // Follow-through: after a step, `p`'s continuation `(next, p)`,
        // its next compute gap folded in, may still lexicographically
        // precede every pending wake-up — pushing it and popping would
        // hand it straight back. Stepping on directly is therefore the
        // *identical* event order with the queue round-trip elided. How
        // often depends on the workload: 8 % of steps on 64-processor
        // FFT, 39 % on 16-processor BFS (DESIGN §13.6 has the counts).
        while let Some((mut t, p)) = self.queue.pop() {
            while let Some(next) = self.step(p, t) {
                let next = self.wake_at(p, next);
                if !self.queue.precedes(next, p) {
                    self.queue.push(next, p);
                    break;
                }
                t = next;
            }
        }
    }

    fn into_report(mut self) -> SimReport {
        assert_eq!(
            self.n_done, self.n_procs,
            "deadlock: {} of {} processors finished (parked at locks/barrier)",
            self.n_done, self.n_procs
        );
        let exec_time_ns = self.finish.iter().copied().max().unwrap_or(0);
        let mem = self.mem.system();
        mem.flush_stats();
        let traffic = *mem.traffic();
        let counters = *mem.counters();
        SimReport {
            exec_time_ns,
            counts: self.counts,
            traffic,
            per_proc: self.breakdown.into_breakdowns(),
            injections: counters.injections,
            ownership_migrations: counters.ownership_migrations,
            shared_drops: counters.shared_drops,
            cold_allocs: counters.cold_allocs,
            bus_busy_ns: self.res.bus_busy_ns(),
            dram_busy_ns: self.res.dram_busy_ns(),
            read_latency: self.read_latency,
        }
    }

    /// The COMA engine, for post-run inspection in tests (None when a
    /// baseline memory model or an external memory system is configured).
    pub fn engine(&self) -> Option<&CoherenceEngine> {
        match &self.mem {
            Engine::Coma(e) => Some(e),
            _ => None,
        }
    }
}

/// Build and run in one call (panics on an invalid configuration; use
/// [`Simulation::new`] to handle configuration errors explicitly).
pub fn run_simulation(workload: Workload, params: &SimParams) -> SimReport {
    Simulation::new(workload, params)
        .unwrap_or_else(|e| panic!("invalid simulation configuration: {e}"))
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_types::{MemoryPressure, LINE_BYTES};
    use coma_workloads::{AppId, Op, OpStream, Scale};

    fn params(ppn: usize, mp: MemoryPressure) -> SimParams {
        let mut p = SimParams::default();
        p.machine.procs_per_node = ppn;
        p.machine.memory_pressure = mp;
        p
    }

    #[test]
    fn water_runs_to_completion() {
        let wl = AppId::WaterN2.build(16, 1, Scale::SMOKE);
        let r = run_simulation(wl, &params(1, MemoryPressure::MP_50));
        assert!(r.exec_time_ns > 0);
        assert!(r.counts.total_reads() > 1000);
        assert!(r.counts.total_writes() > 100);
        // Time must be fully accounted per processor (within the final
        // event-alignment slack).
        for b in &r.per_proc {
            assert!(b.total_ns() > 0);
            assert!(b.total_ns() <= r.exec_time_ns);
        }
    }

    #[test]
    fn deterministic_report() {
        let run = || {
            let wl = AppId::Fft.build(16, 7, Scale::SMOKE);
            let r = run_simulation(wl, &params(2, MemoryPressure::MP_75));
            (r.exec_time_ns, r.counts, r.traffic)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clustering_reduces_rnm_at_low_pressure() {
        // The paper's core Figure 2 effect, on one communication-heavy app.
        let rnm = |ppn| {
            let wl = AppId::OceanNon.build(16, 3, Scale::SMOKE);
            run_simulation(wl, &params(ppn, MemoryPressure::MP_6)).rnm_rate()
        };
        let r1 = rnm(1);
        let r4 = rnm(4);
        assert!(r4 < r1, "4-way clustering RNMr {r4} !< 1-way {r1}");
    }

    #[test]
    fn higher_pressure_means_more_traffic() {
        let traffic = |mp| {
            let wl = AppId::Fft.build(16, 3, Scale::SMOKE);
            run_simulation(wl, &params(1, mp)).traffic.total_bytes()
        };
        let low = traffic(MemoryPressure::MP_6);
        let high = traffic(MemoryPressure::MP_87);
        assert!(high > low, "high-MP traffic {high} !> low-MP {low}");
    }

    #[test]
    fn no_replacements_at_infinite_caches() {
        // At 6.25% MP every AM holds the whole working set: replacement
        // traffic must be zero (paper §4.2: "no replacements are made at
        // 6% MP").
        let wl = AppId::WaterSp.build(16, 5, Scale::SMOKE);
        let r = run_simulation(wl, &params(1, MemoryPressure::MP_6));
        assert_eq!(r.traffic.replace_txns, 0);
        assert_eq!(r.injections, 0);
    }

    #[test]
    fn locks_serialize_and_complete() {
        let wl = AppId::Radiosity.build(16, 9, Scale::SMOKE);
        let r = run_simulation(wl, &params(4, MemoryPressure::MP_50));
        assert!(r.exec_time_ns > 0);
        // Some sync waiting must have occurred under 16-way lock traffic.
        let sync: u64 = r.per_proc.iter().map(|b| b.sync_ns).sum();
        assert!(sync > 0);
    }

    #[test]
    fn invariants_hold_after_full_run() {
        let wl = AppId::LuNon.build(16, 11, Scale::SMOKE);
        let sim = Simulation::new(wl, &params(4, MemoryPressure::MP_87)).unwrap();
        sim.run_checked().expect("protocol invariants hold");
    }

    #[test]
    fn live_audit_clean_on_full_run() {
        // The auditor re-checks every invariant after each protocol
        // transaction; a full (if small) run at high pressure exercises
        // injections, migrations and page-outs under audit.
        let wl = AppId::LuNon.build(16, 11, Scale::SMOKE);
        let mut p = params(4, MemoryPressure::MP_87);
        p.audit = true;
        let r = run_simulation(wl, &p);
        assert!(r.injections > 0, "run too tame to exercise the auditor");
    }

    #[test]
    fn audited_baseline_runs_match_unaudited() {
        // The baseline auditor checks after every SLC miss, so the run
        // is a light one; it still exercises remote reads and writes.
        for model in [MemoryModel::Numa, MemoryModel::Uma] {
            let run = |audit| {
                let wl = AppId::WaterN2.build(16, 11, Scale::SMOKE);
                let mut p = params(4, MemoryPressure::MP_50);
                p.memory_model = model;
                p.audit = audit;
                run_simulation(wl, &p)
            };
            assert_eq!(run(true), run(false), "{model:?}");
        }
    }

    #[test]
    fn audit_reaches_every_engine_arm() {
        for model in [MemoryModel::Coma, MemoryModel::Numa, MemoryModel::Uma] {
            for audit in [false, true] {
                let mut p = params(1, MemoryPressure::MP_50);
                p.memory_model = model;
                p.audit = audit;
                let sim = Simulation::new(AppId::Fft.build(16, 1, Scale::SMOKE), &p).unwrap();
                let armed = match (&sim.mem, model) {
                    (Engine::Coma(e), MemoryModel::Coma) => e.is_audited(),
                    (Engine::Baseline(e), MemoryModel::Numa | MemoryModel::Uma) => e.is_audited(),
                    _ => panic!("{model:?} built the wrong engine"),
                };
                assert_eq!(armed, audit, "{model:?}");
            }
        }
    }

    /// A hand-written processor stream.
    struct Script(std::vec::IntoIter<Op>);

    impl OpStream for Script {
        fn next_op(&mut self) -> Option<Op> {
            self.0.next()
        }
    }

    #[test]
    fn line_tables_grow_from_the_top_sync_line_down() {
        // Every stream opens with a barrier, so the first lines the
        // directories see are the barrier counter and then its flag,
        // `last_sync_line`, the highest line of the run. The reads and
        // writes that follow walk the working set from its top down to
        // line 0, shared by every processor, and a lock round follows.
        const LINES: u64 = 512;
        let workload = || Workload {
            name: "top-down",
            ws_bytes: LINES * LINE_BYTES,
            n_locks: 1,
            streams: (0..16u64)
                .map(|p| {
                    let mut ops = vec![Op::Barrier(0)];
                    for l in (0..LINES).rev().skip(p as usize).step_by(5) {
                        let a = Addr(l * LINE_BYTES);
                        ops.push(if (l + p) % 3 == 0 {
                            Op::Write(a)
                        } else {
                            Op::Read(a)
                        });
                        ops.push(Op::Compute(3));
                    }
                    ops.extend([
                        Op::Lock(0),
                        Op::Write(Addr(p * LINE_BYTES)),
                        Op::Unlock(0),
                        Op::Barrier(1),
                    ]);
                    Box::new(Script(ops.into_iter())) as Box<dyn OpStream>
                })
                .collect(),
        };
        assert_eq!(workload().last_sync_line(), LineNum(LINES + 2));
        for model in [MemoryModel::Coma, MemoryModel::Numa, MemoryModel::Uma] {
            let run = |audit| {
                let mut p = params(1, MemoryPressure::MP_87);
                p.memory_model = model;
                p.audit = audit;
                let sim = Simulation::new(workload(), &p).unwrap();
                sim.run_checked().expect("invariants hold at the end")
            };
            let audited = run(true);
            let writes = audited.counts.total_writes();
            assert!(writes > 200, "{model:?} run too small: {writes} writes");
            assert_eq!(audited, run(false), "{model:?}");
        }
    }

    #[test]
    fn barrier_waiters_resume_after_release() {
        let wl = AppId::Fft.build(16, 13, Scale::SMOKE);
        let r = run_simulation(wl, &params(1, MemoryPressure::MP_50));
        // All processors finished (no deadlock) and every one of them
        // accumulated some barrier wait.
        assert!(r.per_proc.iter().filter(|b| b.sync_ns > 0).count() >= 8);
    }

    #[test]
    fn mismatched_stream_count_panics() {
        // `new` reports the mismatch as a typed error; `with_memory`,
        // which has no error channel, panics with the same message.
        let p = params(1, MemoryPressure::MP_50); // 16-proc machine
        let stream_error = ConfigError::StreamCount {
            streams: 8,
            procs: 16,
        };
        let wl = AppId::Fft.build(8, 1, Scale::SMOKE); // 8 streams
        assert_eq!(Simulation::new(wl, &p).err(), Some(stream_error.clone()));
        let wl = AppId::Fft.build(8, 1, Scale::SMOKE);
        let geom = p.machine.geometry(wl.ws_bytes).unwrap();
        let mem = Box::new(BaselineEngine::new(geom, BaselineKind::Numa));
        let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulation::with_memory(wl, &p, mem)
        })) else {
            panic!("with_memory accepted a mismatched workload");
        };
        assert_eq!(
            panic.downcast_ref::<String>(),
            Some(&stream_error.to_string())
        );
    }

    #[test]
    fn unfused_reference_schedule_matches_fused() {
        // The in-crate smoke version of the full differential suite in
        // tests/gap_fusion.rs: one app, whole report must be identical.
        let run = |fuse| {
            let wl = AppId::Radiosity.build(16, 3, Scale::SMOKE);
            let mut sim = Simulation::new(wl, &params(2, MemoryPressure::MP_75)).unwrap();
            sim.set_fuse_gaps(fuse);
            sim.run()
        };
        assert_eq!(run(true), run(false));
    }
}
