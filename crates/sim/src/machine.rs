//! The simulation driver: event-driven execution of one workload on one
//! machine configuration, producing a [`SimReport`].
//!
//! The per-event path is deliberately interpreter-free: each workload's
//! reference stream is compiled ahead of the run into a flat
//! [`OpArena`] (one fixed-width record per memory/sync operation, with
//! the preceding compute gap packed inline — see `coma-workloads`), so
//! the hot loop reads an array instead of re-running generator logic,
//! and pure compute gaps fuse with the operation they precede whenever
//! the processor would step straight through anyway (DESIGN.md §13).

use crate::resources::MachineResources;
use crate::sync::{BarrierState, LockState};
use coma_cache::{AcceptPolicy, VictimPolicy};
use coma_protocol::{BaselineEngine, BaselineKind, CoherenceEngine, MemorySystem};
use coma_stats::{AccessCounts, ExecBreakdown, Level, SimReport};
use coma_timing::{EventQueue, WriteBufferArray};
use coma_types::{Addr, ConfigError, LatencyConfig, MachineConfig, Nanos, ProcId};
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
enum Engine {
    Coma(CoherenceEngine),
    Baseline(BaselineEngine),
    Custom(Box<dyn MemorySystem>),
}

impl MemorySystem for Engine {
    #[inline]
    fn read(&mut self, proc: ProcId, line: coma_types::LineNum) -> coma_protocol::Outcome {
        match self {
            Engine::Coma(e) => e.read(proc, line),
            Engine::Baseline(e) => e.read(proc, line),
            Engine::Custom(m) => m.read(proc, line),
        }
    }

    #[inline]
    fn write(&mut self, proc: ProcId, line: coma_types::LineNum) -> coma_protocol::Outcome {
        match self {
            Engine::Coma(e) => e.write(proc, line),
            Engine::Baseline(e) => e.write(proc, line),
            Engine::Custom(m) => m.write(proc, line),
        }
    }

    fn geometry(&self) -> &coma_types::MachineGeometry {
        match self {
            Engine::Coma(e) => e.geometry(),
            Engine::Baseline(e) => e.geometry(),
            Engine::Custom(m) => m.geometry(),
        }
    }

    fn flush_stats(&mut self) {
        match self {
            Engine::Coma(e) => e.flush_stats(),
            Engine::Baseline(e) => e.flush_stats(),
            Engine::Custom(m) => m.flush_stats(),
        }
    }

    fn traffic(&self) -> &coma_stats::Traffic {
        match self {
            Engine::Coma(e) => e.traffic(),
            Engine::Baseline(e) => e.traffic(),
            Engine::Custom(m) => m.traffic(),
        }
    }

    fn counters(&self) -> &coma_stats::ProtocolCounters {
        match self {
            Engine::Coma(e) => e.counters(),
            Engine::Baseline(e) => e.counters(),
            Engine::Custom(m) => m.counters(),
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        match self {
            Engine::Coma(e) => e.check_invariants(),
            Engine::Baseline(e) => e.check_invariants(),
            Engine::Custom(m) => m.check_invariants(),
        }
    }

    fn am_census(&self) -> (usize, usize, usize) {
        match self {
            Engine::Coma(e) => MemorySystem::am_census(e),
            Engine::Baseline(e) => MemorySystem::am_census(e),
            Engine::Custom(m) => m.am_census(),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        match self {
            Engine::Coma(e) => e,
            Engine::Baseline(e) => e,
            Engine::Custom(m) => m.as_any(),
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
    /// Arm the live invariant auditor: the COMA engine re-verifies every
    /// machine-wide protocol invariant after each access that performed a
    /// protocol transaction (panicking on violation). Expensive — meant
    /// for tests and debugging, not measurement runs.
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
    /// operation not yet executed (the processor parked in between).
    gap_done: Box<[bool]>,
    /// Fold a record's compute gap and its operation into one step when
    /// the processor would step straight through anyway. Always on in
    /// real runs; the differential tests switch it off to replay the
    /// one-event-per-gap reference schedule.
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
            MemoryModel::Numa => Engine::Baseline(BaselineEngine::new(geom, BaselineKind::Numa)),
            MemoryModel::Uma => Engine::Baseline(BaselineEngine::new(geom, BaselineKind::Uma)),
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

    fn assemble(workload: Workload, params: &SimParams, mem: Engine) -> Result<Self, ConfigError> {
        let geom = *mem.geometry();
        let n_procs = geom.n_procs;
        if workload.streams.len() != n_procs {
            return Err(ConfigError::StreamCount {
                streams: workload.streams.len(),
                procs: n_procs,
            });
        }
        let res = MachineResources::new(&geom, &params.latency);
        let mut queue = EventQueue::new();
        for p in 0..n_procs {
            queue.push(0, ProcId(p as u16));
        }
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
        Ok(Simulation {
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
            queue,
            locks: vec![LockState::default(); workload.n_locks as usize],
            barrier: BarrierState::new(n_procs),
            lock_addrs,
            barrier_counter,
            barrier_flag,
            finish: vec![0; n_procs].into_boxed_slice(),
            n_done: 0,
            n_procs,
        })
    }

    /// Disable the fused compute-gap fast path, restoring the reference
    /// schedule in which every gap is its own event. Identical results
    /// either way (pinned by the `gap_fusion` differential tests); only
    /// the number of driver iterations differs.
    #[doc(hidden)]
    pub fn set_fuse_gaps(&mut self, on: bool) {
        self.fuse_gaps = on;
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
            self.queue.push(done, q);
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

    /// Execute one compiled record of processor `p` popped at time `t`.
    ///
    /// Returns the time at which `p` itself resumes, or `None` if it
    /// parked (lock, barrier) or finished. Wake-ups for *other*
    /// processors are pushed directly; `p`'s own continuation is the
    /// caller's to schedule, so the run loop can keep stepping `p`
    /// without queue traffic while it remains the earliest wake-up.
    ///
    /// A record's inline compute gap fuses with its operation: the gap
    /// advances time locally, and when `(t + gap, p)` still precedes
    /// every pending wake-up the operation executes in the same call —
    /// the gap never becomes a queue event. When the processor would
    /// *not* step straight through, the gap is consumed (`gap_done`) and
    /// the operation waits for the next pop, which is exactly the
    /// schedule the unfused path produces; either way the sequence of
    /// side-effecting events is identical, because a pure gap touches
    /// nothing but this processor's clock and busy counter.
    fn step(&mut self, p: ProcId, t: Nanos) -> Option<Nanos> {
        let pi = p.as_usize();
        let pos = self.pos[pi];
        if pos == self.end[pi] {
            self.finish_proc(p, t);
            return None;
        }
        let rec = self.ops.get(pos);
        let kind = rec.kind();
        if kind == FlatKind::Gap {
            // A gap too long to pack inline: one pure time advance.
            self.breakdown.busy_ns[pi] += rec.payload();
            self.pos[pi] = pos + 1;
            return Some(t + rec.payload());
        }
        let mut now = t;
        let gap = rec.gap_ns();
        if gap > 0 && !self.gap_done[pi] {
            self.breakdown.busy_ns[pi] += gap;
            let resumed = now + gap;
            if self.fuse_gaps && self.queue.precedes(resumed, p) {
                // Fast path: the processor is still the machine-wide
                // earliest at `resumed`, so run the operation now.
                now = resumed;
            } else {
                self.gap_done[pi] = true;
                return Some(resumed);
            }
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
                    self.queue.push(acquired, next);
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
        self.mem.check_invariants()?;
        Ok(self.into_report())
    }

    fn run_loop(&mut self) {
        // Follow-through: after a step, `p`'s continuation `(next, p)`
        // often still lexicographically precedes every pending wake-up —
        // pushing it and popping would hand it straight back. Stepping on
        // directly is therefore the *identical* event order with the
        // queue round-trip elided; with the paper's 2-6 ns compute gaps
        // between references this skips the queue for most events.
        while let Some((mut t, p)) = self.queue.pop() {
            while let Some(next) = self.step(p, t) {
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
        self.mem.flush_stats();
        let traffic = *self.mem.traffic();
        let counters = *self.mem.counters();
        SimReport {
            exec_time_ns,
            counts: self.counts,
            traffic,
            per_proc: self.breakdown.into_breakdowns(),
            injections: counters.injections,
            ownership_migrations: counters.ownership_migrations,
            shared_drops: counters.shared_drops,
            cold_allocs: counters.cold_allocs,
            bus_busy_ns: self.res.bus.busy_ns(),
            dram_busy_ns: self.res.dram_busy_ns(),
            read_latency: self.read_latency,
        }
    }

    /// The COMA engine, for post-run inspection in tests (None when a
    /// baseline memory model is configured).
    pub fn engine(&self) -> Option<&CoherenceEngine> {
        self.mem.as_any().downcast_ref::<CoherenceEngine>()
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
    use coma_types::MemoryPressure;
    use coma_workloads::{AppId, Scale};

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
