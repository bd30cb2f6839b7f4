//! The per-layer ledger, by record and replay.
//!
//! One capture run per cell wraps the cell's engine in a [`Recorder`]
//! passed to `Simulation::with_memory`, which logs every `(proc, line,
//! kind)` access, every stats flush, and every [`Outcome`]. The ledger
//! then times each layer on its own against that tape, from outside the
//! program:
//!
//! * `protocol` — the access stream through a fresh engine of the cell's
//!   model (each replayed outcome must equal the recorded one);
//! * `timing` — the recorded outcomes through a fresh
//!   `MachineResources::time_access`, each processor issuing at its
//!   previous completion;
//! * `queue` — `EventQueue` push/pop in the order the run stepped its
//!   processors, with the driver's follow-through test.
//!
//! Whatever the full run costs beyond those three is the driver.
//! [`run_traced`] captures every cell, then repeats every replay, the
//! traced and untraced runs and the workload compile round-robin,
//! keeping each one's fastest repetition.

use crate::cells::{differing_fields, Cell, Oracle, WorkloadDef};
use crate::measure::{
    accesses, guarded, missing, rounds_for, sum_fastest, untraced_rep, CellTimes, Fastest,
    RunResult, Tally,
};
use coma_protocol::{BaselineEngine, BaselineKind, CoherenceEngine, MemorySystem, Outcome};
use coma_sim::{MachineResources, MemoryModel, SimParams, Simulation};
use coma_stats::{Level, ProtocolCounters, SimReport, Traffic};
use coma_timing::EventQueue;
use coma_types::{LatencyConfig, LineNum, MachineGeometry, Nanos, NodeId, ProcId};
use coma_workloads::{FlatKind, OpArena};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Read,
    Write,
    /// A `flush_stats` call (the driver's sync points and finishes).
    Flush,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub line: LineNum,
    pub proc: ProcId,
    pub step: Step,
}

/// Everything one run asked of its memory system, and what it answered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tape {
    pub accesses: Vec<Access>,
    /// One per `Read`/`Write` access, in order.
    pub outcomes: Vec<Outcome>,
}

impl Tape {
    pub fn clear(&mut self) {
        self.accesses.clear();
        self.outcomes.clear();
    }

    /// Reads plus writes.
    pub fn n_accesses(&self) -> usize {
        self.outcomes.len()
    }

    /// `(proc, outcome)` for every read and write, in order.
    pub fn outcomes_by_proc(&self) -> impl Iterator<Item = (ProcId, &Outcome)> {
        self.accesses
            .iter()
            .filter(|a| a.step != Step::Flush)
            .map(|a| a.proc)
            .zip(&self.outcomes)
    }
}

/// A `MemorySystem` that forwards to `inner` and logs onto a shared tape.
pub struct Recorder<M> {
    inner: M,
    tape: Rc<RefCell<Tape>>,
}

impl<M> Recorder<M> {
    fn log(&self, proc: ProcId, line: LineNum, step: Step, out: Option<Outcome>) {
        let mut t = self.tape.borrow_mut();
        t.accesses.push(Access { line, proc, step });
        t.outcomes.extend(out);
    }
}

impl<M: MemorySystem + 'static> MemorySystem for Recorder<M> {
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let out = self.inner.read(proc, line);
        self.log(proc, line, Step::Read, Some(out));
        out
    }

    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        let out = self.inner.write(proc, line);
        self.log(proc, line, Step::Write, Some(out));
        out
    }

    fn geometry(&self) -> &MachineGeometry {
        self.inner.geometry()
    }

    fn flush_stats(&mut self) {
        self.inner.flush_stats();
        self.log(ProcId(0), LineNum(0), Step::Flush, None);
    }

    fn traffic(&self) -> &Traffic {
        self.inner.traffic()
    }

    fn counters(&self) -> &ProtocolCounters {
        self.inner.counters()
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }

    fn am_census(&self) -> (usize, usize, usize) {
        self.inner.am_census()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// A fresh COMA engine, built exactly as `Simulation::new` builds it.
pub fn coma_engine(geom: MachineGeometry, p: &SimParams) -> CoherenceEngine {
    let mut e = CoherenceEngine::with_inclusion(
        geom,
        p.victim_policy,
        p.accept_policy,
        p.machine.intra_node_transfers,
        p.machine.inclusive_hierarchy,
    );
    e.set_audit(p.audit);
    e
}

/// A fresh NUMA/UMA engine for a baseline model.
pub fn baseline_engine(geom: MachineGeometry, model: MemoryModel) -> BaselineEngine {
    let kind = match model {
        MemoryModel::Uma => BaselineKind::Uma,
        _ => BaselineKind::Numa,
    };
    BaselineEngine::new(geom, kind)
}

/// The cell's engine wrapped in a recorder logging onto `tape`.
pub fn recording_engine(
    cell: &Cell,
    geom: MachineGeometry,
    tape: &Rc<RefCell<Tape>>,
) -> Box<dyn MemorySystem> {
    let tape = Rc::clone(tape);
    match cell.model {
        MemoryModel::Coma => Box::new(Recorder {
            inner: coma_engine(geom, &cell.params()),
            tape,
        }),
        model => Box::new(Recorder {
            inner: baseline_engine(geom, model),
            tape,
        }),
    }
}

/// Replay the tape's access stream through `mem`, returning how many
/// outcomes differ from the recorded ones.
pub fn replay_protocol<M: MemorySystem>(mem: &mut M, tape: &Tape) -> usize {
    let mut outcomes = tape.outcomes.iter();
    let mut mismatches = 0;
    for a in &tape.accesses {
        let out = match a.step {
            Step::Read => mem.read(a.proc, a.line),
            Step::Write => mem.write(a.proc, a.line),
            Step::Flush => {
                mem.flush_stats();
                continue;
            }
        };
        mismatches += usize::from(outcomes.next() != Some(&out));
    }
    mismatches
}

/// Replay the recorded outcomes through the timing walk, each processor
/// issuing at its previous completion. Appends each access's completion
/// time to `done`.
pub fn replay_timing(
    res: &mut MachineResources,
    lat: &LatencyConfig,
    tape: &Tape,
    now: &mut [Nanos],
    done: &mut Vec<Nanos>,
) {
    for (p, out) in tape.outcomes_by_proc() {
        let t = res.time_access(now[p.as_usize()], p, out, lat);
        now[p.as_usize()] = t;
        done.push(t);
    }
}

/// Drive an `EventQueue` over per-processor wake-up schedules the way the
/// simulation loop does: pop the earliest processor, then keep stepping
/// it while its next wake-up still precedes every pending one. Returns
/// the number of pops.
pub fn replay_queue(schedule: &[Vec<Nanos>]) -> u64 {
    let mut q = EventQueue::new();
    let mut cursor = vec![0usize; schedule.len()];
    for p in 0..schedule.len() {
        q.push(0, ProcId(p as u16));
    }
    let mut pops = 0;
    while let Some((_, p)) = q.pop() {
        pops += 1;
        let pi = p.as_usize();
        while let Some(&next) = schedule[pi].get(cursor[pi]) {
            cursor[pi] += 1;
            if !q.precedes(next, p) {
                q.push(next, p);
                break;
            }
        }
    }
    black_box(pops)
}

/// The run's own schedule as per-processor wake-up times: access `i`
/// of the tape (reads and writes, in issue order) wakes its processor at
/// time `i`, so the queue replay pops processors in exactly the order the
/// run stepped them.
pub fn schedule_by_proc(tape: &Tape, n_procs: usize) -> Vec<Vec<Nanos>> {
    let mut s = vec![Vec::new(); n_procs];
    for (i, (p, _)) in tape.outcomes_by_proc().enumerate() {
        s[p.as_usize()].push(i as Nanos);
    }
    s
}

/// One cell's state in the traced run.
struct LedgerCell {
    cell: &'static Cell,
    geom: MachineGeometry,
    /// The unwrapped run's report, which every traced run must equal.
    report: SimReport,
    /// The capture run's tape, which every replay runs from.
    tape: Tape,
    /// Completion time of every access in the timing replay.
    done: Vec<Nanos>,
    /// The tape's issue order as per-processor wake-up schedules.
    schedule: Vec<Vec<Nanos>>,
    counts: OutcomeCounts,
    records: u64,
    sync_records: u64,
    pops: u64,
    untraced: CellTimes,
    traced: Fastest,
    compile: Fastest,
    protocol: Fastest,
    timing: Fastest,
    queue: Fastest,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Build a cell's workload and compile it, timed; returns `(records,
/// sync records, seconds)`.
fn compile_rep(cell: &Cell, seed: u64) -> (u64, u64, f64) {
    let (arena, secs) = time(|| OpArena::compile(cell.build(seed).streams));
    let sync = arena
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.kind(),
                FlatKind::Lock | FlatKind::Unlock | FlatKind::Barrier
            )
        })
        .count();
    (arena.len() as u64, sync as u64, secs)
}

/// Run a cell with its engine wrapped in a recorder logging onto `tape`;
/// returns the report, the run seconds and the machine geometry.
fn traced_run(
    cell: &Cell,
    seed: u64,
    tape: &Rc<RefCell<Tape>>,
) -> Result<(SimReport, f64, MachineGeometry), String> {
    let params = cell.params();
    let wl = cell.build(seed);
    let geom = params
        .machine
        .geometry(wl.ws_bytes)
        .map_err(|e| format!("config: {e}"))?;
    tape.borrow_mut().clear();
    let sim = Simulation::with_memory(wl, &params, recording_engine(cell, geom, tape));
    let (report, secs) = time(|| sim.run());
    Ok((report, secs, geom))
}

fn same_report(what: &str, want: &SimReport, got: &SimReport) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{what} differs from the unwrapped run in: {}",
            differing_fields(want, got).join(", ")
        ))
    }
}

/// Capture pass for one cell: a checked unwrapped run, then a recorded
/// run whose report must equal it.
fn capture(cell: &'static Cell, seed: u64, oracle: &mut Oracle) -> Result<LedgerCell, String> {
    let mut untraced = CellTimes::default();
    let mut tally = Tally::default();
    untraced_rep(cell, seed, oracle, &mut untraced, &mut tally);
    let report = untraced
        .report
        .clone()
        .ok_or("the unwrapped run failed".to_string())?;
    let tape = Rc::new(RefCell::new(Tape::default()));
    let (wrapped, _, geom) = traced_run(cell, seed, &tape)?;
    same_report("the recorded run", &report, &wrapped)?;
    let tape = Rc::try_unwrap(tape)
        .map_err(|_| "tape still shared after the run")?
        .into_inner();
    if tape.n_accesses() as u64 != accesses(&report) {
        return Err(format!(
            "tape holds {} accesses, report counts {}",
            tape.n_accesses(),
            accesses(&report)
        ));
    }
    let (records, sync_records, _) = compile_rep(cell, seed);
    let mut res = MachineResources::new(&geom, &cell.params().latency);
    let mut now = vec![0; geom.n_procs];
    let mut done = Vec::with_capacity(tape.n_accesses());
    replay_timing(&mut res, &cell.params().latency, &tape, &mut now, &mut done);
    let schedule = schedule_by_proc(&tape, geom.n_procs);
    Ok(LedgerCell {
        cell,
        geom,
        counts: OutcomeCounts::of(&tape, &geom),
        report,
        tape,
        done,
        schedule,
        records,
        sync_records,
        pops: 0,
        untraced,
        traced: Fastest::default(),
        compile: Fastest::default(),
        protocol: Fastest::default(),
        timing: Fastest::default(),
        queue: Fastest::default(),
    })
}

/// Replay a tape through a fresh engine; the outcomes and the engine's
/// final traffic must match the recorded run.
fn protocol_rep<M: MemorySystem>(mut mem: M, lc: &LedgerCell) -> Result<f64, String> {
    let (mismatches, secs) = time(|| replay_protocol(&mut mem, &lc.tape));
    if mismatches > 0 {
        return Err(format!("{mismatches} replayed outcomes differ"));
    }
    mem.flush_stats();
    if *mem.traffic() != lc.report.traffic {
        return Err("replayed engine's traffic differs from the run's".into());
    }
    Ok(secs)
}

/// One round of every ledger measurement on one cell.
fn ledger_rep(
    lc: &mut LedgerCell,
    seed: u64,
    oracle: &mut Oracle,
    scratch: &Rc<RefCell<Tape>>,
    tally: &mut Tally,
) {
    let cell = lc.cell;
    let name = cell.name;
    untraced_rep(cell, seed, oracle, &mut lc.untraced, tally);

    let traced = guarded(|| {
        let (report, secs, _) = traced_run(cell, seed, scratch)?;
        same_report("a recorded run", &lc.report, &report)?;
        if *scratch.borrow() != lc.tape {
            return Err("a recorded run's tape differs from the capture".into());
        }
        Ok(secs)
    });
    if let Some(s) = tally.record(name, traced) {
        lc.traced.add(s);
    }

    let compiled = guarded(|| {
        let (records, _, secs) = compile_rep(cell, seed);
        if records != lc.records {
            return Err(format!("compiled {records} records, first {}", lc.records));
        }
        Ok(secs)
    });
    if let Some(s) = tally.record(name, compiled) {
        lc.compile.add(s);
    }

    let params = cell.params();
    let replayed = guarded(|| match cell.model {
        MemoryModel::Coma => protocol_rep(coma_engine(lc.geom, &params), lc),
        model => protocol_rep(baseline_engine(lc.geom, model), lc),
    });
    if let Some(s) = tally.record(name, replayed) {
        lc.protocol.add(s);
    }

    let timed = guarded(|| {
        let mut res = MachineResources::new(&lc.geom, &params.latency);
        let mut now = vec![0; lc.geom.n_procs];
        let mut done = Vec::with_capacity(lc.done.len());
        let ((), secs) =
            time(|| replay_timing(&mut res, &params.latency, &lc.tape, &mut now, &mut done));
        if done != lc.done {
            return Err("timing replay is not deterministic".into());
        }
        Ok(secs)
    });
    if let Some(s) = tally.record(name, timed) {
        lc.timing.add(s);
    }

    let (pops, secs) = time(|| replay_queue(&lc.schedule));
    let queued = if lc.pops == 0 || pops == lc.pops {
        Ok(secs)
    } else {
        Err(format!("queue replay popped {pops}, first {}", lc.pops))
    };
    lc.pops = pops;
    if let Some(s) = tally.record(name, queued) {
        lc.queue.add(s);
    }
}

/// Sum one fastest-timing column over cells.
fn column(
    cells: &[LedgerCell],
    what: &str,
    f: impl Fn(&LedgerCell) -> Fastest,
) -> Result<f64, String> {
    let col: Vec<Fastest> = cells.iter().map(f).collect();
    sum_fastest(&col).ok_or_else(|| missing(what))
}

/// The traced run: capture, then every layer replayed round-robin.
pub fn run_traced(
    def: &'static WorkloadDef,
    seed: u64,
    budget: Duration,
) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut oracles: Vec<Oracle> = def.cells.iter().map(|c| Oracle::new(c, seed)).collect();
    let mut cells = Vec::with_capacity(def.cells.len());
    for (c, oracle) in def.cells.iter().zip(&mut oracles) {
        let captured = guarded(|| capture(c, seed, oracle));
        match tally.record(c.name, captured) {
            Some(lc) => cells.push(lc),
            None => return Err(format!("capture of {} failed", c.name)),
        }
    }
    let scratch = Rc::new(RefCell::new(Tape::default()));
    let rounds = rounds_for(budget, || {
        for (lc, oracle) in cells.iter_mut().zip(&mut oracles) {
            ledger_rep(lc, seed, oracle, &scratch, &mut tally);
        }
    });
    eprintln!("simbench: {rounds} traced rounds");

    let mut counts = OutcomeCounts::default();
    for lc in &cells {
        counts.add(&lc.counts);
    }
    let acc = counts.accesses as f64;
    let per_access_ns = |secs: f64| secs * 1e9 / acc;
    let run = column(&cells, "run", |c| c.untraced.run)?;
    let traced = column(&cells, "traced run", |c| c.traced)?;
    let protocol = column(&cells, "protocol", |c| c.protocol)?;
    let timing = column(&cells, "timing", |c| c.timing)?;
    let queue = column(&cells, "queue", |c| c.queue)?;
    let compile = column(&cells, "compile", |c| c.compile)?;
    let new = column(&cells, "new", |c| c.untraced.new)?;
    let records: u64 = cells.iter().map(|c| c.records).sum();
    let sync_records: u64 = cells.iter().map(|c| c.sync_records).sum();
    let pops: u64 = cells.iter().map(|c| c.pops).sum();

    let sum = |f: &dyn Fn(&LedgerCell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let exec = sum(&|c| c.report.exec_time_ns);
    let reads = sum(&|c| c.report.counts.total_reads());
    let remote_reads = sum(&|c| c.report.counts.read_node_misses());
    let bus_busy = sum(&|c| c.report.bus_busy_ns);
    let dram_busy = sum(&|c| c.report.dram_busy_ns);
    let dram_capacity = sum(&|c| c.report.exec_time_ns * c.geom.n_nodes as u64);

    for lc in &cells {
        let a = lc.counts.accesses as f64;
        let ns = |f: Fastest| f.get().unwrap_or(f64::NAN) * 1e9 / a;
        eprintln!(
            "simbench: {:<24} run {:>6.1}  protocol {:>6.1}  timing {:>5.1}  queue {:>5.1}  traced {:>6.1} ns/access",
            lc.cell.name,
            ns(lc.untraced.run),
            ns(lc.protocol),
            ns(lc.timing),
            ns(lc.queue),
            ns(lc.traced),
        );
    }

    let metrics = vec![
        (
            "workloads.compile_ns_per_record",
            compile * 1e9 / records as f64,
        ),
        ("workloads.records", records as f64),
        ("workloads.sync_records", sync_records as f64),
        ("protocol.ns_per_access", per_access_ns(protocol)),
        ("protocol.remote_frac", counts.remote as f64 / acc),
        (
            "protocol.injections_per_kacc",
            counts.injections as f64 * 1e3 / acc,
        ),
        ("protocol.pageouts", counts.pageouts as f64),
        ("timing.ns_per_access", per_access_ns(timing)),
        ("timing.bus_frac", counts.used_bus as f64 / acc),
        ("timing.cross_group_frac", counts.cross_group as f64 / acc),
        ("queue.ns_per_pop", queue * 1e9 / pops as f64),
        ("sim.run_ns_per_access", per_access_ns(run)),
        // The isolated replays cannot overlap with one another the way
        // the layers do inside one run, so on the flat machines their sum
        // can reach the full run's time. The residual is floored at zero
        // rather than reported as a negative driver cost (NOTES.md).
        (
            "sim.driver_ns_per_access",
            per_access_ns(run - protocol - timing - queue).max(0.0),
        ),
        ("sim.new_s", new),
        ("model.exec_ms", exec / 1e6),
        ("model.rnm_rate", remote_reads / reads),
        ("model.bus_util", bus_busy / exec),
        ("model.dram_util", dram_busy / dram_capacity),
        ("trace.overhead_frac", traced / run - 1.0),
    ];
    Ok(RunResult { tally, metrics })
}

/// Counts taken from one tape's outcomes.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutcomeCounts {
    pub accesses: u64,
    pub remote: u64,
    pub injections: u64,
    pub pageouts: u64,
    pub used_bus: u64,
    pub cross_group: u64,
}

impl OutcomeCounts {
    pub fn of(tape: &Tape, geom: &MachineGeometry) -> Self {
        let mut c = OutcomeCounts::default();
        for (p, o) in tape.outcomes_by_proc() {
            c.accesses += 1;
            c.remote += u64::from(o.level == Level::Remote);
            c.injections += u64::from(o.injected_to.is_some());
            c.pageouts += u64::from(o.pageout);
            c.used_bus += u64::from(o.used_bus());
            c.cross_group += u64::from(crosses_groups(geom, p, o));
        }
        c
    }

    pub fn add(&mut self, o: &OutcomeCounts) {
        self.accesses += o.accesses;
        self.remote += o.remote;
        self.injections += o.injections;
        self.pageouts += o.pageouts;
        self.used_bus += o.used_bus;
        self.cross_group += o.cross_group;
    }
}

/// Does any fabric transfer of this access leave the requester's group?
/// Follows the routing of `MachineResources::time_access`.
fn crosses_groups(geom: &MachineGeometry, p: ProcId, o: &Outcome) -> bool {
    let own = geom.group_of(p.node(geom.procs_per_node));
    let far = |n: Option<NodeId>| n.is_some_and(|n| geom.group_of(n) != own);
    let remote_target = match o.level {
        Level::Remote if o.upgrade && !o.read_exclusive => o.inval_scope,
        Level::Remote => o.remote_node,
        _ => None,
    };
    far(remote_target) || far(o.injected_to) || (o.ownership_migrated && far(o.migrated_to))
}
