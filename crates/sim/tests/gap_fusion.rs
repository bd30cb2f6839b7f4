//! Gap-fusion differential: with compute gaps folded into wake-up
//! times (the default), every simulation must issue the *same memory
//! accesses in the same order* and produce the same `exec_time_ns` — in
//! fact the same whole `SimReport` — as the unfused reference schedule
//! in which every compute gap is a separate driver event.
//!
//! A recording `MemorySystem` wrapper captures the exact sequence of
//! protocol-level reads and writes (the only side-effecting events a
//! gap could conceivably displace), so this checks event *order*, not
//! just totals. The cases between them reach every site that schedules
//! a processor: the initial wake-ups, the run loop's follow-through, a
//! lock handoff and a barrier release.

use std::cell::RefCell;
use std::rc::Rc;

use coma_protocol::{BaselineEngine, BaselineKind, CoherenceEngine, MemorySystem, Outcome};
use coma_sim::{MemoryModel, SimParams, Simulation};
use coma_stats::{ProtocolCounters, SimReport, Traffic};
use coma_types::{Addr, LineNum, MachineGeometry, MemoryPressure, ProcId, Topology, LINE_BYTES};
use coma_workloads::compiled::MAX_INLINE_GAP_NS;
use coma_workloads::{AppId, FlatKind, Op, OpArena, OpStream, Scale, Workload};

/// One protocol access: `(is_write, proc, line)`.
type Access = (bool, u16, u64);

/// A `MemorySystem` decorator that logs every read/write in issue order.
struct Recorder {
    inner: Box<dyn MemorySystem>,
    log: Rc<RefCell<Vec<Access>>>,
}

impl MemorySystem for Recorder {
    fn read(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        self.log
            .borrow_mut()
            .push((false, proc.as_usize() as u16, line.0));
        self.inner.read(proc, line)
    }

    fn write(&mut self, proc: ProcId, line: LineNum) -> Outcome {
        self.log
            .borrow_mut()
            .push((true, proc.as_usize() as u16, line.0));
        self.inner.write(proc, line)
    }

    fn geometry(&self) -> &MachineGeometry {
        self.inner.geometry()
    }

    fn flush_stats(&mut self) {
        self.inner.flush_stats()
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

fn params(ppn: usize, mp: MemoryPressure) -> SimParams {
    let mut p = SimParams::default();
    p.machine.procs_per_node = ppn;
    p.machine.memory_pressure = mp;
    p
}

/// The memory system `params` selects, built as `Simulation::new` builds it.
fn engine(params: &SimParams, geom: MachineGeometry) -> Box<dyn MemorySystem> {
    match params.memory_model {
        MemoryModel::Coma => Box::new(CoherenceEngine::with_inclusion(
            geom,
            params.victim_policy,
            params.accept_policy,
            params.machine.intra_node_transfers,
            params.machine.inclusive_hierarchy,
        )),
        MemoryModel::Numa => Box::new(BaselineEngine::new(geom, BaselineKind::Numa)),
        MemoryModel::Uma => Box::new(BaselineEngine::new(geom, BaselineKind::Uma)),
    }
}

/// Run the workload `build` makes with fusion on or off, returning the
/// report and the full ordered access log.
fn run_recorded(
    build: &dyn Fn() -> Workload,
    params: &SimParams,
    fuse: bool,
) -> (SimReport, Vec<Access>) {
    let wl = build();
    let geom = params.machine.geometry(wl.ws_bytes).unwrap();
    let log = Rc::new(RefCell::new(Vec::new()));
    let rec = Recorder {
        inner: engine(params, geom),
        log: Rc::clone(&log),
    };
    let mut sim = Simulation::with_memory(wl, params, Box::new(rec));
    sim.set_fuse_gaps(fuse);
    let report = sim.run();
    let accesses = log.borrow().clone();
    (report, accesses)
}

fn assert_fusion_invisible(app: AppId, params: &SimParams) {
    let n_procs = params.machine.n_procs;
    assert_same_schedule(
        &app.to_string(),
        &|| app.build(n_procs, 3, Scale::SMOKE),
        params,
    );
}

fn assert_same_schedule(app: &str, build: &dyn Fn() -> Workload, params: &SimParams) {
    let (fused_report, fused_log) = run_recorded(build, params, true);
    let (ref_report, ref_log) = run_recorded(build, params, false);
    assert_eq!(
        fused_log.len(),
        ref_log.len(),
        "{app}: fusion changed the number of protocol accesses"
    );
    if let Some(i) = (0..ref_log.len()).find(|&i| fused_log[i] != ref_log[i]) {
        panic!(
            "{app}: access {i} reordered by fusion: fused {:?} vs reference {:?}",
            fused_log[i], ref_log[i]
        );
    }
    assert_eq!(
        fused_report.exec_time_ns, ref_report.exec_time_ns,
        "{app}: fusion changed exec_time_ns"
    );
    assert_eq!(fused_report, ref_report, "{app}: fusion changed the report");
}

#[test]
fn fft_barrier_phases() {
    // Long per-phase gap runs ending at barriers: fused advances must
    // park at exactly the reference instants.
    assert_fusion_invisible(AppId::Fft, &params(2, MemoryPressure::MP_75));
}

#[test]
fn radiosity_lock_handoffs() {
    // Lock parks interleave with gaps consumed ahead of their
    // operations (`gap_done`).
    assert_fusion_invisible(AppId::Radiosity, &params(4, MemoryPressure::MP_50));
}

#[test]
fn radix_zero_gap_bursts() {
    // Radix phases emit back-to-back references with zero-length gaps:
    // the fast path must not insert or lose any time there.
    assert_fusion_invisible(AppId::Radix, &params(1, MemoryPressure::MP_50));
}

#[test]
fn ocean_high_pressure_contention() {
    // Replacement storms plus nearest-neighbour sharing: heavy resource
    // contention makes `precedes` fail often, so most continuations go
    // through the queue with their gaps already folded in.
    assert_fusion_invisible(AppId::OceanNon, &params(1, MemoryPressure::MP_87));
}

#[test]
fn barnes_irregular_sharing() {
    assert_fusion_invisible(AppId::Barnes, &params(2, MemoryPressure::MP_50));
}

#[test]
fn fft_64p_tree_wide_queue() {
    // simbench's `tree64` shape: 64 processors in 4 groups, where the
    // wake-up queue is widest and follow-through is decided by
    // `precedes` against the most competing processors.
    let mut p = params(4, MemoryPressure::MP_50);
    p.machine.n_procs = 64;
    p.machine.topology = Topology {
        n_groups: 4,
        levels: 1,
    };
    assert_fusion_invisible(AppId::Fft, &p);
}

#[test]
fn kv_zipf_shard_lock_handoffs() {
    // simbench's `kv_zipf_2p_mp81`: locked updates on a few shard locks,
    // so many wake-ups come from the `Unlock` handoff push.
    assert_fusion_invisible(AppId::KvZipf, &params(2, MemoryPressure::MP_81));
}

#[test]
fn graph_bfs_level_barriers() {
    assert_fusion_invisible(AppId::GraphBfs, &params(1, MemoryPressure::MP_87));
}

#[test]
fn numa_radiosity_baseline_engine() {
    // The recorder wraps the NUMA baseline engine here, not COMA.
    let mut p = params(2, MemoryPressure::MP_87);
    p.memory_model = MemoryModel::Numa;
    assert_fusion_invisible(AppId::Radiosity, &p);
}

/// A hand-written processor stream.
struct Script(std::vec::IntoIter<Op>);

impl OpStream for Script {
    fn next_op(&mut self) -> Option<Op> {
        self.0.next()
    }
}

/// Sixteen processors leave barrier 0 together and all reach lock 0
/// within a few dozen nanoseconds, so fifteen of them park on it; every
/// operation a parked processor resumes with (after the lock handoff,
/// after the barrier release) carries an inline gap. One compute run per stream
/// is too long for the inline field and one ends the stream, so both
/// become standalone `Gap` records.
fn scripted_workload() -> Workload {
    const LONG: u32 = 2_000_000;
    let line = |l: u64| Addr(l * LINE_BYTES);
    Workload {
        name: "scripted",
        ws_bytes: 1024 * LINE_BYTES,
        n_locks: 1,
        streams: (0..16u32)
            .map(|p| {
                let own = line(16 + p as u64);
                let ops = vec![
                    Op::Compute(7 * p + 1),
                    Op::Barrier(0),
                    Op::Compute(20 + p),
                    Op::Lock(0),
                    Op::Compute(25 + p),
                    Op::Write(line(0)),
                    Op::Compute(30),
                    Op::Unlock(0),
                    Op::Compute(40 + p),
                    Op::Read(own),
                    Op::Compute(LONG + 1000 * p),
                    Op::Write(own),
                    Op::Compute(5),
                    Op::Barrier(1),
                    Op::Compute(10 + 3 * p),
                    Op::Read(line(1)),
                    Op::Compute(100 + p),
                ];
                Box::new(Script(ops.into_iter())) as Box<dyn OpStream>
            })
            .collect(),
    }
}

#[test]
fn scripted_wake_sites() {
    let arena = OpArena::compile(scripted_workload().streams);
    let (start, end) = arena.span(0);
    let recs: Vec<_> = (start..end).map(|i| arena.get(i)).collect();
    let spilled: Vec<u64> = recs
        .iter()
        .filter(|r| r.kind() == FlatKind::Gap)
        .map(|r| r.payload())
        .collect();
    assert_eq!(spilled, [2_000_000, 100], "long and trailing compute runs");
    assert!(spilled[0] > MAX_INLINE_GAP_NS);
    assert_eq!(recs.last().unwrap().kind(), FlatKind::Gap);
    assert!(recs[0].gap_ns() > 0, "the first wake-up carries a gap");
    for pair in recs.windows(2) {
        if matches!(pair[0].kind(), FlatKind::Lock | FlatKind::Barrier) {
            assert!(
                pair[1].gap_ns() > 0,
                "{:?} resumes into a gap",
                pair[0].kind()
            );
        }
    }
    for model in [MemoryModel::Coma, MemoryModel::Numa] {
        let mut p = params(1, MemoryPressure::MP_50);
        p.memory_model = model;
        assert_same_schedule(&format!("scripted {model:?}"), &scripted_workload, &p);
    }
}
