//! Gap-fusion differential: with the fused compute-gap fast path on
//! (the default), every simulation must issue the *same memory accesses
//! in the same order* and produce the same `exec_time_ns` — in fact the
//! same whole `SimReport` — as the unfused reference schedule in which
//! every compute gap is a separate driver event.
//!
//! A recording `MemorySystem` wrapper captures the exact sequence of
//! protocol-level reads and writes (the only side-effecting events a
//! gap could conceivably displace), so this checks event *order*, not
//! just totals.

use std::cell::RefCell;
use std::rc::Rc;

use coma_protocol::{CoherenceEngine, MemorySystem, Outcome};
use coma_sim::{SimParams, Simulation};
use coma_stats::{ProtocolCounters, SimReport, Traffic};
use coma_types::{LineNum, MachineGeometry, MemoryPressure, ProcId, Topology};
use coma_workloads::{AppId, Scale};

/// One protocol access: `(is_write, proc, line)`.
type Access = (bool, u16, u64);

/// A `MemorySystem` decorator that logs every read/write in issue order.
struct Recorder {
    inner: CoherenceEngine,
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
        &self.inner
    }
}

fn params(ppn: usize, mp: MemoryPressure) -> SimParams {
    let mut p = SimParams::default();
    p.machine.procs_per_node = ppn;
    p.machine.memory_pressure = mp;
    p
}

/// Run `app` with fusion on or off, returning the report and the full
/// ordered access log.
fn run_recorded(app: AppId, params: &SimParams, fuse: bool) -> (SimReport, Vec<Access>) {
    let wl = app.build(params.machine.n_procs, 3, Scale::SMOKE);
    let geom = params.machine.geometry(wl.ws_bytes).unwrap();
    let log = Rc::new(RefCell::new(Vec::new()));
    let rec = Recorder {
        inner: CoherenceEngine::with_inclusion(
            geom,
            params.victim_policy,
            params.accept_policy,
            params.machine.intra_node_transfers,
            params.machine.inclusive_hierarchy,
        ),
        log: Rc::clone(&log),
    };
    let mut sim = Simulation::with_memory(wl, params, Box::new(rec));
    sim.set_fuse_gaps(fuse);
    let report = sim.run();
    let accesses = log.borrow().clone();
    (report, accesses)
}

fn assert_fusion_invisible(app: AppId, params: &SimParams) {
    let (fused_report, fused_log) = run_recorded(app, params, true);
    let (ref_report, ref_log) = run_recorded(app, params, false);
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
    // Lock parks interleave with gap-consumed-but-op-pending states
    // (`gap_done`), the subtlest corner of the fused path.
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
    // contention makes `precedes` fail often, exercising the unfused
    // fallback arm inside the fused run itself.
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
