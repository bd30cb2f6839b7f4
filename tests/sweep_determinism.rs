//! Differential harness for the sweep engine: a parallel sweep must be
//! **byte-identical** to a serial one — the same columnar store,
//! coordinates and results alike — because the scheduler only changes
//! *who* computes a cell, never *what* the cell computes or where its
//! result lands.
//!
//! Run in CI at smoke scale (`scripts/check.sh`); `COMA_THREADS` has no
//! effect here because the contexts pin `threads` explicitly.

use coma_experiments::sweep::{spec_key, COLUMNS, COORDS};
use coma_experiments::{run_sweep, ExpCtx, RunSpec, Source};
use coma_sim::MemoryModel;
use coma_types::{MemoryPressure, Topology};
use coma_workloads::{AppId, Scale};

fn ctx(dir: &str, threads: usize) -> ExpCtx {
    let out = std::env::temp_dir()
        .join("coma-sweep-determinism")
        .join(dir);
    let _ = std::fs::remove_dir_all(&out);
    ExpCtx {
        scale: Scale::SMOKE,
        seed: 42,
        out_dir: out,
        threads,
        no_cache: true,
    }
}

fn matrix() -> Vec<RunSpec> {
    [AppId::Fft, AppId::OceanNon, AppId::WaterN2]
        .into_iter()
        .flat_map(|app| {
            [MemoryPressure::MP_50, MemoryPressure::MP_87].map(|mp| RunSpec::new(app, 4, mp))
        })
        .collect()
}

fn store_file(ctx: &ExpCtx, name: &str) -> Vec<u8> {
    let path = ctx.out_dir.join("store").join(format!("{name}.cols"));
    std::fs::read(path).expect("store written")
}

/// The tentpole differential: serial vs 4 workers, twice, byte-compared.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let specs = matrix();
    for repeat in 0..2 {
        let serial_ctx = ctx(&format!("serial-{repeat}"), 1);
        let parallel_ctx = ctx(&format!("parallel-{repeat}"), 4);
        let s = run_sweep(&serial_ctx, "det", &specs);
        let p = run_sweep(&parallel_ctx, "det", &specs);
        assert_eq!(s.n_rows(), specs.len());
        assert_eq!(p.n_rows(), specs.len());
        assert_eq!(
            store_file(&serial_ctx, "det"),
            store_file(&parallel_ctx, "det"),
            "repeat {repeat}: columnar store differs between 1 and 4 workers"
        );
    }
}

/// Two repeats of the same parallel sweep are themselves byte-identical
/// (no run-to-run nondeterminism from scheduling order).
#[test]
fn repeated_parallel_sweeps_are_stable() {
    let specs = matrix();
    let a_ctx = ctx("stable-a", 4);
    let b_ctx = ctx("stable-b", 4);
    run_sweep(&a_ctx, "stable", &specs);
    run_sweep(&b_ctx, "stable", &specs);
    assert_eq!(store_file(&a_ctx, "stable"), store_file(&b_ctx, "stable"));
}

/// A panicking cell fails alone: its result columns are masked null in
/// the store while its coordinates stay valid, `Sweep::error` carries the
/// panic message, and every other cell completes — under both serial and
/// parallel scheduling, identically.
#[test]
fn failed_cell_is_isolated_and_deterministic() {
    let mut specs = matrix();
    // A degenerate geometry: `run_simulation` rejects it with a panic.
    specs.insert(
        2,
        RunSpec::new(AppId::Fft, 1, MemoryPressure::MP_50)
            .tweak(|p| p.machine.slc_ws_ratio = u64::MAX),
    );
    let serial_ctx = ctx("fail-serial", 1);
    let parallel_ctx = ctx("fail-parallel", 4);
    let s = run_sweep(&serial_ctx, "fail", &specs);
    let p = run_sweep(&parallel_ctx, "fail", &specs);
    for sweep in [&s, &p] {
        assert_eq!(sweep.failed, 1);
        for row in 0..specs.len() {
            assert_eq!(sweep.ok(row), row != 2, "row {row}");
        }
        assert!(sweep
            .error(2)
            .expect("failure message recorded")
            .contains("invalid simulation configuration"));
        // The store masks the failed row's results, and only that row's.
        let file = sweep.store();
        for &(col, _, _) in COLUMNS {
            assert!(!file.is_valid(col, 2), "{col}");
            assert!(file.is_valid(col, 0), "{col}");
        }
        assert_eq!(file.get_u64("exec_time_ns", 2), None);
        // Its coordinates are valid and decode to its spec.
        assert!(COORDS.iter().all(|&(col, _)| file.is_valid(col, 2)));
        assert_eq!(sweep.app(2), Source::App(AppId::Fft));
        assert_eq!(sweep.procs(2), 16);
        assert_eq!(sweep.ppn(2), 1);
        assert_eq!(sweep.assoc(2), 4);
        assert_eq!(sweep.mp(2), MemoryPressure::MP_50);
        assert_eq!(sweep.model(2), MemoryModel::Coma);
        assert_eq!(sweep.topology(2), Topology::flat());
        assert_eq!(file.get_u64("seed_offset", 2), Some(0));
        let key = spec_key(&serial_ctx, &specs[2]);
        assert_eq!(file.get_u64("key", 2), Some(key));
    }
    assert_eq!(
        store_file(&serial_ctx, "fail"),
        store_file(&parallel_ctx, "fail")
    );
}

/// `run_sweep` names land where external tooling expects them, and the
/// store is the only file a sweep writes there: no sidecar.
#[test]
fn store_paths_follow_the_documented_layout() {
    let c = ctx("layout", 2);
    let specs = vec![RunSpec::new(AppId::WaterN2, 1, MemoryPressure::MP_50)];
    run_sweep(&c, "layout", &specs);
    let files: Vec<_> = std::fs::read_dir(c.out_dir.join("store"))
        .expect("store directory written")
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, ["layout.cols"]);
}
