//! `COMA_THREADS` handling: the knob must actually reach the scheduler
//! (it was historically parsed but easy to leave dead when the pool is
//! rewritten), an invalid value must fall back to available parallelism
//! with a warning rather than abort, and thread count must never change
//! results. `COMA_SCALE` and `COMA_SEED` fall back the same way.
//!
//! Environment mutation is process-global, so every test here serializes
//! on one mutex and restores the prior state before releasing it.

use coma_experiments::sweep::run_matrix;
use coma_experiments::{ExpCtx, RunSpec};
use coma_types::MemoryPressure;
use coma_workloads::{AppId, Scale};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with `var` set to `val` (or unset for `None`), restoring the
/// previous value afterwards.
fn with_env<T>(var: &str, val: Option<&str>, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap();
    let prior = std::env::var(var).ok();
    match val {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    let out = f();
    match prior {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    out
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[test]
fn threads_env_is_honored() {
    assert_eq!(
        with_env("COMA_THREADS", Some("1"), || ExpCtx::from_env().threads),
        1
    );
    assert_eq!(
        with_env("COMA_THREADS", Some("4"), || ExpCtx::from_env().threads),
        4
    );
}

#[test]
fn invalid_threads_value_falls_back_to_available_parallelism() {
    for bad in ["zap", "0", "-3", "1.5", ""] {
        assert_eq!(
            with_env("COMA_THREADS", Some(bad), || ExpCtx::from_env().threads),
            default_threads(),
            "COMA_THREADS='{bad}' must fall back"
        );
    }
    assert_eq!(
        with_env("COMA_THREADS", None, || ExpCtx::from_env().threads),
        default_threads()
    );
}

#[test]
fn invalid_scale_and_seed_fall_back_to_defaults() {
    for bad in ["nan", "inf", "-1", "0", "smok", ""] {
        assert_eq!(
            with_env("COMA_SCALE", Some(bad), || ExpCtx::from_env().scale),
            Scale::PAPER,
            "COMA_SCALE='{bad}' must fall back"
        );
    }
    assert_eq!(
        with_env("COMA_SCALE", Some("0.5"), || ExpCtx::from_env().scale),
        Scale(0.5)
    );
    for bad in ["x", "-1", "4.2"] {
        assert_eq!(
            with_env("COMA_SEED", Some(bad), || ExpCtx::from_env().seed),
            42
        );
    }
}

/// The knob is live end to end: a grid scheduled at COMA_THREADS=1 and at
/// =4 produces identical rows (and both actually complete — a dead or
/// deadlocked pool would hang or panic here).
#[test]
fn thread_count_does_not_change_results() {
    let specs: Vec<RunSpec> = [AppId::WaterN2, AppId::Fft]
        .into_iter()
        .flat_map(|app| [1usize, 4].map(|ppn| RunSpec::new(app, ppn, MemoryPressure::MP_50)))
        .collect();
    let run_at = |threads: usize| {
        let ctx = ExpCtx {
            scale: Scale::SMOKE,
            seed: 42,
            out_dir: std::env::temp_dir().join("coma-threads-env"),
            threads,
            no_cache: true,
        };
        run_matrix(&ctx, &specs)
            .cells
            .into_iter()
            .map(Result::unwrap)
            .collect::<Vec<_>>()
    };
    let serial = run_at(1);
    assert_eq!(serial, run_at(4));
    // More workers than cells: the pool must clamp, not spin.
    assert_eq!(serial, run_at(64));
}
