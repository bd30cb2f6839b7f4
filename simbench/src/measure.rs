//! The timing method: repetitions interleaved round-robin across a
//! workload's cells, keeping each cell's fastest repetition; and the
//! end-to-end run built on it ([`run_untraced`]).
//!
//! Host speed on a shared machine drifts between slow and fast phases
//! lasting seconds, so a single pass, a mean or a within-run median
//! inherits whichever phase the run happened to land in. The fastest of
//! many repetitions estimates the undisturbed cost; interleaving the
//! cells gives every cell a chance at every fast phase of the run
//! (NOTES.md).

use crate::cells::{Cell, Oracle, WorkloadDef};
use coma_sim::Simulation;
use coma_stats::SimReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The smallest of a series of timings, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fastest(Option<f64>);

impl Fastest {
    pub fn add(&mut self, secs: f64) {
        if secs.is_finite() && self.0.is_none_or(|best| secs < best) {
            self.0 = Some(secs);
        }
    }

    pub fn get(self) -> Option<f64> {
        self.0
    }
}

/// Sum of each cell's fastest time, or `None` if some cell never
/// produced a valid repetition.
pub fn sum_fastest(per_cell: &[Fastest]) -> Option<f64> {
    per_cell.iter().map(|f| f.get()).sum()
}

/// Run `round` over and over until `budget` has elapsed (at least once),
/// returning the number of rounds.
pub fn rounds_for(budget: Duration, mut round: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        round();
        n += 1;
        if start.elapsed() >= budget {
            return n;
        }
    }
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// One repetition's timings.
pub struct Rep {
    /// `AppId::build` + `Simulation::new`.
    pub setup_s: f64,
    /// `Simulation::new` alone.
    pub new_s: f64,
    /// `Simulation::run`.
    pub run_s: f64,
    pub report: SimReport,
}

/// Build, assemble and run one cell through the public API, timing each
/// step.
pub fn run_cell(cell: &Cell, seed: u64) -> Result<Rep, String> {
    let params = cell.params();
    let t0 = Instant::now();
    let workload = cell.build(seed);
    let t1 = Instant::now();
    let sim = Simulation::new(workload, &params).map_err(|e| format!("config: {e}"))?;
    let t2 = Instant::now();
    let report = sim.run();
    let t3 = Instant::now();
    Ok(Rep {
        setup_s: (t2 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        report,
    })
}

/// Fastest timings of one cell across a run, plus its reference report.
#[derive(Default)]
pub struct CellTimes {
    pub setup: Fastest,
    pub new: Fastest,
    pub run: Fastest,
    /// The first correct report (the cell's simulated results).
    pub report: Option<SimReport>,
    /// Reads plus writes of the first completed repetition.
    pub accesses: Option<u64>,
}

/// Tally of operations attempted and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; report and count its failure, if any.
    pub fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("simbench: {what}: {e}");
        })
        .ok()
    }
}

/// One checked, timed repetition of `cell`, folded into `times`. A
/// repetition that completes counts towards the timings even when its
/// report is wrong, so a broken simulator still prints its speed next to
/// `"correct": false`.
pub fn untraced_rep(
    cell: &Cell,
    seed: u64,
    oracle: &mut Oracle,
    times: &mut CellTimes,
    tally: &mut Tally,
) {
    let checked = guarded(|| run_cell(cell, seed)).and_then(|rep| {
        times.setup.add(rep.setup_s);
        times.new.add(rep.new_s);
        times.run.add(rep.run_s);
        times.accesses.get_or_insert(accesses(&rep.report));
        oracle.check(&rep.report)?;
        times.report.get_or_insert(rep.report);
        Ok(())
    });
    tally.record(cell.name, checked);
}

/// What one benchmark run measured.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn accesses(r: &SimReport) -> u64 {
    r.counts.total_reads() + r.counts.total_writes()
}

pub fn missing(what: &str) -> String {
    format!("no valid repetition of some cell for {what}")
}

/// The end-to-end run: every cell, round-robin, fastest repetition kept.
pub fn run_untraced(def: &WorkloadDef, seed: u64, budget: Duration) -> Result<RunResult, String> {
    let cells = def.cells;
    let mut oracles: Vec<Oracle> = cells.iter().map(|c| Oracle::new(c, seed)).collect();
    let mut times: Vec<CellTimes> = cells.iter().map(|_| CellTimes::default()).collect();
    let mut tally = Tally::default();
    let rounds = rounds_for(budget, || {
        for (i, c) in cells.iter().enumerate() {
            untraced_rep(c, seed, &mut oracles[i], &mut times[i], &mut tally);
        }
    });
    let run: Vec<Fastest> = times.iter().map(|t| t.run).collect();
    let setup: Vec<Fastest> = times.iter().map(|t| t.setup).collect();
    let run_s = sum_fastest(&run).ok_or_else(|| missing("run"))?;
    let setup_s = sum_fastest(&setup).ok_or_else(|| missing("setup"))?;
    let mut total = 0;
    for (c, t) in cells.iter().zip(&times) {
        let n = t.accesses.unwrap_or(0);
        total += n;
        eprintln!(
            "simbench: {:<24} {:>8} accesses  run {:>8.3} ms  setup {:>7.3} ms",
            c.name,
            n,
            t.run.get().unwrap_or(f64::NAN) * 1e3,
            t.setup.get().unwrap_or(f64::NAN) * 1e3,
        );
    }
    eprintln!("simbench: {} rounds", rounds);
    Ok(RunResult {
        tally,
        metrics: vec![
            ("accesses_per_s", total as f64 / run_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb()?),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_minimum() {
        let mut f = Fastest::default();
        assert_eq!(f.get(), None);
        for s in [0.30, 0.12, 0.50, 0.12, 0.20] {
            f.add(s);
        }
        assert_eq!(f.get(), Some(0.12));
    }

    #[test]
    fn fastest_ignores_non_finite_samples() {
        let mut f = Fastest::default();
        f.add(f64::NAN);
        assert_eq!(f.get(), None);
        f.add(0.4);
        f.add(f64::NAN);
        f.add(f64::INFINITY);
        assert_eq!(f.get(), Some(0.4));
    }

    #[test]
    fn sum_fastest_needs_every_cell() {
        let mut a = Fastest::default();
        let mut b = Fastest::default();
        a.add(1.0);
        assert_eq!(sum_fastest(&[a, b]), None);
        b.add(2.0);
        b.add(0.5);
        assert_eq!(sum_fastest(&[a, b]), Some(1.5));
    }

    #[test]
    fn rounds_run_at_least_once() {
        let mut calls = 0;
        assert_eq!(rounds_for(Duration::ZERO, || calls += 1), 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn guarded_turns_panics_into_errors() {
        let r: Result<(), String> = guarded(|| panic!("boom"));
        assert_eq!(r, Err("panicked: boom".into()));
        let mut t = Tally::default();
        assert_eq!(t.record("x", Ok::<_, String>(3)), Some(3));
        assert_eq!(t.record::<()>("x", Err("bad".into())), None);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
