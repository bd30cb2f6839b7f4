//! The experiments and their shared infrastructure.
//!
//! Every experiment in [`exp`] reproduces one table or figure of the
//! paper, and the binary of the same name runs it. Common knobs come from
//! the environment so `cargo run --release -p coma-experiments --bin fig3`
//! just works:
//!
//! * `COMA_SCALE` — `paper` (default), `bench`, `smoke` or a positive
//!   factor: trace length.
//! * `COMA_SEED` — experiment seed (default 42).
//! * `COMA_OUT` — directory for CSV/store output (default `results/`).
//! * `COMA_THREADS` — sweep worker threads (default: available
//!   parallelism; an invalid value warns and falls back to the default).
//! * `COMA_NO_CACHE` — set non-empty (and not `0`) to bypass the result
//!   cache.
//!
//! An invalid `COMA_SCALE`, `COMA_SEED` or `COMA_THREADS` warns and falls
//! back to the default rather than aborting a sweep.
//!
//! The same knobs are accepted as command-line flags on every binary:
//! `--jobs N` overrides `COMA_THREADS`, `--no-cache` overrides
//! `COMA_NO_CACHE`.
//!
//! Experiment grids run on the sweep scheduler in [`sweep`]: cells are
//! claimed one at a time by `COMA_THREADS` workers, deduplicated through a
//! config-hash result cache under `<out>/cache/`, and persisted once per
//! sweep as a self-describing [`columnar`] store under `<out>/store/`:
//! each row holds its cell's coordinates next to its results.

#![forbid(unsafe_code)]

use coma_sim::{run_simulation, MemoryModel, SimParams};
use coma_stats::{BarChart, SimReport, Table};
use coma_types::{LatencyConfig, MemoryPressure};
use coma_workloads::{AppId, Scale, Workload};
use std::path::PathBuf;

pub mod columnar;
pub mod exp;
pub mod sweep;

pub use sweep::{run_sweep, Sweep};

/// Experiment context (scale, seed, output directory, scheduler knobs).
#[derive(Clone, Debug)]
pub struct ExpCtx {
    pub scale: Scale,
    pub seed: u64,
    pub out_dir: PathBuf,
    /// Sweep worker threads (≥ 1).
    pub threads: usize,
    /// Bypass the persistent result cache.
    pub no_cache: bool,
}

impl ExpCtx {
    /// Build from the environment and the process arguments (see the
    /// module docs for the variables and flags).
    pub fn from_env() -> Self {
        let scale = env_or(
            "COMA_SCALE",
            "paper, bench, smoke or a positive number",
            Scale::PAPER,
            "paper",
        );
        let seed = env_or("COMA_SEED", "an unsigned integer", 42, "42");
        let out_dir = std::env::var("COMA_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        let default_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads = match std::env::var("COMA_THREADS") {
            Err(_) => default_threads,
            Ok(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!(
                        "warning: COMA_THREADS='{s}' is not a positive integer; \
                         falling back to available parallelism ({default_threads})"
                    );
                    default_threads
                }
            },
        };
        let no_cache = std::env::var("COMA_NO_CACHE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        let mut ctx = ExpCtx {
            scale,
            seed,
            out_dir,
            threads,
            no_cache,
        };
        ctx.apply_args(std::env::args().skip(1));
        ctx
    }

    /// Apply `--jobs N` / `--jobs=N` and `--no-cache` from an argument
    /// list; unknown arguments are ignored (the binaries have no other
    /// flags, and cargo's test runner injects its own).
    pub fn apply_args<I: IntoIterator<Item = String>>(&mut self, args: I) {
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if a == "--no-cache" {
                self.no_cache = true;
            } else if let Some(v) = a.strip_prefix("--jobs=") {
                self.set_jobs(v);
            } else if a == "--jobs" {
                if let Some(v) = it.next() {
                    self.set_jobs(&v);
                }
            }
        }
    }

    fn set_jobs(&mut self, v: &str) {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => self.threads = n,
            _ => eprintln!("warning: --jobs '{v}' is not a positive integer; ignored"),
        }
    }

    /// Persist a chart as SVG under the output directory.
    pub fn write_svg(&self, name: &str, chart: &BarChart) {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(format!("{name}.svg"));
        std::fs::write(&path, chart.to_svg()).expect("write SVG");
        println!("[svg] {}", path.display());
    }

    /// Persist a table as CSV under the output directory.
    pub fn write_csv(&self, name: &str, table: &Table) {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv()).expect("write CSV");
        println!("[csv] {}", path.display());
    }
}

/// The value of environment variable `var`, parsed. Unset gives
/// `default`; a value that does not parse warns and gives `default`.
fn env_or<T: std::str::FromStr>(var: &str, expected: &str, default: T, default_name: &str) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("warning: {var}='{s}' is not {expected}; falling back to {default_name}");
            default
        }),
    }
}

/// Where a cell's workload comes from: a catalog application or the §4.2
/// hot-line probe (`exp::thresholds`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    App(AppId),
    HotLine,
}

impl Source {
    /// Every catalog application in code order: [`AppId::ALL`], then
    /// [`AppId::TRAFFIC`]. The hot-line probe's code follows them.
    fn apps() -> impl Iterator<Item = AppId> {
        AppId::ALL.into_iter().chain(AppId::TRAFFIC)
    }

    /// The stable code the store's `app` column holds: 0–15 for the
    /// applications, 16 for the hot-line probe.
    pub fn code(self) -> u64 {
        let code = match self {
            Source::App(app) => Self::apps().position(|a| a == app).expect("catalog app"),
            Source::HotLine => Self::apps().count(),
        };
        code as u64
    }

    /// Inverse of [`Source::code`]; `None` for an unknown code.
    pub fn from_code(code: u64) -> Option<Source> {
        if code == Source::HotLine.code() {
            return Some(Source::HotLine);
        }
        Self::apps()
            .nth(usize::try_from(code).ok()?)
            .map(Source::App)
    }

    /// The workload's name, which the cache key hashes: an application's
    /// Table-1 name, or the hot-line probe's versioned tag (bump its
    /// suffix if the probe's trace ever changes).
    pub fn name(self) -> &'static str {
        match self {
            Source::App(app) => app.name(),
            Source::HotLine => "hotline-v1",
        }
    }

    fn build(self, n_procs: usize, seed: u64, scale: Scale) -> Workload {
        match self {
            Source::App(app) => app.build(n_procs, seed, scale),
            Source::HotLine => exp::thresholds::hot_line_workload(n_procs),
        }
    }
}

/// One simulation point in an experiment grid: a workload source plus the
/// complete machine configuration. Holding the full [`SimParams`] (rather
/// than a hand-picked subset of knobs) means the sweep cache key — a
/// canonical hash over every field — covers ablation and sensitivity
/// variants by construction.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub source: Source,
    pub params: SimParams,
    /// Added to the experiment seed to give this cell's workload seed
    /// (0 unless the grid varies the seed, as `seeds` does).
    pub seed_offset: u64,
}

impl RunSpec {
    pub fn new(app: AppId, ppn: usize, mp: MemoryPressure) -> Self {
        Self::of(Source::App(app), ppn, mp)
    }

    /// A default machine at `ppn` and `mp` running `source`.
    pub fn of(source: Source, ppn: usize, mp: MemoryPressure) -> Self {
        let mut params = SimParams::default();
        params.machine.procs_per_node = ppn;
        params.machine.memory_pressure = mp;
        RunSpec {
            source,
            params,
            seed_offset: 0,
        }
    }

    pub fn with_seed_offset(mut self, offset: u64) -> Self {
        self.seed_offset = offset;
        self
    }

    pub fn with_assoc(mut self, assoc: usize) -> Self {
        self.params.machine.am_assoc = assoc;
        self
    }

    pub fn with_latency(mut self, lat: LatencyConfig) -> Self {
        self.params.latency = lat;
        self
    }

    pub fn with_model(mut self, model: MemoryModel) -> Self {
        self.params.memory_model = model;
        self
    }

    /// Apply an arbitrary parameter tweak (ablation knobs and the like).
    pub fn tweak(mut self, f: impl FnOnce(&mut SimParams)) -> Self {
        f(&mut self.params);
        self
    }

    pub fn procs_per_node(&self) -> usize {
        self.params.machine.procs_per_node
    }

    pub fn memory_pressure(&self) -> MemoryPressure {
        self.params.machine.memory_pressure
    }

    pub fn am_assoc(&self) -> usize {
        self.params.machine.am_assoc
    }

    /// The workload seed this cell runs at.
    pub fn seed(&self, ctx: &ExpCtx) -> u64 {
        ctx.seed.wrapping_add(self.seed_offset)
    }

    /// Execute this point (uncached; the scheduler wraps this).
    pub fn run(&self, ctx: &ExpCtx) -> SimReport {
        let n_procs = self.params.machine.n_procs;
        let wl = self.source.build(n_procs, self.seed(ctx), ctx.scale);
        run_simulation(wl, &self.params)
    }
}

/// The Figure 5 / §4.3 execution-time latency configuration.
pub fn fig5_latency() -> LatencyConfig {
    LatencyConfig::paper_double_dram()
}

/// Mean and coefficient of variation (sample stddev / mean; 0 for a zero
/// mean or a single value) of one metric across a cell's seeds.
pub fn mean_cv(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty());
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
        / n.max(2).saturating_sub(1) as f64;
    let cv = if mean == 0.0 { 0.0 } else { var.sqrt() / mean };
    (mean, cv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx() -> ExpCtx {
        ExpCtx {
            scale: Scale::SMOKE,
            seed: 1,
            out_dir: std::env::temp_dir().join("coma-exp-test"),
            threads: 2,
            no_cache: true,
        }
    }

    /// Running a grid of specs through the sweep scheduler keeps the
    /// specs' order and is deterministic.
    #[test]
    fn run_grid_preserves_order_and_determinism() {
        let ctx = smoke_ctx();
        let specs = vec![
            RunSpec::new(AppId::WaterN2, 1, MemoryPressure::MP_50),
            RunSpec::new(AppId::WaterN2, 4, MemoryPressure::MP_50),
        ];
        let run = || -> Vec<sweep::Row> {
            sweep::run_matrix(&ctx, &specs)
                .cells
                .into_iter()
                .map(Result::unwrap)
                .collect()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
        assert_ne!(a[0].u64("exec_time_ns"), a[1].u64("exec_time_ns"));
    }

    #[test]
    fn csv_written() {
        let ctx = smoke_ctx();
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1"]);
        ctx.write_csv("unit-test", &t);
        let content = std::fs::read_to_string(ctx.out_dir.join("unit-test.csv")).unwrap();
        assert_eq!(content, "a\n1\n");
    }

    /// One metric of `spec` at seed offsets `0..n`, in seed order.
    fn across_offsets(spec: &RunSpec, n: u64, metric: fn(&sweep::Row) -> f64) -> Vec<f64> {
        let specs: Vec<RunSpec> = (0..n).map(|k| spec.clone().with_seed_offset(k)).collect();
        sweep::run_matrix(&smoke_ctx(), &specs)
            .cells
            .into_iter()
            .map(|c| metric(&c.unwrap()))
            .collect()
    }

    #[test]
    fn seed_stats_are_sane() {
        let spec = RunSpec::new(AppId::WaterN2, 2, MemoryPressure::MP_50);
        let values = across_offsets(&spec, 3, |r| r.f64("rnm_rate"));
        assert_eq!(values.len(), 3);
        // Distinct offsets are distinct workloads.
        assert_ne!(values[0], values[1]);
        let (mean, cv) = mean_cv(&values);
        assert!(mean > 0.0 && mean < 1.0);
        // Across-seed noise on the RNMr should be small.
        assert!((0.0..0.5).contains(&cv), "cv = {cv}");
    }

    #[test]
    fn single_seed_stats_degenerate_cleanly() {
        let spec = RunSpec::new(AppId::WaterN2, 1, MemoryPressure::MP_50);
        let values = across_offsets(&spec, 1, |r| r.u64("exec_time_ns") as f64);
        let (mean, cv) = mean_cv(&values);
        assert_eq!(mean, values[0]);
        assert_eq!(cv, 0.0);
        assert_eq!(mean_cv(&[0.0, 0.0]), (0.0, 0.0));
    }

    #[test]
    fn seed_offset_shifts_the_workload_seed_and_key() {
        let ctx = smoke_ctx();
        let spec = RunSpec::new(AppId::Fft, 4, MemoryPressure::MP_81);
        let shifted = spec.clone().with_seed_offset(3);
        let mut reseeded = ctx.clone();
        reseeded.seed = ctx.seed + 3;
        // An offset cell is keyed exactly like the base cell under a
        // context seeded that much higher.
        assert_eq!(
            sweep::spec_key(&ctx, &shifted),
            sweep::spec_key(&reseeded, &spec)
        );
        assert_ne!(
            sweep::spec_key(&ctx, &shifted),
            sweep::spec_key(&ctx, &spec)
        );
    }

    #[test]
    fn env_defaults() {
        let ctx = ExpCtx::from_env();
        assert!(ctx.threads >= 1);
        assert_eq!(ctx.seed, 42);
    }

    #[test]
    fn args_override_threads_and_cache() {
        let mut ctx = smoke_ctx();
        ctx.no_cache = false;
        ctx.apply_args(["--jobs", "7", "--no-cache"].map(String::from));
        assert_eq!(ctx.threads, 7);
        assert!(ctx.no_cache);
        ctx.apply_args(["--jobs=3"].map(String::from));
        assert_eq!(ctx.threads, 3);
        // Invalid values are ignored with a warning, not fatal.
        ctx.apply_args(["--jobs", "zero?"].map(String::from));
        assert_eq!(ctx.threads, 3);
    }

    /// The store's `app` and `model` codes are stable and decode back.
    #[test]
    fn source_and_model_codes_round_trip() {
        for code in 0..=16 {
            assert_eq!(Source::from_code(code).map(Source::code), Some(code));
        }
        assert_eq!(Source::App(AppId::Barnes).code(), 0);
        assert_eq!(Source::App(AppId::GraphBfs).code(), 15);
        assert_eq!(Source::from_code(16), Some(Source::HotLine));
        assert_eq!(Source::from_code(17), None);
        for (code, model) in [MemoryModel::Coma, MemoryModel::Numa, MemoryModel::Uma]
            .into_iter()
            .enumerate()
        {
            assert_eq!(sweep::model_code(model), code as u64);
            assert_eq!(sweep::model_from_code(code as u64), Some(model));
        }
        assert_eq!(sweep::model_from_code(3), None);
    }

    #[test]
    fn tweak_reaches_every_knob() {
        let spec = RunSpec::new(AppId::Fft, 4, MemoryPressure::MP_87)
            .with_assoc(8)
            .tweak(|p| p.machine.inclusive_hierarchy = false);
        assert_eq!(spec.procs_per_node(), 4);
        assert_eq!(spec.am_assoc(), 8);
        assert!(!spec.params.machine.inclusive_hierarchy);
    }
}
