//! The sweep engine: scheduler, result cache, columnar store.
//!
//! The paper's full experiment matrix is hundreds of *independent*
//! simulations. This module turns a `&[RunSpec]` into results three
//! layers deep:
//!
//! 1. **Scheduler** — `run_pool` runs cells on `ctx.threads` workers
//!    that each claim the next unrun cell index from one shared counter,
//!    so a handful of slow cells (the 87.5 %-MP runs are several times
//!    costlier than the 6.25 % ones) cannot strand the other workers:
//!    each holds up only the worker running it. Each cell runs under
//!    `catch_unwind`, so one diverging simulation fails that cell — not
//!    the sweep.
//! 2. **Result cache** — every cell is keyed by a canonical 64-bit hash
//!    (`coma_sim::canon`) over the full `SimParams`, the workload's name,
//!    the cell's workload seed and the scale, plus [`CODE_SALT`]. An entry's
//!    payload is the cell's [`Row`]: its word in every [`COLUMNS`] entry,
//!    exactly what the store writes for it. Entries persist under
//!    `<out>/cache/` with a version stamp and payload checksum; a stale
//!    or corrupt entry, or a payload that is not exactly one row, is
//!    detected and recomputed, never served.
//! 3. **Columnar store** — [`run_sweep`] writes one
//!    [`crate::columnar`] file per sweep under `<out>/store/`: one column
//!    per [`COORDS`] entry (the cell's coordinates), then one per
//!    [`COLUMNS`] entry (its results). It hands the experiment a
//!    [`Sweep`] whose accessors read both *from the store*, so every
//!    figure is derived from the same bytes external tooling sees.
//!
//! Results are always returned in matrix order regardless of which worker
//! computed a cell, and the simulations themselves are single-threaded
//! and deterministic — so a parallel sweep is byte-identical to a serial
//! one (pinned by `tests/sweep_determinism.rs`).

use crate::columnar::ColType::{self, F64, U64};
use crate::columnar::{ColBuilder, ColFile};
use crate::{ExpCtx, RunSpec, Source};
pub use coma_sim::canon::model_code;
use coma_sim::canon::{config_hash, fnv1a_bytes, fnv1a_u64, FNV_OFFSET};
use coma_sim::MemoryModel;
use coma_stats::SimReport;
use coma_types::{MemoryPressure, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Code-version salt folded into every cache key. Bump this whenever a
/// change anywhere in the simulator alters what any configuration
/// produces — old entries then miss (stale keys) instead of being served.
pub const CODE_SALT: u64 = 2;

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// Run `f(0..n)` on up to `threads` workers and return the results in
/// index order. The workers share one next-index counter: each takes the
/// next unclaimed cell until none is left, so a slow cell holds up only
/// its own worker. No cell produces further work, so a worker that finds
/// the counter past `n` is done. With `threads <= 1` the pool degenerates
/// to a serial loop on the calling thread.
fn run_pool<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().unwrap() = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("cell executed"))
        .collect()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked (non-string payload)".to_string()
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

const CACHE_MAGIC: [u8; 8] = *b"COMACEL1";
/// Cache *entry format* version; distinct from [`CODE_SALT`], which
/// versions the simulator's semantics.
const CACHE_VERSION: u32 = 2;

/// The cache key of one sweep cell: code salt, workload name
/// ([`Source::name`]), the cell's workload seed ([`RunSpec::seed`]) and
/// scale, and the canonical hash of the complete `SimParams`.
pub fn spec_key(ctx: &ExpCtx, spec: &RunSpec) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_u64(h, CODE_SALT);
    h = fnv1a_bytes(h, spec.source.name().as_bytes());
    h = fnv1a_u64(h, spec.seed(ctx));
    h = fnv1a_u64(h, ctx.scale.0.to_bits());
    fnv1a_u64(h, config_hash(&spec.params))
}

struct Cache {
    dir: PathBuf,
}

impl Cache {
    fn for_ctx(ctx: &ExpCtx) -> Option<Cache> {
        if ctx.no_cache {
            None
        } else {
            Some(Cache {
                dir: ctx.out_dir.join("cache"),
            })
        }
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cell"))
    }

    /// Load a cached row; `None` on a miss *or* on any stale/corrupt
    /// entry (bad magic, wrong entry version, key mismatch, truncation,
    /// checksum mismatch, a payload that is not exactly one row).
    fn load(&self, key: u64) -> Option<Row> {
        let bytes = std::fs::read(self.path(key)).ok()?;
        if bytes.len() < 32 || bytes[..8] != CACHE_MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != CACHE_VERSION {
            return None;
        }
        let stored_key = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        if stored_key != key {
            return None;
        }
        // The length word is untrusted: a huge value must not wrap the sum.
        let payload_len = usize::try_from(u64::from_le_bytes(bytes[24..32].try_into().unwrap()))
            .ok()
            .filter(|len| len.checked_add(40) == Some(bytes.len()))?;
        let payload = &bytes[32..32 + payload_len];
        let checksum = u64::from_le_bytes(bytes[32 + payload_len..].try_into().unwrap());
        if fnv1a_bytes(FNV_OFFSET, payload) != checksum {
            return None;
        }
        Row::from_bytes(payload)
    }

    /// Persist a row. Best-effort: a full disk or permission error
    /// costs the cache hit, never the sweep. Writes go through a per-key
    /// temp file and a rename, so readers only ever see complete entries.
    fn store(&self, key: u64, row: &Row) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let payload = row.to_bytes();
        let mut bytes = Vec::with_capacity(40 + payload.len());
        bytes.extend_from_slice(&CACHE_MAGIC);
        bytes.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let checksum = fnv1a_bytes(FNV_OFFSET, &payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let tmp = self
            .dir
            .join(format!("{key:016x}.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, &bytes).is_ok() {
            let _ = std::fs::rename(&tmp, self.path(key));
        }
    }
}

#[derive(Default)]
struct SweepCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    failed: AtomicUsize,
}

/// Every sweep `report_sweep_stats` has reported in this process.
static PROCESS_TOTALS: SweepCounters = SweepCounters {
    hits: AtomicUsize::new(0),
    misses: AtomicUsize::new(0),
    failed: AtomicUsize::new(0),
};

/// `(hits, misses, failed)` summed over every sweep reported so far in
/// this process (what `--bin all` prints at the end).
pub fn process_totals() -> (usize, usize, usize) {
    let t = &PROCESS_TOTALS;
    let get = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    (get(&t.hits), get(&t.misses), get(&t.failed))
}

/// Serve one cell from the cache if it holds a valid entry, otherwise
/// compute it (with panic isolation) and persist it.
fn run_cell(
    ctx: &ExpCtx,
    spec: &RunSpec,
    cache: Option<&Cache>,
    counters: &SweepCounters,
) -> Result<Row, String> {
    let key = spec_key(ctx, spec);
    if let Some(c) = cache {
        if let Some(row) = c.load(key) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(row);
        }
    }
    match catch_unwind(AssertUnwindSafe(|| Row::of(&spec.run(ctx)))) {
        Ok(row) => {
            counters.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = cache {
                c.store(key, &row);
            }
            Ok(row)
        }
        Err(payload) => {
            counters.failed.fetch_add(1, Ordering::Relaxed);
            Err(panic_message(payload))
        }
    }
}

/// The raw outcome of scheduling a matrix: per-cell results in matrix
/// order plus cache accounting.
pub struct SweepOutcome {
    pub cells: Vec<Result<Row, String>>,
    pub hits: usize,
    pub misses: usize,
    pub failed: usize,
}

/// Schedule every spec across the worker pool, consulting the
/// result cache per cell. No files other than cache entries are written;
/// [`run_sweep`] layers the columnar store on top.
pub fn run_matrix(ctx: &ExpCtx, specs: &[RunSpec]) -> SweepOutcome {
    let cache = Cache::for_ctx(ctx);
    let counters = SweepCounters::default();
    let cells = run_pool(ctx.threads, specs.len(), |i| {
        run_cell(ctx, &specs[i], cache.as_ref(), &counters)
    });
    SweepOutcome {
        cells,
        hits: counters.hits.into_inner(),
        misses: counters.misses.into_inner(),
        failed: counters.failed.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// The store schema: coordinate columns, then result columns (cell rows)
// ---------------------------------------------------------------------------

/// Every column a cell's result holds, with its type and its extractor
/// from the report. This one table defines the cache payload and the
/// store's result columns; an `f64` column holds the value's bit
/// pattern, so every value is one exact `u64` word.
type Extract = fn(&SimReport) -> u64;
pub const COLUMNS: &[(&str, ColType, Extract)] = &[
    ("exec_time_ns", U64, |r| r.exec_time_ns),
    ("total_reads", U64, |r| r.counts.total_reads()),
    ("total_writes", U64, |r| r.counts.total_writes()),
    ("read_node_misses", U64, |r| r.counts.read_node_misses()),
    ("read_bytes", U64, |r| r.traffic.read_bytes),
    ("write_bytes", U64, |r| r.traffic.write_bytes),
    ("replace_bytes", U64, |r| r.traffic.replace_bytes),
    ("total_bytes", U64, |r| r.traffic.total_bytes()),
    ("read_txns", U64, |r| r.traffic.read_txns),
    ("write_txns", U64, |r| r.traffic.write_txns),
    ("replace_txns", U64, |r| r.traffic.replace_txns),
    ("total_txns", U64, |r| r.traffic.total_txns()),
    ("pageouts", U64, |r| r.traffic.pageouts),
    ("busy_ns", U64, |r| r.avg_breakdown().busy_ns),
    ("slc_ns", U64, |r| r.avg_breakdown().slc_ns),
    ("am_ns", U64, |r| r.avg_breakdown().am_ns),
    ("remote_ns", U64, |r| r.avg_breakdown().remote_ns),
    ("sync_ns", U64, |r| r.avg_breakdown().sync_ns),
    ("injections", U64, |r| r.injections),
    ("ownership_migrations", U64, |r| r.ownership_migrations),
    ("shared_drops", U64, |r| r.shared_drops),
    ("cold_allocs", U64, |r| r.cold_allocs),
    ("bus_busy_ns", U64, |r| r.bus_busy_ns),
    ("dram_busy_ns", U64, |r| r.dram_busy_ns),
    ("rnm_rate", F64, |r| r.rnm_rate().to_bits()),
];

/// Every coordinate column a sweep store holds ahead of its [`COLUMNS`],
/// with its extractor from the cell's spec. All are `u64`, and they are
/// valid in every row, a failed cell's included. `app` is
/// [`Source::code`], `model` is [`model_code`], `key` is [`spec_key`];
/// `groups` and `levels` are the topology's fields.
type Coord = fn(&ExpCtx, &RunSpec) -> u64;
pub const COORDS: &[(&str, Coord)] = &[
    ("app", |_, s| s.source.code()),
    ("procs", |_, s| s.params.machine.n_procs as u64),
    ("ppn", |_, s| s.procs_per_node() as u64),
    ("groups", |_, s| s.params.machine.topology.n_groups as u64),
    ("levels", |_, s| s.params.machine.topology.levels as u64),
    ("mp_num", |_, s| s.memory_pressure().num.into()),
    ("mp_den", |_, s| s.memory_pressure().den.into()),
    ("assoc", |_, s| s.am_assoc() as u64),
    ("model", |_, s| model_code(s.params.memory_model)),
    ("seed_offset", |_, s| s.seed_offset),
    ("key", spec_key),
];

/// Inverse of [`model_code`]; `None` for an unknown code.
pub fn model_from_code(code: u64) -> Option<MemoryModel> {
    [MemoryModel::Coma, MemoryModel::Numa, MemoryModel::Uma]
        .into_iter()
        .find(|&m| model_code(m) == code)
}

/// One cell's result: its word in every [`COLUMNS`] entry, in order.
/// This is what the cache holds and what the store writes as a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row([u64; COLUMNS.len()]);

impl Row {
    /// The row of `report`: every column's extractor applied to it.
    fn of(report: &SimReport) -> Row {
        Row(std::array::from_fn(|i| (COLUMNS[i].2)(report)))
    }

    fn word(&self, col: &str, ty: ColType) -> u64 {
        let i = COLUMNS
            .iter()
            .position(|c| c.0 == col)
            .unwrap_or_else(|| panic!("no column '{col}'"));
        assert_eq!(COLUMNS[i].1, ty, "column '{col}' is not {ty:?}");
        self.0[i]
    }

    /// A `u64` column's value; panics on an unknown or `f64` column.
    pub fn u64(&self, col: &str) -> u64 {
        self.word(col, U64)
    }

    /// An `f64` column's value; panics on an unknown or `u64` column.
    pub fn f64(&self, col: &str) -> f64 {
        f64::from_bits(self.word(col, F64))
    }

    fn to_bytes(self) -> Vec<u8> {
        self.0.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Inverse of `to_bytes`; `None` unless `bytes` is exactly one row.
    fn from_bytes(bytes: &[u8]) -> Option<Row> {
        if bytes.len() != 8 * COLUMNS.len() {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        Some(Row(std::array::from_fn(word)))
    }
}

// ---------------------------------------------------------------------------
// Columnar store
// ---------------------------------------------------------------------------

fn build_columns(ctx: &ExpCtx, specs: &[RunSpec], cells: &[Result<Row, String>]) -> ColBuilder {
    let mut b = ColBuilder::new(cells.len());
    for &(name, coord) in COORDS {
        b.col_u64(name, specs.iter().map(|s| Some(coord(ctx, s))).collect());
    }
    for (i, &(name, ty, _)) in COLUMNS.iter().enumerate() {
        let vals = cells.iter().map(|c| c.as_ref().ok().map(|r| r.0[i]));
        b.push(name, ty, vals.collect());
    }
    b
}

/// Print one sweep's cache accounting and add it to [`process_totals`].
fn report_sweep_stats(ctx: &ExpCtx, name: &str, hits: usize, misses: usize, failed: usize) {
    let failed_txt = if failed > 0 {
        format!(", {failed} FAILED")
    } else {
        String::new()
    };
    println!(
        "[sweep:{name}] {} cells on {} thread(s): {hits} cache hits, {misses} misses{failed_txt}",
        hits + misses + failed,
        ctx.threads
    );
    let t = &PROCESS_TOTALS;
    t.hits.fetch_add(hits, Ordering::Relaxed);
    t.misses.fetch_add(misses, Ordering::Relaxed);
    t.failed.fetch_add(failed, Ordering::Relaxed);
}

/// A completed sweep: the persisted columnar store, reopened from its own
/// serialized bytes so every read — coordinates and metrics alike — goes
/// through the on-disk format.
pub struct Sweep {
    file: ColFile,
    errors: Vec<Option<String>>,
    pub hits: usize,
    pub misses: usize,
    pub failed: usize,
}

impl Sweep {
    pub fn n_rows(&self) -> usize {
        self.file.n_rows()
    }

    /// Did this cell complete?
    pub fn ok(&self, row: usize) -> bool {
        self.errors[row].is_none()
    }

    /// The failure message of a failed cell.
    pub fn error(&self, row: usize) -> Option<&str> {
        self.errors[row].as_deref()
    }

    /// A coordinate column's value (valid in every row).
    fn coord(&self, col: &str, row: usize) -> u64 {
        self.file
            .get_u64(col, row)
            .unwrap_or_else(|| panic!("row {row} of coordinate '{col}' is null"))
    }

    /// The cell's workload source.
    pub fn app(&self, row: usize) -> Source {
        let code = self.coord("app", row);
        Source::from_code(code).unwrap_or_else(|| panic!("row {row}: unknown app code {code}"))
    }

    pub fn procs(&self, row: usize) -> usize {
        self.coord("procs", row) as usize
    }

    pub fn ppn(&self, row: usize) -> usize {
        self.coord("ppn", row) as usize
    }

    pub fn assoc(&self, row: usize) -> usize {
        self.coord("assoc", row) as usize
    }

    pub fn mp(&self, row: usize) -> MemoryPressure {
        MemoryPressure {
            num: self.coord("mp_num", row) as u32,
            den: self.coord("mp_den", row) as u32,
        }
    }

    pub fn model(&self, row: usize) -> MemoryModel {
        let code = self.coord("model", row);
        model_from_code(code).unwrap_or_else(|| panic!("row {row}: unknown model code {code}"))
    }

    pub fn topology(&self, row: usize) -> Topology {
        Topology {
            n_groups: self.coord("groups", row) as usize,
            levels: self.coord("levels", row) as usize,
        }
    }

    fn null_cell(&self, col: &str, row: usize) -> ! {
        panic!(
            "row {row} ({}) of column '{col}' is null: {}",
            self.app(row).name(),
            self.errors[row].as_deref().unwrap_or("cell failed")
        )
    }

    /// A `u64` metric; panics if the cell failed (experiments treat a
    /// failed cell in their matrix as fatal — the figure would be wrong).
    pub fn u64(&self, col: &str, row: usize) -> u64 {
        self.file
            .get_u64(col, row)
            .unwrap_or_else(|| self.null_cell(col, row))
    }

    /// An `f64` metric; panics if the cell failed.
    pub fn f64(&self, col: &str, row: usize) -> f64 {
        self.file
            .get_f64(col, row)
            .unwrap_or_else(|| self.null_cell(col, row))
    }

    /// The underlying columnar file, for raw/batch access.
    pub fn store(&self) -> &ColFile {
        &self.file
    }
}

/// Run a named sweep end to end: schedule the matrix (worker pool +
/// cache), persist the columnar store as `<out>/store/<name>.cols`,
/// report cache accounting and every failed cell, and return a [`Sweep`]
/// that reads coordinates and metrics back out of the store bytes.
pub fn run_sweep(ctx: &ExpCtx, name: &str, specs: &[RunSpec]) -> Sweep {
    let outcome = run_matrix(ctx, specs);
    let builder = build_columns(ctx, specs, &outcome.cells);

    let store_dir = ctx.out_dir.join("store");
    std::fs::create_dir_all(&store_dir).expect("create store directory");
    let path = store_dir.join(format!("{name}.cols"));
    builder.write(&path).expect("write columnar store");
    println!("[store] {}", path.display());
    report_sweep_stats(ctx, name, outcome.hits, outcome.misses, outcome.failed);
    for (row, cell) in outcome.cells.iter().enumerate() {
        if let Err(e) = cell {
            let app = specs[row].source.name();
            eprintln!("[sweep:{name}] row {row} ({app}) failed: {e}");
        }
    }

    let file = ColFile::from_bytes(builder.to_bytes()).expect("round-trip the freshly built store");
    Sweep {
        file,
        errors: outcome.cells.into_iter().map(|c| c.err()).collect(),
        hits: outcome.hits,
        misses: outcome.misses,
        failed: outcome.failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Every committed sweep store under `results/store`, with its name.
    fn committed_stores() -> Vec<(String, ColFile)> {
        let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/store");
        let mut stores = Vec::new();
        for entry in std::fs::read_dir(&store).expect("read results/store") {
            let path = entry.unwrap().path();
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            // table1 is the application catalog, not a sweep.
            if path.extension().is_none_or(|e| e != "cols") || name == "table1" {
                continue;
            }
            let file = ColFile::open(&path).expect(&name);
            stores.push((name, file));
        }
        stores
    }

    /// Every committed sweep store opens in the current format and holds
    /// every coordinate and result column; its coordinates are valid in
    /// every row and its `app` and `model` codes decode.
    #[test]
    fn committed_stores_carry_their_coordinates() {
        let mut checked = Vec::new();
        for (name, file) in committed_stores() {
            assert!(file.n_rows() > 0, "{name}");
            for &(col, _) in COORDS {
                assert_eq!(file.col_type(col), Some(U64), "{name}: '{col}'");
                assert!(
                    (0..file.n_rows()).all(|row| file.is_valid(col, row)),
                    "{name}: '{col}' has a null row"
                );
            }
            for &(col, ty, _) in COLUMNS {
                assert_eq!(file.col_type(col), Some(ty), "{name}: '{col}'");
            }
            for row in 0..file.n_rows() {
                let app = file.get_u64("app", row).unwrap();
                let model = file.get_u64("model", row).unwrap();
                assert!(Source::from_code(app).is_some(), "{name}: row {row}");
                assert!(model_from_code(model).is_some(), "{name}: row {row}");
            }
            checked.push(name);
        }
        assert!(checked.iter().any(|n| n == "thresholds"), "{checked:?}");
    }

    /// Reads and writes depend only on the workload: in every committed
    /// store, the valid rows that run the same `(app, procs, seed_offset)`
    /// agree on `total_reads` and `total_writes`, whatever the machine,
    /// memory model or pressure.
    #[test]
    fn committed_stores_keep_reads_and_writes_per_workload() {
        let mut rows = 0;
        for (name, file) in committed_stores() {
            let mut first = std::collections::HashMap::new();
            for row in 0..file.n_rows() {
                let counts = (
                    file.get_u64("total_reads", row),
                    file.get_u64("total_writes", row),
                );
                let (Some(reads), Some(writes)) = counts else {
                    continue;
                };
                let coord = |col| file.get_u64(col, row).unwrap();
                let workload = (coord("app"), coord("procs"), coord("seed_offset"));
                let (r0, w0, row0) = *first.entry(workload).or_insert((reads, writes, row));
                assert_eq!(
                    (reads, writes),
                    (r0, w0),
                    "{name}: row {row} runs row {row0}'s workload but reads/writes differ"
                );
                rows += 1;
            }
        }
        assert!(rows > 0);
    }
}
