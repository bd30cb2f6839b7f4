//! Run every experiment in sequence (Table 1, Figures 2–5, sensitivity,
//! thresholds, ablations, traffic, seed robustness) by invoking the
//! sibling binaries.
//!
//! The siblings are looked up next to this executable, so they exist iff
//! the whole package was built (`cargo build --release -p
//! coma-experiments` or `cargo run ... --bin all`, which builds every
//! bin). A missing sibling aborts up front with the build command rather
//! than an opaque I/O panic halfway through the sweep.
//!
//! The experiment knobs — `COMA_SCALE`, `COMA_SEED`, `COMA_OUT`,
//! `COMA_THREADS`, `COMA_NO_CACHE` — are forwarded to each child
//! explicitly, so the whole sweep runs under one configuration even if
//! the environment changes mid-run or a child is spawned through a
//! wrapper that scrubs its environment. `--jobs N` and `--no-cache` are
//! accepted and forwarded as the corresponding variables.
//!
//! After the run, the per-sweep cache statistics the children appended to
//! `<out>/cache/stats.log` are summed and printed, so a warm rerun shows
//! its hit rate at a glance.

use std::process::{Command, ExitCode};
use std::time::Instant;

const BINS: [&str; 12] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "sensitivity",
    "thresholds",
    "coma_vs_numa",
    "inclusion",
    "ablation",
    "traffic",
    "seeds",
];

/// The knobs every experiment binary reads (see `coma_experiments` docs).
const ENV_KNOBS: [&str; 5] = [
    "COMA_SCALE",
    "COMA_SEED",
    "COMA_OUT",
    "COMA_THREADS",
    "COMA_NO_CACHE",
];

/// Sum the `<name> <hits> <misses> <failed>` lines of a stats log.
fn tally_stats(text: &str) -> (u64, u64, u64) {
    let (mut hits, mut misses, mut failed) = (0, 0, 0);
    for line in text.lines() {
        let mut f = line.split_whitespace().skip(1);
        hits += f.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        misses += f.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        failed += f.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    }
    (hits, misses, failed)
}

fn main() -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let ext = std::env::consts::EXE_SUFFIX;

    // Verify every sibling exists before running any: failing on the
    // ninth binary after an hour of sweeps is the worst outcome.
    let missing: Vec<&str> = BINS
        .iter()
        .copied()
        .filter(|bin| !dir.join(format!("{bin}{ext}")).is_file())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "error: experiment binaries not built: {}\n\
             build them all first:\n    cargo build --release -p coma-experiments",
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let mut knobs: Vec<(&str, String)> = ENV_KNOBS
        .iter()
        .filter_map(|k| std::env::var(*k).ok().map(|v| (*k, v)))
        .collect();
    // Translate our own flags into the forwarded environment.
    let mut args = std::env::args().skip(1).peekable();
    let set = |knobs: &mut Vec<(&str, String)>, key: &'static str, val: String| {
        knobs.retain(|(k, _)| *k != key);
        knobs.push((key, val));
    };
    while let Some(a) = args.next() {
        if a == "--no-cache" {
            set(&mut knobs, "COMA_NO_CACHE", "1".to_string());
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            set(&mut knobs, "COMA_THREADS", v.to_string());
        } else if a == "--jobs" {
            if let Some(v) = args.next() {
                set(&mut knobs, "COMA_THREADS", v);
            }
        }
    }
    if !knobs.is_empty() {
        let desc: Vec<String> = knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("[all] forwarding {}", desc.join(" "));
    }

    // The children append their cache statistics to this log; remember
    // how long it already is so only this run's lines are summed.
    let out_dir = knobs
        .iter()
        .find(|(k, _)| *k == "COMA_OUT")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| "results".to_string());
    let stats_log = std::path::Path::new(&out_dir)
        .join("cache")
        .join("stats.log");
    let log_start = std::fs::metadata(&stats_log).map(|m| m.len()).unwrap_or(0);

    let started = Instant::now();
    for bin in BINS {
        println!("\n=== {bin} ===\n");
        let mut cmd = Command::new(dir.join(format!("{bin}{ext}")));
        for (k, v) in &knobs {
            cmd.env(k, v);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: {bin} exited with {status}; aborting the sweep");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: failed to launch {bin}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = started.elapsed();

    println!(
        "\n[all] {} experiments completed in {:.1}s",
        BINS.len(),
        elapsed.as_secs_f64()
    );
    if let Ok(text) = std::fs::read_to_string(&stats_log) {
        let this_run = &text[usize::try_from(log_start).unwrap_or(0).min(text.len())..];
        let (hits, misses, failed) = tally_stats(this_run);
        let total = hits + misses + failed;
        if total > 0 {
            println!(
                "[all] result cache: {hits}/{total} cells served from cache, {misses} computed{}",
                if failed > 0 {
                    format!(", {failed} failed")
                } else {
                    String::new()
                }
            );
        }
    }
    ExitCode::SUCCESS
}
