//! Run every experiment in sequence (Table 1, Figures 2–5, sensitivity,
//! thresholds, ablations, traffic, seed robustness) in this process,
//! under one [`ExpCtx`] built from the usual `COMA_*` knobs and
//! `--jobs`/`--no-cache` flags.
//!
//! A panicking experiment aborts the run with a non-zero exit. At the end
//! the cache accounting of every sweep in the run is printed, so a warm
//! rerun shows its hit rate at a glance.

use coma_experiments::{exp, sweep, ExpCtx};
use std::time::Instant;

fn main() {
    let ctx = ExpCtx::from_env();
    let started = Instant::now();
    for (name, run) in exp::ALL {
        println!("\n=== {name} ===\n");
        run(&ctx);
    }
    println!(
        "\n[all] {} experiments completed in {:.1}s",
        exp::ALL.len(),
        started.elapsed().as_secs_f64()
    );
    let (hits, misses, failed) = sweep::process_totals();
    println!(
        "[all] result cache: {hits}/{} cells served from cache, {misses} computed, {failed} failed",
        hits + misses + failed
    );
}
