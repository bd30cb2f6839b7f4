//! Canned verification campaigns: what `coma verify --mode smoke|full`
//! executes.

use crate::checker::{check, explore, CheckConfig};
use crate::fuzz::{fuzz, FuzzConfig};
use crate::mutant::{MutantEngine, Mutation};

fn run_check(name: &str, cfg: &CheckConfig) -> bool {
    let r = check(cfg);
    match &r.violation {
        Some(v) => {
            eprintln!("model-check {name}: FAILED\n{v}");
            false
        }
        None => {
            println!(
                "model-check {name}: ok ({} states, {} deduped transitions, depth {}{})",
                r.states_explored,
                r.transitions_deduped,
                r.max_depth,
                if r.exhausted && cfg.depth.is_none() {
                    ", space closed"
                } else {
                    ""
                }
            );
            true
        }
    }
}

/// Fuzz the clean engine, with (`inclusive`) or without SLC ⊆ AM.
fn run_fuzz(name: &str, cfg: &FuzzConfig, inclusive: bool) -> bool {
    let r = fuzz(cfg, &|| crate::clean_engine(cfg.geom, inclusive));
    match &r.failure {
        Some(f) => {
            eprintln!("fuzz {name}: FAILED after {} ops\n{f}", r.ops_run);
            false
        }
        None => {
            println!("fuzz {name}: ok ({} ops, seed {:#x})", r.ops_run, cfg.seed);
            true
        }
    }
}

/// Seed each mutation and demand that both the model checker and the
/// differential fuzzer catch it. A silent mutant means the verification
/// tooling itself is broken.
fn run_mutants() -> bool {
    // Mutations legitimately trip engine assertions, which the tools
    // catch and report; silence the default hook's backtrace spam.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let ok = run_mutants_inner();
    std::panic::set_hook(prev_hook);
    ok
}

fn run_mutants_inner() -> bool {
    let mut ok = true;
    for (mutation, name) in [
        (Mutation::SkipInvalidate, "skip-invalidate"),
        (Mutation::ForgetDirectoryUpdate, "forget-directory-update"),
    ] {
        let cfg = CheckConfig::two_node_one_line();
        let r = explore(&cfg, MutantEngine::new(cfg.build_engine(), mutation));
        match r.violation {
            Some(v) => println!(
                "mutant {name}: caught by model checker in {} ops",
                v.trace.len()
            ),
            None => {
                eprintln!("mutant {name}: NOT caught by model checker");
                ok = false;
            }
        }

        let fcfg = FuzzConfig::pressured(20_000, 0xBAD_5EED);
        let fr = fuzz(&fcfg, &|| MutantEngine::new(fcfg.build_engine(), mutation));
        match fr.failure {
            Some(f) => println!(
                "mutant {name}: caught by fuzzer at op {} (minimized to {} ops)",
                f.op_index,
                f.minimized.len()
            ),
            None => {
                eprintln!("mutant {name}: NOT caught by fuzzer in {} ops", fr.ops_run);
                ok = false;
            }
        }
    }
    ok
}

/// The non-inclusive hierarchy (SLC replicas outlive AM replacements):
/// the pressured model check to `depth` and both pressured fuzz
/// configurations for `n_ops`.
fn run_non_inclusive(depth: usize, n_ops: u64, seed: u64) -> bool {
    let mut ok = run_check(
        &format!("2n×1p×3line depth {depth} (pressured, non-inclusive)"),
        &CheckConfig {
            depth: Some(depth),
            inclusive: false,
            ..CheckConfig::pressured(2, 1, 3)
        },
    );
    let k = n_ops / 1000;
    ok &= run_fuzz(
        &format!("2×2 pressured {k}k non-inclusive"),
        &FuzzConfig::pressured(n_ops, seed),
        false,
    );
    ok &= run_fuzz(
        &format!("2g×2n pressured {k}k non-inclusive"),
        &FuzzConfig::pressured_two_level(n_ops, seed),
        false,
    );
    ok
}

/// Run the verification campaign; returns true when everything passed.
/// `smoke` selects the CI-sized subset (bounded model check + 10k fuzz
/// ops); otherwise the full campaign runs (larger closures, pressured
/// configurations, 100k-op fuzz across several seeds).
pub fn run(smoke: bool, seed: u64) -> bool {
    let mut ok = true;
    ok &= run_check("2n×1p×1line (closure)", &CheckConfig::two_node_one_line());
    ok &= run_check("2g×2n×1p×1line (closure)", &CheckConfig::two_level());
    if smoke {
        ok &= run_check(
            "2n×1p×3line depth 5 (pressured)",
            &CheckConfig::pressured(2, 1, 3),
        );
        ok &= run_fuzz(
            "2×2 pressured 10k",
            &FuzzConfig::pressured(10_000, seed),
            true,
        );
        ok &= run_fuzz(
            "2g×2n pressured 10k",
            &FuzzConfig::pressured_two_level(10_000, seed),
            true,
        );
        ok &= run_non_inclusive(5, 10_000, seed);
    } else {
        let mut two_line = CheckConfig::two_node_one_line();
        two_line.n_lines = 2;
        two_line.geom.am_assoc = 2;
        ok &= run_check("2n×1p×2line (closure)", &two_line);
        ok &= run_check("2n×1p×3line depth 6 (pressured)", &{
            let mut c = CheckConfig::pressured(2, 1, 3);
            c.depth = Some(6);
            c
        });
        ok &= run_check("4n×1p×4line depth 4 (pressured)", &{
            let mut c = CheckConfig::pressured(4, 1, 4);
            c.depth = Some(4);
            c
        });
        ok &= run_check("2n×2p×2line depth 4 (pressured)", &{
            let mut c = CheckConfig::pressured(2, 2, 2);
            c.depth = Some(4);
            c
        });
        for (i, s) in [seed, 0x5EED, 0xFEED].into_iter().enumerate() {
            ok &= run_fuzz(
                &format!("2×2 pressured 100k #{i}"),
                &FuzzConfig::pressured(100_000, s),
                true,
            );
        }
        for (i, s) in [seed, 0x5EED].into_iter().enumerate() {
            ok &= run_fuzz(
                &format!("2g×2n pressured 100k #{i}"),
                &FuzzConfig::pressured_two_level(100_000, s),
                true,
            );
        }
        ok &= run_non_inclusive(6, 100_000, seed);
    }
    ok &= run_mutants();

    if ok {
        println!(
            "verification {}: all clear",
            if smoke { "smoke" } else { "full" }
        );
    }
    ok
}
