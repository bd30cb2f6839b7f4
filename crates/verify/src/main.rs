//! Protocol verification driver.
//!
//! ```text
//! coma-verify [--smoke] [--seed N]
//! ```
//!
//! `--smoke` runs the CI-sized campaign: full closure of the 2-node ×
//! 1-line state space, a depth-bounded pressured check, 10k differential
//! fuzz ops, and a fault-injection round proving the tools detect a
//! seeded protocol bug. Without it, the full campaign runs (larger
//! configurations, 100k+ fuzz ops across several seeds).
//!
//! Exits non-zero — printing the counterexample trace or the minimized
//! reproducer — if any invariant is violated, or if a seeded mutation
//! goes *undetected*.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = false;
    let mut seed = 0xC0A_u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("usage: coma-verify [--smoke] [--seed N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if coma_verify::campaign::run(smoke, seed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
