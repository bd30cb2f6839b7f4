//! `coma` — command-line driver for the cluster-based COMA simulator.
//!
//! ```text
//! coma list                                   # Table-1 application catalog
//! coma run  --app fft --ppn 4 --mp 81         # one simulation, full report
//! coma sweep --app barnes --over mp           # sweep MP (or ppn / assoc)
//! coma compare --app ocean-non --mp 81        # 1 vs 2 vs 4 procs/node
//! ```
//!
//! Common options: `--mp <percent of 16ths: 6|50|75|81|87 or N/16>`,
//! `--ppn 1|2|4`, `--assoc N`, `--model coma|numa|uma`,
//! `--latency default|2xdram|4xdram|halfbus`, `--scale paper|bench|smoke`,
//! `--seed N`.

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_deref() {
        Some("list") => commands::list(&parsed),
        Some("run") => commands::run(&parsed),
        Some("sweep") => commands::sweep(&parsed),
        Some("compare") => commands::compare(&parsed),
        Some("record") => commands::record(&parsed),
        Some("replay") => commands::replay(&parsed),
        Some("verify") => commands::verify(&parsed),
        Some("help") | None => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
