//! `simbench`: the simulator's host-throughput benchmark.
//!
//! ```text
//! simbench --workload <coma_pressure|numa_anchor|tree64> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! simbench --pin          # print every cell's report digest at seed 42
//! ```
//!
//! One single-threaded process runs a workload's fixed cells through the
//! public API (`AppId::build` → `Simulation::new` → `Simulation::run`),
//! round-robin for `--seconds`, keeping each cell's fastest repetition,
//! and checks every report. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer ledger instead (see `ledger`). The
//! last line of standard output is one JSON object; diagnostics go to
//! standard error. See NOTES.md for why the method is what it is.

mod cells;
mod ledger;
mod measure;

use cells::{workload, DEFAULT_SEED, WORKLOADS};
use ledger::run_traced;
use measure::{guarded, run_untraced, RunResult};
use std::process::ExitCode;
use std::time::Duration;

/// A metric as `BENCHMARK.json` declares it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed with `--trace 0`.
pub const END_TO_END: [Metric; 3] = [
    m("accesses_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: [Metric; 19] = [
    m("workloads.compile_ns_per_record", "ns"),
    m("workloads.records", "count"),
    m("workloads.sync_records", "count"),
    m("protocol.ns_per_access", "ns"),
    m("protocol.remote_frac", "1"),
    m("protocol.injections_per_kacc", "1/kacc"),
    m("protocol.pageouts", "count"),
    m("timing.ns_per_access", "ns"),
    m("timing.bus_frac", "1"),
    m("timing.cross_group_frac", "1"),
    m("queue.ns_per_pop", "ns"),
    m("sim.run_ns_per_access", "ns"),
    m("sim.driver_ns_per_access", "ns"),
    m("sim.new_s", "s"),
    m("model.exec_ms", "ms"),
    m("model.rnm_rate", "1"),
    m("model.bus_util", "1"),
    m("model.dram_util", "1"),
    m("trace.overhead_frac", "1"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        pin: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            a.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => {
                a.trace = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(a)
}

/// Format the result line: every metric of `table`, in table order, each
/// present exactly once and finite.
fn result_json(table: &[Metric], r: &RunResult) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for metric in table {
        let mut hits = r.metrics.iter().filter(|(n, _)| *n == metric.name);
        let (Some(&(_, v)), None) = (hits.next(), hits.next()) else {
            return Err(format!("metric {} not measured exactly once", metric.name));
        };
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    if let Some((extra, _)) = r
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        fields.join(", ")
    ))
}

/// Print every cell's report digest at the default seed, in the form the
/// `pinned` fields take.
fn pin() -> Result<(), String> {
    for def in &WORKLOADS {
        for c in def.cells {
            let rep = guarded(|| measure::run_cell(c, DEFAULT_SEED))?;
            println!("{:<24} {:#018x}", c.name, cells::digest(&rep.report));
        }
    }
    Ok(())
}

fn run(args: Args) -> Result<Option<String>, String> {
    if args.pin {
        return pin().map(|()| None);
    }
    let name = args.workload.ok_or("--workload is required")?;
    let def = workload(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let budget = Duration::from_secs(args.seconds);
    let (table, result): (&[Metric], _) = if args.trace {
        (&PER_LAYER, run_traced(def, args.seed, budget)?)
    } else {
        (&END_TO_END, run_untraced(def, args.seed, budget)?)
    };
    result_json(table, &result).map(Some)
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::Tally;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every entry of one list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, Option<String>)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{list}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("list ends")];
        let quoted = |s: &str, key: &str| {
            let rest = &s[s.find(key)? + key.len()..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split("{")
            .skip(1)
            .map(|entry| {
                let name = quoted(entry, "\"name\": \"").expect("entry has a name");
                (name, quoted(entry, "\"unit\": \""))
            })
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, Option<String>)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), None))
            .collect();
        assert_eq!(declared("workloads"), workloads);
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn names_and_units_are_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {n:?}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate name");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
    }

    fn result(metrics: Vec<(&'static str, f64)>) -> RunResult {
        RunResult {
            tally: Tally {
                attempted: 4,
                failed: 0,
            },
            metrics,
        }
    }

    #[test]
    fn result_line_holds_every_metric_once() {
        let all: Vec<_> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_json(&END_TO_END, &result(all.clone())).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        for m in &END_TO_END {
            let field = format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
            assert!(line.contains(&field), "{line} lacks {field}");
        }
        assert!(result_json(&END_TO_END, &result(all[1..].to_vec())).is_err());
        let mut twice = all.clone();
        twice.push(all[0]);
        assert!(result_json(&END_TO_END, &result(twice)).is_err());
        let mut extra = all.clone();
        extra.push(("undeclared", 1.0));
        assert!(result_json(&END_TO_END, &result(extra)).is_err());
        let mut nan = all;
        nan[0].1 = f64::NAN;
        assert!(result_json(&END_TO_END, &result(nan)).is_err());
    }

    #[test]
    fn every_workload_prints_every_metric() {
        for def in &WORKLOADS {
            for (table, r) in [
                (&END_TO_END[..], run_untraced(def, 3, Duration::ZERO)),
                (&PER_LAYER[..], run_traced(def, 3, Duration::ZERO)),
            ] {
                let r = r.unwrap_or_else(|e| panic!("{}: {e}", def.name));
                assert_eq!(r.tally.failed, 0, "{}", def.name);
                let line = result_json(table, &r).unwrap_or_else(|e| panic!("{}: {e}", def.name));
                assert!(line.starts_with("{\"correct\": true"), "{line}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload tree64 --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("tree64"), 9, 3, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--bogus 1").is_err());
        let a = parse("--workload nope").expect("parses");
        assert!(run(a).is_err());
    }
}
