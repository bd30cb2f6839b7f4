//! The `coma` subcommands.

use crate::args::Args;
use coma_sim::{run_simulation, MemoryModel, SimParams, Simulation};
use coma_stats::{SimReport, Table};
use coma_types::{LatencyConfig, MemoryPressure, Topology};
use coma_workloads::{AppId, Scale};

pub const USAGE: &str = "\
coma — cluster-based COMA multiprocessor simulator

USAGE:
  coma list                              application catalog (Table 1)
  coma run     --app <name> [options]    one simulation, full report
  coma sweep   --app <name> --over <mp|ppn|assoc> [options]
  coma compare --app <name> [options]    1 vs 2 vs 4 processors per node
  coma record  --app <name> --trace <file> [options]   record a trace
  coma replay  --trace <file> [options]                simulate a trace
  coma verify  [--mode smoke|full] [--seed <n>]  protocol model check + fuzz

OPTIONS:
  --app <name>        application (see `coma list`)        [fft]
  --procs <n>         total processors (up to 256)         [16]
  --ppn <1|2|4>       processors per node                  [1]
  --groups <n>        cluster groups on the interconnect   [1]
  --levels <n>        directory levels above the groups    [0, or 1+ with --groups]
  --mp <6|50|75|81|87 or N/16>  memory pressure            [50]
  --assoc <n>         attraction-memory associativity      [4]
  --model <coma|numa|uma>  memory architecture             [coma]
  --latency <default|2xdram|4xdram|halfbus>                [default]
  --scale <paper|bench|smoke>  trace length                [bench]
  --seed <n>          workload seed                        [42]";

/// Parse a memory pressure: `81`, `87.5`, `13/16`, …
fn parse_mp(s: &str) -> Result<MemoryPressure, String> {
    if let Some((n, d)) = s.split_once('/') {
        let n: u32 = n
            .trim()
            .parse()
            .map_err(|_| format!("bad fraction '{s}'"))?;
        let d: u32 = d
            .trim()
            .parse()
            .map_err(|_| format!("bad fraction '{s}'"))?;
        if n == 0 || d == 0 || n > d {
            return Err(format!("memory pressure '{s}' out of (0,1]"));
        }
        return Ok(MemoryPressure::new(n, d));
    }
    match s {
        "6" | "6.25" => Ok(MemoryPressure::MP_6),
        "50" => Ok(MemoryPressure::MP_50),
        "75" => Ok(MemoryPressure::MP_75),
        "81" | "81.25" => Ok(MemoryPressure::MP_81),
        "87" | "87.5" => Ok(MemoryPressure::MP_87),
        _ => Err(format!(
            "memory pressure '{s}' — use 6/50/75/81/87 or a fraction like 13/16"
        )),
    }
}

fn parse_latency(s: &str) -> Result<LatencyConfig, String> {
    match s {
        "default" => Ok(LatencyConfig::paper_default()),
        "2xdram" => Ok(LatencyConfig::paper_double_dram()),
        "4xdram" => Ok(LatencyConfig::paper_quad_dram_double_ctrl()),
        "halfbus" => Ok(LatencyConfig::paper_half_bus()),
        _ => Err(format!("unknown latency config '{s}'")),
    }
}

fn parse_model(s: &str) -> Result<MemoryModel, String> {
    match s {
        "coma" => Ok(MemoryModel::Coma),
        "numa" => Ok(MemoryModel::Numa),
        "uma" => Ok(MemoryModel::Uma),
        _ => Err(format!("unknown memory model '{s}'")),
    }
}

/// Shared option decoding for run/sweep/compare.
struct Common {
    app: AppId,
    params: SimParams,
    scale: Scale,
    seed: u64,
}

const COMMON_OPTS: &[&str] = &[
    "app", "procs", "ppn", "groups", "levels", "mp", "assoc", "model", "latency", "scale", "seed",
    "over", "trace",
];

fn common(args: &Args) -> Result<Common, String> {
    args.expect_only(COMMON_OPTS)?;
    let app: AppId = args.get("app").unwrap_or("fft").parse()?;
    let mut params = SimParams::default();
    params.machine.n_procs = args.get_or("procs", params.machine.n_procs)?;
    params.machine.procs_per_node = args.get_or("ppn", 1usize)?;
    let n_groups = args.get_or("groups", 1usize)?;
    // Default the level count to the shallowest legal tree for the
    // requested group count; --levels overrides for deeper fan-out.
    let levels = args.get_or("levels", usize::from(n_groups > 1))?;
    params.machine.topology = Topology { n_groups, levels };
    params.machine.memory_pressure = parse_mp(args.get("mp").unwrap_or("50"))?;
    params.machine.am_assoc = args.get_or("assoc", 4usize)?;
    params.memory_model = parse_model(args.get("model").unwrap_or("coma"))?;
    params.latency = parse_latency(args.get("latency").unwrap_or("default"))?;
    // One validation pass covers all the machine-shape flags (divisible
    // ppn, group/level ranges, node-count ceiling) with real messages.
    params.machine.validate().map_err(|e| e.to_string())?;
    Ok(Common {
        app,
        params,
        scale: args.get("scale").unwrap_or("bench").parse()?,
        seed: args.get_or("seed", 42u64)?,
    })
}

/// What [`SimReport::bus_utilization`] measures on `topology`: the one
/// bus's utilization on the flat machine, but on a tree the busy time of
/// every group bus and link summed, which can exceed 100 %.
fn bus_busy_label(topology: Topology) -> &'static str {
    if topology.is_flat() {
        "bus utilization"
    } else {
        "fabric occupancy (summed over all buses and links)"
    }
}

fn simulate(c: &Common) -> SimReport {
    let wl = c.app.build(c.params.machine.n_procs, c.seed, c.scale);
    run_simulation(wl, &c.params)
}

/// `coma verify`
pub fn verify(args: &Args) -> Result<(), String> {
    args.expect_only(&["mode", "seed"])?;
    let smoke = match args.get("mode").unwrap_or("smoke") {
        "smoke" => true,
        "full" => false,
        other => return Err(format!("--mode must be smoke or full, got '{other}'")),
    };
    let seed = args.get_or("seed", 0xC0A_u64)?;
    if coma_verify::campaign::run(smoke, seed) {
        Ok(())
    } else {
        Err("protocol verification failed".into())
    }
}

/// `coma list`
pub fn list(args: &Args) -> Result<(), String> {
    args.expect_only(&[])?;
    let mut t = Table::new(vec!["name", "description", "ws (KB)"]);
    for app in AppId::ALL.into_iter().chain(AppId::TRAFFIC) {
        t.row(vec![
            app.name().to_string(),
            app.description().to_string(),
            format!("{}", app.ws_bytes() / 1024),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

/// `coma run`
pub fn run(args: &Args) -> Result<(), String> {
    let c = common(args)?;
    let r = simulate(&c);
    println!(
        "{} | {:?} | {} procs/node | MP {} | {}-way AM",
        c.app,
        c.params.memory_model,
        c.params.machine.procs_per_node,
        c.params.machine.memory_pressure,
        c.params.machine.am_assoc
    );
    // The canonical configuration hash — the sweep cache keys off this,
    // so two runs printing the same hash simulated the same machine.
    println!(
        "params hash      0x{:016x}",
        coma_sim::canon::config_hash(&c.params)
    );
    println!("execution time   {:>12.3} ms", r.exec_time_ns as f64 / 1e6);
    println!(
        "reads / writes   {:>12} / {}",
        r.counts.total_reads(),
        r.counts.total_writes()
    );
    println!("RNMr             {:>11.3} %", r.rnm_rate() * 100.0);
    println!(
        "bus traffic      {:>12} B (read {} / write {} / replace {})",
        r.traffic.total_bytes(),
        r.traffic.read_bytes,
        r.traffic.write_bytes,
        r.traffic.replace_bytes
    );
    println!(
        "{:<16} {:>11.1} %",
        bus_busy_label(c.params.machine.topology),
        r.bus_utilization() * 100.0
    );
    println!(
        "replacements     {:>12} injections, {} migrations, {} drops",
        r.injections, r.ownership_migrations, r.shared_drops
    );
    println!(
        "read latency     p50 {} ns | p90 {} ns | p99 {} ns | max {} ns",
        r.read_latency.quantile(0.50),
        r.read_latency.quantile(0.90),
        r.read_latency.quantile(0.99),
        r.read_latency.max_ns()
    );
    let f = r.avg_breakdown().fractions();
    println!(
        "time breakdown      busy {:.1}% | SLC {:.1}% | AM {:.1}% | remote {:.1}%",
        f[0] * 100.0,
        f[1] * 100.0,
        f[2] * 100.0,
        f[3] * 100.0
    );
    Ok(())
}

/// `coma sweep --over mp|ppn|assoc`
pub fn sweep(args: &Args) -> Result<(), String> {
    let mut c = common(args)?;
    let over = args.get("over").unwrap_or("mp").to_string();
    let mut t = Table::new(vec![
        over.as_str(),
        "exec (ms)",
        "RNMr",
        "bus bytes",
        "injections",
    ]);
    let mut points: Vec<(String, SimParams)> = Vec::new();
    match over.as_str() {
        "mp" => {
            for mp in MemoryPressure::PAPER_SWEEP {
                let mut p = c.params.clone();
                p.machine.memory_pressure = mp;
                points.push((mp.to_string(), p));
            }
        }
        "ppn" => {
            for ppn in [1usize, 2, 4] {
                let mut p = c.params.clone();
                p.machine.procs_per_node = ppn;
                points.push((ppn.to_string(), p));
            }
        }
        "assoc" => {
            for a in [1usize, 2, 4, 8, 16] {
                let mut p = c.params.clone();
                p.machine.am_assoc = a;
                points.push((format!("{a}-way"), p));
            }
        }
        other => return Err(format!("--over {other}: use mp, ppn or assoc")),
    }
    for (label, p) in points {
        c.params = p;
        let r = simulate(&c);
        t.row(vec![
            label,
            format!("{:.3}", r.exec_time_ns as f64 / 1e6),
            format!("{:.3}%", r.rnm_rate() * 100.0),
            r.traffic.total_bytes().to_string(),
            r.injections.to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

/// `coma compare` — clustering degrees side by side.
pub fn compare(args: &Args) -> Result<(), String> {
    let mut c = common(args)?;
    let mut t = Table::new(vec![
        "procs/node",
        "exec (ms)",
        "vs 1p",
        "RNMr",
        "bus bytes",
    ]);
    let mut base = None;
    for ppn in [1usize, 2, 4] {
        c.params.machine.procs_per_node = ppn;
        let r = simulate(&c);
        let b = *base.get_or_insert(r.exec_time_ns as f64);
        t.row(vec![
            ppn.to_string(),
            format!("{:.3}", r.exec_time_ns as f64 / 1e6),
            format!("{:.1}%", r.exec_time_ns as f64 / b * 100.0),
            format!("{:.3}%", r.rnm_rate() * 100.0),
            r.traffic.total_bytes().to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

/// `coma record --app <name> --trace <file>`
pub fn record(args: &Args) -> Result<(), String> {
    let c = common(args)?;
    let path = args.get("trace").ok_or("record needs --trace <file>")?;
    let wl = c.app.build(c.params.machine.n_procs, c.seed, c.scale);
    let stats = coma_workloads::record_to_file(wl, std::path::Path::new(path))
        .map_err(|e| format!("cannot write trace: {e}"))?;
    println!(
        "recorded {} ops ({} memory references) to {path}",
        stats.ops, stats.refs
    );
    Ok(())
}

/// `coma replay --trace <file>` — simulate a previously recorded trace.
pub fn replay(args: &Args) -> Result<(), String> {
    let c = common(args)?;
    let path = args.get("trace").ok_or("replay needs --trace <file>")?;
    let wl = coma_workloads::replay_from_file(std::path::Path::new(path))
        .map_err(|e| format!("cannot read trace: {e}"))?;
    let r = Simulation::new(wl, &c.params)
        .map_err(|e| format!("cannot replay {path}: {e}"))?
        .run();
    println!(
        "exec {:.3} ms | RNMr {:.3}% | bus {} B | injections {}",
        r.exec_time_ns as f64 / 1e6,
        r.rnm_rate() * 100.0,
        r.traffic.total_bytes(),
        r.injections
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mp_parsing() {
        assert_eq!(parse_mp("81").unwrap(), MemoryPressure::MP_81);
        assert_eq!(parse_mp("13/16").unwrap(), MemoryPressure::MP_81);
        assert!(parse_mp("0/16").is_err());
        assert!(parse_mp("101").is_err());
    }

    #[test]
    fn latency_parsing() {
        assert_eq!(parse_latency("2xdram").unwrap().dram_occ_ns, 50);
        assert!(parse_latency("turbo").is_err());
    }

    #[test]
    fn model_parsing() {
        assert_eq!(parse_model("numa").unwrap(), MemoryModel::Numa);
        assert!(parse_model("cache").is_err());
    }

    #[test]
    fn scale_parsing_accepts_floats() {
        let scale = |s: &str| {
            let args = crate::args::Args::parse(["run", "--scale", s].map(String::from)).unwrap();
            common(&args).map(|c| c.scale)
        };
        assert_eq!(scale("smoke"), Ok(Scale::SMOKE));
        assert_eq!(scale("0.5"), Ok(Scale(0.5)));
        for bad in ["big", "nan", "inf"] {
            assert!(scale(bad).is_err(), "accepted --scale {bad}");
        }
    }

    #[test]
    fn common_rejects_bad_ppn() {
        let args = crate::args::Args::parse(["run", "--ppn", "3"].map(String::from)).unwrap();
        assert!(common(&args).is_err());
    }

    #[test]
    fn common_accepts_hierarchical_shapes() {
        let args = crate::args::Args::parse(
            ["run", "--procs", "64", "--ppn", "2", "--groups", "4"].map(String::from),
        )
        .unwrap();
        let c = common(&args).unwrap();
        assert_eq!(c.params.machine.n_procs, 64);
        assert_eq!(c.params.machine.topology.n_groups, 4);
        assert_eq!(c.params.machine.topology.levels, 1);
    }

    #[test]
    fn common_rejects_bad_topology() {
        // 4 groups over 16 nodes is fine, but 3 groups does not divide.
        let args = crate::args::Args::parse(["run", "--groups", "3"].map(String::from)).unwrap();
        assert!(common(&args).is_err());
        // Levels deeper than log2(groups) are meaningless.
        let args =
            crate::args::Args::parse(["run", "--groups", "4", "--levels", "5"].map(String::from))
                .unwrap();
        assert!(common(&args).is_err());
    }

    #[test]
    fn bus_line_is_labelled_by_topology() {
        assert_eq!(bus_busy_label(Topology::flat()), "bus utilization");
        for tree in [Topology::two_level(4), Topology::tree(64, 3)] {
            assert_eq!(
                bus_busy_label(tree),
                "fabric occupancy (summed over all buses and links)"
            );
        }
    }

    #[test]
    fn run_command_smoke() {
        let args = crate::args::Args::parse(
            ["run", "--app", "water-n2", "--scale", "smoke"].map(String::from),
        )
        .unwrap();
        run(&args).unwrap();
    }

    #[test]
    fn compare_command_smoke() {
        let args = crate::args::Args::parse(
            [
                "compare", "--app", "water-sp", "--scale", "smoke", "--mp", "81",
            ]
            .map(String::from),
        )
        .unwrap();
        compare(&args).unwrap();
    }

    #[test]
    fn record_replay_roundtrip() {
        let dir = std::env::temp_dir().join("coma-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let p = path.to_str().unwrap();
        let rec = crate::args::Args::parse(
            [
                "record", "--app", "water-n2", "--scale", "smoke", "--trace", p,
            ]
            .map(String::from),
        )
        .unwrap();
        record(&rec).unwrap();
        let rep =
            crate::args::Args::parse(["replay", "--trace", p, "--ppn", "4"].map(String::from))
                .unwrap();
        replay(&rep).unwrap();
    }

    #[test]
    fn sweep_rejects_unknown_axis() {
        let args = crate::args::Args::parse(
            ["sweep", "--over", "flux", "--scale", "smoke"].map(String::from),
        )
        .unwrap();
        assert!(sweep(&args).is_err());
    }
}
