//! Randomized property tests on the core invariants, spanning the
//! protocol, cache and simulation crates, driven by the in-repo
//! deterministic RNG (`coma::types::Rng64`).

use coma::cache::{AcceptPolicy, AmState, VictimPolicy};
use coma::protocol::{CoherenceEngine, MemorySystem};
use coma::types::{LineNum, MachineConfig, MemoryPressure, ProcId, Rng64};

fn engine(ppn: usize, mp_num: u32) -> CoherenceEngine {
    let cfg = MachineConfig {
        n_procs: 8,
        procs_per_node: ppn,
        memory_pressure: MemoryPressure::new(mp_num, 16),
        ..Default::default()
    };
    let geom = cfg.geometry(128 * 1024).unwrap();
    CoherenceEngine::new(
        geom,
        VictimPolicy::SharedFirst,
        AcceptPolicy::InvalidThenShared,
        true,
    )
}

/// After any access sequence: exactly one responsible copy per live
/// line, sharers consistent, inclusion intact (the full invariant
/// checker), and — because total AM capacity covers the working set —
/// no line is ever lost.
#[test]
fn protocol_invariants_under_random_storm() {
    let mut rng = Rng64::new(0x570);
    for _case in 0..24 {
        let ppn = [1usize, 2, 4][rng.below(3) as usize];
        let mp_num = rng.range(4, 16) as u32;
        let n_ops = rng.range(500, 3000);
        let mut e = engine(ppn, mp_num);
        let mut case_rng = Rng64::new(rng.next_u64());
        let mut touched = std::collections::HashSet::new();
        for _ in 0..n_ops {
            let p = ProcId(case_rng.below(8) as u16);
            let l = LineNum(case_rng.below(1500));
            touched.insert(l);
            if case_rng.chance(0.4) {
                e.write(p, l);
            } else {
                e.read(p, l);
            }
        }
        e.check_invariants().unwrap();
        // Conservation: every touched line is still live somewhere
        // (page-outs can only occur above 100% pressure).
        for l in touched {
            assert!(e.directory().contains(l), "line {l:?} lost");
        }
    }
}

/// A read always leaves the line readable at the reader's node, and a
/// write always leaves it Exclusive there.
#[test]
fn accesses_establish_required_state() {
    let mut rng = Rng64::new(0xACCE55);
    for _case in 0..24 {
        let mut e = engine(2, 10);
        let n_ops = rng.range(1, 300);
        for _ in 0..n_ops {
            let proc = ProcId(rng.below(8) as u16);
            let line = LineNum(rng.below(800));
            let node = proc.node(2).as_usize();
            if rng.chance(0.5) {
                e.write(proc, line);
                assert_eq!(e.node(node).am.state(line), AmState::Exclusive);
            } else {
                e.read(proc, line);
                assert!(e.node(node).am.state(line).is_valid());
            }
        }
    }
}

/// RNMr is always a valid probability and total counts match the
/// number of issued operations.
#[test]
fn simulation_counts_are_conserved() {
    use coma::prelude::*;
    use coma::workloads::{Op, OpStream};

    let mut rng = Rng64::new(0xC0);
    for _case in 0..6 {
        let seed = rng.next_u64();
        let ppn = [1usize, 2, 4][rng.below(3) as usize];
        let app = AppId::WaterSp;
        // Count the references the generator will emit.
        let mut wl = app.build(16, seed, Scale::SMOKE);
        let mut expect_reads = 0u64;
        let mut expect_writes = 0u64;
        for s in &mut wl.streams {
            while let Some(op) = s.next_op() {
                match op {
                    Op::Read(_) => expect_reads += 1,
                    Op::Write(_) => expect_writes += 1,
                    _ => {}
                }
            }
        }
        // Run the same workload.
        let mut params = SimParams::default();
        params.machine.procs_per_node = ppn;
        let r = run_simulation(app.build(16, seed, Scale::SMOKE), &params);
        assert!(r.rnm_rate() >= 0.0 && r.rnm_rate() <= 1.0);
        // The simulator adds sync-line accesses (locks, barriers) on top
        // of the data references, never removes any.
        assert!(r.counts.total_reads() >= expect_reads);
        assert!(r.counts.total_writes() >= expect_writes);
    }
}

/// The replication-threshold formula is always a valid fraction that
/// increases with associativity and with clustering.
#[test]
fn replication_threshold_properties() {
    use coma::types::full_replication_threshold;
    let mut rng = Rng64::new(0xF2AC);
    for _case in 0..64 {
        let nodes = rng.range(2, 65) as u32;
        let assoc = rng.range(2, 33) as u32;
        if nodes * assoc < nodes {
            continue;
        }
        let (n, d) = full_replication_threshold(nodes, assoc);
        assert!(n <= d && n > 0);
        let f = n as f64 / d as f64;
        let (n2, d2) = full_replication_threshold(nodes, assoc * 2);
        assert!(n2 as f64 / d2 as f64 > f);
        if nodes.is_multiple_of(2) {
            let (n3, d3) = full_replication_threshold(nodes / 2, assoc);
            assert!(n3 as f64 / d3 as f64 > f);
        }
    }
}
