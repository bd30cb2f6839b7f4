//! Protocol walkthrough: drive the coherence engine directly and watch a
//! cache line move through the COMA states — allocation, replication,
//! ownership transfer, and finally an accept-based injection when its
//! home set fills up.
//!
//! ```sh
//! cargo run --example protocol_walkthrough
//! ```

use coma::cache::{AcceptPolicy, VictimPolicy};
use coma::protocol::{CoherenceEngine, MemorySystem};
use coma::types::{LineNum, MachineConfig, MemoryPressure, ProcId};

fn states(e: &CoherenceEngine, line: LineNum) -> String {
    (0..e.geometry().n_nodes)
        .map(|n| format!("N{n}:{}", e.node(n).am.state(line)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    // A small 4-node machine at high memory pressure so replacements are
    // easy to provoke.
    let cfg = MachineConfig {
        n_procs: 4,
        procs_per_node: 1,
        memory_pressure: MemoryPressure::MP_87,
        ..Default::default()
    };
    let geom = cfg.geometry(64 * 1024).unwrap();
    let mut e = CoherenceEngine::new(
        geom,
        VictimPolicy::SharedFirst,
        AcceptPolicy::InvalidThenShared,
        true,
    );
    let line = LineNum(5);

    println!("4 nodes, 87.5% memory pressure, watching line {line:?}\n");

    println!("P0 reads  → on-demand page allocation, Exclusive at node 0");
    let out = e.read(ProcId(0), line);
    println!("   level={:?}   [{}]\n", out.level, states(&e, line));

    println!("P2 reads  → remote fill; node 0 downgrades to Owner, node 2 gets Shared");
    let out = e.read(ProcId(2), line);
    println!("   level={:?}   [{}]\n", out.level, states(&e, line));

    println!("P3 reads  → another replica");
    e.read(ProcId(3), line);
    println!("   [{}]\n", states(&e, line));

    println!("P1 writes → global upgrade: every other copy invalidated, node 1 Exclusive");
    let out = e.write(ProcId(1), line);
    println!(
        "   level={:?} upgrade={} rex={}   [{}]\n",
        out.level,
        out.upgrade,
        out.read_exclusive,
        states(&e, line)
    );

    println!("P0 reads again → node 1 becomes Owner, node 0 a Shared replica");
    e.read(ProcId(0), line);
    println!("   [{}]\n", states(&e, line));

    // Now force node 1 to evict the line: write conflicting lines that map
    // to the same AM set until the Owner copy is displaced.
    println!("P1 fills its AM set with conflicting lines until line {line:?} is displaced…");
    let sets = e.geometry().am_sets;
    let mut k = 1u64;
    loop {
        let conflict = LineNum(line.0 + k * sets);
        let out = e.write(ProcId(1), conflict);
        if out.ownership_migrated || out.injected_to.is_some() {
            if out.ownership_migrated {
                println!("   → ownership migrated to an existing replica (no data moved)");
            } else {
                println!("   → injected into node {:?}", out.injected_to.unwrap());
            }
            break;
        }
        k += 1;
        assert!(k < 64, "no displacement triggered");
    }
    println!("   [{}]\n", states(&e, line));

    let info = e.directory().get(line).expect("line survives replacement");
    println!(
        "directory: owner={:?}, {} sharer(s) — the responsible copy survived the eviction,",
        info.owner,
        info.n_sharers()
    );
    println!("exactly as the accept-based replacement strategy guarantees.");

    e.check_invariants().expect("protocol invariants hold");
    println!("\nprotocol invariants verified ✓");
}
