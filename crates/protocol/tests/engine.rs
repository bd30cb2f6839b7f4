//! Behavioral tests of the coherence engine through its public API:
//! read/write outcomes, replacement (injection, migration, page-out),
//! inclusion modes and the cross-structure invariants.

use coma_cache::{AcceptPolicy, AmState, VictimPolicy};
use coma_protocol::{CoherenceEngine, MemorySystem};
use coma_stats::Level;
use coma_types::{LineNum, MachineConfig, MemoryPressure, NodeId, ProcId};

/// Small machine: 4 procs; ws 64 KiB.
fn engine(ppn: usize, mp: MemoryPressure) -> CoherenceEngine {
    let cfg = MachineConfig {
        n_procs: 4,
        procs_per_node: ppn,
        memory_pressure: mp,
        ..Default::default()
    };
    let geom = cfg.geometry(64 * 1024).unwrap();
    CoherenceEngine::new(
        geom,
        VictimPolicy::SharedFirst,
        AcceptPolicy::InvalidThenShared,
        true,
    )
}

#[test]
fn cold_read_allocates_locally() {
    let mut e = engine(1, MemoryPressure::MP_50);
    let out = e.read(ProcId(0), LineNum(5));
    assert_eq!(out.level, Level::Am);
    e.flush_stats();
    assert_eq!(e.counters().cold_allocs, 1);
    assert_eq!(e.traffic().total_txns(), 0);
    e.check_invariants().unwrap();
    // Second read hits the FLC.
    assert_eq!(e.read(ProcId(0), LineNum(5)).level, Level::Flc);
}

#[test]
fn remote_read_creates_replica_and_owner_downgrade() {
    let mut e = engine(1, MemoryPressure::MP_50);
    e.read(ProcId(0), LineNum(5)); // cold alloc at node 0 (Exclusive)
    let out = e.read(ProcId(2), LineNum(5));
    assert_eq!(out.level, Level::Remote);
    assert_eq!(out.remote_node, Some(NodeId(0)));
    assert_eq!(e.node(0).am.state(LineNum(5)), AmState::Owner);
    assert_eq!(e.node(2).am.state(LineNum(5)), AmState::Shared);
    e.flush_stats();
    assert_eq!(e.traffic().read_txns, 1);
    e.check_invariants().unwrap();
}

#[test]
fn same_page_second_line_fetched_from_home() {
    let mut e = engine(1, MemoryPressure::MP_50);
    e.read(ProcId(0), LineNum(0)); // page 0 → home node 0
                                   // Proc 1 touches another line of page 0: remote materialization.
    let out = e.read(ProcId(1), LineNum(1));
    assert_eq!(out.level, Level::Remote);
    assert_eq!(out.remote_node, Some(NodeId(0)));
    assert_eq!(e.node(0).am.state(LineNum(1)), AmState::Owner);
    assert_eq!(e.node(1).am.state(LineNum(1)), AmState::Shared);
    e.check_invariants().unwrap();
}

#[test]
fn clustering_serves_peer_reads_from_shared_am() {
    // Two procs in the SAME node: the second reader hits the AM.
    let mut e = engine(2, MemoryPressure::MP_50);
    e.read(ProcId(2), LineNum(64)); // proc 2 = node 1; page 1 home = node 1
    let out = e.read(ProcId(3), LineNum(64)); // same node
    assert_eq!(out.level, Level::Am, "shared AM should satisfy peer read");
    e.check_invariants().unwrap();
}

#[test]
fn write_to_shared_upgrades_and_invalidates() {
    let mut e = engine(1, MemoryPressure::MP_50);
    e.read(ProcId(0), LineNum(5));
    e.read(ProcId(1), LineNum(5));
    e.read(ProcId(2), LineNum(5));
    let out = e.write(ProcId(1), LineNum(5));
    assert_eq!(out.level, Level::Remote);
    assert!(out.upgrade);
    assert_eq!(e.node(1).am.state(LineNum(5)), AmState::Exclusive);
    assert_eq!(e.node(0).am.state(LineNum(5)), AmState::Invalid);
    assert_eq!(e.node(2).am.state(LineNum(5)), AmState::Invalid);
    e.flush_stats();
    assert_eq!(e.traffic().write_txns, 1);
    e.check_invariants().unwrap();
}

#[test]
fn write_miss_is_read_exclusive() {
    let mut e = engine(1, MemoryPressure::MP_50);
    e.read(ProcId(0), LineNum(5));
    let out = e.write(ProcId(3), LineNum(5));
    assert!(out.read_exclusive);
    assert_eq!(out.remote_node, Some(NodeId(0)));
    assert_eq!(e.node(3).am.state(LineNum(5)), AmState::Exclusive);
    assert_eq!(e.node(0).am.state(LineNum(5)), AmState::Invalid);
    e.check_invariants().unwrap();
}

#[test]
fn local_write_after_own_read_is_cheap() {
    let mut e = engine(1, MemoryPressure::MP_50);
    e.read(ProcId(0), LineNum(5)); // Exclusive locally
    let out = e.write(ProcId(0), LineNum(5));
    assert_eq!(out.level, Level::Am);
    assert!(!out.used_bus());
    // And a further write is an FLC/SLC hit.
    assert_eq!(e.write(ProcId(0), LineNum(5)).level, Level::Flc);
    e.check_invariants().unwrap();
}

#[test]
fn dirty_peer_supplies_within_node() {
    let mut e = engine(2, MemoryPressure::MP_50);
    e.write(ProcId(0), LineNum(7)); // proc 0 (node 0) owns dirty
    let out = e.read(ProcId(1), LineNum(7)); // same node
    assert_eq!(out.level, Level::PeerSlc);
    assert_eq!(out.peer_slc, Some(0));
    e.check_invariants().unwrap();
}

#[test]
fn barrier_style_sharing_and_invalidation_storm() {
    let mut e = engine(1, MemoryPressure::MP_50);
    let flag = LineNum(100);
    e.write(ProcId(0), flag);
    for p in 1..4 {
        assert_eq!(e.read(ProcId(p), flag).level, Level::Remote);
    }
    // Releaser writes again: all replicas invalidated.
    let out = e.write(ProcId(0), flag);
    assert!(out.upgrade);
    for p in 1..4u16 {
        assert_eq!(e.read(ProcId(p), flag).level, Level::Remote);
    }
    e.check_invariants().unwrap();
}

/// Tiny machine with a handful of AM slots per node to force
/// replacements: 4 single-processor nodes at 87.5% memory pressure with
/// a working set sized so each AM holds few sets.
fn tiny_engine() -> CoherenceEngine {
    let cfg = MachineConfig {
        n_procs: 4,
        procs_per_node: 1,
        memory_pressure: MemoryPressure::MP_87,
        slc_ws_ratio: 128,
        ..Default::default()
    };
    // ws = 128 KiB → total AM ≈ 146 KiB → 36.5 KiB/node ≈ 585 lines.
    let geom = cfg.geometry(128 * 1024).unwrap();
    CoherenceEngine::new(
        geom,
        VictimPolicy::SharedFirst,
        AcceptPolicy::InvalidThenShared,
        true,
    )
}

#[test]
fn replacement_pressure_triggers_injections_not_losses() {
    let mut e = tiny_engine();
    let total_lines = 128 * 1024 / 64; // 2048 lines, AM total ~2340
                                       // One processor writes the whole working set: its node AM (~585
                                       // lines) must inject the overflow to the other nodes.
    for l in 0..total_lines {
        e.write(ProcId(0), LineNum(l));
    }
    e.flush_stats();
    assert!(e.counters().injections > 0, "no injections under pressure");
    e.check_invariants().unwrap();
    // Every line is still live somewhere (no pageouts needed: the
    // machine has capacity for the whole working set).
    assert_eq!(e.counters().pageouts, 0);
    assert_eq!(e.directory().len(), total_lines as usize);
}

#[test]
fn ownership_migrates_to_replica_when_possible() {
    let mut e = tiny_engine();
    // Make a line widely shared, then force the owner to evict it by
    // filling the owner's AM set with conflicting writes.
    let line = LineNum(0);
    e.read(ProcId(0), line); // owner at node 0
    e.read(ProcId(1), line); // replica at node 1
    let sets = e.geometry().am_sets;
    let assoc = e.geometry().am_assoc as u64;
    // Touch enough conflicting lines in node 0 to evict line 0.
    for k in 1..=assoc + 1 {
        e.write(ProcId(0), LineNum(k * sets));
    }
    e.flush_stats();
    assert!(
        e.counters().ownership_migrations > 0,
        "expected ownership migration"
    );
    // The line must still be live, now owned by node 1.
    let info = e.directory().get(line).expect("line lost");
    assert_eq!(info.owner, NodeId(1));
    e.check_invariants().unwrap();
}

#[test]
fn census_tracks_states() {
    let mut e = engine(1, MemoryPressure::MP_50);
    e.read(ProcId(0), LineNum(1));
    e.read(ProcId(1), LineNum(1));
    e.write(ProcId(2), LineNum(2));
    let (s, o, ex) = e.am_census();
    assert_eq!(s, 1);
    assert_eq!(o, 1);
    assert_eq!(ex, 1);
}

#[test]
fn determinism() {
    let run = || {
        let mut e = engine(2, MemoryPressure::MP_87);
        let mut rng = coma_types::Rng64::new(99);
        for _ in 0..5_000 {
            let p = ProcId(rng.below(4) as u16);
            let l = LineNum(rng.below(1024));
            if rng.chance(0.3) {
                e.write(p, l);
            } else {
                e.read(p, l);
            }
        }
        e.flush_stats();
        (*e.traffic(), *e.counters())
    };
    assert_eq!(run(), run());
}

fn non_inclusive_engine(mp: MemoryPressure) -> CoherenceEngine {
    let cfg = MachineConfig {
        n_procs: 4,
        procs_per_node: 1,
        memory_pressure: mp,
        ..Default::default()
    };
    let geom = cfg.geometry(128 * 1024).unwrap();
    CoherenceEngine::with_inclusion(
        geom,
        VictimPolicy::SharedFirst,
        AcceptPolicy::InvalidThenShared,
        true,
        false,
    )
}

#[test]
fn non_inclusive_slc_copy_survives_am_replacement() {
    let mut e = non_inclusive_engine(MemoryPressure::MP_87);
    let line = LineNum(0);
    e.read(ProcId(0), line); // Exclusive at node 0
    e.read(ProcId(1), line); // Shared replica at node 1 (and its SLC)
                             // Conflict node 1's AM set until the replica is displaced.
    let sets = e.geometry().am_sets;
    let assoc = e.geometry().am_assoc as u64;
    for k in 1..=assoc + 1 {
        e.write(ProcId(1), LineNum(k * sets));
    }
    // The AM replica is gone but the SLC copy still serves reads.
    assert_eq!(e.node(1).am.state(line), AmState::Invalid);
    let out = e.read(ProcId(1), line);
    assert!(
        matches!(out.level, Level::Slc | Level::Flc),
        "SLC-only copy should satisfy the read, got {:?}",
        out.level
    );
    e.check_invariants().unwrap();
}

#[test]
fn non_inclusive_slc_only_copy_still_gets_invalidated() {
    let mut e = non_inclusive_engine(MemoryPressure::MP_87);
    let line = LineNum(0);
    e.read(ProcId(0), line);
    e.read(ProcId(1), line);
    let sets = e.geometry().am_sets;
    let assoc = e.geometry().am_assoc as u64;
    for k in 1..=assoc + 1 {
        e.write(ProcId(1), LineNum(k * sets));
    }
    // Writer elsewhere must kill the SLC-only replica (coherence!).
    e.write(ProcId(0), line);
    let out = e.read(ProcId(1), line);
    assert_eq!(out.level, Level::Remote, "stale SLC copy served a read");
    e.check_invariants().unwrap();
}

/// A sharer whose copies are SLC-only has no AM slot to take over the
/// line: displacing the owner must not migrate ownership to it.
#[test]
fn non_inclusive_owner_never_migrates_to_an_slc_only_sharer() {
    let mut e = non_inclusive_engine(MemoryPressure::MP_87);
    let line = LineNum(0);
    e.read(ProcId(0), line);
    e.read(ProcId(1), line);
    let sets = e.geometry().am_sets;
    let assoc = e.geometry().am_assoc as u64;
    // Node 1's AM replica goes; its SLC copy stays.
    for k in 1..=assoc + 1 {
        e.write(ProcId(1), LineNum(k * sets));
    }
    assert_eq!(e.node(1).am.state(line), AmState::Invalid);
    // Now displace the owner's copy from node 0's AM.
    for k in assoc + 2..=2 * assoc + 2 {
        e.write(ProcId(0), LineNum(k * sets));
    }
    assert_eq!(e.node(0).am.state(line), AmState::Invalid);
    e.check_invariants().unwrap();
    let owner = e.directory().get(line).expect("line still live").owner;
    assert!(e.node(owner.as_usize()).am.state(line).is_responsible());
}

#[test]
fn non_inclusive_invariants_under_storm() {
    let mut e = non_inclusive_engine(MemoryPressure::MP_87);
    let mut rng = coma_types::Rng64::new(17);
    for i in 0..20_000 {
        let p = ProcId(rng.below(4) as u16);
        let l = LineNum(rng.below(1024));
        if rng.chance(0.4) {
            e.write(p, l);
        } else {
            e.read(p, l);
        }
        if i % 2_000 == 0 {
            e.check_invariants().unwrap();
        }
    }
    e.check_invariants().unwrap();
}

#[test]
fn invariants_hold_under_random_storm() {
    let mut e = engine(2, MemoryPressure::MP_87);
    let mut rng = coma_types::Rng64::new(7);
    for i in 0..20_000 {
        let p = ProcId(rng.below(4) as u16);
        let l = LineNum(rng.below(1024));
        if rng.chance(0.4) {
            e.write(p, l);
        } else {
            e.read(p, l);
        }
        if i % 2_000 == 0 {
            e.check_invariants().unwrap();
        }
    }
    e.check_invariants().unwrap();
}

/// Fill AM set 0 of every node of `engine(1, MP_87)` with responsible
/// lines written by processor 0, then write one more line of the set.
/// Returns the engine and the line the OS paged out.
fn page_out_one_line() -> (CoherenceEngine, LineNum) {
    let mut e = engine(1, MemoryPressure::MP_87);
    let geom = *e.geometry();
    let slots = (geom.n_nodes * geom.am_assoc) as u64;
    let lines: Vec<LineNum> = (0..=slots).map(|k| LineNum(k * geom.am_sets)).collect();
    for (k, &l) in lines.iter().enumerate() {
        let out = e.write(ProcId(0), l);
        // Only the write past the set's machine-wide capacity finds no
        // acceptor for its victim.
        assert_eq!(out.pageout, k as u64 == slots, "write {k} of {l:?}");
        assert!(!out.pagein);
    }
    let dead: Vec<LineNum> = lines
        .iter()
        .copied()
        .filter(|&l| !e.directory().contains(l))
        .collect();
    assert_eq!(dead.len(), 1, "exactly one line leaves the machine");
    assert_eq!(e.paged_out_lines().collect::<Vec<_>>(), dead);
    e.check_invariants().unwrap();
    (e, dead[0])
}

#[test]
fn paged_out_line_pages_back_in_once() {
    for write in [false, true] {
        let (mut e, line) = page_out_one_line();
        let touch = |e: &mut CoherenceEngine| {
            if write {
                e.write(ProcId(0), line)
            } else {
                e.read(ProcId(0), line)
            }
        };
        assert!(touch(&mut e).pagein, "write {write}: no page-in");
        assert!(e.directory().contains(line));
        assert!(
            e.paged_out_lines().all(|l| l != line),
            "write {write}: the paged-in line is still paged out"
        );
        e.check_invariants().unwrap();
        assert!(!touch(&mut e).pagein, "write {write}: paged in twice");
    }
}
