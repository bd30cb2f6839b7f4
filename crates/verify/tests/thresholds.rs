//! Hot-line micro-workloads demonstrating the §4.2 full-replication
//! thresholds operationally.
//!
//! `coma-types::pressure::full_replication_threshold` derives the
//! thresholds analytically (49/64, 113/128, 13/16, 29/32); these tests
//! show the *engine* obeys the same arithmetic. We build each of the
//! paper's four (nodes × associativity) machines with a single AM set so
//! every line conflicts, size the unique working set exactly to the
//! threshold, and let one hot line be read by every node:
//!
//! * **at** the threshold the working set leaves exactly `n_nodes − 1`
//!   free way-slots, so the hot line replicates machine-wide;
//! * **one line above** it, the pigeonhole principle forces at least one
//!   replica out — responsible copies can't be dropped, so the shared
//!   replicas are what collapses.

use coma_cache::AmState;
use coma_protocol::MemorySystem;
use coma_types::{full_replication_threshold, LineNum, ProcId};
use coma_verify::{CheckConfig, Snapshot};

fn config(n_nodes: usize, assoc: usize) -> CheckConfig {
    let mut cfg = CheckConfig::pressured(n_nodes, 1, 0); // no search here
    cfg.geom.am_assoc = assoc; // one AM set: every line conflicts
    cfg
}

/// Run the hot-line workload with `extra` unique lines beyond the
/// threshold working set and return the final machine snapshot.
fn hot_line_workload(n_nodes: usize, assoc: usize, extra: usize) -> Snapshot {
    let cfg = config(n_nodes, assoc);
    let mut e = cfg.build_engine();
    let hot = LineNum(0);
    let mut next = 1u64;

    // Home node 0: the hot line plus assoc−1 private lines.
    e.write(ProcId(0), hot);
    for _ in 0..assoc - 1 {
        e.write(ProcId(0), LineNum(next));
        next += 1;
    }
    // Every other node materializes assoc−1 private lines; the
    // above-threshold variant gives node 1 the surplus.
    for k in 1..n_nodes {
        let fillers = assoc - 1 + if k == 1 { extra } else { 0 };
        for _ in 0..fillers {
            e.write(ProcId(k as u16), LineNum(next));
            next += 1;
        }
    }
    // Total unique lines so far: n·assoc − (n − 1) + extra — at extra=0
    // exactly the threshold numerator.
    assert_eq!(
        next,
        (n_nodes * assoc - (n_nodes - 1) + extra) as u64,
        "working-set accounting is off"
    );

    // Now every node pulls a replica of the hot line.
    for k in 1..n_nodes {
        e.read(ProcId(k as u16), hot);
    }
    Snapshot::capture(&e)
}

fn nodes_holding(snap: &Snapshot, line: u64) -> usize {
    snap.nodes
        .iter()
        .filter(|nd| {
            nd.am
                .iter()
                .any(|&(l, s)| l == line && s != AmState::Invalid)
        })
        .count()
}

#[test]
fn replication_at_and_above_each_paper_threshold() {
    for &(n, assoc) in &[(16usize, 4usize), (16, 8), (4, 4), (4, 8)] {
        let (num, den) = full_replication_threshold(n as u32, assoc as u32);
        assert_eq!(den, (n * assoc) as u32);
        assert_eq!(num, (n * assoc - (n - 1)) as u32);

        // MP exactly num/den: machine-wide replication fits.
        let at = hot_line_workload(n, assoc, 0);
        assert_eq!(
            nodes_holding(&at, 0),
            n,
            "{n}×{assoc}-way at MP {num}/{den}: hot line should be \
             replicated in every node"
        );
        assert!(at.paged_out.is_empty(), "{n}×{assoc}: nothing may page out");

        // One more unique line (MP = (num+1)/den, just above the
        // threshold): replication must collapse.
        let above = hot_line_workload(n, assoc, 1);
        let holding = nodes_holding(&above, 0);
        assert!(
            holding < n,
            "{n}×{assoc}-way at MP {}/{den}: replication should have \
             collapsed, but {holding}/{n} nodes still hold the hot line",
            num + 1
        );
        // The responsible copy itself survives — collapse sheds shared
        // replicas, never the owner (checked machine-wide too: nothing
        // was paged out, so every unique line is still resident).
        assert!(holding >= 1, "{n}×{assoc}: responsible copy vanished");
        assert!(
            above.paged_out.is_empty(),
            "{n}×{assoc}: collapse must evict replicas, not page out data"
        );
        assert!(
            above.check(true).is_ok(),
            "final state violates protocol invariants"
        );
    }
}

#[test]
fn collapse_is_pigeonhole_tight() {
    // Just above the threshold there is exactly one slot too few: at most
    // one node can lose its replica beyond the unavoidable minimum. For
    // the 4×4 machine: 16 slots, 14 responsible copies, so at most 2
    // shared replicas survive → exactly 3 of 4 nodes hold the hot line.
    let above = hot_line_workload(4, 4, 1);
    assert_eq!(nodes_holding(&above, 0), 3);
}
