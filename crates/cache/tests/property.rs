//! Randomized property tests for the cache structures, driven by the
//! in-repo deterministic RNG (`coma_types::Rng64`) so the workspace needs
//! no external test dependencies: the set-associative array is checked
//! against a naive reference model, and the attraction memory's
//! victim/accept decisions against their specifications.

use coma_cache::{
    AcceptPolicy, AcceptSlot, AmState, AttractionMemory, Indexer, LineIndex, SetAssoc, Victim,
    VictimPolicy,
};
use coma_types::{LineNum, MachineGeometry, Rng64, Topology};

/// Reference model: a vector of (line, state) per set with LRU order
/// (front = LRU).
#[derive(Default, Clone)]
struct RefSet {
    entries: Vec<(u64, u8)>,
}

#[derive(Clone, Copy, Debug)]
enum ArrOp {
    Lookup(u64),
    Peek(u64),
    Insert(u64, u8),
    Remove(u64),
    SetState(u64, u8),
    /// The fused fill path (`insert_evicting`): update in place, or insert
    /// evicting the set's LRU entry when full.
    InsertEvicting(u64, u8),
}

fn random_op(rng: &mut Rng64, max_line: u64) -> ArrOp {
    let l = rng.below(max_line);
    match rng.below(6) {
        0 => ArrOp::Lookup(l),
        1 => ArrOp::Peek(l),
        2 => ArrOp::Insert(l, rng.below(256) as u8),
        3 => ArrOp::Remove(l),
        4 => ArrOp::SetState(l, rng.below(256) as u8),
        _ => ArrOp::InsertEvicting(l, rng.below(256) as u8),
    }
}

/// The flat recency-ordered SetAssoc is observationally equivalent to a
/// naive per-set-vector reference model (the shape of the pre-flattening
/// implementation) under arbitrary op sequences, including LRU victim
/// identity and the fused insert path. Every op goes through the
/// set-taking form with the set index a caller would precompute, at
/// associativities 1–8 (Figure 4's 8-way AM included) and set counts
/// 1–13, powers of two or not.
#[test]
fn set_assoc_matches_reference_model() {
    let mut rng = Rng64::new(0xCACE);
    for _case in 0..256 {
        let n_sets = rng.range(1, 14);
        let assoc = rng.range(1, 9) as usize;
        let n_ops = rng.range(1, 600);
        // Twice the capacity in distinct lines: sets fill and evict.
        let max_line = 2 * n_sets * assoc as u64;
        let mut arr: SetAssoc<u8> = SetAssoc::new(n_sets, assoc);
        let mut model: Vec<RefSet> = vec![RefSet::default(); n_sets as usize];
        for _ in 0..n_ops {
            let op = random_op(&mut rng, max_line);
            let (ArrOp::Lookup(l)
            | ArrOp::Peek(l)
            | ArrOp::Insert(l, _)
            | ArrOp::Remove(l)
            | ArrOp::SetState(l, _)
            | ArrOp::InsertEvicting(l, _)) = op;
            let (line, set) = (LineNum(l), (l % n_sets) as usize);
            let m = &mut model[set].entries;
            let pos = m.iter().position(|(x, _)| *x == l);
            match op {
                ArrOp::Lookup(_) => {
                    assert_eq!(arr.lookup(line, set), pos.map(|p| m[p].1));
                    if let Some(p) = pos {
                        // Move to MRU position in the model.
                        let e = m.remove(p);
                        m.push(e);
                    }
                }
                ArrOp::Peek(_) => assert_eq!(arr.peek(line, set), pos.map(|p| m[p].1)),
                ArrOp::Insert(_, s) => {
                    if pos.is_none() && m.len() < assoc {
                        arr.insert(line, set, s);
                        m.push((l, s));
                    }
                }
                ArrOp::Remove(_) => {
                    assert_eq!(arr.remove(line, set), pos.map(|p| m[p].1));
                    if let Some(p) = pos {
                        m.remove(p);
                    }
                }
                ArrOp::SetState(_, s) => {
                    let got = arr.state_mut(line, set).map(|st| *st = s);
                    assert_eq!(got.is_some(), pos.is_some());
                    if let Some(p) = pos {
                        m[p].1 = s;
                    }
                }
                ArrOp::InsertEvicting(_, s) => {
                    let got = arr.insert_evicting(line, set, s);
                    let want = if let Some(p) = pos {
                        // Present: state updated in place, no LRU refresh.
                        m[p].1 = s;
                        None
                    } else if m.len() < assoc {
                        m.push((l, s));
                        None
                    } else {
                        // Full: the front of the model vec is the LRU.
                        let victim = m.remove(0);
                        m.push((l, s));
                        Some(victim)
                    };
                    assert_eq!(got.map(|(l, s)| (l.0, s)), want);
                }
            }
            // Structural agreement after every op: the whole set, in
            // recency order (MRU first), and the total count.
            let mut seen = Vec::new();
            arr.scan_set(line, set, |x, st| seen.push((x.0, st)));
            let want: Vec<(u64, u8)> = model[set].entries.iter().rev().copied().collect();
            assert_eq!(seen, want, "set {set} after {op:?}");
            assert_eq!(
                arr.len(),
                model.iter().map(|m| m.entries.len()).sum::<usize>()
            );
        }
    }
}

/// `line`'s index on a machine whose AMs have `am_sets` sets.
fn am_ix(line: u64, am_sets: u64) -> LineIndex {
    let geom = MachineGeometry {
        n_procs: 1,
        n_nodes: 1,
        procs_per_node: 1,
        flc_sets: 1,
        slc_sets: 1,
        slc_assoc: 1,
        am_sets,
        am_assoc: 4,
        topology: Topology::flat(),
    };
    Indexer::new(&geom).index(LineNum(line))
}

/// The AM never chooses to inject while a Shared replica is available
/// (paper victim priority), and a free slot always wins.
#[test]
fn am_victim_priority_specification() {
    let mut rng = Rng64::new(0xA11);
    for _case in 0..64 {
        let mut am = AttractionMemory::new(8, 4, VictimPolicy::SharedFirst);
        let n_fill = rng.below(64);
        for _ in 0..n_fill {
            let l = rng.below(32);
            if am.state(LineNum(l)).is_valid() {
                continue;
            }
            if let Victim::FreeSlot = am.make_room(am_ix(l, 8)) {
                let st = match rng.below(3) {
                    0 => AmState::Shared,
                    1 => AmState::Owner,
                    _ => AmState::Exclusive,
                };
                am.insert(am_ix(l, 8), st);
            }
        }
        let probe = rng.below(32);
        let line = LineNum(probe);
        if am.state(line).is_valid() {
            continue;
        }
        let set_states: Vec<AmState> = (0..32)
            .filter(|l| l % 8 == probe % 8)
            .map(|l| am.state(LineNum(l)))
            .filter(|s| s.is_valid())
            .collect();
        match am.make_room(am_ix(probe, 8)) {
            Victim::FreeSlot => assert!(set_states.len() < 4),
            Victim::DropShared(_) => {
                assert!(set_states.contains(&AmState::Shared));
                assert_eq!(set_states.len(), 4);
            }
            Victim::Inject(_, st) => {
                assert!(!set_states.contains(&AmState::Shared));
                assert!(st.is_responsible());
                assert_eq!(set_states.len(), 4);
            }
        }
    }
}

/// Accept policy: a node with room must offer a slot, the holder never
/// offers, and Invalid slots are preferred under the paper policy.
#[test]
fn am_accept_specification() {
    let mut rng = Rng64::new(0xACC);
    for _case in 0..64 {
        let n_shared = rng.below(5) as usize;
        let n_owned = rng.below(5) as usize;
        let mut am = AttractionMemory::new(1, 4, VictimPolicy::SharedFirst);
        let mut l = 1u64;
        for _ in 0..n_shared.min(4) {
            if am.make_room(am_ix(l, 1)) == Victim::FreeSlot {
                am.insert(am_ix(l, 1), AmState::Shared);
            }
            l += 1;
        }
        for _ in 0..n_owned {
            if am.make_room(am_ix(l, 1)) != Victim::FreeSlot {
                break;
            }
            am.insert(am_ix(l, 1), AmState::Owner);
            l += 1;
        }
        let slot = am.accept_slot(am_ix(0, 1), AcceptPolicy::InvalidThenShared);
        let occupied = am.len();
        if occupied < 4 {
            assert_eq!(slot, Some(AcceptSlot::Invalid));
        } else if n_shared.min(4) > 0 {
            assert!(matches!(slot, Some(AcceptSlot::Shared(_))));
        } else {
            assert_eq!(slot, None);
        }
        // A holder never accepts its own line.
        let first = am.lines().next().map(|(line, _)| line);
        if let Some(line) = first {
            assert_eq!(
                am.accept_slot(am_ix(line.0, 1), AcceptPolicy::InvalidThenShared),
                None
            );
        }
    }
}
