//! Randomized equivalence test: the open-addressing [`OpenTable`] must be
//! observationally indistinguishable from `std::collections::HashMap` under arbitrary interleaved
//! insert / lookup / remove / in-place-update sequences — including the
//! backward-shift deletion paths that keep probe chains intact.

use coma_protocol::table::OpenTable;
use coma_types::Rng64;
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u64),
    Get(u64),
    Remove(u64),
    /// Mutate through `get_mut`, inserting when absent.
    Bump(u64, u64),
}

fn random_op(rng: &mut Rng64, key_space: u64) -> Op {
    let k = rng.below(key_space);
    match rng.below(4) {
        0 => Op::Insert(k, rng.next_u64()),
        1 => Op::Get(k),
        2 => Op::Remove(k),
        _ => Op::Bump(k, rng.range(1, 100)),
    }
}

#[test]
fn open_table_matches_std_hashmap() {
    let mut rng = Rng64::new(0x7AB1E);
    for case in 0..48 {
        // Small key spaces force dense collision chains and heavy
        // remove/re-insert churn; large ones force growth.
        let key_space = [8, 64, 4096][case % 3];
        let n_ops = rng.range(100, 4000);
        let mut table: OpenTable<u64> = OpenTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..n_ops {
            match random_op(&mut rng, key_space) {
                Op::Insert(k, v) => {
                    assert_eq!(table.insert(k, v), model.insert(k, v));
                }
                Op::Get(k) => {
                    assert_eq!(table.get(k), model.get(&k).copied());
                    assert_eq!(table.contains(k), model.contains_key(&k));
                }
                Op::Remove(k) => {
                    assert_eq!(table.remove(k), model.remove(&k));
                }
                Op::Bump(k, by) => {
                    match table.get_mut(k) {
                        Some(v) => *v += by,
                        None => assert_eq!(table.insert(k, by), None),
                    }
                    *model.entry(k).or_insert(0) += by;
                }
            }
            assert_eq!(table.len(), model.len());
        }
        // Full-content agreement at the end of every case.
        let mut got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
        let mut want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "content diverged (key_space {key_space})");
    }
}
