//! KV Zipf — production-shaped key-value / OLTP traffic.
//!
//! Unlike the fourteen SPLASH-2 analogues, this family models a serving
//! workload: millions of simulated clients hammering a shared key-value
//! store whose key popularity follows a Zipf(s) law. Structure:
//!
//! * Each request looks up an **index line** (8 keys per line — the
//!   B-tree / hash-directory page for that key) and then touches the
//!   key's **value line**. Hot index pages are the best case for
//!   attraction-memory replication: read-mostly, touched by everyone.
//! * A fixed fraction of requests (`WRITE_FRAC`) are **updates**: the
//!   request acquires the key's shard lock, re-reads the index, and
//!   read-modify-writes the value line — the write-invalidation storm
//!   that erodes replicas under COMA.
//! * **Client skew** models clients pinned to front-end processors: a
//!   fraction (`CLIENT_SKEW`) of each processor's requests are
//!   redirected to a processor-private rotation of the popularity
//!   ranking, giving every node its own secondary hot set.
//! * Requests are grouped into epochs closed by a barrier (stats flush /
//!   checkpoint), so the trace has the same global synchronization
//!   skeleton as the rest of the catalog.
//!
//! Popularity ranks are mapped to key ids through a seeded permutation,
//! so the hot set is scattered across the whole value region instead of
//! clustering in its first lines (as a naive rank == key mapping would).

use crate::region::{Layout, Region};
use crate::stream::{shared_rng, OpBuf, PhaseGen, Scale};
use crate::workload::Workload;
use coma_types::{ZipfSampler, LINE_BYTES};
use std::sync::Arc;

const SALT: u64 = 0x5EE6_4B1A;
/// Epochs at `Scale::PAPER` (scaled by the trace-length knob).
const BASE_ROUNDS: u32 = 10;
/// Requests per processor per epoch (not scaled: working-set coverage per
/// epoch is part of the workload's shape, like an FFT pass).
const REQS_PER_ROUND: u64 = 4000;
/// Directory entries per index line.
const KEYS_PER_INDEX_LINE: u64 = 8;
/// Store shards; each update locks its key's shard.
const N_SHARD_LOCKS: u32 = 8;

/// Zipf popularity exponent (1 ≈ classic web traffic).
const ZIPF_S: f64 = 1.0;
/// Fraction of requests that update their key.
const WRITE_FRAC: f64 = 0.10;
/// Fraction of requests redirected to the processor-private hot set.
const CLIENT_SKEW: f64 = 0.10;

/// Distinct keys in a store sized to `ws_bytes`: the index (one line per
/// [`KEYS_PER_INDEX_LINE`] keys) plus the values (one line per key) fill
/// the working set.
pub(crate) fn keys_for(ws_bytes: u64) -> u64 {
    (ws_bytes / LINE_BYTES) * KEYS_PER_INDEX_LINE / (KEYS_PER_INDEX_LINE + 1)
}

struct KvZipf {
    me: usize,
    nprocs: usize,
    rounds: u32,
    zipf: ZipfSampler,
    /// Popularity rank → key id (shared seeded permutation).
    perm: Arc<Vec<u32>>,
    index: Region,
    values: Region,
    n_keys: u64,
}

impl PhaseGen for KvZipf {
    fn n_iters(&self) -> u32 {
        self.rounds
    }

    fn gen_iter(&mut self, _round: u32, buf: &mut OpBuf) {
        for _ in 0..REQS_PER_ROUND {
            let rank = self.zipf.sample(buf.rng());
            let mut key = self.perm[rank] as u64;
            if buf.rng().chance(CLIENT_SKEW) {
                // Redirect to this front-end's private rotation of the
                // ranking: same popularity law, disjoint hot keys.
                key = (key + self.me as u64 * self.n_keys / self.nprocs as u64) % self.n_keys;
            }
            let idx = self.index.line(key / KEYS_PER_INDEX_LINE);
            let val = self.values.line(key);
            if buf.rng().chance(WRITE_FRAC) {
                let shard = (key % N_SHARD_LOCKS as u64) as u32;
                buf.lock(shard);
                buf.read(idx);
                buf.update(val);
                buf.unlock(shard);
            } else {
                buf.read(idx);
                buf.read(val);
            }
        }
        // Epoch close: stats flush / checkpoint.
        buf.barrier();
    }
}

/// Build a store sized to the catalog working set `ws_bytes`.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    let n_keys = keys_for(ws_bytes);
    assert!(n_keys <= u32::MAX as u64, "key ids are stored as u32");
    let mut layout = Layout::new();
    let index = layout.alloc_lines(n_keys.div_ceil(KEYS_PER_INDEX_LINE));
    let values = layout.alloc_lines(n_keys);

    // Shared across processors: everyone agrees which keys are popular.
    let mut prng = shared_rng(seed, SALT, 0);
    let mut perm: Vec<u32> = (0..n_keys as u32).collect();
    prng.shuffle(&mut perm);
    let perm = Arc::new(perm);
    let zipf = ZipfSampler::new(n_keys as usize, ZIPF_S);

    let streams = super::build_streams(nprocs, seed, SALT, (1, 4), |me| KvZipf {
        me,
        nprocs,
        rounds: scale.iters(BASE_ROUNDS),
        zipf: zipf.clone(),
        perm: perm.clone(),
        index,
        values,
        n_keys,
    });
    Workload {
        name: "KV Zipf",
        ws_bytes: layout.total_bytes(),
        n_locks: N_SHARD_LOCKS,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    #[test]
    fn read_mostly_mix() {
        let mut wl = build(4, 7, Scale::SMOKE, 1 << 20);
        let (mut r, mut w) = (0u64, 0u64);
        while let Some(op) = wl.streams[0].next_op() {
            match op {
                Op::Read(_) => r += 1,
                Op::Write(_) => w += 1,
                _ => {}
            }
        }
        // 10% updates → roughly one write per 20 reads (the update's
        // read-modify-write re-reads, and lookups touch two lines).
        assert!(w > 0);
        assert!(r > 5 * w, "expected read-mostly traffic: r={r} w={w}");
    }

    #[test]
    fn hot_lines_dominate() {
        let mut wl = build(2, 3, Scale::SMOKE, 1 << 20);
        let mut counts = std::collections::HashMap::new();
        while let Some(op) = wl.streams[0].next_op() {
            if let Op::Read(a) | Op::Write(a) = op {
                *counts.entry(a.line().0).or_insert(0u64) += 1;
            }
        }
        let total: u64 = counts.values().sum();
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = freq.iter().take(freq.len() / 100 + 1).sum();
        // Zipf s=1: the top 1% of touched lines carries far more than 1%
        // of the traffic.
        assert!(
            top * 10 > total,
            "top-1% lines carry only {top}/{total} refs"
        );
    }

    #[test]
    fn updates_hold_the_shard_lock() {
        let mut wl = build(2, 5, Scale::SMOKE, 1 << 20);
        let mut held: Option<u32> = None;
        let mut locked_updates = 0u64;
        while let Some(op) = wl.streams[1].next_op() {
            match op {
                Op::Lock(id) => {
                    assert!(held.is_none(), "nested lock");
                    held = Some(id);
                }
                Op::Unlock(id) => {
                    assert_eq!(held.take(), Some(id));
                    locked_updates += 1;
                }
                _ => {}
            }
        }
        assert!(held.is_none());
        assert!(locked_updates > 10, "too few update transactions");
    }

    #[test]
    fn client_skew_separates_processor_hot_sets() {
        const PROCS: usize = 4;
        const SEED: u64 = 11;
        const WS: u64 = 1 << 20;
        let mut wl = build(PROCS, SEED, Scale::SMOKE, WS);
        // Value-line references per processor.
        let counts: Vec<std::collections::HashMap<u64, u64>> = wl
            .streams
            .iter_mut()
            .map(|s| {
                let mut c = std::collections::HashMap::new();
                while let Some(op) = s.next_op() {
                    if let Op::Read(a) | Op::Write(a) = op {
                        *c.entry(a.line().0).or_insert(0) += 1;
                    }
                }
                c
            })
            .collect();
        // Rebuild the store's layout and popularity ranking.
        let n_keys = keys_for(WS);
        let mut layout = Layout::new();
        layout.alloc_lines(n_keys.div_ceil(KEYS_PER_INDEX_LINE));
        let values = layout.alloc_lines(n_keys);
        let mut perm: Vec<u32> = (0..n_keys as u32).collect();
        shared_rng(SEED, SALT, 0).shuffle(&mut perm);
        // Processor p's rotation of the hottest key (p = 0's rotation is
        // the hottest key itself, which every processor shares).
        for p in 1..PROCS {
            let key = (perm[0] as u64 + p as u64 * n_keys / PROCS as u64) % n_keys;
            let line = values.line(key).line().0;
            let mine = counts[p].get(&line).copied().unwrap_or(0);
            let others = (0..PROCS)
                .filter(|&q| q != p)
                .map(|q| counts[q].get(&line).copied().unwrap_or(0))
                .max()
                .unwrap();
            assert!(
                mine > 4 * others.max(1),
                "processor {p} touches its hot key {mine} times, another processor {others}"
            );
        }
    }
}
