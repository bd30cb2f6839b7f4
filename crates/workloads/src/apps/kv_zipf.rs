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
//! * A configurable fraction of requests are **updates**: the request
//!   acquires the key's shard lock, re-reads the index, and
//!   read-modify-writes the value line — the write-invalidation storm
//!   that erodes replicas under COMA.
//! * **Client skew** models clients pinned to front-end processors: a
//!   fraction of each processor's requests are redirected to a
//!   processor-private rotation of the popularity ranking, giving every
//!   node its own secondary hot set.
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
use coma_types::{ConfigError, ZipfSampler, LINE_BYTES};
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

/// Tunable shape of the key-value traffic.
#[derive(Clone, Debug)]
pub struct KvSpec {
    /// Distinct keys in the store (each key owns one value line).
    pub n_keys: u64,
    /// Zipf popularity exponent (0 = uniform; 1 ≈ classic web traffic).
    pub zipf_s: f64,
    /// Fraction of requests that update their key.
    pub write_frac: f64,
    /// Fraction of requests redirected to the processor-private hot set.
    pub client_skew: f64,
}

impl KvSpec {
    /// Default traffic shape for a store sized to `ws_bytes`: read-hot
    /// (10 % updates), s = 1.0, mild client pinning.
    pub fn from_ws(ws_bytes: u64) -> Self {
        // index (1 line per 8 keys) + values (1 line per key) = ws.
        let n_keys = (ws_bytes / LINE_BYTES) * KEYS_PER_INDEX_LINE / (KEYS_PER_INDEX_LINE + 1);
        KvSpec {
            n_keys,
            zipf_s: 1.0,
            write_frac: 0.10,
            client_skew: 0.10,
        }
    }

    /// Reject degenerate configurations before any region is allocated.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_keys == 0 {
            return Err(ConfigError::EmptyWorkload {
                family: "kv_zipf",
                what: "n_keys",
            });
        }
        Ok(())
    }
}

struct KvZipf {
    me: usize,
    nprocs: usize,
    rounds: u32,
    write_frac: f64,
    client_skew: f64,
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
            if self.client_skew > 0.0 && buf.rng().chance(self.client_skew) {
                // Redirect to this front-end's private rotation of the
                // ranking: same popularity law, disjoint hot keys.
                key = (key + self.me as u64 * self.n_keys / self.nprocs as u64) % self.n_keys;
            }
            let idx = self.index.line(key / KEYS_PER_INDEX_LINE);
            let val = self.values.line(key);
            if buf.rng().chance(self.write_frac) {
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

/// Build with the default spec derived from the catalog working set.
pub fn build(nprocs: usize, seed: u64, scale: Scale, ws_bytes: u64) -> Workload {
    build_spec(&KvSpec::from_ws(ws_bytes), nprocs, seed, scale)
        .expect("catalog kv_zipf spec is valid")
}

/// Build from an explicit spec; rejects empty stores instead of
/// panicking inside the generator.
pub fn build_spec(
    spec: &KvSpec,
    nprocs: usize,
    seed: u64,
    scale: Scale,
) -> Result<Workload, ConfigError> {
    spec.validate()?;
    let n_keys = spec.n_keys;
    assert!(n_keys <= u32::MAX as u64, "key ids are stored as u32");
    let mut layout = Layout::new();
    let index = layout.alloc_lines(n_keys.div_ceil(KEYS_PER_INDEX_LINE));
    let values = layout.alloc_lines(n_keys);

    // Shared across processors: everyone agrees which keys are popular.
    let mut prng = shared_rng(seed, SALT, 0);
    let mut perm: Vec<u32> = (0..n_keys as u32).collect();
    prng.shuffle(&mut perm);
    let perm = Arc::new(perm);
    let zipf = ZipfSampler::new(n_keys as usize, spec.zipf_s);

    let (write_frac, client_skew) = (spec.write_frac, spec.client_skew);
    let streams = super::build_streams(nprocs, seed, SALT, (1, 4), |me| KvZipf {
        me,
        nprocs,
        rounds: scale.iters(BASE_ROUNDS),
        write_frac,
        client_skew,
        zipf: zipf.clone(),
        perm: perm.clone(),
        index,
        values,
        n_keys,
    });
    Ok(Workload {
        name: "KV Zipf",
        ws_bytes: layout.total_bytes(),
        n_locks: N_SHARD_LOCKS,
        streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpStream};

    fn spec(n_keys: u64) -> KvSpec {
        KvSpec {
            n_keys,
            ..KvSpec::from_ws(1 << 20)
        }
    }

    #[test]
    fn zero_keys_rejected() {
        assert_eq!(
            spec(0).validate(),
            Err(ConfigError::EmptyWorkload {
                family: "kv_zipf",
                what: "n_keys",
            })
        );
        assert!(build_spec(&spec(0), 4, 1, Scale::SMOKE).is_err());
    }

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
        let hot = |proc: usize| {
            let mut wl = build_spec(
                &KvSpec {
                    client_skew: 0.9,
                    ..KvSpec::from_ws(1 << 20)
                },
                4,
                11,
                Scale::SMOKE,
            )
            .unwrap();
            let mut counts = std::collections::HashMap::new();
            while let Some(op) = wl.streams[proc].next_op() {
                if let Op::Read(a) | Op::Write(a) = op {
                    *counts.entry(a.line().0).or_insert(0u64) += 1;
                }
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().map(|(l, c)| (c, l)).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.into_iter()
                .take(20)
                .map(|(_, l)| l)
                .collect::<std::collections::HashSet<u64>>()
        };
        let overlap = hot(0).intersection(&hot(2)).count();
        assert!(
            overlap < 15,
            "strong client skew should separate hot sets (overlap {overlap}/20)"
        );
    }
}
