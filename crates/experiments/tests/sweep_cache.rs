//! Cache-correctness tests: key stability, cold-vs-warm equality, the
//! entry size, and poisoned-entry detection. The cache must never serve a
//! wrong result — a corrupt, truncated, version-stale or wrong-length
//! entry is a *miss*, recomputed from scratch.

use coma_experiments::sweep::{run_matrix, run_sweep, spec_key, COLUMNS};
use coma_experiments::{ExpCtx, RunSpec, Source};
use coma_sim::canon::{fnv1a_bytes, FNV_OFFSET};
use coma_types::MemoryPressure;
use coma_workloads::{AppId, Scale};
use std::path::PathBuf;

fn ctx(dir: &str) -> ExpCtx {
    let out = std::env::temp_dir().join("coma-sweep-cache").join(dir);
    let _ = std::fs::remove_dir_all(&out);
    ExpCtx {
        scale: Scale::SMOKE,
        seed: 42,
        out_dir: out,
        threads: 2,
        no_cache: false,
    }
}

fn specs() -> Vec<RunSpec> {
    vec![
        RunSpec::new(AppId::WaterN2, 1, MemoryPressure::MP_50),
        RunSpec::new(AppId::WaterN2, 4, MemoryPressure::MP_50),
        RunSpec::new(AppId::Fft, 4, MemoryPressure::MP_87),
    ]
}

fn cache_entries(ctx: &ExpCtx) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(ctx.out_dir.join("cache"))
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cell"))
        .collect();
    v.sort();
    v
}

#[test]
fn cold_run_misses_warm_run_hits_byte_identically() {
    let c = ctx("cold-warm");
    let m = specs();
    let cold = run_sweep(&c, "cw", &m);
    assert_eq!((cold.hits, cold.misses, cold.failed), (0, m.len(), 0));
    let warm = run_sweep(&c, "cw", &m);
    assert_eq!((warm.hits, warm.misses, warm.failed), (m.len(), 0, 0));
    // The warm store is byte-identical to the cold one.
    let path = c.out_dir.join("store").join("cw.cols");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(cold.store().raw_bytes(), warm.store().raw_bytes());
    assert_eq!(bytes, warm.store().raw_bytes());
}

#[test]
fn poisoned_entries_are_detected_and_recomputed() {
    let c = ctx("poison");
    let m = specs();
    let cold = run_matrix(&c, &m);
    assert_eq!(cold.misses, m.len());
    let entries = cache_entries(&c);
    assert_eq!(entries.len(), m.len());
    // Each entry is the 32-byte header, one row of store columns and the
    // 8-byte checksum.
    for e in &entries {
        let len = std::fs::metadata(e).unwrap().len() as usize;
        assert_eq!(len, 40 + 8 * COLUMNS.len(), "{}", e.display());
    }

    // Flip one payload byte: the checksum catches it.
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = 32 + (bytes.len() - 40) / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(victim, &bytes).unwrap();
    let warm = run_matrix(&c, &m);
    assert_eq!(warm.hits, m.len() - 1, "poisoned entry must not be served");
    assert_eq!(warm.misses, 1);

    // Stale entry-format version: also a miss.
    let entries = cache_entries(&c);
    let mut bytes = std::fs::read(&entries[1]).unwrap();
    bytes[8] ^= 0xFF; // version word at offset 8
    std::fs::write(&entries[1], &bytes).unwrap();
    // Truncation: also a miss.
    let bytes = std::fs::read(&entries[2]).unwrap();
    std::fs::write(&entries[2], &bytes[..bytes.len() / 2]).unwrap();
    let warm = run_matrix(&c, &m);
    assert_eq!((warm.hits, warm.misses), (m.len() - 2, 2));

    // A 39-byte entry whose length word is u64::MAX: `32 + len + 8` would
    // wrap to 39 and pass a naive length check. A miss, not a panic.
    let entries = cache_entries(&c);
    let mut bytes = std::fs::read(&entries[0]).unwrap();
    bytes.truncate(39);
    bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&entries[0], &bytes).unwrap();
    let warm = run_matrix(&c, &m);
    assert_eq!((warm.hits, warm.misses, warm.failed), (m.len() - 1, 1, 0));

    // A checksum-valid payload one word short of a row, or one word
    // past it, is not a row: both are misses.
    let entries = cache_entries(&c);
    for (entry, words) in entries[1..]
        .iter()
        .zip([COLUMNS.len() - 1, COLUMNS.len() + 1])
    {
        let bytes = std::fs::read(entry).unwrap();
        let mut payload = bytes[32..bytes.len() - 8].to_vec();
        payload.resize(8 * words, 0x5A);
        let mut forged = bytes[..24].to_vec();
        forged.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        forged.extend_from_slice(&payload);
        forged.extend_from_slice(&fnv1a_bytes(FNV_OFFSET, &payload).to_le_bytes());
        std::fs::write(entry, &forged).unwrap();
    }
    let warm = run_matrix(&c, &m);
    assert_eq!((warm.hits, warm.misses, warm.failed), (m.len() - 2, 2, 0));

    // Every recompute matches the original rows exactly.
    let final_run = run_matrix(&c, &m);
    assert_eq!(final_run.hits, m.len());
    assert_eq!(cold.cells, final_run.cells);
}

#[test]
fn no_cache_mode_touches_no_cache_dir() {
    let mut c = ctx("disabled");
    c.no_cache = true;
    let out = run_matrix(&c, &specs());
    assert_eq!((out.hits, out.misses), (0, specs().len()));
    assert!(
        !c.out_dir.join("cache").exists(),
        "--no-cache must not create cache state"
    );
}

#[test]
fn cache_keys_cover_workload_identity_not_just_params() {
    let c = ctx("keys");
    let spec = RunSpec::new(AppId::Fft, 4, MemoryPressure::MP_81);
    let base = spec_key(&c, &spec);

    // Same params, different app → different key.
    let other_app = RunSpec::new(AppId::Barnes, 4, MemoryPressure::MP_81);
    assert_ne!(base, spec_key(&c, &other_app));

    // Different seed or scale → different key.
    let mut seeded = c.clone();
    seeded.seed = 43;
    assert_ne!(base, spec_key(&seeded, &spec));
    let mut scaled = c.clone();
    scaled.scale = Scale::BENCH;
    assert_ne!(base, spec_key(&scaled, &spec));

    // Any parameter change → different key (the canonical hash covers
    // every field; exhaustively pinned in coma-sim's canon tests).
    let tweaked = spec.clone().with_assoc(8);
    assert_ne!(base, spec_key(&c, &tweaked));

    // Identical inputs → identical key (stable across processes too: the
    // hash has no pointer or time dependence).
    assert_eq!(base, spec_key(&c, &spec.clone()));

    // The hot-line probe keys apart from every catalog app at the same
    // params.
    let hot_line = RunSpec::of(Source::HotLine, 4, MemoryPressure::MP_81);
    for app in AppId::ALL.into_iter().chain(AppId::TRAFFIC) {
        let catalog = RunSpec::new(app, 4, MemoryPressure::MP_81);
        assert_ne!(spec_key(&c, &hot_line), spec_key(&c, &catalog), "{app:?}");
    }
}

/// A catalog cell's key is pinned across code versions: a change that
/// moves it orphans every cache entry and every committed store's `key`.
#[test]
fn catalog_key_is_pinned() {
    let mut c = ctx("pinned");
    c.scale = Scale::PAPER;
    let spec = RunSpec::new(AppId::Barnes, 1, MemoryPressure::MP_6);
    assert_eq!(spec_key(&c, &spec), 0x224b2b702ab07168);
}
