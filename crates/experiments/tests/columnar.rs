//! Columnar-store integration tests: the on-disk round trip (build →
//! write → `ColFile::open`), validity masks across both column types,
//! and the degenerate shapes a sweep can produce (empty matrix, one
//! cell). The byte-level format checks live next to the implementation
//! in `coma_experiments::columnar`.

use coma_experiments::columnar::{ColBuilder, ColFile, ColType};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coma-columnar-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn file_round_trip_preserves_all_column_types_and_masks() {
    let mut b = ColBuilder::new(5);
    b.col_u64(
        "exec_time_ns",
        vec![Some(1), Some(u64::MAX), None, Some(0), Some(42)],
    );
    b.col_f64(
        "rnm_rate",
        vec![Some(0.0), Some(-0.0), Some(f64::MAX), None, Some(1.0 / 3.0)],
    );
    b.col_u64("pageouts", vec![None; 5]);
    let path = tmp("roundtrip.cols");
    b.write(&path).unwrap();

    let f = ColFile::open(&path).unwrap();
    assert_eq!(f.n_rows(), 5);
    assert_eq!(f.n_cols(), 3);
    assert_eq!(
        f.names().collect::<Vec<_>>(),
        ["exec_time_ns", "rnm_rate", "pageouts"]
    );
    assert_eq!(f.col_type("exec_time_ns"), Some(ColType::U64));
    assert_eq!(f.col_type("rnm_rate"), Some(ColType::F64));
    assert_eq!(f.col_type("missing"), None);

    assert_eq!(
        f.u64_col("exec_time_ns"),
        vec![Some(1), Some(u64::MAX), None, Some(0), Some(42)]
    );
    // f64 values survive as exact bit patterns, including -0.0.
    let rate = f.f64_col("rnm_rate");
    assert_eq!(rate[0], Some(0.0));
    assert_eq!(rate[1].map(f64::to_bits), Some((-0.0f64).to_bits()));
    assert_eq!(rate[2], Some(f64::MAX));
    assert_eq!(rate[3], None);
    assert_eq!(rate[4], Some(1.0 / 3.0));
    // An all-null column: every row invalid, every word readable as raw.
    assert!((0..5).all(|r| !f.is_valid("pageouts", r)));
    assert_eq!(f.raw_data("pageouts"), &[0u8; 40]);
}

#[test]
fn failed_cells_read_back_as_null_without_poisoning_neighbors() {
    let mut b = ColBuilder::new(3);
    b.col_u64("total_bytes", vec![Some(100), None, Some(300)]);
    let path = tmp("nulls.cols");
    b.write(&path).unwrap();
    let f = ColFile::open(&path).unwrap();
    assert_eq!(f.get_u64("total_bytes", 0), Some(100));
    assert_eq!(f.get_u64("total_bytes", 1), None);
    assert_eq!(f.get_u64("total_bytes", 2), Some(300));
}

#[test]
fn empty_matrix_round_trips() {
    let mut b = ColBuilder::new(0);
    b.col_u64("exec_time_ns", Vec::new());
    b.col_f64("rnm_rate", Vec::new());
    let path = tmp("empty.cols");
    b.write(&path).unwrap();
    let f = ColFile::open(&path).unwrap();
    assert_eq!(f.n_rows(), 0);
    assert_eq!(f.n_cols(), 2);
    assert_eq!(f.u64_col("exec_time_ns"), Vec::<Option<u64>>::new());
    assert!(f.raw_data("exec_time_ns").is_empty());
    assert!(f.raw_mask("exec_time_ns").is_empty());
}

#[test]
fn single_cell_matrix_round_trips() {
    let mut b = ColBuilder::new(1);
    b.col_u64("exec_time_ns", vec![Some(7)]);
    let path = tmp("one.cols");
    b.write(&path).unwrap();
    let f = ColFile::open(&path).unwrap();
    assert_eq!(f.n_rows(), 1);
    assert_eq!(f.get_u64("exec_time_ns", 0), Some(7));
    assert!(f.is_valid("exec_time_ns", 0));
}

#[test]
fn write_is_atomic_and_rereadable() {
    // Writing twice over the same path must leave a complete, valid file
    // (temp + rename; no partially written state observable). The test
    // owns its directory, so no other test's temp file can appear in it.
    let dir = tmp("atomic");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("atomic.cols");
    for v in [1u64, 2] {
        let mut b = ColBuilder::new(1);
        b.col_u64("v", vec![Some(v)]);
        b.write(&path).unwrap();
        assert_eq!(ColFile::open(&path).unwrap().get_u64("v", 0), Some(v));
    }
    let leftovers: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files must not survive a successful write: {leftovers:?}"
    );
}
