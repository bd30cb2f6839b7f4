//! `coma replay` on a crafted trace: the binary reports the bad input
//! and exits 1 instead of panicking in the simulator.

use std::process::Command;

#[test]
fn unlock_without_lock_prints_an_error_and_exits_1() {
    // 16 processors over 1 MiB with one lock; processor 0 runs
    // Unlock(0) and nothing else. 154 bytes.
    let mut trace = b"COMATRC1".to_vec();
    trace.extend_from_slice(&16u32.to_le_bytes());
    trace.extend_from_slice(&(1u64 << 20).to_le_bytes());
    trace.extend_from_slice(&1u32.to_le_bytes());
    trace.extend_from_slice(&1u64.to_le_bytes());
    trace.extend_from_slice(&[4, 0]);
    for _ in 1..16 {
        trace.extend_from_slice(&0u64.to_le_bytes());
    }
    assert_eq!(trace.len(), 154);
    let path = std::env::temp_dir().join(format!("coma-unlock-{}.trace", std::process::id()));
    std::fs::write(&path, &trace).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_coma"))
        .args(["replay", "--scale", "smoke", "--trace"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("does not hold"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
