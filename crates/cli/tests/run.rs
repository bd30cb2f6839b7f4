//! `coma run` reports the allocation counters of the simulated run.

use std::process::Command;

#[test]
fn run_prints_page_outs_and_cold_allocations() {
    // The Water n2 128-node COMA golden of `tests/traffic_goldens.rs`.
    let out = Command::new(env!("CARGO_BIN_EXE_coma"))
        .args(["run", "--app", "water-n2", "--procs", "128", "--ppn", "1"])
        .args(["--groups", "32", "--levels", "3", "--mp", "13/16"])
        .args(["--scale", "smoke"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("allocation "))
        .unwrap_or_else(|| panic!("no allocation line in: {stdout}"));
    assert!(
        line.ends_with(" 43 page-outs, 1097 cold allocations"),
        "{line}"
    );
}
