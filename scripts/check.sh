#!/usr/bin/env bash
# The CI gate: formatting, lints, then the tier-1 offline build + test.
# Everything must pass with no network access (the workspace has no
# external dependencies, so the registry is never consulted).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (workspace, -D warnings)"
# Catches intra-doc links left dangling by a deleted or renamed item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> tier-1: cargo build --release && cargo test -q (every workspace crate)"
cargo build --release --offline
cargo test -q --offline

echo "==> simbench self-tests: the benchmark still builds against the crates"
# simbench implements MemorySystem and destructures SimReport, so this
# is the step that catches an API change that breaks the benchmark; it
# also checks every cell's pinned report digest.
cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "==> sweep smoke: parallel sweep must be byte-identical to serial"
COMA_SCALE=smoke COMA_THREADS=4 cargo test -q --offline -p coma --test sweep_determinism

echo "==> protocol verification smoke: bounded model check + 10k fuzz ops"
cargo run --release --offline -p coma-verify -- --smoke

echo "==> hierarchy smoke: 64-proc 2-level machine end to end"
# A hierarchical config through the CLI (validate + route-aware timing
# walk) and one tree-vs-flat sweep cell through the cached sweep engine.
cargo run --release --offline -p coma-cli --bin coma -- \
  run --app fft --procs 64 --ppn 4 --groups 4 --scale smoke
COMA_SCALE=smoke COMA_OUT=$(mktemp -d) \
  cargo run --release --offline -p coma-experiments --bin hierarchy -- --smoke

echo "==> traffic smoke: both production-traffic families through the sweep"
# The kv_zipf + graph_bfs corner matrix (two pressures, two clustering
# degrees, COMA vs the NUMA anchors) through the cached sweep engine,
# producing the traffic csv/svg into a scratch dir.
COMA_SCALE=smoke COMA_OUT=$(mktemp -d) \
  cargo run --release --offline -p coma-experiments --bin traffic -- --smoke

echo "OK: all checks passed"
