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

echo "==> simbench_pairs self-test: pair statistics and the gain verdict"
python3 scripts/simbench_pairs.py --self-test

echo "==> sweep smoke: parallel sweep must be byte-identical to serial"
COMA_SCALE=smoke COMA_THREADS=4 cargo test -q --offline -p coma --test sweep_determinism

echo "==> protocol verification smoke: bounded model check + 10k fuzz ops"
cargo run --release --offline -p coma-cli --bin coma -- verify --mode smoke

echo "==> hierarchy smoke: 64- and 256-proc tree machines end to end"
# Hierarchical configs through the CLI (validate + route-aware timing
# walk), up to the largest supported machine, and one tree-vs-flat
# sweep cell through the cached sweep engine. The 256-node Water run
# crosses the directory's spilled sharer sets and, at 13/16 pressure,
# pages lines out and back in. The NUMA run puts a baseline engine on a
# tree, where upgrades climb to the home's group.
cargo run --release --offline -p coma-cli --bin coma -- \
  run --app fft --procs 64 --ppn 4 --groups 4 --scale smoke
cargo run --release --offline -p coma-cli --bin coma -- \
  run --app fft --procs 64 --ppn 4 --groups 4 --model numa --scale smoke
cargo run --release --offline -p coma-cli --bin coma -- \
  run --app fft --procs 256 --ppn 4 --groups 16 --scale smoke
cargo run --release --offline -p coma-cli --bin coma -- \
  run --app water-n2 --procs 256 --ppn 1 --groups 64 --levels 3 --mp 13/16 --scale smoke
COMA_SCALE=smoke COMA_OUT=$(mktemp -d) \
  cargo run --release --offline -p coma-experiments --bin hierarchy -- --smoke

echo "==> all smoke: every experiment but hierarchy, in one process"
# The in-process runner end to end: each experiment's library function
# under one ExpCtx, ending in the whole-run cache tally. The elapsed
# seconds (bash SECONDS) put the cold `--bin all` wall-clock in every
# log; it is a record, not a gate.
ALL_OUT=$(mktemp -d)
SECONDS=0
COMA_SCALE=smoke COMA_OUT=$ALL_OUT \
  cargo run --release --offline -p coma-experiments --bin all -- --jobs 2
echo "all smoke, cold: ${SECONDS} s wall-clock"

echo "==> all smoke, warm: a rerun must serve every cell from the cache"
# Pins deterministic cache keys for every sweep, thresholds included.
warm=$(COMA_SCALE=smoke COMA_OUT=$ALL_OUT \
  cargo run --release --offline -q -p coma-experiments --bin all -- --jobs 2)
echo "$warm" | tail -n 2
if ! grep -qF "result cache: 610/610 cells served from cache" <<<"$warm"; then
  echo "FAIL: the warm rerun computed or failed cells" >&2
  exit 1
fi

echo "==> rust lines per crate (a record, not a gate)"
# The size of the code base, for CHANGES.md's before/after figures.
total=0
for d in crates/* src tests examples; do
  n=$(find "$d" -name '*.rs' -print0 | xargs -0 cat | wc -l)
  printf '%-20s %6d\n' "$d" "$n"
  total=$((total + n))
done
printf '%-20s %6d\n' total "$total"

echo "OK: all checks passed"
