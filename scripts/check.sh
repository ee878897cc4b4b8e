#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

# The three gates that need no registry come first, so they are reached —
# and say something — where clippy and the workspace tests cannot resolve
# their dependencies.
echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The four library crates built from their own sources against the
# stand-ins, and a smoke run of every benchmark workload with its full-log
# audit.
echo "==> offline manifest (benchmark smoke)"
cargo test --offline --manifest-path crates/benchmark/offline/Cargo.toml

# The unit tests of flstore (WAL, checkpoint, archive, replication) and
# core, which the manifest above builds but does not run.
scripts/unit_offline.sh

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> batching smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/batching-metrics.json batching

echo "==> readpath smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/readpath-metrics.json readpath

echo "==> recovery smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/recovery-metrics.json recovery

echo "==> obs smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/obs-metrics.json \
  --timeline-out target/bench-artifacts/obs-timeline.json \
  --trace-out target/bench-artifacts/obs-trace.json obs

echo "==> elasticity smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/elasticity-metrics.json \
  --timeline-out target/bench-artifacts/elasticity-timeline.json elasticity

echo "==> wire smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/wire-metrics.json wire

echo "All checks passed."
