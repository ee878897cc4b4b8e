#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

# The one gate that needs no registry: the four library crates built from
# their own sources against the stand-ins, and a smoke run of every
# benchmark workload with its full-log audit.
echo "==> offline manifest (benchmark smoke)"
cargo test --offline --manifest-path crates/benchmark/offline/Cargo.toml

echo "==> batching smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/batching-metrics.json batching

echo "==> commitpath smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/commitpath-metrics.json commitpath

echo "==> readpath smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/readpath-metrics.json readpath

echo "==> recovery smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/recovery-metrics.json recovery

echo "==> geo smoke gate"
cargo run --release -p chariots-bench --bin harness -- \
  --smoke --metrics-out target/bench-artifacts/geo-metrics.json geo

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
