#!/usr/bin/env bash
# CI gate: formatting, lints, then the tier-1 build-and-test pass.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p tc-algos --features simd -- -D warnings (vectorised tiers)"
cargo clippy -p tc-algos --all-targets --features simd -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q (every workspace crate, default features)"
cargo build --release
cargo test -q

echo "==> tier-1 again under --features simd (SSE2/AVX2 merge tiers live)"
cargo build --release -p tc-algos --features simd
cargo test -q -p tc-algos --features simd

echo "==> sharded service e2e under SIMD kernels (default build runs in tier-1)"
cargo test -q -p tc-service --test shard_e2e --features simd

echo "==> service smoke test (ephemeral port, one query per endpoint)"
cargo run --release -q --example service_demo

echo "==> persistence smoke test (snapshot -> restart -> warm load, WAL replay)"
cargo run --release -q --example persist_demo

echo "==> analytics smoke test (push subscriptions, incremental read paths)"
cargo run --release -q --example analytics_demo

echo "==> serve-bench smoke test (cold/warm/restart passes + contended shard sweep)"
cargo run --release -q -p tc-bench --bin experiments -- serve-bench --small --shards=1,2 --clients=4

echo "==> stream smoke test (incremental vs recompute, small suite)"
cargo run --release -q -p tc-bench --bin experiments -- stream-bench --small

echo "==> cpu kernel smoke test (every kernel x ordering, small suite)"
cargo run --release -q -p tc-bench --bin experiments -- cpu-bench --small

echo "==> tcbench unit tests (its own package, outside the workspace tier-1 covers)"
cargo test -q --offline --manifest-path tcbench/Cargo.toml

echo "==> tcbench read-hot smoke run (exits 1 if a count, recommend or clustering answer differs from its reference)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload read-hot --seed 1 --seconds 1 --trace 0

echo "==> tcbench repro-grid smoke run (exits 1 if a grid cell's triangles or repeated metrics differ)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload repro-grid --seed 1 --seconds 1 --trace 0

echo "==> tcbench write-mixed smoke run (exits 1 on a missing subscribe ack, push frames != notifications_sent, or final counts != a DynamicGraph replay before and after the restart)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload write-mixed --seed 1 --seconds 1 --trace 0

echo "==> tcbench prep-churn smoke run (exits 1 if a count over any of the 72 preprocessed variants differs from node_iterator)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload prep-churn --seed 1 --seconds 1 --trace 0

echo "==> ci.sh: all green"
