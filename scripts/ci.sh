#!/usr/bin/env bash
# CI gate: formatting, lints, rustdoc links, then the tier-1 build-and-test pass.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The smoke runs below must leave every committed benchmark file as it is.
bench_sums=$(sha256sum BENCH_*.json)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p tc-algos --features simd -- -D warnings (vectorised tiers)"
cargo clippy -p tc-algos --all-targets --features simd -- -D warnings

echo "==> tcbench fmt --check and clippy -D warnings (its own package, which --all and --workspace skip, compiled against the workspace crates' signatures)"
cargo fmt --manifest-path tcbench/Cargo.toml -- --check
cargo clippy --offline --manifest-path tcbench/Cargo.toml --all-targets -- -D warnings

echo "==> rustdoc -D warnings (broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tier-1: cargo build --release && cargo test -q (every workspace crate, default features)"
cargo build --release
cargo test -q

echo "==> request_order, analytics_e2e, shard_e2e and the three fold-crossing cases, 20 runs each (a reordered update fails; a timeout turns a push that never arrives, or a worker wake-up that is lost in a drain or a saturated shard, into a failure; a compaction field, or a recommend, clustering or range-error line, that differs from a DynamicGraph replica or an unkilled server fails the fold-crossing cases)"
for run in $(seq 1 20); do
    timeout 120 cargo test -q -p tc-service --test request_order --test analytics_e2e --test shard_e2e \
        || { echo "run $run of 20 failed or timed out"; exit 1; }
    timeout 120 cargo test -q -p tc-service --test service_e2e --test persistence_e2e -- \
        streamed_counts_match_a_dynamic_graph_replica_in_every_variant \
        streamed_reads_match_a_dynamic_graph_replica_byte_for_byte \
        kill_mid_batch_replays_to_the_exact_unkilled_state \
        || { echo "fold-crossing run $run of 20 failed or timed out"; exit 1; }
done

echo "==> tier-1 again under --features simd (SSE2/AVX2 block merge and AVX2 gather probe live)"
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
cargo run --release -q -p tc-bench --bin experiments -- serve-bench --small

echo "==> stream smoke test (incremental vs recompute, small suite)"
cargo run --release -q -p tc-bench --bin experiments -- stream-bench --small

echo "==> cpu-bench smoke test (merge, hashed and adaptive x every ordering, counts asserted against node_iterator, small suite)"
cargo run --release -q -p tc-bench --bin experiments -- cpu-bench --small

echo "==> cpu-bench smoke test under --features tc-algos/simd (AVX2 merge and gather probe inside the counting loop)"
cargo run --release -q -p tc-bench --bin experiments --features tc-algos/simd -- cpu-bench --small

echo "==> algorithms smoke test (every GPU kernel and CPU baseline on the small suite; the CPU rows are timed through tc_bench::measure)"
cargo run --release -q -p tc-bench --bin experiments -- algorithms --small

echo "==> tcbench unit tests (its own package, outside the workspace tier-1 covers)"
cargo test -q --offline --manifest-path tcbench/Cargo.toml

echo "==> tcbench read-hot smoke run (exits 1 if a count, recommend or clustering answer differs from its reference)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload read-hot --seed 1 --seconds 1 --trace 0

echo "==> tcbench repro-grid smoke run (exits 1 if a grid cell's triangles or repeated metrics differ)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload repro-grid --seed 1 --seconds 1 --trace 0

echo "==> tcbench repro-grid traced run (exits 1 if a grid kernel's triangles on any dataset, a recommend or clustering recompute, the WAL replay or a declared per-layer metric is wrong or missing)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload repro-grid --seed 1 --seconds 1 --trace 1

echo "==> tcbench write-mixed smoke run (exits 1 on a missing subscribe ack, push frames != notifications_sent, or final counts != a DynamicGraph replay before and after the restart)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload write-mixed --seed 1 --seconds 1 --trace 0

echo "==> tcbench write-mixed traced run (exits 1 if the probe's counts, its analytics state or its WAL replay differ from their references, or a declared per-layer metric is missing)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload write-mixed --seed 1 --seconds 1 --trace 1

echo "==> tcbench prep-churn smoke run (exits 1 if a count over any of the 72 preprocessed variants differs from node_iterator)"
cargo run --release --offline -q --manifest-path tcbench/Cargo.toml -- \
    --workload prep-churn --seed 1 --seconds 1 --trace 0

echo "==> committed BENCH_*.json unchanged by the smoke runs"
if [ "$(sha256sum BENCH_*.json)" != "$bench_sums" ]; then
    echo "a smoke run rewrote a committed benchmark file:"
    sha256sum BENCH_*.json
    exit 1
fi

echo "==> ci.sh: all green"
