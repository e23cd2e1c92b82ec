//! The committed `BENCH_*.json` files are what README, DESIGN,
//! EXPERIMENTS and ROADMAP quote, so each must hold a full run of its
//! harness: every dataset of the harness's `default_suite()`, in order,
//! and for the contended service sweep all of 1, 2 and 4 shards. A
//! `--small` smoke run written over one of them lists fewer datasets and
//! fails here. Each file must also come from the one measurement
//! harness, `tc_bench::measure`: it opens with the harness's header, and
//! every row keeps the keys the documents quote.

use std::path::Path;
use tc_bench::{cpu_bench, serve_bench, stream_bench};
use tc_datasets::Dataset;
use tc_service::json::{self, Json};

fn bench_file(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{name} is not JSON: {e}"))
}

/// The values at a space-separated key `path`; an array on the way fans
/// out into its rows.
fn at(file: &Json, path: &str) -> Vec<Json> {
    let mut values = vec![file.clone()];
    for key in path.split_whitespace() {
        values = (values.iter().filter_map(|v| v.get(key)))
            .flat_map(|v| match v {
                Json::Arr(rows) => rows.clone(),
                other => vec![other.clone()],
            })
            .collect();
    }
    values
}

fn datasets(file: &Json, key: &str) -> Vec<String> {
    let names = at(file, &format!("{key} dataset"));
    names
        .iter()
        .filter_map(Json::as_str)
        .map(String::from)
        .collect()
}

fn names(suite: Vec<Dataset>) -> Vec<String> {
    suite.iter().map(|d| d.name().to_string()).collect()
}

#[test]
fn bench_stream_covers_the_default_suite() {
    let file = bench_file("BENCH_stream.json");
    for key in ["datasets", "analytics"] {
        assert_eq!(
            datasets(&file, key),
            names(stream_bench::default_suite()),
            "BENCH_stream.json \"{key}\""
        );
    }
}

#[test]
fn bench_service_covers_the_default_suite_and_every_shard_count() {
    let file = bench_file("BENCH_service.json");
    assert_eq!(
        datasets(&file, "datasets"),
        names(serve_bench::default_suite())
    );
    let shards = at(&file, "contended rows shards");
    let shards: Vec<u64> = shards.iter().map(|n| n.as_u64().expect("shards")).collect();
    assert_eq!(shards, [1, 2, 4]);
}

#[test]
fn bench_cpu_covers_the_default_suite() {
    let file = bench_file("BENCH_cpu.json");
    assert_eq!(
        datasets(&file, "datasets"),
        names(cpu_bench::default_suite())
    );
}

#[test]
fn every_bench_file_carries_the_header() {
    for name in ["BENCH_cpu.json", "BENCH_service.json", "BENCH_stream.json"] {
        let file = bench_file(name);
        for key in ["benchmark", "simd_tier", "revision"] {
            let value = file.get(key).and_then(Json::as_str).unwrap_or_default();
            assert!(!value.is_empty(), "{name} has no \"{key}\"");
        }
        assert!(
            file.get("cores").and_then(Json::as_u64) >= Some(1),
            "{name}"
        );
    }
    let cpu = bench_file("BENCH_cpu.json");
    assert_eq!(cpu.get("simd_tier").and_then(Json::as_str), Some("avx2"));
}

/// The keys the documents quote. Each line names a file and the path to
/// its rows, then after the colon the keys every row there keeps.
const QUOTED: &str = "
BENCH_cpu.json: reps
BENCH_cpu.json datasets: dataset nodes edges triangles rows
BENCH_cpu.json datasets: best_adaptive_speedup worst_adaptive_ratio
BENCH_cpu.json datasets rows: ordering kernel mean_us speedup_vs_merge
BENCH_stream.json datasets: dataset edges triangles_start triangles_end rows
BENCH_stream.json datasets rows: batch_size batches inc_mean_us full_mean_us speedup
BENCH_stream.json analytics: dataset edges batch_size batches maintain_mean_us
BENCH_stream.json analytics: ktruss_inc_mean_us ktruss_full_mean_us ktruss_speedup
BENCH_stream.json analytics: clustering_inc_mean_us clustering_full_mean_us clustering_speedup
BENCH_service.json datasets: dataset clients workers recovered_entries
BENCH_service.json datasets: warm_over_cold restart_over_cold
BENCH_service.json datasets cold: requests wall_s throughput_rps p50_us p99_us
BENCH_service.json datasets warm: requests wall_s throughput_rps p50_us p99_us
BENCH_service.json datasets restart: requests wall_s throughput_rps p50_us p99_us
BENCH_service.json contended: op_mix rows
BENCH_service.json contended rows: shards clients per_shard_requests
BENCH_service.json contended rows: requests wall_s throughput_rps p50_us p99_us
";

#[test]
fn every_row_keeps_the_keys_the_documents_quote() {
    for line in QUOTED.lines().filter(|line| !line.is_empty()) {
        let (place, keys) = line.split_once(": ").expect("file and path: keys");
        let (name, path) = place.split_once(' ').unwrap_or((place, ""));
        let rows = at(&bench_file(name), path);
        assert!(!rows.is_empty(), "nothing at {place}");
        for row in &rows {
            for key in keys.split(' ') {
                assert!(row.get(key).is_some(), "a row at {place} has no \"{key}\"");
            }
        }
    }
}
