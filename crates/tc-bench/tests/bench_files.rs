//! The committed `BENCH_*.json` files are what README, DESIGN,
//! EXPERIMENTS and ROADMAP quote, so each must hold a full run of its
//! harness: every dataset of the harness's `default_suite()`, in order,
//! and for the contended service sweep all of 1, 2 and 4 shards. A
//! `--small` smoke run written over one of them lists fewer datasets and
//! fails here.

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

fn rows<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    match value.get(key) {
        Some(Json::Arr(rows)) => rows,
        _ => panic!("no \"{key}\" array"),
    }
}

fn datasets(file: &Json, key: &str) -> Vec<String> {
    rows(file, key)
        .iter()
        .map(|row| {
            let name = row.get("dataset").and_then(Json::as_str);
            name.expect("row names its dataset").to_string()
        })
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
    let contended = file.get("contended").expect("contended section");
    let shards: Vec<u64> = rows(contended, "rows")
        .iter()
        .map(|row| row.get("shards").and_then(Json::as_u64).expect("shards"))
        .collect();
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
