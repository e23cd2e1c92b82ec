//! End-to-end durability tests: warm restart from snapshots, crash
//! recovery through the WAL, and the retry-capable client.
//!
//! The load-bearing property is the ISSUE-7 acceptance criterion: a
//! server killed mid-batch (after the WAL append, before the in-memory
//! apply) must, on restart, replay to the **exact** pre-crash state —
//! the triangle count and every deterministic `stream-stats` field
//! bit-for-bit equal to an unkilled replica that applied the same
//! batches. Wall-clock-dependent fields (`batch_p50_us`/`batch_p99_us`)
//! are the designated exclusions.

mod common;

use std::path::{Path, PathBuf};
use std::time::Duration;
use tc_service::client::ServiceClient;
use tc_service::json::Json;
use tc_service::server::{spawn, ServerConfig, ServerHandle};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tc-persist-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_server(dir: &Path) -> ServerHandle {
    spawn(ServerConfig {
        workers: 2,
        persist_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?} in {v:?}"))
}

/// Every deterministic field of a per-dataset `stream-stats` response,
/// serialized for bit-for-bit comparison. Latency percentiles are
/// wall-clock and therefore excluded by design.
fn deterministic_stream_fields(v: &Json) -> String {
    [
        "dataset",
        "nodes",
        "edges",
        "triangles",
        "delta_edges",
        "compaction_budget",
        "batches",
        "inserts",
        "deletes",
        "noops",
        "rejected",
        "superseded",
        "compactions",
        "approx_bytes",
    ]
    .iter()
    .map(|k| {
        format!(
            "{k}={:?}",
            v.get(k).unwrap_or_else(|| panic!("missing {k}"))
        )
    })
    .collect::<Vec<_>>()
    .join(",")
}

/// Two small update batches, then one that changes more edges than
/// email-Eucore's compaction budget, so the stream folds its overlay
/// while applying it.
fn batches() -> [String; 3] {
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let budget = tc_stream::CompactionPolicy::for_graph(&g).max_delta_edges;
    let crossing = &common::crossing_batches(&g, budget * 2 / 3, 1)[0];
    [
        r#"{"op":"update","dataset":"email-Eucore","edges":[[10,20],[30,40],[50,60,"-"]]}"#.into(),
        r#"{"op":"update","dataset":"email-Eucore","edges":[[10,20,"-"],[70,80],[1,2]]}"#.into(),
        common::update_line("email-Eucore", crossing),
    ]
}

/// Parses one update line back into the `EdgeOp` batch it carries, so
/// the crash simulation can log exactly what the protocol would have.
fn ops_of(line: &str) -> Vec<tc_stream::EdgeOp> {
    let v = tc_service::json::parse(line).expect("batch line");
    let Some(Json::Arr(edges)) = v.get("edges") else {
        panic!("no edges in {line}");
    };
    edges
        .iter()
        .map(|e| {
            let Json::Arr(parts) = e else {
                panic!("edge row")
            };
            let u = parts[0].as_u64().unwrap() as u32;
            let w = parts[1].as_u64().unwrap() as u32;
            let del = parts.get(2).and_then(Json::as_str) == Some("-");
            if del {
                tc_stream::EdgeOp::Delete(u, w)
            } else {
                tc_stream::EdgeOp::Insert(u, w)
            }
        })
        .collect()
}

#[test]
fn warm_restart_serves_snapshots_without_recompute() {
    let dir = tmp("warm");
    let count_q = r#"{"op":"count","dataset":"email-Eucore"}"#;

    // First life: one cached count, one streamed dataset, then a
    // graceful drain (which snapshots and flushes).
    let (triangles, stream_triangles) = {
        let server = persistent_server(&dir);
        let mut c = ServiceClient::connect(server.addr()).expect("connect");
        let triangles = get_u64(&c.request_ok(count_q).expect("count"), "triangles");
        c.request_ok(r#"{"op":"update","dataset":"email-Enron","edges":[[1,2],[3,4]]}"#)
            .expect("update");
        let ss = c
            .request_ok(r#"{"op":"stream-stats","dataset":"email-Enron"}"#)
            .expect("stream-stats");
        server.shutdown();
        (triangles, get_u64(&ss, "triangles"))
    };

    // Second life: the entry and the stream must come back from disk.
    let server = persistent_server(&dir);
    let mut c = ServiceClient::connect(server.addr()).expect("connect");

    let recover = c
        .request_ok(r#"{"op":"recover-stats"}"#)
        .expect("recover-stats");
    assert_eq!(get_u64(&recover, "entries_loaded"), 1);
    assert_eq!(get_u64(&recover, "streams_from_snapshot"), 1);
    assert_eq!(get_u64(&recover, "wal_records_replayed"), 0);

    // The count answers from the recovered entry + memo: zero misses.
    assert_eq!(
        get_u64(&c.request_ok(count_q).expect("warm count"), "triangles"),
        triangles
    );
    let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(
        get_u64(cache, "misses"),
        0,
        "warm restart must not recompute"
    );
    assert_eq!(get_u64(cache, "recovered_entries"), 1);
    let persistence = stats.get("persistence").expect("persistence section");
    assert_eq!(
        persistence.get("enabled").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(get_u64(persistence, "entries_recovered"), 1);

    // The recovered stream serves the mutated state.
    let ss = c
        .request_ok(r#"{"op":"stream-stats","dataset":"email-Enron"}"#)
        .expect("recovered stream-stats");
    assert_eq!(get_u64(&ss, "triangles"), stream_triangles);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_batch_replays_to_the_exact_unkilled_state() {
    let dir = tmp("crash");
    let batches = batches();

    // Unkilled replica: a plain in-memory server applies all batches.
    let (replica_count, replica_stream) = {
        let server = spawn(ServerConfig::default()).expect("replica server");
        let mut c = ServiceClient::connect(server.addr()).expect("connect");
        for b in &batches {
            c.request_ok(b).expect("replica update");
        }
        let count = get_u64(
            &c.request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
                .expect("replica count"),
            "triangles",
        );
        let ss = c
            .request_ok(r#"{"op":"stream-stats","dataset":"email-Eucore"}"#)
            .expect("replica stream-stats");
        server.shutdown();
        (count, deterministic_stream_fields(&ss))
    };

    // Victim, phase 1: apply the first two batches, drain gracefully
    // (snapshot covers them).
    {
        let server = persistent_server(&dir);
        let mut c = ServiceClient::connect(server.addr()).expect("connect");
        for b in &batches[..2] {
            c.request_ok(b).expect("victim update");
        }
        server.shutdown();
    }

    // The kill: re-open the store and append batch 3 to the WAL without
    // ever applying it — byte-for-byte the on-disk state of a process
    // that died between the fsync and the in-memory apply.
    {
        let (store, recovered) =
            tc_persist::Store::open(tc_persist::PersistConfig::new(&dir)).expect("store");
        assert_eq!(recovered.streams.len(), 1, "snapshot from phase 1 present");
        store
            .log_batch(tc_datasets::Dataset::EmailEucore, &ops_of(&batches[2]))
            .expect("wal append");
        // Crash. (Drop flushes the writer queue, but nothing applied
        // batch 3 and nothing snapshotted it.)
    }

    // A torn half-written record after it must not poison replay.
    let wal_dir = dir.join("wal");
    let last_seg = {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
            .expect("wal dir")
            .map(|e| e.expect("entry").path())
            .collect();
        segs.sort();
        segs.pop().expect("a wal segment")
    };
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&last_seg)
            .expect("open segment");
        f.write_all(b"TCFR\x01\x00WREC\xff\xff").expect("torn tail");
    }

    // Restart: recovery must replay batch 3 and truncate the torn tail.
    let server = persistent_server(&dir);
    let mut c = ServiceClient::connect(server.addr()).expect("connect");
    let recover = c
        .request_ok(r#"{"op":"recover-stats"}"#)
        .expect("recover-stats");
    assert_eq!(get_u64(&recover, "wal_records_replayed"), 1);
    assert!(get_u64(&recover, "torn_bytes_truncated") > 0);

    let count = get_u64(
        &c.request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
            .expect("recovered count"),
        "triangles",
    );
    let ss = c
        .request_ok(r#"{"op":"stream-stats","dataset":"email-Eucore"}"#)
        .expect("recovered stream-stats");
    server.shutdown();

    assert_eq!(count, replica_count, "replayed count diverged");
    assert!(
        get_u64(&ss, "compactions") >= 1,
        "the replayed batch must cross the compaction budget"
    );
    assert_eq!(
        deterministic_stream_fields(&ss),
        replica_stream,
        "replayed stream state diverged from the unkilled replica"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry snapshot in the retired layout, encoded by hand: the key,
/// a memoised count, the relabelled undirected graph, then the oriented
/// CSR and the permutation, in a `PENT` frame.
fn retired_entry_frame(dataset: &str, g: &tc_graph::CsrGraph, triangles: u64) -> Vec<u8> {
    fn put_str(buf: &mut Vec<u8>, s: &str) {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    let rank: Vec<u64> = g.vertices().map(u64::from).collect();
    let directed = tc_graph::orient_by_rank(g, &rank);
    let mut payload = Vec::new();
    put_str(&mut payload, dataset);
    put_str(&mut payload, "id");
    put_str(&mut payload, "origin");
    payload.extend_from_slice(&64u32.to_le_bytes());
    payload.push(1);
    payload.extend_from_slice(&triangles.to_le_bytes());
    let graph = tc_graph::binary_io::graph_to_bytes(g);
    payload.extend_from_slice(&(graph.len() as u64).to_le_bytes());
    payload.extend_from_slice(&graph);
    payload.extend_from_slice(&(directed.offsets().len() as u64).to_le_bytes());
    for &o in directed.offsets() {
        payload.extend_from_slice(&(o as u64).to_le_bytes());
    }
    payload.extend_from_slice(&(directed.num_edges() as u64).to_le_bytes());
    for &v in directed.out_neighbor_array() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    for v in g.vertices() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut frame = Vec::new();
    tc_graph::binary_io::write_frame(&mut frame, *b"PENT", &payload).expect("frame");
    frame
}

#[test]
fn retired_entry_layout_is_reported_corrupt_and_recomputed() {
    let dir = tmp("retired");
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let expect = tc_algos::cpu::node_iterator(&g);
    // The memo is deliberately wrong: serving it would show the file
    // had been trusted.
    let name = "entry-email-Eucore-id-origin-64.tcp";
    std::fs::create_dir_all(dir.join("snap")).expect("mkdir");
    std::fs::write(
        dir.join("snap").join(name),
        retired_entry_frame("email-Eucore", &g, expect + 1),
    )
    .expect("write retired entry");

    let count_q = r#"{"op":"count","dataset":"email-Eucore","direction":"id","ordering":"origin"}"#;
    {
        let server = persistent_server(&dir);
        let mut c = ServiceClient::connect(server.addr()).expect("connect");
        let recover = c
            .request_ok(r#"{"op":"recover-stats"}"#)
            .expect("recover-stats");
        assert_eq!(get_u64(&recover, "entries_loaded"), 0);
        let Some(Json::Arr(corrupt)) = recover.get("corrupt_files") else {
            panic!("no corrupt_files in {recover:?}");
        };
        assert_eq!(corrupt.len(), 1, "{corrupt:?}");
        assert!(
            corrupt[0].as_str().is_some_and(|f| f.contains(name)),
            "{corrupt:?}"
        );
        let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
        let cache = stats.get("cache").expect("cache section");
        assert_eq!(get_u64(cache, "recovered_entries"), 0);
        assert_eq!(get_u64(cache, "entries"), 0);

        let v = c.request_ok(count_q).expect("count");
        assert_eq!(get_u64(&v, "triangles"), expect);
        assert_eq!(get_u64(&v, "nodes"), g.num_vertices() as u64);
        assert_eq!(get_u64(&v, "edges"), g.num_edges() as u64);
        let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
        assert_eq!(get_u64(stats.get("cache").expect("cache"), "misses"), 1);
        server.shutdown();
    }

    // The recomputed entry replaced the file in the current layout.
    let server = persistent_server(&dir);
    let mut c = ServiceClient::connect(server.addr()).expect("connect");
    let recover = c
        .request_ok(r#"{"op":"recover-stats"}"#)
        .expect("recover-stats");
    assert_eq!(get_u64(&recover, "entries_loaded"), 1);
    assert_eq!(recover.get("corrupt_files"), Some(&Json::Arr(Vec::new())));
    assert_eq!(
        get_u64(&c.request_ok(count_q).expect("warm count"), "triangles"),
        expect
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_op_reports_and_advances_the_persistence_surface() {
    let dir = tmp("snapop");
    let server = persistent_server(&dir);
    let mut c = ServiceClient::connect(server.addr()).expect("connect");

    c.request_ok(r#"{"op":"update","dataset":"email-Eucore","edges":[[1,2]]}"#)
        .expect("update");
    let snap = c.request_ok(r#"{"op":"snapshot"}"#).expect("snapshot");
    assert_eq!(get_u64(&snap, "streams_snapshotted"), 1);
    assert!(get_u64(&snap, "snapshot_files") >= 1);

    let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let p = stats.get("persistence").expect("persistence section");
    assert_eq!(p.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(get_u64(p, "wal_records_appended") >= 1);
    assert!(get_u64(p, "wal_bytes") > 0);
    assert!(get_u64(p, "snapshots_written") >= 1);
    assert_eq!(
        get_u64(p, "last_snapshot_age_ticks"),
        0,
        "a snapshot just landed, so its age in ticks is zero"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistence_ops_fail_cleanly_when_disabled() {
    let server = spawn(ServerConfig::default()).expect("in-memory server");
    let mut c = ServiceClient::connect(server.addr()).expect("connect");
    for q in [r#"{"op":"snapshot"}"#, r#"{"op":"recover-stats"}"#] {
        let v = c.request(q).expect("response");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{q}");
        assert_eq!(v.get("error").and_then(Json::as_str), Some("failed"), "{q}");
    }
    let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let p = stats.get("persistence").expect("persistence section");
    assert_eq!(p.get("enabled").and_then(Json::as_bool), Some(false));
    server.shutdown();
}

#[test]
fn connect_with_retry_rides_out_a_restart() {
    // Take an address, free it, then bring a server up on it only after
    // a delay: a plain connect refuses, the retrying connect survives.
    let placeholder = spawn(ServerConfig::default()).expect("placeholder");
    let addr = placeholder.addr();
    placeholder.shutdown();
    assert!(
        ServiceClient::connect(addr).is_err()
            || ServiceClient::connect(addr)
                .and_then(|mut c| c.request_raw(r#"{"op":"ping"}"#))
                .is_err(),
        "port should be closed after shutdown"
    );

    let addr_str = addr.to_string();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        spawn(ServerConfig {
            addr: addr_str,
            ..ServerConfig::default()
        })
        .expect("rebind")
    });

    let mut c = ServiceClient::connect_with_retry(addr, 30).expect("retry connect");
    let pong = c.request_ok(r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    starter.join().expect("starter thread").shutdown();

    // Bounded: against a dead port the retry gives up with the original
    // connection error instead of spinning forever.
    let dead = spawn(ServerConfig::default()).expect("dead placeholder");
    let dead_addr = dead.addr();
    dead.shutdown();
    assert!(ServiceClient::connect_with_retry(dead_addr, 3).is_err());
}
