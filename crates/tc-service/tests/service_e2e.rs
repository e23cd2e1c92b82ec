//! End-to-end service tests over real TCP connections.
//!
//! The load-bearing property is the ISSUE-2 acceptance criterion:
//! N concurrent clients issuing the same `count`/`simulate` queries get
//! **byte-identical** responses to a serial single-client run, at 1, 2,
//! and 8 worker threads. Triangle counts are exact and simulated cycles
//! are deterministic (the engine is a pure function of its traces), so
//! any divergence here is a service-layer bug (shared-state corruption,
//! response cross-wiring, or nondeterministic payload fields).

mod common;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tc_service::client::ServiceClient;
use tc_service::json::Json;
use tc_service::server::{spawn, ServerConfig, ServerHandle};

fn server_with(workers: usize, queue_capacity: usize, deadline: Duration) -> ServerHandle {
    spawn(ServerConfig {
        workers,
        queue_capacity,
        default_deadline: deadline,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// The determinism workload: small datasets, both query kinds, several
/// preprocessing variants. Each line carries a distinct id so responses
/// are self-describing.
fn workload() -> Vec<String> {
    let mut lines = Vec::new();
    let mut id = 0;
    for (dataset, ordering) in [
        ("email-Eucore", "a-order"),
        ("email-Eucore", "origin"),
        ("email-Eucore", "d-order"),
    ] {
        id += 1;
        lines.push(format!(
            r#"{{"op":"count","dataset":"{dataset}","ordering":"{ordering}","id":{id}}}"#
        ));
    }
    for algo in ["hu", "tricore"] {
        id += 1;
        lines.push(format!(
            r#"{{"op":"simulate","dataset":"email-Eucore","algo":"{algo}","id":{id}}}"#
        ));
    }
    lines
}

/// Runs the workload on one client; returns request-line → response-line.
fn run_serial(addr: std::net::SocketAddr, lines: &[String]) -> BTreeMap<String, String> {
    let mut client = ServiceClient::connect(addr).expect("connect");
    lines
        .iter()
        .map(|line| (line.clone(), client.request_raw(line).expect("query")))
        .collect()
}

#[test]
fn concurrent_responses_are_byte_identical_to_serial() {
    let lines = workload();

    // Serial baseline: fresh server, one client, one request at a time.
    let baseline = {
        let server = server_with(1, 64, Duration::from_secs(60));
        let result = run_serial(server.addr(), &lines);
        server.shutdown();
        result
    };
    for line in &lines {
        assert!(
            baseline[line].contains("\"ok\":true"),
            "baseline failed: {} -> {}",
            line,
            baseline[line]
        );
    }

    for workers in [1, 2, 8] {
        let server = server_with(workers, 64, Duration::from_secs(60));
        let addr = server.addr();
        const CLIENTS: usize = 3;
        let results: Vec<BTreeMap<String, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let lines = &lines;
                    scope.spawn(move || {
                        // Stagger the per-client order so different keys
                        // race through the registry and the pool.
                        let mut rotated = lines.clone();
                        rotated.rotate_left(c % lines.len());
                        run_serial(addr, &rotated)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        server.shutdown();

        for (c, result) in results.iter().enumerate() {
            for line in &lines {
                assert_eq!(
                    result[line], baseline[line],
                    "client {c} diverged from serial baseline at {workers} workers for {line}"
                );
            }
        }
    }
}

#[test]
fn every_endpoint_answers() {
    let server = server_with(2, 64, Duration::from_secs(60));
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let queries = [
        r#"{"op":"ping"}"#,
        r#"{"op":"load","dataset":"email-Eucore"}"#,
        r#"{"op":"count","dataset":"email-Eucore"}"#,
        r#"{"op":"simulate","dataset":"email-Eucore","algo":"hu"}"#,
        r#"{"op":"ktruss","dataset":"email-Eucore"}"#,
        r#"{"op":"clustering","dataset":"email-Eucore"}"#,
        r#"{"op":"recommend","dataset":"email-Eucore","source":0,"k":3}"#,
        r#"{"op":"update","dataset":"email-Eucore","edges":[[0,1],[2,3,"-"]]}"#,
        r#"{"op":"stream-stats"}"#,
        r#"{"op":"stream-stats","dataset":"email-Eucore"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"evict","dataset":"email-Eucore"}"#,
        r#"{"op":"evict"}"#,
    ];
    for q in queries {
        let v = client.request_ok(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{q}");
    }
    // The cache surface saw the load → count/simulate hits → evict.
    let stats = client.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert!(cache.get("hits").and_then(Json::as_u64).unwrap() >= 2);
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn count_reports_the_size_of_the_loaded_dataset() {
    use tc_datasets::Dataset;
    let server = server_with(2, 64, Duration::from_secs(60));
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    for (dataset, direction, ordering) in [
        (Dataset::EmailEucore, "a", "a-order"),
        (Dataset::EmailEucore, "id", "gro"),
        (Dataset::EmailEucore, "degree", "slashburn"),
        (Dataset::KronLogn18, "degree", "gro"),
        (Dataset::KronLogn18, "a", "origin"),
    ] {
        let q = format!(
            r#"{{"op":"count","dataset":"{}","direction":"{direction}","ordering":"{ordering}"}}"#,
            dataset.name()
        );
        let v = client.request_ok(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let g = tc_datasets::load(dataset);
        assert_eq!(
            v.get("nodes").and_then(Json::as_u64),
            Some(g.num_vertices() as u64),
            "{q}"
        );
        assert_eq!(
            v.get("edges").and_then(Json::as_u64),
            Some(g.num_edges() as u64),
            "{q}"
        );
    }
    server.shutdown();
}

#[test]
fn overload_answers_structured_error_not_a_hang() {
    // One worker, queue of one: a running sleep plus a queued sleep fill
    // the service; the third request must be rejected immediately.
    let server = server_with(1, 1, Duration::from_secs(60));
    let addr = server.addr();

    let blocker = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.request_raw(r#"{"op":"sleep","ms":600,"id":"run"}"#)
            .expect("blocking sleep")
    });
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.request_raw(r#"{"op":"sleep","ms":100,"id":"queued"}"#)
            .expect("queued sleep")
    });
    std::thread::sleep(Duration::from_millis(150));

    let mut c = ServiceClient::connect(addr).expect("connect");
    let t = Instant::now();
    let rejected = c
        .request_raw(r#"{"op":"ping","id":"reject"}"#)
        .expect("ping");
    let elapsed = t.elapsed();
    assert!(
        rejected.contains(r#""error":"overloaded""#),
        "expected overload rejection, got: {rejected}"
    );
    assert!(
        elapsed < Duration::from_millis(250),
        "rejection must be immediate, took {elapsed:?}"
    );

    // The admitted requests still complete normally.
    assert!(blocker.join().unwrap().contains(r#""ok":true"#));
    assert!(queued.join().unwrap().contains(r#""ok":true"#));

    let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let queue = stats.get("queue").expect("queue section");
    assert!(
        queue
            .get("rejected_overload")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    server.shutdown();
}

#[test]
fn queued_request_past_deadline_is_expired_not_executed() {
    // Default deadline 100ms; a 500ms sleep in front guarantees the
    // queued ping exceeds it before a worker frees up.
    let server = server_with(1, 8, Duration::from_millis(100));
    let addr = server.addr();

    let blocker = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        // Explicit long deadline so the sleep itself is not expired.
        c.request_raw(r#"{"op":"sleep","ms":500,"deadline_ms":5000}"#)
            .expect("sleep")
    });
    std::thread::sleep(Duration::from_millis(150));

    let mut c = ServiceClient::connect(addr).expect("connect");
    let expired = c.request_raw(r#"{"op":"ping"}"#).expect("ping");
    assert!(
        expired.contains(r#""error":"deadline_exceeded""#),
        "expected deadline expiry, got: {expired}"
    );
    assert!(blocker.join().unwrap().contains(r#""ok":true"#));
    server.shutdown();
}

#[test]
fn shutdown_op_drains_and_exits() {
    let server = server_with(2, 16, Duration::from_secs(60));
    let addr = server.addr();

    // Put real work in flight, then ask for shutdown from the protocol.
    let inflight = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.request_raw(r#"{"op":"sleep","ms":300}"#).expect("sleep")
    });
    std::thread::sleep(Duration::from_millis(100));

    let mut c = ServiceClient::connect(addr).expect("connect");
    let ack = c.request_raw(r#"{"op":"shutdown"}"#).expect("shutdown ack");
    assert!(ack.contains(r#""ok":true"#), "{ack}");

    // In-flight work still completes: the drain is graceful.
    assert!(inflight.join().unwrap().contains(r#""ok":true"#));

    // The server thread exits on its own; join() must not hang.
    let t = Instant::now();
    server.join();
    assert!(t.elapsed() < Duration::from_secs(5), "drain took too long");

    // And the port is actually released.
    assert!(
        ServiceClient::connect(addr).is_err() || {
            // A connect may succeed briefly on some stacks (TIME_WAIT
            // accept backlog); a request must then fail.
            let mut c = ServiceClient::connect(addr).expect("connect");
            c.request_raw(r#"{"op":"ping"}"#).is_err()
        }
    );
}

#[test]
fn pipelined_requests_answer_in_order_and_overlap_in_the_pool() {
    // One worker: if requests were submitted one-at-a-time the queue
    // depth could never exceed 1. Writing the whole batch before reading
    // any response must put several jobs in the pool at once.
    let server = server_with(1, 64, Duration::from_secs(60));
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    let lines: Vec<String> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                format!(r#"{{"op":"count","dataset":"email-Eucore","id":{i}}}"#)
            } else {
                format!(r#"{{"op":"ping","id":{i}}}"#)
            }
        })
        .collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let responses = client.pipeline(&refs).expect("pipelined batch");
    assert_eq!(responses.len(), lines.len());
    for (i, response) in responses.iter().enumerate() {
        assert!(
            response.starts_with(&format!(r#"{{"id":{i},"ok":true"#)),
            "response {i} out of order or failed: {response}"
        );
    }

    let stats = client.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let peak = stats
        .get("queue")
        .and_then(|q| q.get("peak"))
        .and_then(Json::as_u64)
        .expect("queue peak");
    assert!(
        peak >= 2,
        "pipelined submissions never overlapped in the queue (peak {peak})"
    );
    server.shutdown();
}

#[test]
fn pipelined_responses_match_serial_responses() {
    let lines = workload();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();

    let server = server_with(4, 64, Duration::from_secs(60));
    let serial = run_serial(server.addr(), &lines);
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let piped = client.pipeline(&refs).expect("pipelined workload");
    server.shutdown();

    for (line, response) in lines.iter().zip(&piped) {
        assert_eq!(
            response, &serial[line],
            "pipelined response diverged for {line}"
        );
    }
}

#[test]
fn updates_are_visible_to_later_queries_and_deterministic_across_workers() {
    // The same update batches applied through servers with different
    // worker counts must land on identical final counts — the stream
    // layer serializes per-dataset mutations regardless of pool size.
    let batches = [
        r#"{"op":"update","dataset":"email-Eucore","edges":[[10,20],[30,40],[50,60,"-"]]}"#,
        r#"{"op":"update","dataset":"email-Eucore","edges":[[10,20,"-"],[70,80],[1,2]]}"#,
        r#"{"op":"update","dataset":"email-Eucore","edges":[[5,6],[7,8],[9,10],[9,10,"-"]]}"#,
    ];
    let mut finals = Vec::new();
    for workers in [1, 4] {
        let server = server_with(workers, 64, Duration::from_secs(60));
        let mut client = ServiceClient::connect(server.addr()).expect("connect");

        let before = client
            .request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
            .expect("count")
            .get("triangles")
            .and_then(Json::as_u64)
            .expect("triangles");
        let mut running = before as i64;
        for batch in batches {
            let v = client.request_ok(batch).expect("update");
            let delta = match v.get("triangles_delta").expect("delta") {
                Json::Int(d) => *d,
                other => panic!("triangles_delta must be an integer, got {other:?}"),
            };
            running += delta;
            assert_eq!(
                v.get("triangles").and_then(Json::as_u64),
                Some(running as u64),
                "running delta sum diverged from reported count"
            );
        }

        // A later count query reads the mutated graph, not a stale memo.
        let after = client
            .request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
            .expect("count after updates")
            .get("triangles")
            .and_then(Json::as_u64)
            .expect("triangles");
        assert_eq!(after as i64, running);

        // And the application surface agrees with the stream surface.
        let ss = client
            .request_ok(r#"{"op":"stream-stats","dataset":"email-Eucore"}"#)
            .expect("stream-stats");
        assert_eq!(ss.get("triangles").and_then(Json::as_u64), Some(after));
        assert_eq!(ss.get("batches").and_then(Json::as_u64), Some(3));

        finals.push(after);
        server.shutdown();
    }
    assert_eq!(
        finals[0], finals[1],
        "1-worker and 4-worker servers must agree on the final count"
    );
}

/// A streamed dataset's `count` answers for the graph its updates left,
/// under every direction × ordering. The batches change more edges than
/// email-Eucore's compaction budget, and after each one every variant
/// must report the materialised size and `node_iterator` count of a
/// `DynamicGraph` replica fed the same batches. Each `update` and the
/// final `stream-stats` also report the replica's overlay size and
/// compactions: the server folds in the batch that crosses the budget,
/// as the replica does.
#[test]
fn streamed_counts_match_a_dynamic_graph_replica_in_every_variant() {
    use tc_stream::{DynamicGraph, EdgeOp};
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let mut replica = DynamicGraph::new(g.clone());
    let budget = replica.compaction_policy().max_delta_edges;
    let batches = common::crossing_batches(&g, budget / 4 + 1, 4);
    let directions = ["id", "degree", "a"];
    let orderings = [
        "origin",
        "d-order",
        "dfs",
        "bfs-r",
        "slashburn",
        "gro",
        "a-order",
    ];
    let counts: Vec<String> = directions
        .iter()
        .flat_map(|d| {
            orderings.iter().map(move |o| {
                format!(
                    r#"{{"op":"count","dataset":"email-Eucore","direction":"{d}","ordering":"{o}","bucket_size":64}}"#
                )
            })
        })
        .collect();
    let counts: Vec<&str> = counts.iter().map(String::as_str).collect();

    let server = server_with(2, 64, Duration::from_secs(120));
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    for (i, batch) in batches.iter().enumerate() {
        let line = common::update_line("email-Eucore", batch);
        let ops: Vec<EdgeOp> = batch
            .iter()
            .map(|&(u, v, insert)| match insert {
                true => EdgeOp::Insert(u, v),
                false => EdgeOp::Delete(u, v),
            })
            .collect();
        let expected = replica.apply_batch(&ops);
        let v = client.request_ok(&line).expect("update");
        assert_eq!(
            (
                v.get("triangles").and_then(Json::as_u64),
                v.get("delta_edges").and_then(Json::as_u64),
                v.get("compacted").and_then(Json::as_bool),
            ),
            (
                Some(expected.triangles),
                Some(expected.delta_edges as u64),
                Some(expected.compacted),
            ),
            "batch {i}: triangles, delta_edges, compacted"
        );

        let m = replica.materialize();
        let want = (
            m.num_vertices() as u64,
            m.num_edges() as u64,
            tc_algos::cpu::node_iterator(&m),
        );
        for (q, raw) in counts.iter().zip(client.pipeline(&counts).expect("counts")) {
            let r = tc_service::json::parse(&raw).expect("response json");
            let got = |key| {
                r.get(key)
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("batch {i}, {q}: no {key} in {raw}"))
            };
            assert_eq!(
                (got("nodes"), got("edges"), got("triangles")),
                want,
                "batch {i}, {q}"
            );
        }
    }
    assert!(
        replica.counters().compactions >= 1,
        "the batches must cross the compaction budget of {budget} edges"
    );
    let ss = client
        .request_ok(r#"{"op":"stream-stats","dataset":"email-Eucore"}"#)
        .expect("stream-stats");
    assert_eq!(
        (
            ss.get("delta_edges").and_then(Json::as_u64),
            ss.get("compactions").and_then(Json::as_u64),
        ),
        (
            Some(replica.delta_edges() as u64),
            Some(replica.counters().compactions),
        ),
        "stream-stats delta_edges, compactions"
    );
    server.shutdown();
}

/// The reads that walk neighbour lists and degrees answer for the graph
/// a streamed dataset's updates left, byte for byte. After each of the
/// batches that cross email-Eucore's compaction budget, `recommend` for
/// a stride of sources, `clustering`, and the out-of-range errors of
/// `recommend` and `subscribe` must equal the lines built from what
/// `tc_apps` computes on a `DynamicGraph` replica's materialised CSR.
#[test]
fn streamed_reads_match_a_dynamic_graph_replica_byte_for_byte() {
    use tc_service::json::{obj, s, u};
    use tc_service::protocol::{error_response, ok_response, ErrorKind, ServiceError};
    use tc_service::Op;
    use tc_stream::{DynamicGraph, EdgeOp};
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let mut replica = DynamicGraph::new(g.clone());
    let budget = replica.compaction_policy().max_delta_edges;
    let batches = common::crossing_batches(&g, budget / 4 + 1, 4);
    let n = g.num_vertices() as u32;
    let sources: Vec<u32> = (0..n).step_by(37).collect();
    let recommends: Vec<String> = sources
        .iter()
        .map(|v| format!(r#"{{"op":"recommend","dataset":"email-Eucore","source":{v},"k":10}}"#))
        .collect();
    let mut reads: Vec<&str> = recommends.iter().map(String::as_str).collect();
    let out_of_range = format!(r#"{{"op":"recommend","dataset":"email-Eucore","source":{n}}}"#);
    let watch_out_of_range = format!(
        r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"clustering-delta","vertex":{n},"epsilon":0.1}}}}"#
    );
    reads.extend([
        out_of_range.as_str(),
        r#"{"op":"clustering","dataset":"email-Eucore"}"#,
        watch_out_of_range.as_str(),
    ]);
    let range_error = |op| {
        let message = format!("vertex {n} out of range (dataset has {n} vertices)");
        error_response(
            None,
            Some(op),
            &ServiceError::new(ErrorKind::Failed, message),
        )
    };

    let server = server_with(2, 64, Duration::from_secs(120));
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    for (i, batch) in batches.iter().enumerate() {
        client
            .request_ok(&common::update_line("email-Eucore", batch))
            .expect("update");
        let ops: Vec<EdgeOp> = batch
            .iter()
            .map(|&(u, v, insert)| match insert {
                true => EdgeOp::Insert(u, v),
                false => EdgeOp::Delete(u, v),
            })
            .collect();
        replica.apply_batch(&ops);

        let m = replica.materialize();
        let mut want: Vec<String> = sources
            .iter()
            .map(|&source| {
                let rows = tc_apps::recommend_for(&m, source, 10)
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("candidate", u(r.candidate as u64)),
                            ("common_neighbors", u(r.common_neighbors as u64)),
                            ("jaccard", Json::Float(r.jaccard)),
                            ("adamic_adar", Json::Float(r.adamic_adar)),
                        ])
                    })
                    .collect();
                let payload = vec![
                    ("dataset".into(), s("email-Eucore")),
                    ("source".into(), u(source as u64)),
                    ("candidates".into(), Json::Arr(rows)),
                ];
                ok_response(None, Op::Recommend, payload)
            })
            .collect();
        let local = tc_apps::clustering_coefficients(&m);
        let mean_local = local.iter().sum::<f64>() / local.len() as f64;
        let clustering = vec![
            ("dataset".into(), s("email-Eucore")),
            ("nodes".into(), u(m.num_vertices() as u64)),
            (
                "global_coefficient".into(),
                Json::Float(tc_apps::global_clustering_coefficient(&m)),
            ),
            ("mean_local_coefficient".into(), Json::Float(mean_local)),
        ];
        want.extend([
            range_error(Op::Recommend),
            ok_response(None, Op::Clustering, clustering),
            range_error(Op::Subscribe),
        ]);
        let got = client.pipeline(&reads).expect("reads");
        for ((q, got), want) in reads.iter().zip(&got).zip(&want) {
            assert_eq!(got, want, "batch {i}, {q}");
        }
    }
    assert!(
        replica.counters().compactions >= 1,
        "the batches must cross the compaction budget of {budget} edges"
    );
    server.shutdown();
}

/// `subscribe`, `recommend` and `clustering` read a streamed dataset in
/// place: interleaved with updates they rebuild no CSR, so `stats`
/// reports no materialisation until a `simulate` needs a variant of the
/// written graph. That rebuilds it once, and a `ktruss` after it reads
/// the same CSR.
#[test]
fn streamed_reads_rebuild_no_csr_until_a_variant_needs_one() {
    let server = server_with(2, 64, Duration::from_secs(60));
    let mut admin = ServiceClient::connect(server.addr()).expect("connect");
    let mut materializations = || {
        let stats = admin.request_ok(r#"{"op":"stats"}"#).expect("stats");
        stats
            .get("cache")
            .and_then(|cache| cache.get("materializations"))
            .and_then(Json::as_u64)
    };
    assert_eq!(materializations(), Some(0));
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let updates: Vec<String> = common::crossing_batches(&g, 64, 3)
        .iter()
        .map(|batch| common::update_line("email-Eucore", batch))
        .collect();
    let reads = [
        r#"{"op":"subscribe","dataset":"email-Eucore","predicate":{"kind":"count-cross","threshold":0}}"#,
        r#"{"op":"recommend","dataset":"email-Eucore","source":0}"#,
        r#"{"op":"clustering","dataset":"email-Eucore"}"#,
    ];
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    for update in &updates {
        for q in reads {
            client.request_ok(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
        client.request_ok(update).expect("update");
    }
    for q in reads {
        client.request_ok(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    }
    assert_eq!(materializations(), Some(0));
    client
        .request_ok(r#"{"op":"simulate","dataset":"email-Eucore","algo":"hu"}"#)
        .expect("simulate");
    assert_eq!(materializations(), Some(1));
    client
        .request_ok(r#"{"op":"ktruss","dataset":"email-Eucore"}"#)
        .expect("ktruss");
    assert_eq!(materializations(), Some(1));
    server.shutdown();
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let server = server_with(1, 8, Duration::from_secs(60));
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let garbage = client.request_raw("this is not json").expect("garbage");
    assert!(garbage.contains(r#""error":"bad_request""#), "{garbage}");
    let unknown = client
        .request_raw(r#"{"op":"count","dataset":"atlantis"}"#)
        .expect("unknown dataset");
    assert!(
        unknown.contains(r#""error":"unknown_dataset""#),
        "{unknown}"
    );
    // Same connection still serves good requests.
    let ok = client.request_ok(r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}
