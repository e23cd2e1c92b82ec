//! End-to-end tests for the shard-per-core engine over real TCP.
//!
//! The load-bearing properties:
//!
//! 1. **Shard-count transparency** — the same request script produces
//!    byte-identical responses served at 1, 2, and 8 shards. Routing is
//!    an internal placement decision; it must never leak into payloads.
//! 2. **Isolation** — one shard's full queue rejects only traffic bound
//!    for that shard; requests owned by other shards complete within
//!    their deadline (the no-global-lock acceptance criterion).
//! 3. **Cross-shard connections** — a single pipelined connection may
//!    hold subscriptions on datasets owned by different shards and
//!    receives every push, and `unsubscribe` finds the owning shard.
//! 4. **Drain** — shutdown completes in-flight work on *every* shard.
//! 5. **Wake order** — a shard hands each job to its lowest-numbered
//!    free worker, so `stats`' per-worker counts show sequential work on
//!    one worker and pipelined work spread one job per worker.

use std::time::{Duration, Instant};
use tc_datasets::Dataset;
use tc_service::client::ServiceClient;
use tc_service::json::Json;
use tc_service::registry::shard_of;
use tc_service::server::{spawn, ServerConfig, ServerHandle};

fn server_with_shards(shards: usize, workers: usize, queue_capacity: usize) -> ServerHandle {
    spawn(ServerConfig {
        shards,
        workers,
        queue_capacity,
        default_deadline: Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Any dataset the hash assigns to `shard` out of `shards`. The corpus
/// (14 datasets) covers every shard at the counts these tests use; the
/// unit test on `shard_of` pins the spread.
fn dataset_on(shard: usize, shards: usize) -> Dataset {
    Dataset::all()
        .into_iter()
        .find(|d| shard_of(*d, shards) == shard)
        .unwrap_or_else(|| panic!("no dataset hashes to shard {shard}/{shards}"))
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 {key:?} in {v:?}"))
}

/// A deterministic mixed script touching two datasets (which land on
/// different shards at 2 and 8 shards): counts under several
/// preprocessing variants, simulations, analytics, mutations, and reads
/// after the mutations. Every response is a deterministic function of
/// the script prefix, so it can be compared byte-for-byte across shard
/// counts. (`ping`/`stats` are excluded on purpose: they report the
/// shard layout itself.)
fn script() -> Vec<String> {
    let mut lines = Vec::new();
    let mut id = 0;
    let mut push = |line: String| {
        id += 1;
        lines.push(format!(
            "{},\"id\":{id}}}",
            line.strip_suffix('}').expect("object line")
        ));
    };
    for dataset in ["email-Eucore", "email-Enron"] {
        for ordering in ["a-order", "origin"] {
            push(format!(
                r#"{{"op":"count","dataset":"{dataset}","ordering":"{ordering}"}}"#
            ));
        }
    }
    for algo in ["hu", "tricore"] {
        push(format!(
            r#"{{"op":"simulate","dataset":"email-Eucore","algo":"{algo}"}}"#
        ));
    }
    push(r#"{"op":"ktruss","dataset":"email-Eucore"}"#.into());
    push(r#"{"op":"clustering","dataset":"email-Eucore"}"#.into());
    push(r#"{"op":"recommend","dataset":"email-Eucore","source":0,"k":3}"#.into());
    push(
        r#"{"op":"update","dataset":"email-Eucore","edges":[[10,20],[30,40],[50,60,"-"]]}"#.into(),
    );
    push(r#"{"op":"update","dataset":"email-Enron","edges":[[1,2],[3,4]]}"#.into());
    push(r#"{"op":"count","dataset":"email-Eucore"}"#.into());
    push(r#"{"op":"count","dataset":"email-Enron"}"#.into());
    push(r#"{"op":"ktruss","dataset":"email-Eucore"}"#.into());
    push(r#"{"op":"evict","dataset":"email-Enron"}"#.into());
    lines
}

#[test]
fn responses_are_byte_identical_across_shard_counts() {
    let lines = script();
    let run = |shards: usize| -> Vec<String> {
        let server = server_with_shards(shards, 2, 64);
        let mut client = ServiceClient::connect(server.addr()).expect("connect");

        // The shard layout *is* visible where it is supposed to be:
        // `ping` reports the count...
        let pong = client.request_ok(r#"{"op":"ping"}"#).expect("ping");
        assert_eq!(get_u64(&pong, "shards"), shards as u64);
        // ...and `stats` carries one per-shard row per shard.
        let stats = client.request_ok(r#"{"op":"stats"}"#).expect("stats");
        let Some(Json::Arr(rows)) = stats.get("shards") else {
            panic!("stats must carry a per-shard array: {stats:?}");
        };
        assert_eq!(rows.len(), shards);

        let responses = lines
            .iter()
            .map(|line| client.request_raw(line).expect("scripted request"))
            .collect();
        server.shutdown();
        responses
    };

    let baseline = run(1);
    for (line, response) in lines.iter().zip(&baseline) {
        assert!(
            response.contains("\"ok\":true"),
            "baseline failed: {line} -> {response}"
        );
    }
    for shards in [2, 8] {
        let responses = run(shards);
        for (i, (line, response)) in lines.iter().zip(&responses).enumerate() {
            assert_eq!(
                response, &baseline[i],
                "response diverged at {shards} shards for {line}"
            );
        }
    }
}

/// The acceptance criterion for "no shared lock on the query hot path":
/// with one worker and a one-slot queue per shard, saturate one shard
/// completely (a running sleep plus a queued sleep), then require a
/// request owned by the *other* shard to complete well within its
/// deadline — and a further request to the stuffed shard to be rejected
/// `overloaded` immediately rather than waiting behind it.
#[test]
fn full_shard_does_not_block_other_shards() {
    let server = server_with_shards(2, 1, 1);
    let addr = server.addr();
    let busy = dataset_on(1, 2).name();
    let idle = dataset_on(0, 2).name();

    let blocker = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.request_raw(&format!(r#"{{"op":"sleep","ms":900,"dataset":"{busy}"}}"#))
            .expect("blocking sleep")
    });
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn(move || {
        let mut c = ServiceClient::connect(addr).expect("connect");
        c.request_raw(&format!(r#"{{"op":"sleep","ms":100,"dataset":"{busy}"}}"#))
            .expect("queued sleep")
    });
    std::thread::sleep(Duration::from_millis(150));

    // Shard 1 is saturated: worker busy, queue full. Shard 0 must not
    // notice.
    let mut c = ServiceClient::connect(addr).expect("connect");
    let t = Instant::now();
    let other = c
        .request_raw(&format!(r#"{{"op":"sleep","ms":1,"dataset":"{idle}"}}"#))
        .expect("other-shard request");
    let elapsed = t.elapsed();
    assert!(other.contains(r#""ok":true"#), "{other}");
    assert!(
        elapsed < Duration::from_millis(300),
        "other-shard request stalled behind a saturated shard: {elapsed:?}"
    );

    // And the saturated shard itself sheds load instead of queueing it.
    let t = Instant::now();
    let rejected = c
        .request_raw(&format!(r#"{{"op":"sleep","ms":1,"dataset":"{busy}"}}"#))
        .expect("overload probe");
    assert!(
        rejected.contains(r#""error":"overloaded""#),
        "expected overload on the saturated shard, got: {rejected}"
    );
    assert!(t.elapsed() < Duration::from_millis(300));

    assert!(blocker.join().unwrap().contains(r#""ok":true"#));
    assert!(queued.join().unwrap().contains(r#""ok":true"#));

    // The rejection is attributed to the saturated shard's row.
    let stats = c.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let Some(Json::Arr(rows)) = stats.get("shards") else {
        panic!("stats must carry a per-shard array");
    };
    let shard1 = rows
        .iter()
        .find(|r| r.get("shard").and_then(Json::as_u64) == Some(1))
        .expect("shard 1 row");
    assert!(get_u64(shard1.get("queue").expect("queue"), "rejected_overload") >= 1);
    server.shutdown();
}

/// An absent edge whose insertion closes at least one triangle: both
/// endpoints are neighbours of a common vertex.
fn closing_edge(g: &tc_graph::CsrGraph) -> (u32, u32) {
    for x in 0..g.num_vertices() as u32 {
        let ns = g.neighbors(x);
        for i in 0..ns.len() {
            for j in (i + 1)..ns.len() {
                if !g.has_edge(ns[i], ns[j]) {
                    return (ns[i].min(ns[j]), ns[i].max(ns[j]));
                }
            }
        }
    }
    panic!("no open wedge in {} vertices", g.num_vertices());
}

/// One pipelined connection, subscriptions on datasets owned by
/// different shards: both pushes arrive on that connection, and
/// `unsubscribe` (which carries only an id) locates the owning shard.
#[test]
fn pipelined_subscriptions_span_shards() {
    // One worker per shard keeps each shard's execution in submission
    // order, so a pipelined subscribe-then-update pair on the same
    // dataset is race-free.
    let server = server_with_shards(2, 1, 64);
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    let (d0, d1) = (dataset_on(0, 2), dataset_on(1, 2));
    assert_ne!(shard_of(d0, 2), shard_of(d1, 2));
    let (n0, n1) = (d0.name(), d1.name());

    // Per dataset: a count-cross threshold one above the base count,
    // tripped by inserting an edge that closes at least one triangle.
    let (g0, g1) = (tc_datasets::load(d0), tc_datasets::load(d1));
    let (t0, t1) = (
        tc_algos::cpu::node_iterator(&g0) + 1,
        tc_algos::cpu::node_iterator(&g1) + 1,
    );
    let ((a0, b0), (a1, b1)) = (closing_edge(&g0), closing_edge(&g1));

    let batch: Vec<String> = vec![
        format!(
            r#"{{"op":"subscribe","dataset":"{n0}","predicate":{{"kind":"count-cross","threshold":{t0}}},"id":0}}"#
        ),
        format!(
            r#"{{"op":"subscribe","dataset":"{n1}","predicate":{{"kind":"count-cross","threshold":{t1}}},"id":1}}"#
        ),
        format!(r#"{{"op":"update","dataset":"{n0}","edges":[[{a0},{b0}]],"id":2}}"#),
        format!(r#"{{"op":"update","dataset":"{n1}","edges":[[{a1},{b1}]],"id":3}}"#),
    ];
    let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
    let responses = client.pipeline(&refs).expect("pipelined batch");

    // Responses come back in submission order even though two shards
    // executed them concurrently.
    let mut subs = Vec::new();
    for (i, response) in responses.iter().enumerate() {
        assert!(
            response.starts_with(&format!(r#"{{"id":{i},"ok":true"#)),
            "response {i} out of order or failed: {response}"
        );
        let v = tc_service::json::parse(response).expect("response json");
        if i < 2 {
            subs.push(get_u64(&v, "sub"));
        } else {
            assert_eq!(get_u64(&v, "notified"), 1, "update {i} must notify");
        }
    }
    assert_ne!(subs[0], subs[1], "shared id counter must never collide");

    // Both pushes arrive on this connection; shard completion order is
    // not deterministic, so match them up by dataset.
    let mut seen = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let n = client.next_notification().expect("push frame");
        let dataset = n
            .get("dataset")
            .and_then(Json::as_str)
            .expect("push dataset")
            .to_string();
        seen.insert(dataset, get_u64(&n, "sub"));
    }
    assert_eq!(seen.get(n0), Some(&subs[0]));
    assert_eq!(seen.get(n1), Some(&subs[1]));

    // Unsubscribe fans out to find the owner, whichever shard that is.
    for sub in &subs {
        let v = client
            .request_ok(&format!(r#"{{"op":"unsubscribe","sub":{sub}}}"#))
            .expect("unsubscribe");
        assert_eq!(v.get("removed").and_then(Json::as_bool), Some(true));
    }
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"{n0}","edges":[[5,6]]}}"#
        ))
        .expect("update after unsubscribe");
    assert_eq!(get_u64(&upd, "notified"), 0);
    server.shutdown();
}

/// A protocol-initiated shutdown drains in-flight work on *every*
/// shard: sleeps pinned to each of four shards all complete, and the
/// server thread exits promptly afterwards.
#[test]
fn drain_completes_inflight_work_on_every_shard() {
    const SHARDS: usize = 4;
    let server = server_with_shards(SHARDS, 1, 8);
    let addr = server.addr();

    let inflight: Vec<_> = (0..SHARDS)
        .map(|shard| {
            let dataset = dataset_on(shard, SHARDS).name();
            std::thread::spawn(move || {
                let mut c = ServiceClient::connect(addr).expect("connect");
                c.request_raw(&format!(
                    r#"{{"op":"sleep","ms":400,"dataset":"{dataset}"}}"#
                ))
                .expect("pinned sleep")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    let mut c = ServiceClient::connect(addr).expect("connect");
    let ack = c.request_raw(r#"{"op":"shutdown"}"#).expect("shutdown ack");
    assert!(ack.contains(r#""ok":true"#), "{ack}");

    for (shard, handle) in inflight.into_iter().enumerate() {
        let response = handle.join().unwrap();
        assert!(
            response.contains(r#""ok":true"#),
            "shard {shard}'s in-flight sleep was dropped by the drain: {response}"
        );
    }
    let t = Instant::now();
    server.join();
    assert!(t.elapsed() < Duration::from_secs(5), "drain took too long");
}

/// Each shard row's `workers`: how many jobs each of its workers ran.
fn worker_jobs(client: &mut ServiceClient) -> Vec<u64> {
    let stats = client.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let Some(Json::Arr(rows)) = stats.get("shards") else {
        panic!("stats must carry a per-shard array: {stats:?}");
    };
    let Some(Json::Arr(workers)) = rows[0].get("workers") else {
        panic!("a shard row must carry per-worker job counts: {stats:?}");
    };
    workers
        .iter()
        .map(|jobs| jobs.as_u64().expect("a job count"))
        .collect()
}

/// One client sending one request at a time never has more than one job
/// in flight, so the shard hands every job to its lowest-numbered worker
/// and the other three never run (or allocate) anything.
#[test]
fn sequential_requests_all_run_on_worker_zero() {
    let server = server_with_shards(1, 4, 64);
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let requests = [
        r#"{"op":"count","dataset":"email-Eucore"}"#,
        r#"{"op":"ping"}"#,
        r#"{"op":"recommend","dataset":"email-Eucore","source":0,"k":3}"#,
        r#"{"op":"update","dataset":"email-Eucore","edges":[[10,20]]}"#,
        r#"{"op":"sleep","ms":1}"#,
    ];
    for line in requests.iter().cycle().take(50) {
        client.request_ok(line).expect("sequential request");
    }
    // `stats` counts the jobs answered before it, not itself.
    assert_eq!(worker_jobs(&mut client), [50, 0, 0, 0]);
    server.shutdown();
}

/// Four pipelined sleeps are in flight at once, so each goes to its own
/// worker, lowest-numbered free first.
#[test]
fn pipelined_sleeps_run_one_on_each_worker() {
    let server = server_with_shards(1, 4, 64);
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let sleep = r#"{"op":"sleep","ms":200}"#;
    let responses = client.pipeline(&[sleep; 4]).expect("pipelined sleeps");
    assert!(responses.iter().all(|r| r.contains(r#""ok":true"#)));
    assert_eq!(worker_jobs(&mut client), [1, 1, 1, 1]);
    server.shutdown();
}
