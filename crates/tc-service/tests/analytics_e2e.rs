//! End-to-end tests for the analytics subsystem over real TCP: push
//! subscriptions firing exactly on the batches that trip them, silence
//! after unsubscribe and disconnect, pipelined interleaving of
//! responses and push frames, and the freshness of every query op
//! against the materialised dynamic graph.

use std::time::Duration;
use tc_service::client::ServiceClient;
use tc_service::json::Json;
use tc_service::server::{spawn, ServerConfig, ServerHandle};

fn server() -> ServerHandle {
    spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 member {key:?} in {v:?}"))
}

fn get_str<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string member {key:?} in {v:?}"))
}

/// Non-adjacent with an empty common neighbourhood: inserting `(a, b)`
/// closes zero triangles against the base graph.
fn independent_pair(g: &tc_graph::CsrGraph, a: u32, b: u32) -> bool {
    !g.has_edge(a, b) && g.neighbors(a).iter().all(|&x| !g.has_edge(b, x))
}

/// Three vertices that are pairwise non-adjacent *and* pairwise share
/// no neighbours, whose corner `w` provably changes its clustering
/// coefficient when the triangle `{u, v, w}` is inserted. The scripted
/// workloads below rely on all of it: with every pair independent, the
/// trio's edges close exactly the one scripted triangle and nothing
/// else, so every count and support delta is exact.
fn free_trio(g: &tc_graph::CsrGraph, local: &[u64]) -> (u32, u32, u32) {
    // Low-degree vertices are the likeliest to be independent; scanning
    // in degree order finds a trio almost immediately.
    let mut by_degree: Vec<u32> = (0..g.num_vertices() as u32).collect();
    by_degree.sort_by_key(|&v| g.degree(v));
    for (i, &u) in by_degree.iter().enumerate() {
        for (j, &v) in by_degree.iter().enumerate().skip(i + 1) {
            if !independent_pair(g, u, v) {
                continue;
            }
            for &w in by_degree.iter().skip(j + 1) {
                if !independent_pair(g, u, w) || !independent_pair(g, v, w) {
                    continue;
                }
                // The scripted workload needs C(w) to move both when
                // the triangle appears (degree d → d+2, +1 triangle)
                // and when (v, w) is deleted again (d+2 → d+1, -1).
                let (d, t) = (g.degree(w), local[w as usize]);
                let c0 = tc_apps::local_coefficient(t, d);
                let c1 = tc_apps::local_coefficient(t + 1, d + 2);
                let c2 = tc_apps::local_coefficient(t, d + 1);
                if c1 != c0 && c2 != c1 {
                    return (u, v, w);
                }
            }
        }
    }
    panic!("no usable trio in dataset");
}

/// The acceptance script: three subscriptions, two batches with exactly
/// known notification sets, then unsubscribe and silence.
#[test]
fn scripted_batches_fire_exact_notifications() {
    let handle = server();
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let local =
        tc_algos::engine::with_thread_scratch(|s| tc_apps::triangles_per_vertex_with(&g, s));
    let base = local.iter().sum::<u64>() / 3;
    let (u, v, w) = free_trio(&g, &local);
    let threshold = base + 1;

    // Subscribe in a fixed order; watcher evaluation (and therefore
    // push order within one batch) is ascending subscription id.
    let s1 = client
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"support-below","u":{u},"v":{v},"k":1}}}}"#
        ))
        .expect("subscribe support-below");
    assert_eq!(s1.get("current"), Some(&Json::Null), "edge absent at start");
    let s1 = get_u64(&s1, "sub");
    let s2 = client
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"clustering-delta","vertex":{w},"epsilon":0.0}}}}"#
        ))
        .expect("subscribe clustering-delta");
    let s2 = get_u64(&s2, "sub");
    let s3 = client
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"count-cross","threshold":{threshold}}}}}"#
        ))
        .expect("subscribe count-cross");
    assert_eq!(get_u64(&s3, "current"), base);
    let s3 = get_u64(&s3, "sub");

    // Batch 1: insert the triangle. Trips count-cross (upward) and
    // clustering-delta, but NOT support-below — the new edge arrives at
    // support 1 ≥ k, and "absent → present" is not a drop.
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v}],[{u},{w}],[{v},{w}]]}}"#
        ))
        .expect("update 1");
    assert_eq!(get_u64(&upd, "triangles"), base + 1);
    assert_eq!(get_u64(&upd, "notified"), 2);
    let n1 = client.next_notification().expect("first push");
    assert_eq!(get_u64(&n1, "sub"), s2);
    assert_eq!(get_str(&n1, "kind"), "clustering-delta");
    assert_eq!(get_u64(&n1, "vertex"), u64::from(w));
    let n2 = client.next_notification().expect("second push");
    assert_eq!(get_u64(&n2, "sub"), s3);
    assert_eq!(get_str(&n2, "kind"), "count-cross");
    assert_eq!(get_u64(&n2, "before"), base);
    assert_eq!(get_u64(&n2, "after"), base + 1);

    // Batch 2: delete (v, w). Support of (u, v) drops 1 → 0 (edge still
    // present), the count re-crosses downward, and C(w) moves back.
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{v},{w},"-"]]}}"#
        ))
        .expect("update 2");
    assert_eq!(get_u64(&upd, "notified"), 3);
    let n1 = client.next_notification().expect("push 1");
    assert_eq!(get_u64(&n1, "sub"), s1);
    assert_eq!(get_str(&n1, "kind"), "support-below");
    assert_eq!(get_u64(&n1, "support"), 0);
    assert_eq!(n1.get("exists").and_then(Json::as_bool), Some(true));
    let n2 = client.next_notification().expect("push 2");
    assert_eq!(get_u64(&n2, "sub"), s2);
    let n3 = client.next_notification().expect("push 3");
    assert_eq!(get_u64(&n3, "sub"), s3);
    assert_eq!(get_u64(&n3, "before"), base + 1);
    assert_eq!(get_u64(&n3, "after"), base);

    // Unsubscribe everything; an out-of-range and a foreign id fail.
    for sub in [s1, s2, s3] {
        let r = client
            .request_ok(&format!(r#"{{"op":"unsubscribe","sub":{sub}}}"#))
            .expect("unsubscribe");
        assert_eq!(r.get("removed").and_then(Json::as_bool), Some(true));
    }
    let r = client
        .request_ok(&format!(r#"{{"op":"unsubscribe","sub":{s3}}}"#))
        .expect("double unsubscribe is ok-shaped");
    assert_eq!(r.get("removed").and_then(Json::as_bool), Some(false));

    // Batch 3 would have tripped everything — but nobody is watching.
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v},"-"],[{u},{w},"-"]]}}"#
        ))
        .expect("update 3");
    assert_eq!(get_u64(&upd, "notified"), 0);
    let silent = client
        .try_next_notification(Duration::from_millis(300))
        .expect("poll");
    assert!(silent.is_none(), "unsubscribed predicates must stay silent");

    handle.shutdown();
}

/// A subscriber on one connection receives pushes for batches applied
/// by a different connection, and disconnecting the subscriber cleans
/// its subscriptions up server-side.
#[test]
fn cross_connection_push_and_disconnect_cleanup() {
    let handle = server();
    let mut updater = ServiceClient::connect(handle.addr()).expect("connect updater");
    let mut subscriber = ServiceClient::connect(handle.addr()).expect("connect subscriber");

    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let base = tc_algos::cpu::node_iterator(&g);
    let (a, b) = {
        // Any absent edge that closes at least one triangle when
        // inserted: two neighbours of the same vertex.
        let mut found = None;
        'outer: for x in 0..g.num_vertices() as u32 {
            let ns = g.neighbors(x);
            for i in 0..ns.len() {
                for j in (i + 1)..ns.len() {
                    if !g.has_edge(ns[i], ns[j]) {
                        found = Some((ns[i].min(ns[j]), ns[i].max(ns[j])));
                        break 'outer;
                    }
                }
            }
        }
        found.expect("open wedge exists")
    };

    let sub = subscriber
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"count-cross","threshold":{}}}}}"#,
            base + 1
        ))
        .expect("subscribe");
    let sub = get_u64(&sub, "sub");

    let upd = updater
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{a},{b}]]}}"#
        ))
        .expect("update");
    assert!(get_u64(&upd, "triangles") > base);
    assert_eq!(get_u64(&upd, "notified"), 1);

    // The push arrives on the *subscriber's* connection.
    let n = subscriber.next_notification().expect("push");
    assert_eq!(get_u64(&n, "sub"), sub);
    assert_eq!(get_str(&n, "dataset"), "email-Eucore");

    // Disconnect the subscriber; the server reaps its subscriptions.
    drop(subscriber);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = updater
            .request_ok(r#"{"op":"analytics-stats"}"#)
            .expect("analytics-stats");
        if get_u64(&stats, "subscriptions") == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "subscription not reaped after disconnect: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // A tripping batch now notifies nobody.
    let upd = updater
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{a},{b},"-"]]}}"#
        ))
        .expect("update after disconnect");
    assert_eq!(get_u64(&upd, "notified"), 0);

    handle.shutdown();
}

/// Pipelined updates on the subscribing connection: all responses come
/// back in request order with push frames buffered aside, and the
/// buffered pushes drain afterwards in fire order.
#[test]
fn pipelined_updates_interleave_pushes_without_tearing() {
    let handle = server();
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // Isolated-pair dance on high vertex ids is graph-agnostic: count
    // crosses 0→… only via the scripted triangle.
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let base = tc_algos::cpu::node_iterator(&g);
    let (u, v, w) = {
        let local =
            tc_algos::engine::with_thread_scratch(|s| tc_apps::triangles_per_vertex_with(&g, s));
        free_trio(&g, &local)
    };
    client
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"count-cross","threshold":{}}}}}"#,
            base + 1
        ))
        .expect("subscribe");

    // Four pipelined batches: close the triangle (fires), break it
    // (fires), noop (silent), close it again (fires).
    let lines = [
        format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v}],[{u},{w}]],"id":1}}"#
        ),
        format!(r#"{{"op":"update","dataset":"email-Eucore","edges":[[{v},{w}]],"id":2}}"#),
        format!(r#"{{"op":"update","dataset":"email-Eucore","edges":[[{v},{w},"-"]],"id":3}}"#),
        format!(r#"{{"op":"update","dataset":"email-Eucore","edges":[[{v},{w}]],"id":4}}"#),
    ];
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let responses = client.pipeline(&refs).expect("pipeline");
    assert_eq!(responses.len(), 4);
    for (i, raw) in responses.iter().enumerate() {
        let v = tc_service::json::parse(raw).expect("response json");
        assert_eq!(
            get_u64(&v, "id"),
            i as u64 + 1,
            "responses must come back in request order"
        );
        assert_eq!(get_str(&v, "op"), "update");
    }
    // Exactly three crossings fired (batches 2, 3, 4); the client
    // buffered whatever arrived interleaved and serves them in order.
    let directions: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let n = client.next_notification().expect("push");
            assert_eq!(get_str(&n, "kind"), "count-cross");
            (get_u64(&n, "before"), get_u64(&n, "after"))
        })
        .collect();
    assert_eq!(directions[0], (base, base + 1));
    assert_eq!(directions[1], (base + 1, base));
    assert_eq!(directions[2], (base, base + 1));
    assert!(client
        .try_next_notification(Duration::from_millis(200))
        .expect("poll")
        .is_none());

    handle.shutdown();
}

/// The `simulate` op runs against the *materialised dynamic graph*:
/// after an update, every kernel's simulated triangle count agrees with
/// the exact count of the mutated edge set (freshness pin for the
/// simulate read path).
#[test]
fn simulate_reads_the_materialized_dynamic_graph() {
    let handle = server();
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    let before = get_u64(
        &client
            .request_ok(r#"{"op":"simulate","dataset":"email-Eucore","algo":"hu"}"#)
            .expect("simulate before"),
        "triangles",
    );

    // Delete the dataset's first edge, then re-simulate: the kernel must
    // see the mutated graph, not the stale preprocessed variant.
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let (u, v) = g.edges().next().expect("has edges");
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v},"-"]]}}"#
        ))
        .expect("update");
    let exact = get_u64(&upd, "triangles");

    for algo in ["hu", "tricore", "polak"] {
        let sim = client
            .request_ok(&format!(
                r#"{{"op":"simulate","dataset":"email-Eucore","algo":"{algo}"}}"#
            ))
            .expect("simulate after");
        assert_eq!(
            get_u64(&sim, "triangles"),
            exact,
            "kernel {algo} must count the mutated graph"
        );
    }
    assert!(exact <= before);

    // And the analytics read paths agree with the count op end to end.
    let counted = get_u64(
        &client
            .request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
            .expect("count"),
        "triangles",
    );
    assert_eq!(counted, exact);
    // `clustering` on a streamed dataset builds the analytics state;
    // the stats op then reports the same exact count.
    client
        .request_ok(r#"{"op":"clustering","dataset":"email-Eucore"}"#)
        .expect("clustering");
    let stats = client
        .request_ok(r#"{"op":"analytics-stats","dataset":"email-Eucore"}"#)
        .expect("analytics-stats");
    assert_eq!(get_u64(&stats, "triangles"), exact);

    handle.shutdown();
}

/// ktruss / clustering / recommend answers served after an update are
/// byte-identical across a server that maintained its analytics state
/// *through* the batch (subscribed before it) and one that built the
/// state *after* it (first query) — incremental maintenance vs fresh
/// build, compared on the wire.
#[test]
fn analytics_read_paths_are_byte_identical_to_recomputes() {
    let warm = server();
    let cold = server();
    let mut wc = ServiceClient::connect(warm.addr()).expect("connect warm");
    let mut cc = ServiceClient::connect(cold.addr()).expect("connect cold");

    // Mutate both servers identically; the warm one also subscribes,
    // forcing it onto the maintained-analytics read path.
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let (u, v) = g.edges().next().expect("has edges");
    wc.request_ok(r#"{"op":"subscribe","dataset":"email-Eucore","predicate":{"kind":"count-cross","threshold":1}}"#)
        .expect("subscribe");
    let update =
        format!(r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v},"-"]],"id":9}}"#);
    wc.request_ok(&update).expect("warm update");
    cc.request_ok(&update).expect("cold update");

    // The warm server's state saw the batch incrementally; the cold
    // server's is built fresh at its first query below. Byte-equal
    // responses on every app op pin the two paths to each other.
    for q in [
        r#"{"op":"ktruss","dataset":"email-Eucore"}"#,
        r#"{"op":"clustering","dataset":"email-Eucore"}"#,
        r#"{"op":"recommend","dataset":"email-Eucore","source":7,"k":5}"#,
    ] {
        let a = wc.request_raw(q).expect("warm query");
        let b = cc.request_raw(q).expect("cold query");
        assert_eq!(a, b, "analytics read path diverged for {q}");
    }

    // The warm server actually used the maintained state.
    let stats = wc.request_ok(r#"{"op":"stats"}"#).expect("stats");
    let analytics = stats.get("analytics").expect("analytics stats block");
    assert!(get_u64(analytics, "reads") >= 1, "{analytics:?}");
    assert!(get_u64(analytics, "builds") >= 1);

    warm.shutdown();
    cold.shutdown();
}
