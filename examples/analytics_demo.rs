//! Analytics demo + smoke test: live push subscriptions on a streamed
//! dataset, plus the `ktruss` and incrementally-served `clustering`
//! reads.
//!
//! ```text
//! cargo run --release --example analytics_demo
//! ```
//!
//! Starts `tc-service` on an ephemeral port, subscribes to two
//! predicates on `email-Eucore`, applies update batches that trip them,
//! and prints each push frame as it arrives. `scripts/ci.sh` runs this
//! as the analytics smoke test — every assert doubles as a check that
//! the subscription pipeline delivers exactly what the batch implied.

use gpu_tc::datasets::{self, Dataset};
use gpu_tc::service::client::ServiceClient;
use gpu_tc::service::json::Json;
use gpu_tc::service::server::{spawn, ServerConfig};
use std::time::Duration;

fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key} in {v:?}"))
}

fn main() {
    let handle = spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind server");
    println!("tc-service listening on {}", handle.addr());

    // An open wedge of the dataset: two non-adjacent neighbours of one
    // vertex. Inserting (u, v) closes at least one triangle.
    let g = datasets::load(Dataset::EmailEucore);
    let (u, v) = (0..g.num_vertices() as u32)
        .find_map(|x| {
            let ns = g.neighbors(x);
            ns.iter().enumerate().find_map(|(i, &a)| {
                ns[i + 1..]
                    .iter()
                    .find(|&&b| !g.has_edge(a, b))
                    .map(|&b| (a.min(b), a.max(b)))
            })
        })
        .expect("an open wedge exists");

    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    let count = client
        .request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
        .expect("count");
    let base = u64_of(&count, "triangles");
    println!("email-Eucore starts at {base} triangles");

    // Two subscriptions: fire when the global count rises past base+1,
    // and when edge (u, v) stops supporting any triangle.
    let sub_count = client
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"count-cross","threshold":{}}}}}"#,
            base + 1
        ))
        .expect("subscribe count-cross");
    println!(
        "subscribed #{} to count-cross at {} (current: {})",
        u64_of(&sub_count, "sub"),
        base + 1,
        u64_of(&sub_count, "current"),
    );
    let sub_support = client
        .request_ok(&format!(
            r#"{{"op":"subscribe","dataset":"email-Eucore","predicate":{{"kind":"support-below","u":{u},"v":{v},"k":1}}}}"#
        ))
        .expect("subscribe support-below");
    let sub_support_id = u64_of(&sub_support, "sub");
    println!("subscribed #{sub_support_id} to support-below on ({u}, {v})");

    // Close the wedge: the count crosses upward and a push arrives.
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v}]]}}"#
        ))
        .expect("insert");
    println!(
        "insert ({u}, {v}): {} triangles, {} subscriber(s) notified",
        u64_of(&upd, "triangles"),
        u64_of(&upd, "notified"),
    );
    let push = client.next_notification().expect("count-cross push");
    println!(
        "  push: sub #{} {} crossed {} ({} -> {})",
        u64_of(&push, "sub"),
        push.get("kind").and_then(Json::as_str).expect("kind"),
        u64_of(&push, "threshold"),
        u64_of(&push, "before"),
        u64_of(&push, "after"),
    );

    // `clustering` folds the maintained per-vertex counts, bit-identical
    // to a recompute without its counting pass; `ktruss` decomposes the
    // materialised graph.
    let kt = client
        .request_ok(r#"{"op":"ktruss","dataset":"email-Eucore"}"#)
        .expect("ktruss");
    let cc = client
        .request_ok(r#"{"op":"clustering","dataset":"email-Eucore"}"#)
        .expect("clustering");
    println!(
        "reads: max truss = {}, global clustering = {}",
        u64_of(&kt, "max_truss"),
        cc.get("global_coefficient")
            .and_then(Json::as_f64)
            .expect("global_coefficient"),
    );

    // Deleting the edge trips both predicates in subscription order.
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v},"-"]]}}"#
        ))
        .expect("delete");
    assert_eq!(u64_of(&upd, "notified"), 2);
    for _ in 0..2 {
        let push = client.next_notification().expect("push");
        println!(
            "  push: sub #{} {}",
            u64_of(&push, "sub"),
            push.get("kind").and_then(Json::as_str).expect("kind"),
        );
    }

    let stats = client
        .request_ok(r#"{"op":"analytics-stats","dataset":"email-Eucore"}"#)
        .expect("analytics-stats");
    println!(
        "analytics state: {} tracked edges, {} changes applied, ~{} bytes",
        u64_of(&stats, "tracked_edges"),
        u64_of(&stats, "changes_applied"),
        u64_of(&stats, "approx_bytes"),
    );

    // Unsubscribe everything; a tripping batch is now silent.
    for sub in [u64_of(&sub_count, "sub"), sub_support_id] {
        let r = client
            .request_ok(&format!(r#"{{"op":"unsubscribe","sub":{sub}}}"#))
            .expect("unsubscribe");
        assert_eq!(r.get("removed").and_then(Json::as_bool), Some(true));
    }
    let upd = client
        .request_ok(&format!(
            r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v}]]}}"#
        ))
        .expect("reinsert");
    assert_eq!(u64_of(&upd, "notified"), 0);
    assert!(client
        .try_next_notification(Duration::from_millis(200))
        .expect("poll")
        .is_none());
    println!("after unsubscribe: tripping batch delivered nothing (correct)");

    handle.shutdown();
    println!("server drained and joined cleanly");
}
