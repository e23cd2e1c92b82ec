//! End-to-end tests of the per-dataset ordering guarantee over real
//! TCP: a shard runs each dataset's requests in admission order, so an
//! `update` applies after every earlier request for its dataset and
//! before every later one, even when one connection pipelines them to a
//! shard with several workers.

use tc_service::client::ServiceClient;
use tc_service::json::Json;
use tc_service::server::{spawn, ServerConfig, ServerHandle};

const ROUNDS: usize = 20;

fn server() -> ServerHandle {
    spawn(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 member {key:?} in {v:?}"))
}

/// The first edge of email-Eucore's stand-in and the number of
/// triangles through it.
fn base_edge() -> (u32, u32, u64) {
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let (u, v) = g.edges().next().expect("graph has edges");
    let through = g.neighbors(u).iter().filter(|&&w| g.has_edge(v, w)).count();
    (u, v, through as u64)
}

fn update(u: u32, v: u32, delete: bool) -> String {
    let sign = if delete { r#","-""# } else { "" };
    format!(r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v}{sign}]]}}"#)
}

/// Deleting and re-inserting one edge alternately: each batch finds the
/// state its predecessor left, so every delete removes the edge and
/// every insert restores it. A batch applied out of order would find the
/// edge already gone (or already back) and answer a no-op.
#[test]
fn pipelined_batches_of_one_dataset_apply_in_request_order() {
    let handle = server();
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    let (u, v, _) = base_edge();
    let lines: Vec<String> = (0..32).map(|i| update(u, v, i % 2 == 0)).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for round in 0..ROUNDS {
        let responses = client.pipeline(&refs).expect("pipeline");
        for (i, raw) in responses.iter().enumerate() {
            let r = tc_service::json::parse(raw).expect("response json");
            let key = if i % 2 == 0 { "deleted" } else { "inserted" };
            assert_eq!(get_u64(&r, key), 1, "round {round}, batch {i}: {raw}");
        }
    }
    handle.shutdown();
}

/// A `count` pipelined behind an `update` of its dataset answers for the
/// updated graph, exactly as it would if each request waited for the
/// previous response.
#[test]
fn pipelined_counts_see_the_update_before_them() {
    let handle = server();
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");
    let (u, v, through) = base_edge();
    let g = tc_datasets::load(tc_datasets::Dataset::EmailEucore);
    let base = tc_algos::cpu::node_iterator(&g);
    let count = r#"{"op":"count","dataset":"email-Eucore"}"#.to_string();
    let lines: Vec<String> = (0..16)
        .flat_map(|i| [update(u, v, i % 2 == 0), count.clone()])
        .collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for round in 0..ROUNDS {
        let responses = client.pipeline(&refs).expect("pipeline");
        for (i, raw) in responses.iter().enumerate().skip(1).step_by(2) {
            let r = tc_service::json::parse(raw).expect("response json");
            let serial = if (i / 2) % 2 == 0 {
                base - through
            } else {
                base
            };
            assert_eq!(
                get_u64(&r, "triangles"),
                serial,
                "round {round}, request {i}"
            );
        }
    }
    handle.shutdown();
}
