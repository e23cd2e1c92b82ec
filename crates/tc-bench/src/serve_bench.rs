//! Service load benchmark: cold-cache vs warm-cache throughput.
//!
//! Drives a real in-process `tc-service` server over TCP with N client
//! threads issuing `count` queries, in two passes per dataset:
//!
//! - **cold** — the server runs with a **zero registry budget**, so every
//!   query recomputes the A-direction/A-order preprocessing (the cost an
//!   unamortised one-shot pipeline pays on every request);
//! - **warm** — a normally-budgeted server answers the same load from the
//!   registry after one warm-up query;
//! - **restart** — a *freshly restarted* server whose `tc-persist`
//!   snapshot directory was populated by a previous life answers the
//!   same load with zero recomputation: the preprocessed entry (and its
//!   triangle memo) came off disk during startup recovery.
//!
//! The ratios are the point of the serving layer: preprocessing paid
//! once and amortised — and, with persistence, amortised *across process
//! lifetimes*. `experiments -- serve-bench` renders the table and writes
//! `BENCH_service.json` (acceptance target: warm ≥ 5× cold; restart
//! tracks warm, not cold). Latency quantiles are computed client-side
//! from the full sorted per-request latency vector — exact, unlike the
//! log₂ histogram the server's own `stats` op serves. These passes pin
//! `shards: 1` so their numbers stay comparable across releases.
//!
//! The **contended** section ([`run_contended`]) measures the
//! shard-per-core engine itself: many datasets with zipf-distributed
//! popularity, a mixed op stream (`count` / `recommend` / `update`)
//! from N concurrent clients, repeated at increasing shard counts on
//! the identical (seeded) workload. Scaling shard count moves
//! per-dataset traffic onto disjoint queues/registries/workers, so
//! throughput is bounded by the hottest shard instead of one global
//! lock — the per-shard request spread in the report shows where the
//! skew actually landed.

use crate::fmt::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tc_datasets::Dataset;
use tc_service::client::ServiceClient;
use tc_service::server::{spawn, ServerConfig};

/// One measured load pass.
#[derive(Clone, Copy, Debug)]
pub struct PassStats {
    /// Requests completed.
    pub requests: usize,
    /// End-to-end wall-clock of the pass.
    pub wall_s: f64,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Median request latency (µs).
    pub p50_us: u64,
    /// 99th-percentile request latency (µs).
    pub p99_us: u64,
}

/// Cold + warm passes for one dataset.
#[derive(Clone, Debug)]
pub struct ServeBenchRow {
    /// Dataset wire name.
    pub dataset: String,
    /// Client connections driving load.
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Zero-budget (recompute-every-query) pass.
    pub cold: PassStats,
    /// Budgeted (cache-hit) pass.
    pub warm: PassStats,
    /// Warm-restart pass: a new process answering from recovered
    /// snapshots, no recomputation.
    pub restart: PassStats,
    /// Entries the restarted server loaded from snapshots at startup
    /// (from its `stats` surface — proves the pass never recomputed).
    pub recovered_entries: u64,
}

impl ServeBenchRow {
    /// Warm / cold throughput ratio — the amortisation win.
    pub fn speedup(&self) -> f64 {
        if self.cold.throughput_rps > 0.0 {
            self.warm.throughput_rps / self.cold.throughput_rps
        } else {
            0.0
        }
    }

    /// Restart / cold throughput ratio — the amortisation win that
    /// survives a process restart.
    pub fn restart_speedup(&self) -> f64 {
        if self.cold.throughput_rps > 0.0 {
            self.restart.throughput_rps / self.cold.throughput_rps
        } else {
            0.0
        }
    }
}

/// Latency quantile from a sorted sample vector (exact, nearest-rank).
fn quantile_us(sorted: &[Duration], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_micros() as u64
}

/// Runs one pass: `clients` threads each issuing `per_client` count
/// queries against `addr`.
fn run_pass(
    addr: std::net::SocketAddr,
    dataset: Dataset,
    clients: usize,
    per_client: usize,
) -> PassStats {
    let query = format!(r#"{{"op":"count","dataset":"{}"}}"#, dataset.name());
    let t = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let query = &query;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connect");
                    (0..per_client)
                        .map(|_| {
                            let t = Instant::now();
                            let response = client.request_raw(query).expect("query");
                            assert!(
                                response.contains("\"ok\":true"),
                                "bench query failed: {response}"
                            );
                            t.elapsed()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len();
    PassStats {
        requests,
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        p50_us: quantile_us(&latencies, 0.50),
        p99_us: quantile_us(&latencies, 0.99),
    }
}

/// The benchmarked datasets: preprocessing-heavy relative to their count
/// cost, so the cache either pays off or the serving layer is broken.
pub fn default_suite() -> Vec<Dataset> {
    vec![Dataset::RoadCentral, Dataset::EmailEnron]
}

/// Runs the benchmark. `small` trims to one dataset and a lighter load.
pub fn run(small: bool) -> Vec<ServeBenchRow> {
    let suite = if small {
        vec![Dataset::EmailEnron]
    } else {
        default_suite()
    };
    let clients = 4;
    let per_client = if small { 4 } else { 8 };
    let workers = 4;

    suite
        .into_iter()
        .map(|dataset| {
            // Cold: zero budget — the registry admits nothing, every
            // query pays direction + ordering + rebuild.
            let cold_server = spawn(ServerConfig {
                shards: 1,
                workers,
                registry_budget: 0,
                ..ServerConfig::default()
            })
            .expect("bind cold server");
            let cold = run_pass(cold_server.addr(), dataset, clients, per_client);
            cold_server.shutdown();

            // Warm: default budget, one warm-up query, then the same load.
            let warm_server = spawn(ServerConfig {
                shards: 1,
                workers,
                ..ServerConfig::default()
            })
            .expect("bind warm server");
            let mut warmup = ServiceClient::connect(warm_server.addr()).expect("connect");
            warmup
                .request_ok(&format!(
                    r#"{{"op":"load","dataset":"{}"}}"#,
                    dataset.name()
                ))
                .expect("warm-up load");
            let warm = run_pass(warm_server.addr(), dataset, clients, per_client);
            warm_server.shutdown();

            // Restart: life 1 populates the snapshot directory with one
            // count (entry + triangle memo) and drains; life 2 recovers
            // it at startup and serves the load without recomputing.
            let persist_dir = std::env::temp_dir().join(format!(
                "tc-serve-bench-{}-{}",
                dataset.name().replace(['/', '\\'], "_"),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&persist_dir);
            {
                let life1 = spawn(ServerConfig {
                    shards: 1,
                    workers,
                    persist_dir: Some(persist_dir.clone()),
                    ..ServerConfig::default()
                })
                .expect("bind persistent server");
                let mut seed = ServiceClient::connect(life1.addr()).expect("connect");
                seed.request_ok(&format!(
                    r#"{{"op":"count","dataset":"{}"}}"#,
                    dataset.name()
                ))
                .expect("seeding count");
                life1.shutdown();
            }
            let life2 = spawn(ServerConfig {
                shards: 1,
                workers,
                persist_dir: Some(persist_dir.clone()),
                ..ServerConfig::default()
            })
            .expect("bind restarted server");
            let restart = run_pass(life2.addr(), dataset, clients, per_client);
            let mut probe = ServiceClient::connect(life2.addr()).expect("connect");
            let stats = probe.request_ok(r#"{"op":"stats"}"#).expect("stats");
            let recovered_entries = stats
                .get("cache")
                .and_then(|c| c.get("recovered_entries"))
                .and_then(tc_service::json::Json::as_u64)
                .expect("recovered_entries in stats");
            assert!(
                recovered_entries >= 1,
                "restart pass must serve from recovered snapshots"
            );
            life2.shutdown();
            let _ = std::fs::remove_dir_all(&persist_dir);

            ServeBenchRow {
                dataset: dataset.name().to_string(),
                clients,
                workers,
                cold,
                warm,
                restart,
                recovered_entries,
            }
        })
        .collect()
}

/// Renders the comparison as a text table.
pub fn render(rows: &[ServeBenchRow]) -> String {
    let mut t = Table::new([
        "dataset",
        "pass",
        "requests",
        "wall s",
        "rps",
        "p50 µs",
        "p99 µs",
        "warm/cold",
    ]);
    for row in rows {
        for (pass, stats) in [
            ("cold", &row.cold),
            ("warm", &row.warm),
            ("restart", &row.restart),
        ] {
            t.row([
                row.dataset.clone(),
                pass.to_string(),
                stats.requests.to_string(),
                format!("{:.2}", stats.wall_s),
                format!("{:.1}", stats.throughput_rps),
                stats.p50_us.to_string(),
                stats.p99_us.to_string(),
                match pass {
                    "warm" => format!("{:.1}x", row.speedup()),
                    "restart" => format!("{:.1}x", row.restart_speedup()),
                    _ => String::new(),
                },
            ]);
        }
    }
    format!(
        "Service load benchmark ({} clients, {} workers; cold = zero-budget registry, \
         restart = warm-loaded from tc-persist snapshots)\n{}",
        rows.first().map_or(0, |r| r.clients),
        rows.first().map_or(0, |r| r.workers),
        t.render()
    )
}

/// One contended-workload measurement at a fixed shard count.
#[derive(Clone, Debug)]
pub struct ContendedRow {
    /// Shards the server was partitioned into.
    pub shards: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests completed across all clients.
    pub requests: usize,
    /// End-to-end wall-clock of the pass.
    pub wall_s: f64,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Median request latency (µs).
    pub p50_us: u64,
    /// 99th-percentile request latency (µs).
    pub p99_us: u64,
    /// Requests each shard executed (from the server's per-shard stats
    /// rows) — the zipf skew made visible.
    pub per_shard_requests: Vec<u64>,
}

/// The contended corpus: enough distinct datasets that a zipf pick
/// spreads across every shard count benchmarked, all small enough that
/// the op mix is queue/lock-bound rather than kernel-bound.
fn contended_suite(small: bool) -> Vec<Dataset> {
    if small {
        vec![Dataset::EmailEucore, Dataset::EmailEnron, Dataset::Gowalla]
    } else {
        vec![
            Dataset::EmailEucore,
            Dataset::EmailEnron,
            Dataset::EmailEuall,
            Dataset::Gowalla,
            Dataset::RoadCentral,
            Dataset::KronLogn18,
        ]
    }
}

/// Zipf(s=1) cumulative weights over ranks `1..=n`, in integer space so
/// sampling needs only `gen_range` on u64.
fn zipf_cumulative(n: usize) -> Vec<u64> {
    let mut acc = 0u64;
    (1..=n as u64)
        .map(|rank| {
            acc += 1_000_000 / rank;
            acc
        })
        .collect()
}

/// One client's deterministic mixed request stream: dataset by zipf
/// rank, op by a fixed 60/20/20 count/recommend/update mix.
fn contended_line(suite: &[Dataset], cumulative: &[u64], rng: &mut StdRng) -> String {
    let x = rng.gen_range(0..*cumulative.last().expect("non-empty suite"));
    let pick = cumulative.iter().position(|&c| x < c).unwrap_or(0);
    let dataset = suite[pick].name();
    match rng.gen_range(0..10u32) {
        0..=5 => format!(r#"{{"op":"count","dataset":"{dataset}"}}"#),
        6..=7 => {
            let source = rng.gen_range(0..100u32);
            format!(r#"{{"op":"recommend","dataset":"{dataset}","source":{source},"k":4}}"#)
        }
        _ => {
            let u = rng.gen_range(0..900u32);
            let v = rng.gen_range(0..900u32);
            format!(r#"{{"op":"update","dataset":"{dataset}","edges":[[{u},{v}]]}}"#)
        }
    }
}

/// Runs the contended many-dataset workload once per shard count: 1, 2
/// and 4 shards under 8 clients, or 1 and 2 under 4 clients when
/// `small`. Every pass replays the identical seeded request streams
/// against a fresh server, so rows differ only in how the engine was
/// partitioned.
pub fn run_contended(small: bool) -> Vec<ContendedRow> {
    let suite = contended_suite(small);
    let cumulative = zipf_cumulative(suite.len());
    let (shard_counts, clients, per_client): (&[usize], usize, usize) = if small {
        (&[1, 2], 4, 20)
    } else {
        (&[1, 2, 4], 8, 120)
    };

    shard_counts
        .iter()
        .map(|&shards| {
            let server = spawn(ServerConfig {
                shards,
                // Shard-per-core: one worker per shard; concurrency
                // comes from the partitioning, not a deep pool.
                workers: 1,
                queue_capacity: 256,
                ..ServerConfig::default()
            })
            .expect("bind contended server");
            let addr = server.addr();

            let t = Instant::now();
            let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let suite = &suite;
                        let cumulative = &cumulative;
                        scope.spawn(move || {
                            let mut rng =
                                StdRng::seed_from_u64(0x5EED ^ (c as u64).wrapping_mul(0x9E37));
                            let mut client = ServiceClient::connect(addr).expect("connect");
                            (0..per_client)
                                .map(|_| {
                                    let line = contended_line(suite, cumulative, &mut rng);
                                    let t = Instant::now();
                                    let response =
                                        client.request_raw(&line).expect("contended query");
                                    assert!(
                                        response.contains("\"ok\":true"),
                                        "contended query failed: {line} -> {response}"
                                    );
                                    t.elapsed()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall_s = t.elapsed().as_secs_f64();
            latencies.sort_unstable();
            let requests = latencies.len();

            let mut probe = ServiceClient::connect(addr).expect("connect probe");
            let stats = probe.request_ok(r#"{"op":"stats"}"#).expect("stats");
            let per_shard_requests: Vec<u64> = match stats.get("shards") {
                Some(tc_service::json::Json::Arr(rows)) => rows
                    .iter()
                    .map(|r| {
                        r.get("requests")
                            .and_then(tc_service::json::Json::as_u64)
                            .unwrap_or(0)
                    })
                    .collect(),
                _ => Vec::new(),
            };
            server.shutdown();

            ContendedRow {
                shards,
                clients,
                requests,
                wall_s,
                throughput_rps: if wall_s > 0.0 {
                    requests as f64 / wall_s
                } else {
                    0.0
                },
                p50_us: quantile_us(&latencies, 0.50),
                p99_us: quantile_us(&latencies, 0.99),
                per_shard_requests,
            }
        })
        .collect()
}

/// Renders the contended sweep as a text table.
pub fn render_contended(rows: &[ContendedRow]) -> String {
    let mut t = Table::new([
        "shards",
        "clients",
        "requests",
        "wall s",
        "rps",
        "p50 µs",
        "p99 µs",
        "per-shard requests",
    ]);
    for row in rows {
        t.row([
            row.shards.to_string(),
            row.clients.to_string(),
            row.requests.to_string(),
            format!("{:.2}", row.wall_s),
            format!("{:.1}", row.throughput_rps),
            row.p50_us.to_string(),
            row.p99_us.to_string(),
            row.per_shard_requests
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/"),
        ]);
    }
    format!(
        "Contended workload (zipf dataset popularity, 60/20/20 count/recommend/update mix, \
         1 worker per shard)\n{}",
        t.render()
    )
}

/// Machine-readable form (hand-rolled JSON; the workspace has no serde).
pub fn to_json(rows: &[ServeBenchRow]) -> String {
    to_json_with_contended(rows, &[])
}

/// [`to_json`] plus the contended-sweep section.
pub fn to_json_with_contended(rows: &[ServeBenchRow], contended: &[ContendedRow]) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pass = |s: &PassStats| {
        format!(
            "{{\"requests\": {}, \"wall_s\": {:.4}, \"throughput_rps\": {:.3}, \
             \"p50_us\": {}, \"p99_us\": {}}}",
            s.requests, s.wall_s, s.throughput_rps, s.p50_us, s.p99_us
        )
    };
    let mut out = format!(
        "{{\n  \"benchmark\": \"service-cold-vs-warm\",\n  \"cores\": {cores},\n  \"datasets\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"clients\": {}, \"workers\": {}, \
             \"cold\": {}, \"warm\": {}, \"restart\": {}, \"warm_over_cold\": {:.3}, \
             \"restart_over_cold\": {:.3}, \"recovered_entries\": {}}}{}\n",
            r.dataset,
            r.clients,
            r.workers,
            pass(&r.cold),
            pass(&r.warm),
            pass(&r.restart),
            r.speedup(),
            r.restart_speedup(),
            r.recovered_entries,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    if contended.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n  \"contended\": {\n    \"op_mix\": \"count60/recommend20/update20\",\n    \"rows\": [\n");
    for (i, r) in contended.iter().enumerate() {
        let spread = r
            .per_shard_requests
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "      {{\"shards\": {}, \"clients\": {}, \"requests\": {}, \"wall_s\": {:.4}, \
             \"throughput_rps\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \
             \"per_shard_requests\": [{}]}}{}\n",
            r.shards,
            r.clients,
            r.requests,
            r.wall_s,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            spread,
            if i + 1 < contended.len() { "," } else { "" },
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rps: f64) -> PassStats {
        PassStats {
            requests: 32,
            wall_s: 1.0,
            throughput_rps: rps,
            p50_us: 100,
            p99_us: 900,
        }
    }

    #[test]
    fn json_shape_is_valid() {
        let rows = vec![ServeBenchRow {
            dataset: "road_central".into(),
            clients: 4,
            workers: 4,
            cold: stats(2.0),
            warm: stats(20.0),
            restart: stats(16.0),
            recovered_entries: 1,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"warm_over_cold\": 10.000"));
        assert!(json.contains("\"restart_over_cold\": 8.000"));
        assert!(json.contains("\"recovered_entries\": 1"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"dataset\"").count(), 1);
    }

    #[test]
    fn contended_json_section_is_shaped() {
        let rows = vec![ServeBenchRow {
            dataset: "road_central".into(),
            clients: 4,
            workers: 4,
            cold: stats(2.0),
            warm: stats(20.0),
            restart: stats(16.0),
            recovered_entries: 1,
        }];
        let contended = vec![
            ContendedRow {
                shards: 1,
                clients: 8,
                requests: 160,
                wall_s: 1.0,
                throughput_rps: 160.0,
                p50_us: 200,
                p99_us: 1500,
                per_shard_requests: vec![161],
            },
            ContendedRow {
                shards: 2,
                clients: 8,
                requests: 160,
                wall_s: 0.5,
                throughput_rps: 320.0,
                p50_us: 120,
                p99_us: 900,
                per_shard_requests: vec![100, 61],
            },
        ];
        let json = to_json_with_contended(&rows, &contended);
        assert!(json.contains("\"contended\""));
        assert!(json.contains("\"per_shard_requests\": [100, 61]"));
        assert!(json.contains("\"op_mix\""));
        assert!(json.trim_end().ends_with('}'));
        // Without contended rows the section is absent entirely.
        assert!(!to_json(&rows).contains("\"contended\""));
    }

    #[test]
    fn zipf_sampling_is_skewed_and_in_range() {
        let suite = contended_suite(false);
        let cumulative = zipf_cumulative(suite.len());
        assert_eq!(cumulative.len(), suite.len());
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = vec![0usize; suite.len()];
        for _ in 0..4_000 {
            let x = rng.gen_range(0..*cumulative.last().unwrap());
            let pick = cumulative.iter().position(|&c| x < c).unwrap_or(0);
            hits[pick] += 1;
        }
        // Rank 1 must dominate the tail and every rank must be sampled.
        assert!(hits[0] > hits[suite.len() - 1] * 2, "{hits:?}");
        assert!(hits.iter().all(|&h| h > 0), "{hits:?}");
    }

    #[test]
    fn contended_lines_are_valid_requests() {
        let suite = contended_suite(true);
        let cumulative = zipf_cumulative(suite.len());
        let mut rng = StdRng::seed_from_u64(11);
        let mut ops = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let line = contended_line(&suite, &cumulative, &mut rng);
            let parsed = tc_service::json::parse(&line).expect("request parses");
            let op = parsed
                .get("op")
                .and_then(tc_service::json::Json::as_str)
                .expect("op field")
                .to_string();
            ops.insert(op);
        }
        assert!(ops.contains("count") && ops.contains("recommend") && ops.contains("update"));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(quantile_us(&samples, 0.50), 50);
        assert_eq!(quantile_us(&samples, 0.99), 99);
        assert_eq!(quantile_us(&samples, 1.0), 100);
        assert_eq!(quantile_us(&[], 0.5), 0);
    }

    #[test]
    fn speedup_handles_zero_cold_throughput() {
        let row = ServeBenchRow {
            dataset: "x".into(),
            clients: 1,
            workers: 1,
            cold: stats(0.0),
            warm: stats(10.0),
            restart: stats(10.0),
            recovered_entries: 0,
        };
        assert_eq!(row.speedup(), 0.0);
        assert_eq!(row.restart_speedup(), 0.0);
    }
}
