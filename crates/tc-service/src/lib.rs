//! # tc-service — a concurrent triangle-analytics query server
//!
//! The serving layer over the reproduction workspace: a multi-threaded
//! TCP server speaking a newline-delimited JSON protocol, holding
//! graphs resident so the paper's A-direction/A-order preprocessing is
//! paid once and amortised across queries.
//!
//! The engine is **shard-per-core**: datasets are partitioned across N
//! shards by a stable hash of the dataset name, and each shard owns its
//! registry slice, worker threads, bounded queue, and subscriptions
//! outright — the same shared-nothing partitioning TRUST applies across
//! GPUs, here applied across cores so no query ever takes a cross-shard
//! lock (`ServerConfig::shards`; defaults to `available_parallelism`).
//! Within a shard, each dataset's requests take effect in admission
//! order: an `update` or `subscribe` runs alone, while the reads between
//! two writes run side by side (see [`protocol`]).
//!
//! Subsystems:
//!
//! - [`registry`] — the preprocessed-graph cache, keyed by
//!   `(dataset, direction scheme, ordering scheme, bucket size)` behind
//!   a byte-budget LRU, plus per-dataset streaming state (a
//!   [`tc_stream::DynamicGraph`]) once a dataset is mutated. One
//!   instance per shard; [`registry::shard_of`] names the owner.
//! - [`server`] — acceptor + pipelined connection threads + per-shard
//!   bounded job queues with admission control (overload ⇒ structured
//!   error, never unbounded latency) that hand out each dataset's jobs
//!   in admission order + per-shard worker pools + graceful drain
//!   across every shard.
//! - [`protocol`] — the wire format: query ops `count`, `simulate`,
//!   `ktruss`, `clustering`, `recommend`; mutation op `update`;
//!   subscription ops `subscribe`, `unsubscribe`; admin ops `load`,
//!   `evict`, `stats`, `stream-stats`, `analytics-stats`, `ping`,
//!   `sleep`, `shutdown` — plus the push-notification frame format.
//! - [`exec`] — query execution: the [`exec::Engine`] runs each dataset
//!   op against its owning [`exec::Shard`] (registry slice, metrics,
//!   subscriptions) and fans engine-wide admin ops (`stats` rollup,
//!   bare `evict`, …) out across every shard. For streamed datasets,
//!   `count` reads the stream's maintained count, and `clustering` folds
//!   the per-vertex counts the `tc-analytics` state maintains
//!   (bit-identical to a full recompute, at a fraction of the cost);
//!   `ktruss` decomposes the materialised graph, as on a static
//!   dataset.
//! - [`subs`] — live push subscriptions: predicates from `tc-analytics`
//!   bound to connections, evaluated exactly around every applied
//!   batch, delivered as `{"push":...}` frames on the subscriber's
//!   connection.
//! - [`metrics`] — per-endpoint counters and latency histograms.
//! - [`client`] — a minimal blocking client.
//! - [`json`] — the in-tree JSON model (the workspace builds offline;
//!   there is no serde).
//!
//! Query responses are deterministic functions of the request — counts
//! are exact, simulated cycles are bit-identical at any worker count —
//! so the e2e suite can demand byte-identical responses from concurrent
//! and serial runs, and from the same script served at 1, 2, or 8
//! shards.
//!
//! ## Quickstart
//!
//! ```
//! use tc_service::server::{self, ServerConfig};
//! use tc_service::client::ServiceClient;
//!
//! let handle = server::spawn(ServerConfig {
//!     workers: 2,
//!     ..ServerConfig::default()
//! })
//! .expect("bind");
//! let mut client = ServiceClient::connect(handle.addr()).expect("connect");
//! let reply = client
//!     .request_ok(r#"{"op":"count","dataset":"email-Eucore"}"#)
//!     .expect("query");
//! assert!(reply.get("triangles").is_some());
//! handle.shutdown(); // graceful: drains in-flight work
//! ```

pub mod client;
pub mod exec;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod subs;

pub use client::ServiceClient;
pub use protocol::{Op, PrepTarget, Request};
pub use registry::{AnalyticsInfo, EntryDetail, GraphRegistry, RegistryStats, StreamInfo};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use subs::SubscriptionRegistry;
