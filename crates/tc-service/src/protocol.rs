//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, answered in
//! order per connection. A request is a JSON object with an `"op"` member
//! selecting the query kind plus op-specific members; an optional `"id"`
//! member (any JSON scalar) is echoed back verbatim so clients can
//! correlate pipelined requests.
//!
//! ```text
//! {"op":"count","dataset":"gowalla","id":1}
//! {"id":1,"ok":true,"op":"count","dataset":"gowalla","direction":"A-direction","ordering":"A-order","nodes":40000,"edges":...,"triangles":...}
//! ```
//!
//! Responses carry `"ok":true` plus an op-specific payload, or
//! `"ok":false` with a stable machine-readable `"error"` code and a
//! human-readable `"message"`. Successful query responses contain only
//! deterministic fields (counts, simulated cycles, scores — never
//! wall-clock latency), which is what makes the concurrent-vs-serial
//! byte-identical acceptance test possible; timing lives in the `stats`
//! surface instead.
//!
//! Requests for one dataset take effect in the order the server admits
//! them, across every connection: a request that writes a dataset
//! ([`Request::mutates`]: `update`, `subscribe`) applies after every
//! request for that dataset admitted before it and before every one
//! admitted after it. So a pipelined `count` behind an `update` of its
//! dataset answers for the updated graph, and pipelined batches apply in
//! the order they were sent. Reads between two writes may run at the
//! same time; requests for different datasets carry no mutual order.

use crate::json::{self, Json};
use tc_analytics::{Notification, Predicate};
use tc_core::{DirectionScheme, OrderingScheme};
use tc_datasets::Dataset;
use tc_stream::EdgeOp;

/// Most edge operations one `update` request may carry. Larger streams
/// must be split into multiple requests — this bounds both per-request
/// parse memory and worker occupancy, the same way the queue bounds
/// admission.
pub const MAX_UPDATE_OPS: usize = 100_000;

/// Query kinds and admin operations the server executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Exact CPU triangle count on a preprocessed (directed) graph.
    Count,
    /// Run a named GPU kernel through the simulator; returns cycles +
    /// metrics.
    Simulate,
    /// k-truss decomposition summary.
    Ktruss,
    /// Clustering coefficients (global + mean local).
    Clustering,
    /// Triangle-based link recommendation for a source vertex.
    Recommend,
    /// Admin: preload a preprocessed variant into the registry.
    Load,
    /// Admin: evict registry entries.
    Evict,
    /// Admin: metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Diagnostic: hold a worker for N milliseconds (backpressure and
    /// deadline testing).
    Sleep,
    /// Apply a batch of edge inserts/deletes to a dataset's dynamic
    /// graph; returns the new exact triangle count and the delta.
    Update,
    /// Admin: per-dataset streaming state (delta size, compactions,
    /// batch latency quantiles).
    StreamStats,
    /// Admin: force a durable snapshot of every stream (and report what
    /// was written). Fails when the server runs without persistence.
    Snapshot,
    /// Admin: what recovery did at startup (entries loaded, WAL records
    /// replayed, torn bytes truncated). Fails without persistence.
    RecoverStats,
    /// Register a predicate on a dataset's analytics state; the server
    /// pushes a notification frame on this connection whenever an
    /// applied batch trips it.
    Subscribe,
    /// Remove a subscription created on this connection.
    Unsubscribe,
    /// Admin: per-dataset analytics state (maintained edges, changes
    /// applied, active subscriptions) plus global analytics counters.
    AnalyticsStats,
    /// Admin: graceful shutdown (drain in-flight work, then exit).
    Shutdown,
}

impl Op {
    /// Every op, in a fixed order (indexes the per-op metrics table).
    pub const ALL: [Op; 18] = [
        Op::Count,
        Op::Simulate,
        Op::Ktruss,
        Op::Clustering,
        Op::Recommend,
        Op::Load,
        Op::Evict,
        Op::Stats,
        Op::Ping,
        Op::Sleep,
        Op::Update,
        Op::StreamStats,
        Op::Snapshot,
        Op::RecoverStats,
        Op::Subscribe,
        Op::Unsubscribe,
        Op::AnalyticsStats,
        Op::Shutdown,
    ];

    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Count => "count",
            Op::Simulate => "simulate",
            Op::Ktruss => "ktruss",
            Op::Clustering => "clustering",
            Op::Recommend => "recommend",
            Op::Load => "load",
            Op::Evict => "evict",
            Op::Stats => "stats",
            Op::Ping => "ping",
            Op::Sleep => "sleep",
            Op::Update => "update",
            Op::StreamStats => "stream-stats",
            Op::Snapshot => "snapshot",
            Op::RecoverStats => "recover-stats",
            Op::Subscribe => "subscribe",
            Op::Unsubscribe => "unsubscribe",
            Op::AnalyticsStats => "analytics-stats",
            Op::Shutdown => "shutdown",
        }
    }

    /// Index into [`Op::ALL`] (metrics tables are arrays over this).
    pub fn index(&self) -> usize {
        Op::ALL.iter().position(|o| o == self).expect("op in ALL")
    }

    fn from_name(name: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|o| o.name() == name)
    }
}

/// A preprocessed-graph variant: the registry cache key requested by
/// `count` / `simulate` / `load`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrepTarget {
    /// Which dataset stand-in.
    pub dataset: Dataset,
    /// Edge-directing scheme (default: the paper's A-direction).
    pub direction: DirectionScheme,
    /// Vertex-ordering scheme (default: the paper's A-order).
    pub ordering: OrderingScheme,
    /// Bucket size `k` for A-order (default 64, matching Hu's kernel).
    pub bucket_size: usize,
}

/// A parsed, validated request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Exact count on a preprocessed variant; a streamed dataset answers
    /// from its maintained count instead, which every variant shares.
    Count(PrepTarget),
    /// Simulate a named kernel on a preprocessed variant.
    Simulate(PrepTarget, String),
    /// k-truss summary of the raw (undirected) dataset.
    Ktruss(Dataset),
    /// Clustering coefficients of the raw dataset.
    Clustering(Dataset),
    /// Top-k link recommendations for `source`.
    Recommend {
        /// Dataset to recommend within.
        dataset: Dataset,
        /// Source vertex (original id space).
        source: u32,
        /// Number of candidates to return.
        k: usize,
    },
    /// Preload a variant into the registry.
    Load(PrepTarget),
    /// Evict one variant (`Some(target)`) or everything (`None`).
    Evict(Option<PrepTarget>),
    /// Metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Hold a worker for `ms` milliseconds (capped at 5000). An optional
    /// `dataset` routes the sleep to that dataset's shard — without one
    /// it occupies shard 0 — which is how the backpressure tests pin
    /// load to a chosen shard.
    Sleep {
        /// How long the worker sleeps.
        ms: u64,
        /// Which shard to occupy (`None` ⇒ shard 0).
        dataset: Option<Dataset>,
    },
    /// Apply a batch of edge operations to `dataset`'s dynamic graph.
    Update {
        /// Dataset whose stream to mutate.
        dataset: Dataset,
        /// The edge operations, in request order (the dynamic graph
        /// deduplicates last-wins and applies deterministically).
        ops: Vec<EdgeOp>,
    },
    /// Streaming state for one dataset, or for every streamed dataset.
    StreamStats(Option<Dataset>),
    /// Force a durable snapshot of every stream now.
    Snapshot,
    /// Report what recovery did at startup.
    RecoverStats,
    /// Register `predicate` on `dataset`'s analytics state.
    Subscribe {
        /// Dataset whose stream to watch.
        dataset: Dataset,
        /// The condition to notify on (validated against the dataset at
        /// execution time).
        predicate: Predicate,
    },
    /// Remove subscription `sub` (connection-scoped: only the owning
    /// connection can remove it).
    Unsubscribe {
        /// The subscription id returned by `subscribe`.
        sub: u64,
    },
    /// Analytics state for one dataset, or for every streamed dataset.
    AnalyticsStats(Option<Dataset>),
    /// Graceful shutdown.
    Shutdown,
}

impl Request {
    /// The op this request invokes.
    pub fn op(&self) -> Op {
        match self {
            Request::Count(_) => Op::Count,
            Request::Simulate(..) => Op::Simulate,
            Request::Ktruss(_) => Op::Ktruss,
            Request::Clustering(_) => Op::Clustering,
            Request::Recommend { .. } => Op::Recommend,
            Request::Load(_) => Op::Load,
            Request::Evict(_) => Op::Evict,
            Request::Stats => Op::Stats,
            Request::Ping => Op::Ping,
            Request::Sleep { .. } => Op::Sleep,
            Request::Update { .. } => Op::Update,
            Request::StreamStats(_) => Op::StreamStats,
            Request::Snapshot => Op::Snapshot,
            Request::RecoverStats => Op::RecoverStats,
            Request::Subscribe { .. } => Op::Subscribe,
            Request::Unsubscribe { .. } => Op::Unsubscribe,
            Request::AnalyticsStats(_) => Op::AnalyticsStats,
            Request::Shutdown => Op::Shutdown,
        }
    }

    /// The dataset this request is *about*, which is what the shard
    /// router hashes: requests returning `Some(d)` must execute on
    /// `shard_of(d)` (they touch that dataset's registry slice, stream
    /// lock, or analytics state); requests returning `None` are either
    /// dataset-free diagnostics (routed to shard 0) or admin fan-outs
    /// the engine handles across every shard.
    pub fn dataset(&self) -> Option<Dataset> {
        match self {
            Request::Count(t) | Request::Simulate(t, _) | Request::Load(t) => Some(t.dataset),
            Request::Evict(Some(t)) => Some(t.dataset),
            Request::Ktruss(d)
            | Request::Clustering(d)
            | Request::Recommend { dataset: d, .. }
            | Request::Update { dataset: d, .. }
            | Request::StreamStats(Some(d))
            | Request::Subscribe { dataset: d, .. }
            | Request::AnalyticsStats(Some(d)) => Some(*d),
            Request::Sleep { dataset, .. } => *dataset,
            Request::Evict(None)
            | Request::Stats
            | Request::Ping
            | Request::StreamStats(None)
            | Request::Snapshot
            | Request::RecoverStats
            | Request::Unsubscribe { .. }
            | Request::AnalyticsStats(None)
            | Request::Shutdown => None,
        }
    }

    /// Whether this request writes its [`dataset`](Self::dataset)'s
    /// state: an `update`, or a `subscribe`, which creates the stream
    /// and analytics its predicate watches. The shard queue runs such a
    /// request alone, after every earlier request for the dataset and
    /// before every later one; the requests between two writes are reads
    /// and may run at the same time.
    pub fn mutates(&self) -> bool {
        matches!(self, Request::Update { .. } | Request::Subscribe { .. })
    }
}

/// Stable machine-readable error codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or missing/invalid members.
    BadRequest,
    /// `dataset` did not name a known stand-in.
    UnknownDataset,
    /// `algo` did not name a known kernel.
    UnknownAlgo,
    /// The bounded request queue was full — retry later.
    Overloaded,
    /// The request waited in queue past its deadline.
    DeadlineExceeded,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The query itself failed (e.g. out-of-range vertex).
    Failed,
}

impl ErrorKind {
    /// Wire code.
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownDataset => "unknown_dataset",
            ErrorKind::UnknownAlgo => "unknown_algo",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Failed => "failed",
        }
    }
}

/// A protocol-level error: a stable code plus a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceError {
    /// Error class.
    pub kind: ErrorKind,
    /// Human-readable detail (not intended to be stable).
    pub message: String,
}

impl ServiceError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

/// Result of parsing one request line: the request plus its optional
/// client-supplied correlation id and any per-request deadline override.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The validated request.
    pub request: Request,
    /// Echoed back as `"id"` in the response, if the client sent one.
    pub id: Option<Json>,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Parses a dataset wire name (the paper's Table 4 names,
/// case-insensitive).
pub fn parse_dataset(name: &str) -> Option<Dataset> {
    Dataset::all()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
}

/// Parses a direction-scheme wire name.
pub fn parse_direction(name: &str) -> Option<DirectionScheme> {
    match name.to_ascii_lowercase().as_str() {
        "id" | "id-based" => Some(DirectionScheme::IdBased),
        "degree" | "d-direction" => Some(DirectionScheme::DegreeBased),
        "a" | "a-direction" => Some(DirectionScheme::ADirection),
        "a-phased" | "a-direction-phased" => Some(DirectionScheme::ADirectionPhased),
        _ => None,
    }
}

/// Parses an ordering-scheme wire name.
pub fn parse_ordering(name: &str) -> Option<OrderingScheme> {
    match name.to_ascii_lowercase().as_str() {
        "original" | "origin" => Some(OrderingScheme::Original),
        "degree" | "d-order" => Some(OrderingScheme::DegreeOrder),
        "a" | "a-order" => Some(OrderingScheme::AOrder),
        "dfs" => Some(OrderingScheme::Dfs),
        "bfs-r" | "bfsr" => Some(OrderingScheme::BfsR),
        "slashburn" => Some(OrderingScheme::SlashBurn),
        "gro" => Some(OrderingScheme::Gro),
        _ => None,
    }
}

fn bad(message: impl Into<String>) -> ServiceError {
    ServiceError::new(ErrorKind::BadRequest, message)
}

fn prep_target(obj: &Json) -> Result<PrepTarget, ServiceError> {
    let dataset_name = obj
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string member \"dataset\""))?;
    let dataset = parse_dataset(dataset_name).ok_or_else(|| {
        ServiceError::new(
            ErrorKind::UnknownDataset,
            format!("unknown dataset \"{dataset_name}\""),
        )
    })?;
    let direction = match obj.get("direction").and_then(Json::as_str) {
        None => DirectionScheme::ADirection,
        Some(name) => parse_direction(name)
            .ok_or_else(|| bad(format!("unknown direction scheme \"{name}\"")))?,
    };
    let ordering = match obj.get("ordering").and_then(Json::as_str) {
        None => OrderingScheme::AOrder,
        Some(name) => parse_ordering(name)
            .ok_or_else(|| bad(format!("unknown ordering scheme \"{name}\"")))?,
    };
    let bucket_size = match obj.get("bucket_size") {
        None => 64,
        Some(v) => v
            .as_u64()
            .filter(|&b| (1..=65_536).contains(&b))
            .ok_or_else(|| bad("\"bucket_size\" must be an integer in 1..=65536"))?
            as usize,
    };
    Ok(PrepTarget {
        dataset,
        direction,
        ordering,
        bucket_size,
    })
}

fn dataset_of(obj: &Json) -> Result<Dataset, ServiceError> {
    let name = obj
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string member \"dataset\""))?;
    parse_dataset(name).ok_or_else(|| {
        ServiceError::new(
            ErrorKind::UnknownDataset,
            format!("unknown dataset \"{name}\""),
        )
    })
}

/// Parses the `"edges"` member of an `update` request: an array of
/// `[u, v]` (insert) or `[u, v, "+"|"-"]` rows. Self-loops and
/// out-of-range endpoints are *not* parse errors — the dynamic graph
/// rejects them per-operation and reports them in the response, exactly
/// as `GraphBuilder` drops them at ingest.
fn edge_ops(obj: &Json) -> Result<Vec<EdgeOp>, ServiceError> {
    let Some(Json::Arr(rows)) = obj.get("edges") else {
        return Err(bad("missing array member \"edges\""));
    };
    if rows.len() > MAX_UPDATE_OPS {
        return Err(bad(format!(
            "\"edges\" carries {} operations, above the {MAX_UPDATE_OPS} per-request cap",
            rows.len()
        )));
    }
    let mut ops = Vec::with_capacity(rows.len());
    for row in rows {
        let Json::Arr(parts) = row else {
            return Err(bad(
                "each edge must be an array [u, v] or [u, v, \"+\"|\"-\"]",
            ));
        };
        if parts.len() < 2 || parts.len() > 3 {
            return Err(bad(
                "each edge must be an array [u, v] or [u, v, \"+\"|\"-\"]",
            ));
        }
        let endpoint = |p: &Json| {
            p.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| bad("edge endpoints must be u32 integers"))
        };
        let u = endpoint(&parts[0])?;
        let v = endpoint(&parts[1])?;
        let insert = match parts.get(2) {
            None => true,
            Some(Json::Str(a)) if a == "+" || a.eq_ignore_ascii_case("insert") => true,
            Some(Json::Str(a)) if a == "-" || a.eq_ignore_ascii_case("delete") => false,
            Some(_) => {
                return Err(bad(
                    "edge action must be \"+\"/\"insert\" or \"-\"/\"delete\"",
                ))
            }
        };
        ops.push(if insert {
            EdgeOp::Insert(u, v)
        } else {
            EdgeOp::Delete(u, v)
        });
    }
    Ok(ops)
}

/// Parses the `"predicate"` member of a `subscribe` request. Shapes:
///
/// ```text
/// {"kind":"support-below","u":3,"v":7,"k":2}
/// {"kind":"clustering-delta","vertex":3,"epsilon":0.1}
/// {"kind":"count-cross","threshold":1000}
/// ```
///
/// Edge endpoints are normalised to `u < v`; self-loops are rejected
/// (they can never carry support). Vertex-range checks happen at
/// execution time against the live dataset.
fn parse_predicate(obj: &Json) -> Result<Predicate, ServiceError> {
    let Some(pred) = obj.get("predicate") else {
        return Err(bad("missing object member \"predicate\""));
    };
    if !matches!(pred, Json::Obj(_)) {
        return Err(bad("\"predicate\" must be a JSON object"));
    }
    let kind = pred
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("predicate missing string member \"kind\""))?;
    let vertex = |name: &str| {
        pred.get(name)
            .and_then(Json::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| bad(format!("predicate missing u32 member \"{name}\"")))
    };
    match kind {
        "support-below" => {
            let (a, b) = (vertex("u")?, vertex("v")?);
            if a == b {
                return Err(bad("predicate edge must not be a self-loop"));
            }
            let k = pred
                .get("k")
                .and_then(Json::as_u64)
                .and_then(|x| u32::try_from(x).ok())
                .filter(|&k| k > 0)
                .ok_or_else(|| bad("predicate missing positive u32 member \"k\""))?;
            Ok(Predicate::SupportBelow {
                u: a.min(b),
                v: a.max(b),
                k,
            })
        }
        "clustering-delta" => {
            let epsilon = pred
                .get("epsilon")
                .and_then(Json::as_f64)
                .filter(|e| e.is_finite() && *e >= 0.0)
                .ok_or_else(|| bad("predicate missing finite non-negative member \"epsilon\""))?;
            Ok(Predicate::ClusteringDelta {
                vertex: vertex("vertex")?,
                epsilon,
            })
        }
        "count-cross" => {
            let threshold = pred
                .get("threshold")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("predicate missing integer member \"threshold\""))?;
            Ok(Predicate::CountCross { threshold })
        }
        other => Err(bad(format!(
            "unknown predicate kind \"{other}\" (expected \"support-below\", \
             \"clustering-delta\" or \"count-cross\")"
        ))),
    }
}

/// Parses one request line into an [`Envelope`].
pub fn parse_request(line: &str) -> Result<Envelope, ServiceError> {
    let value = json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let id = value.get("id").cloned();
    if let Some(id) = &id {
        if matches!(id, Json::Arr(_) | Json::Obj(_)) {
            return Err(bad("\"id\" must be a scalar"));
        }
    }
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&d| d > 0)
                .ok_or_else(|| bad("\"deadline_ms\" must be a positive integer"))?,
        ),
    };
    let op_name = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string member \"op\""))?;
    let op = Op::from_name(op_name).ok_or_else(|| bad(format!("unknown op \"{op_name}\"")))?;

    let request = match op {
        Op::Count => Request::Count(prep_target(&value)?),
        Op::Load => Request::Load(prep_target(&value)?),
        Op::Simulate => {
            let algo = value
                .get("algo")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing string member \"algo\""))?;
            Request::Simulate(prep_target(&value)?, algo.to_ascii_lowercase())
        }
        Op::Ktruss => Request::Ktruss(dataset_of(&value)?),
        Op::Clustering => Request::Clustering(dataset_of(&value)?),
        Op::Recommend => {
            let dataset = dataset_of(&value)?;
            let source = value
                .get("source")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing integer member \"source\""))?;
            let source =
                u32::try_from(source).map_err(|_| bad("\"source\" exceeds the vertex id range"))?;
            let k = value
                .get("k")
                .map_or(Some(10), Json::as_u64)
                .filter(|&k| (1..=1000).contains(&k))
                .ok_or_else(|| bad("\"k\" must be an integer in 1..=1000"))?
                as usize;
            Request::Recommend { dataset, source, k }
        }
        Op::Evict => {
            if value.get("dataset").is_some() {
                Request::Evict(Some(prep_target(&value)?))
            } else {
                Request::Evict(None)
            }
        }
        Op::Stats => Request::Stats,
        Op::Ping => Request::Ping,
        Op::Sleep => {
            let ms = value
                .get("ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing integer member \"ms\""))?;
            let dataset = if value.get("dataset").is_some() {
                Some(dataset_of(&value)?)
            } else {
                None
            };
            Request::Sleep {
                ms: ms.min(5_000),
                dataset,
            }
        }
        Op::Update => Request::Update {
            dataset: dataset_of(&value)?,
            ops: edge_ops(&value)?,
        },
        Op::StreamStats => {
            if value.get("dataset").is_some() {
                Request::StreamStats(Some(dataset_of(&value)?))
            } else {
                Request::StreamStats(None)
            }
        }
        Op::Snapshot => Request::Snapshot,
        Op::RecoverStats => Request::RecoverStats,
        Op::Subscribe => Request::Subscribe {
            dataset: dataset_of(&value)?,
            predicate: parse_predicate(&value)?,
        },
        Op::Unsubscribe => {
            let sub = value
                .get("sub")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing integer member \"sub\""))?;
            Request::Unsubscribe { sub }
        }
        Op::AnalyticsStats => {
            if value.get("dataset").is_some() {
                Request::AnalyticsStats(Some(dataset_of(&value)?))
            } else {
                Request::AnalyticsStats(None)
            }
        }
        Op::Shutdown => Request::Shutdown,
    };
    Ok(Envelope {
        request,
        id,
        deadline_ms,
    })
}

/// Assembles a push-notification frame (no trailing newline).
///
/// Push frames are *not* responses: they arrive on the subscriber's
/// connection interleaved between response lines, whenever an applied
/// batch (from any connection) trips the subscription. To keep them
/// cheaply distinguishable, `"push"` is always the **first** member —
/// clients may classify a line with a prefix check on `{"push":`
/// before parsing.
pub fn notification_frame(sub: u64, dataset: Dataset, n: &Notification) -> String {
    let mut members: Vec<(String, Json)> = vec![
        ("push".into(), json::s("notification")),
        ("sub".into(), json::u(sub)),
        ("dataset".into(), json::s(dataset.name())),
    ];
    match *n {
        Notification::SupportBelow {
            u,
            v,
            k,
            support,
            exists,
        } => {
            members.push(("kind".into(), json::s("support-below")));
            members.push(("u".into(), json::u(u64::from(u))));
            members.push(("v".into(), json::u(u64::from(v))));
            members.push(("k".into(), json::u(u64::from(k))));
            members.push(("support".into(), json::u(u64::from(support))));
            members.push(("exists".into(), Json::Bool(exists)));
        }
        Notification::ClusteringDelta {
            vertex,
            epsilon,
            before,
            after,
        } => {
            members.push(("kind".into(), json::s("clustering-delta")));
            members.push(("vertex".into(), json::u(u64::from(vertex))));
            members.push(("epsilon".into(), Json::Float(epsilon)));
            members.push(("before".into(), Json::Float(before)));
            members.push(("after".into(), Json::Float(after)));
        }
        Notification::CountCross {
            threshold,
            before,
            after,
        } => {
            members.push(("kind".into(), json::s("count-cross")));
            members.push(("threshold".into(), json::u(threshold)));
            members.push(("before".into(), json::u(before)));
            members.push(("after".into(), json::u(after)));
        }
    }
    Json::Obj(members).to_string_compact()
}

/// Assembles a success response line (no trailing newline).
pub fn ok_response(id: Option<&Json>, op: Op, payload: Vec<(String, Json)>) -> String {
    let mut members: Vec<(String, Json)> = Vec::with_capacity(payload.len() + 3);
    if let Some(id) = id {
        members.push(("id".into(), id.clone()));
    }
    members.push(("ok".into(), Json::Bool(true)));
    members.push(("op".into(), Json::Str(op.name().into())));
    members.extend(payload);
    Json::Obj(members).to_string_compact()
}

/// Assembles an error response line (no trailing newline).
pub fn error_response(id: Option<&Json>, op: Option<Op>, err: &ServiceError) -> String {
    let mut members: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        members.push(("id".into(), id.clone()));
    }
    members.push(("ok".into(), Json::Bool(false)));
    if let Some(op) = op {
        members.push(("op".into(), Json::Str(op.name().into())));
    }
    members.push(("error".into(), Json::Str(err.kind.code().into())));
    members.push(("message".into(), Json::Str(err.message.clone())));
    Json::Obj(members).to_string_compact()
}

/// Sends one wire line and its newline in a single write, so a
/// `TCP_NODELAY` socket carries them in one send and the reader reaches
/// the newline in one read.
pub(crate) fn write_line(w: &mut impl std::io::Write, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records each `write` call it receives.
    #[derive(Default)]
    struct CountingWrite {
        writes: Vec<Vec<u8>>,
    }

    impl std::io::Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_and_its_newline_go_out_in_one_write() {
        let mut sink = CountingWrite::default();
        write_line(&mut sink, r#"{"op":"ping"}"#).unwrap();
        write_line(&mut sink, "").unwrap();
        assert_eq!(
            sink.writes,
            vec![b"{\"op\":\"ping\"}\n".to_vec(), b"\n".to_vec()]
        );
    }

    #[test]
    fn count_request_defaults_to_paper_schemes() {
        let env = parse_request(r#"{"op":"count","dataset":"gowalla"}"#).unwrap();
        let Request::Count(t) = env.request else {
            panic!("wrong variant");
        };
        assert_eq!(t.dataset, Dataset::Gowalla);
        assert_eq!(t.direction, DirectionScheme::ADirection);
        assert_eq!(t.ordering, OrderingScheme::AOrder);
        assert_eq!(t.bucket_size, 64);
    }

    #[test]
    fn explicit_schemes_and_id_roundtrip() {
        let env = parse_request(
            r#"{"op":"simulate","dataset":"email-Eucore","algo":"Hu","direction":"degree","ordering":"dfs","id":42}"#,
        )
        .unwrap();
        assert_eq!(env.id, Some(Json::Int(42)));
        let Request::Simulate(t, algo) = env.request else {
            panic!("wrong variant");
        };
        assert_eq!(algo, "hu");
        assert_eq!(t.direction, DirectionScheme::DegreeBased);
        assert_eq!(t.ordering, OrderingScheme::Dfs);
    }

    #[test]
    fn unknown_dataset_is_a_distinct_error() {
        let err = parse_request(r#"{"op":"count","dataset":"nope"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownDataset);
    }

    #[test]
    fn malformed_lines_are_bad_requests() {
        for line in [
            "",
            "not json",
            "[1,2]",
            r#"{"dataset":"gowalla"}"#,
            r#"{"op":"count"}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"recommend","dataset":"gowalla"}"#,
            r#"{"op":"count","dataset":"gowalla","id":[1]}"#,
            r#"{"op":"count","dataset":"gowalla","deadline_ms":0}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line:?}");
        }
    }

    #[test]
    fn sleep_is_capped() {
        let env = parse_request(r#"{"op":"sleep","ms":999999}"#).unwrap();
        assert_eq!(
            env.request,
            Request::Sleep {
                ms: 5_000,
                dataset: None,
            }
        );
        let env = parse_request(r#"{"op":"sleep","ms":10,"dataset":"gowalla"}"#).unwrap();
        assert_eq!(
            env.request,
            Request::Sleep {
                ms: 10,
                dataset: Some(Dataset::Gowalla),
            }
        );
        let err = parse_request(r#"{"op":"sleep","ms":10,"dataset":"nope"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownDataset);
    }

    #[test]
    fn routing_dataset_extraction() {
        let some = [
            r#"{"op":"count","dataset":"gowalla"}"#,
            r#"{"op":"simulate","dataset":"gowalla","algo":"hu"}"#,
            r#"{"op":"ktruss","dataset":"gowalla"}"#,
            r#"{"op":"clustering","dataset":"gowalla"}"#,
            r#"{"op":"recommend","dataset":"gowalla","source":1}"#,
            r#"{"op":"load","dataset":"gowalla"}"#,
            r#"{"op":"evict","dataset":"gowalla"}"#,
            r#"{"op":"update","dataset":"gowalla","edges":[[1,2]]}"#,
            r#"{"op":"stream-stats","dataset":"gowalla"}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"count-cross","threshold":1}}"#,
            r#"{"op":"analytics-stats","dataset":"gowalla"}"#,
            r#"{"op":"sleep","ms":1,"dataset":"gowalla"}"#,
        ];
        for line in some {
            let env = parse_request(line).unwrap();
            assert_eq!(env.request.dataset(), Some(Dataset::Gowalla), "{line}");
        }
        let none = [
            r#"{"op":"evict"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"sleep","ms":1}"#,
            r#"{"op":"stream-stats"}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"recover-stats"}"#,
            r#"{"op":"unsubscribe","sub":1}"#,
            r#"{"op":"analytics-stats"}"#,
            r#"{"op":"shutdown"}"#,
        ];
        for line in none {
            let env = parse_request(line).unwrap();
            assert_eq!(env.request.dataset(), None, "{line}");
        }
    }

    #[test]
    fn response_shapes() {
        let ok = ok_response(
            Some(&Json::Int(7)),
            Op::Ping,
            vec![("pong".into(), Json::Bool(true))],
        );
        assert_eq!(ok, r#"{"id":7,"ok":true,"op":"ping","pong":true}"#);
        let err = error_response(
            None,
            Some(Op::Count),
            &ServiceError::new(ErrorKind::Overloaded, "queue full"),
        );
        assert_eq!(
            err,
            r#"{"ok":false,"op":"count","error":"overloaded","message":"queue full"}"#
        );
    }

    #[test]
    fn update_parses_edge_ops() {
        let env = parse_request(
            r#"{"op":"update","dataset":"email-Eucore","edges":[[1,2],[3,4,"+"],[5,6,"-"],[7,8,"delete"]]}"#,
        )
        .unwrap();
        let Request::Update { dataset, ops } = env.request else {
            panic!("wrong variant");
        };
        assert_eq!(dataset, Dataset::EmailEucore);
        assert_eq!(
            ops,
            vec![
                EdgeOp::Insert(1, 2),
                EdgeOp::Insert(3, 4),
                EdgeOp::Delete(5, 6),
                EdgeOp::Delete(7, 8),
            ]
        );
    }

    #[test]
    fn update_rejects_malformed_edges() {
        for line in [
            r#"{"op":"update","dataset":"email-Eucore"}"#,
            r#"{"op":"update","dataset":"email-Eucore","edges":7}"#,
            r#"{"op":"update","dataset":"email-Eucore","edges":[[1]]}"#,
            r#"{"op":"update","dataset":"email-Eucore","edges":[[1,2,3,4]]}"#,
            r#"{"op":"update","dataset":"email-Eucore","edges":[[1,"x"]]}"#,
            r#"{"op":"update","dataset":"email-Eucore","edges":[[1,2,"*"]]}"#,
            r#"{"op":"update","dataset":"email-Eucore","edges":[[1,2,0]]}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line:?}");
        }
    }

    #[test]
    fn stream_stats_dataset_is_optional() {
        let env = parse_request(r#"{"op":"stream-stats"}"#).unwrap();
        assert_eq!(env.request, Request::StreamStats(None));
        let env = parse_request(r#"{"op":"stream-stats","dataset":"gowalla"}"#).unwrap();
        assert_eq!(env.request, Request::StreamStats(Some(Dataset::Gowalla)));
    }

    #[test]
    fn subscribe_parses_and_normalises_predicates() {
        let env = parse_request(
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"support-below","u":9,"v":3,"k":2}}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Subscribe {
                dataset: Dataset::Gowalla,
                predicate: Predicate::SupportBelow { u: 3, v: 9, k: 2 },
            }
        );
        let env = parse_request(
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"clustering-delta","vertex":5,"epsilon":0.25}}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Subscribe {
                dataset: Dataset::Gowalla,
                predicate: Predicate::ClusteringDelta {
                    vertex: 5,
                    epsilon: 0.25,
                },
            }
        );
        let env = parse_request(
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"count-cross","threshold":100}}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Subscribe {
                dataset: Dataset::Gowalla,
                predicate: Predicate::CountCross { threshold: 100 },
            }
        );
    }

    #[test]
    fn subscribe_rejects_malformed_predicates() {
        for line in [
            r#"{"op":"subscribe","dataset":"gowalla"}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":7}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{}}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"nope"}}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"support-below","u":1,"v":1,"k":2}}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"support-below","u":1,"v":2,"k":0}}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"clustering-delta","vertex":1,"epsilon":-0.5}}"#,
            r#"{"op":"subscribe","dataset":"gowalla","predicate":{"kind":"count-cross"}}"#,
            r#"{"op":"unsubscribe"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{line:?}");
        }
    }

    #[test]
    fn notification_frames_lead_with_push() {
        let frame = notification_frame(
            7,
            Dataset::Gowalla,
            &Notification::SupportBelow {
                u: 1,
                v: 2,
                k: 3,
                support: 1,
                exists: true,
            },
        );
        assert!(
            frame.starts_with(r#"{"push":"notification","sub":7,"#),
            "{frame}"
        );
        assert!(frame.contains(r#""kind":"support-below""#));
        let frame = notification_frame(
            8,
            Dataset::Gowalla,
            &Notification::CountCross {
                threshold: 10,
                before: 9,
                after: 12,
            },
        );
        assert!(frame.starts_with(r#"{"push":"#), "{frame}");
        assert!(frame.contains(r#""before":9"#) && frame.contains(r#""after":12"#));
    }

    #[test]
    fn every_op_roundtrips_through_its_name() {
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
            assert_eq!(Op::ALL[op.index()], op);
        }
    }
}
