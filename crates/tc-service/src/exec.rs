//! Query execution: the per-shard [`Executor`] turns a validated
//! [`Request`] into a response payload against that shard's registry /
//! scratch / subscription state, and the [`Engine`] above it routes
//! requests to their owning shard and fans admin ops out across all of
//! them.
//!
//! Every payload a *query* op returns is a deterministic function of the
//! request (exact counts, simulated cycles, scores) — no wall-clock
//! fields — so concurrent executions are byte-identical to serial ones
//! at any shard count. The admin `stats` op is the designated
//! non-deterministic surface.

use crate::json::{obj, s, u, Json};
use crate::metrics::{quantile_upper_us_from, RouterMetrics, ServiceMetrics, BUCKETS};
use crate::protocol::{notification_frame, ErrorKind, Op, PrepTarget, Request, ServiceError};
use crate::registry::{shard_of, GraphRegistry};
use crate::server::ConnContext;
use crate::subs::SubscriptionRegistry;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tc_algos::engine::ScratchPool;
use tc_algos::{
    bisson::Bisson, fox::Fox, gunrock::Gunrock, hu::HuFineGrained, polak::Polak, tricore::TriCore,
    GpuTriangleCounter, RunResult,
};
use tc_analytics::{Observed, Predicate};
use tc_gpusim::GpuConfig;

/// Response payload: ordered members appended after `id`/`ok`/`op`.
pub type Payload = Vec<(String, Json)>;

/// Static configuration echoed on the `stats` surface.
#[derive(Clone, Copy, Debug)]
pub struct ServerInfo {
    /// Shards the engine is partitioned into.
    pub shards: usize,
    /// Worker threads executing queries, per shard.
    pub workers: usize,
    /// Bounded request-queue capacity, per shard.
    pub queue_capacity: usize,
    /// Default per-query deadline in milliseconds.
    pub default_deadline_ms: u64,
}

/// One shard's execution state: everything a query for a dataset owned
/// by this shard touches. No field is shared with another shard (the
/// persistence [`Store`](tc_persist::Store) behind the registry is the
/// one deliberate exception — see `server.rs` — and it is off the query
/// hot path), so two requests for datasets on different shards contend
/// on nothing.
pub struct Executor {
    /// Which shard this is (index into the engine's shard vector).
    pub shard: usize,
    /// The simulated GPU all `simulate` queries run on.
    pub gpu: GpuConfig,
    /// This shard's slice of the preprocessed-graph registry.
    pub registry: Arc<GraphRegistry>,
    /// This shard's metrics (aggregated by the engine's `stats`).
    pub metrics: Arc<ServiceMetrics>,
    /// This shard's pool of warm intersection scratches: each
    /// triangle-heavy query (ktruss, clustering, recommend) checks one
    /// out for its duration, so repeated warm queries do zero
    /// intersection-path heap allocation — and since the pool is
    /// per-shard, checkout never contends with another shard's workers.
    pub scratch: Arc<ScratchPool>,
    /// Subscriptions on datasets this shard owns (ids are engine-unique
    /// via the shared counter).
    pub subs: Arc<SubscriptionRegistry>,
}

/// The kernel names `simulate` accepts.
pub const ALGO_NAMES: [&str; 6] = ["polak", "gunrock", "tricore", "bisson", "fox", "hu"];

fn run_named_kernel(
    algo: &str,
    prep: &tc_core::PreprocessResult,
    gpu: &GpuConfig,
) -> Option<RunResult> {
    let directed = prep.directed();
    match algo {
        "polak" => Some(Polak::default().count(directed, gpu)),
        "gunrock" => Some(Gunrock::default().count(directed, gpu)),
        "tricore" => Some(TriCore::default().count(directed, gpu)),
        "bisson" => Some(Bisson::default().count(directed, gpu)),
        "fox" => Some(Fox::default().count(directed, gpu)),
        "hu" => Some(HuFineGrained::default().count(directed, gpu)),
        _ => None,
    }
}

fn target_members(t: &PrepTarget) -> Payload {
    vec![
        ("dataset".into(), s(t.dataset.name())),
        ("direction".into(), s(t.direction.name())),
        ("ordering".into(), s(t.ordering.name())),
    ]
}

fn stream_members(info: &crate::registry::StreamInfo) -> Payload {
    vec![
        ("dataset".into(), s(info.dataset.name())),
        ("nodes".into(), u(info.nodes as u64)),
        ("edges".into(), u(info.edges as u64)),
        ("triangles".into(), u(info.triangles)),
        ("delta_edges".into(), u(info.delta_edges as u64)),
        ("compaction_budget".into(), u(info.compaction_budget as u64)),
        ("batches".into(), u(info.counters.batches)),
        ("inserts".into(), u(info.counters.inserts)),
        ("deletes".into(), u(info.counters.deletes)),
        ("noops".into(), u(info.counters.noops)),
        ("rejected".into(), u(info.counters.rejected)),
        ("superseded".into(), u(info.counters.superseded)),
        ("compactions".into(), u(info.counters.compactions)),
        ("batch_p50_us".into(), u(info.batch_p50_us)),
        ("batch_p99_us".into(), u(info.batch_p99_us)),
        ("approx_bytes".into(), u(info.approx_bytes as u64)),
    ]
}

fn analytics_members(info: &crate::registry::AnalyticsInfo, subscriptions: usize) -> Payload {
    vec![
        ("dataset".into(), s(info.dataset.name())),
        ("tracked_edges".into(), u(info.tracked_edges as u64)),
        ("triangles".into(), u(info.triangles)),
        ("changes_applied".into(), u(info.changes_applied)),
        ("batches_applied".into(), u(info.batches_applied)),
        ("approx_bytes".into(), u(info.approx_bytes as u64)),
        ("subscriptions".into(), u(subscriptions as u64)),
    ]
}

/// The `"current"` member a `subscribe` response seeds the client with.
fn observed_json(o: Observed) -> Json {
    match o {
        Observed::Support(None) => Json::Null,
        Observed::Support(Some(sup)) => u(u64::from(sup)),
        Observed::Clustering(c) => Json::Float(c),
        Observed::Count(n) => u(n),
    }
}

impl Executor {
    /// Executes one request against *this shard's* state, returning the
    /// success payload or a structured error. This is the single-shard
    /// view: admin ops that must see every shard (`stats`,
    /// `recover-stats`, and the all-datasets fan-outs) live on
    /// [`Engine`], which also routes dataset ops to their owning shard.
    /// Connection-scoped ops (`subscribe`, `unsubscribe`) fail through
    /// this entry point — use `execute_conn` with
    /// a connection context.
    pub fn execute(&self, request: &Request) -> Result<Payload, ServiceError> {
        self.execute_conn(request, None)
    }

    /// [`execute`](Self::execute) with the submitting connection
    /// attached, which `subscribe` needs to bind the push channel.
    pub(crate) fn execute_conn(
        &self,
        request: &Request,
        ctx: Option<&ConnContext>,
    ) -> Result<Payload, ServiceError> {
        match request {
            Request::Ping => Ok(vec![("pong".into(), Json::Bool(true))]),
            Request::Sleep { ms, .. } => {
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                Ok(vec![("slept_ms".into(), u(*ms))])
            }
            Request::Count(target) => {
                // The triangle count is memoised on the cache entry: the
                // first `count` per cached prep computes, repeats look up
                // (and, with persistence on, the memo goes durable too).
                let (entry, triangles) = self.registry.count(*target);
                let directed = entry.prep().directed();
                let mut payload = target_members(target);
                payload.push(("nodes".into(), u(directed.num_vertices() as u64)));
                payload.push(("edges".into(), u(directed.num_edges() as u64)));
                payload.push(("triangles".into(), u(triangles)));
                Ok(payload)
            }
            Request::Simulate(target, algo) => {
                let prep = self.registry.preprocessed(*target);
                let run = run_named_kernel(algo, &prep, &self.gpu).ok_or_else(|| {
                    ServiceError::new(
                        ErrorKind::UnknownAlgo,
                        format!(
                            "unknown algo \"{algo}\" (expected one of {})",
                            ALGO_NAMES.join(", ")
                        ),
                    )
                })?;
                let mut payload = target_members(target);
                payload.push(("algo".into(), s(algo.clone())));
                payload.push(("triangles".into(), u(run.triangles)));
                payload.push(("kernel_cycles".into(), u(run.metrics.kernel_cycles)));
                payload.push(("kernel_ms".into(), Json::Float(run.kernel_ms(&self.gpu))));
                payload.push(("blocks".into(), u(run.metrics.blocks as u64)));
                payload.push(("warps".into(), u(run.metrics.warps as u64)));
                payload.push(("global_segments".into(), u(run.metrics.global_segments)));
                payload.push((
                    "shared_transactions".into(),
                    u(run.metrics.shared_transactions),
                ));
                payload.push((
                    "barrier_wait_cycles".into(),
                    u(run.metrics.barrier_wait_cycles),
                ));
                Ok(payload)
            }
            Request::Ktruss(dataset) => {
                // Streamed datasets read from the maintained analytics
                // state: the support pass is already incremental,
                // leaving only the deterministic peel. The
                // differential suite pins this bit-identical to the full
                // decomposition below.
                let trussness = if self.registry.has_stream(*dataset) {
                    self.registry.ensure_analytics(*dataset);
                    let (g, supports) = self
                        .registry
                        .analytics_supports(*dataset)
                        .expect("analytics ensured above");
                    tc_apps::ktruss_from_supports(&g, supports)
                } else {
                    let g = self.registry.graph(*dataset);
                    let mut scratch = self.scratch.checkout_for(g.num_vertices());
                    tc_apps::ktruss_decomposition_with(&g, &mut scratch)
                };
                // Deterministic summary: edges per truss level, ascending.
                let mut levels: BTreeMap<u32, u64> = BTreeMap::new();
                for &k in trussness.values() {
                    *levels.entry(k).or_insert(0) += 1;
                }
                let max_truss = levels.keys().next_back().copied().unwrap_or(0);
                let level_rows: Vec<Json> = levels
                    .into_iter()
                    .map(|(k, edges)| obj(vec![("k", u(k as u64)), ("edges", u(edges))]))
                    .collect();
                Ok(vec![
                    ("dataset".into(), s(dataset.name())),
                    ("max_truss".into(), u(max_truss as u64)),
                    ("levels".into(), Json::Arr(level_rows)),
                ])
            }
            Request::Clustering(dataset) => {
                // Both coefficients fold one set of per-vertex counts.
                // Streamed datasets read the maintained counts — no
                // intersections at all, pinned bit-identical to the
                // full recompute by the differential suite; static ones
                // count once.
                let (g, counts) = if self.registry.has_stream(*dataset) {
                    self.registry.ensure_analytics(*dataset);
                    self.registry
                        .analytics_local_counts(*dataset)
                        .expect("analytics ensured above")
                } else {
                    let g = self.registry.graph(*dataset);
                    let mut scratch = self.scratch.checkout_for(g.num_vertices());
                    let counts = tc_apps::triangles_per_vertex_with(&g, &mut scratch);
                    (g, counts)
                };
                let local = tc_apps::coefficients_from_counts(&g, &counts);
                let global = tc_apps::global_from_counts(&g, &counts);
                let mean_local = if local.is_empty() {
                    0.0
                } else {
                    local.iter().sum::<f64>() / local.len() as f64
                };
                Ok(vec![
                    ("dataset".into(), s(dataset.name())),
                    ("nodes".into(), u(g.num_vertices() as u64)),
                    ("global_coefficient".into(), Json::Float(global)),
                    ("mean_local_coefficient".into(), Json::Float(mean_local)),
                ])
            }
            Request::Recommend { dataset, source, k } => {
                let g = self.registry.graph(*dataset);
                if (*source as usize) >= g.num_vertices() {
                    return Err(ServiceError::new(
                        ErrorKind::Failed,
                        format!(
                            "vertex {source} out of range (dataset has {} vertices)",
                            g.num_vertices()
                        ),
                    ));
                }
                let mut scratch = self.scratch.checkout_for(g.num_vertices());
                let scores = tc_apps::recommend_for_with(&g, *source, *k, &mut scratch);
                let rows: Vec<Json> = scores
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
                Ok(vec![
                    ("dataset".into(), s(dataset.name())),
                    ("source".into(), u(*source as u64)),
                    ("candidates".into(), Json::Arr(rows)),
                ])
            }
            Request::Load(target) => {
                let prep = self.registry.preprocessed(*target);
                let mut payload = target_members(target);
                payload.push(("bytes".into(), u(prep.approx_bytes() as u64)));
                payload.push(("cached".into(), Json::Bool(self.registry.contains(target))));
                Ok(payload)
            }
            Request::Evict(Some(target)) => {
                let evicted = self.registry.evict(target);
                let mut payload = target_members(target);
                payload.push(("evicted".into(), u(evicted as u64)));
                Ok(payload)
            }
            Request::Evict(None) => {
                let evicted = self.registry.clear();
                Ok(vec![("evicted".into(), u(evicted as u64))])
            }
            Request::Update { dataset, ops } => {
                // Evaluate the dataset's watchers around the apply (under
                // the stream lock — exact, race-free), then push one
                // frame per tripped subscription onto its connection.
                let watchers = self.subs.watchers(*dataset);
                let (r, fired) = self
                    .registry
                    .apply_update_watched(*dataset, ops, &watchers)
                    .map_err(|e| ServiceError::new(ErrorKind::Failed, e))?;
                let mut notified = 0u64;
                for (sub, n) in &fired {
                    if self.subs.push(*sub, notification_frame(*sub, *dataset, n)) {
                        notified += 1;
                    }
                }
                Ok(vec![
                    ("dataset".into(), s(dataset.name())),
                    ("inserted".into(), u(r.inserted as u64)),
                    ("deleted".into(), u(r.deleted as u64)),
                    ("noops".into(), u(r.noops as u64)),
                    ("rejected".into(), u(r.rejected as u64)),
                    ("superseded".into(), u(r.superseded as u64)),
                    ("triangles_delta".into(), Json::Int(r.triangles_delta)),
                    ("triangles".into(), u(r.triangles)),
                    ("delta_edges".into(), u(r.delta_edges as u64)),
                    ("compacted".into(), Json::Bool(r.compacted)),
                    ("notified".into(), u(notified)),
                ])
            }
            Request::StreamStats(Some(dataset)) => {
                let info = self.registry.stream_info(*dataset).ok_or_else(|| {
                    ServiceError::new(
                        ErrorKind::Failed,
                        format!(
                            "dataset \"{}\" has no streaming state; send an update first",
                            dataset.name()
                        ),
                    )
                })?;
                Ok(stream_members(&info))
            }
            Request::StreamStats(None) => {
                let rows: Vec<Json> = self
                    .registry
                    .stream_infos()
                    .iter()
                    .map(|info| Json::Obj(stream_members(info)))
                    .collect();
                Ok(vec![("streams".into(), Json::Arr(rows))])
            }
            Request::Snapshot => {
                let streams = self
                    .registry
                    .snapshot_now()
                    .map_err(|e| ServiceError::new(ErrorKind::Failed, e))?;
                let mut payload = vec![("streams_snapshotted".into(), u(streams as u64))];
                if let Some(stats) = self.registry.store().and_then(|st| st.stats().ok()) {
                    payload.push(("snapshot_files".into(), u(stats.snapshots.files as u64)));
                    payload.push(("snapshot_bytes".into(), u(stats.snapshots.bytes)));
                    payload.push(("wal_segments".into(), u(stats.wal.segments as u64)));
                }
                Ok(payload)
            }
            Request::RecoverStats => Err(ServiceError::new(
                ErrorKind::Failed,
                "recover-stats is an engine-level op (recovery spans every shard)",
            )),
            Request::Subscribe { dataset, predicate } => {
                let Some(ctx) = ctx else {
                    return Err(ServiceError::new(
                        ErrorKind::Failed,
                        "subscribe requires a client connection to push to",
                    ));
                };
                // Validate watched vertices against the dataset now, so
                // a typo'd subscription fails loudly instead of sitting
                // silent forever.
                let g = self.registry.graph(*dataset);
                let n = g.num_vertices() as u32;
                let watched_max = match predicate {
                    Predicate::SupportBelow { u, v, .. } => Some((*u).max(*v)),
                    Predicate::ClusteringDelta { vertex, .. } => Some(*vertex),
                    Predicate::CountCross { .. } => None,
                };
                if let Some(vertex) = watched_max.filter(|&vertex| vertex >= n) {
                    return Err(ServiceError::new(
                        ErrorKind::Failed,
                        format!("vertex {vertex} out of range (dataset has {n} vertices)"),
                    ));
                }
                // Subscriptions ride the delta layer: materialise the
                // stream (if this dataset was never mutated) and its
                // analytics state so the first watched batch has a
                // before-value to evaluate against.
                self.registry.ensure_stream(*dataset);
                self.registry.ensure_analytics(*dataset);
                let current = self
                    .registry
                    .observe_predicate(*dataset, predicate)
                    .expect("analytics ensured above");
                let sub = self.subs.subscribe(ctx, *dataset, *predicate);
                Ok(vec![
                    ("dataset".into(), s(dataset.name())),
                    ("sub".into(), u(sub)),
                    ("current".into(), observed_json(current)),
                ])
            }
            Request::Unsubscribe { sub } => {
                let removed = self.subs.unsubscribe(*sub, ctx.map(|c| c.conn_id));
                Ok(vec![
                    ("sub".into(), u(*sub)),
                    ("removed".into(), Json::Bool(removed)),
                ])
            }
            Request::AnalyticsStats(Some(dataset)) => {
                let info = self.registry.analytics_info(*dataset).ok_or_else(|| {
                    ServiceError::new(
                        ErrorKind::Failed,
                        format!(
                            "dataset \"{}\" has no analytics state; subscribe or query it first",
                            dataset.name()
                        ),
                    )
                })?;
                Ok(analytics_members(&info, self.subs.active_for(*dataset)))
            }
            Request::AnalyticsStats(None) => {
                let rows: Vec<Json> = self
                    .registry
                    .analytics_infos()
                    .iter()
                    .map(|info| {
                        Json::Obj(analytics_members(info, self.subs.active_for(info.dataset)))
                    })
                    .collect();
                Ok(vec![
                    ("datasets".into(), Json::Arr(rows)),
                    ("subscriptions".into(), u(self.subs.active() as u64)),
                    (
                        "notifications_sent".into(),
                        u(self.subs.notifications_sent()),
                    ),
                ])
            }
            Request::Stats => Err(ServiceError::new(
                ErrorKind::Failed,
                "stats is an engine-level op (it aggregates every shard)",
            )),
            // Shutdown is acknowledged by the connection layer (the
            // worker pool only sees it if routed in error).
            Request::Shutdown => Ok(vec![("draining".into(), Json::Bool(true))]),
        }
    }
}

/// The shard-per-core engine: a vector of shard [`Executor`]s plus the
/// thin routing / aggregation layer over them.
///
/// Dataset ops go to `shard_of(dataset)`'s executor; dataset-free
/// diagnostics (`ping`, bare `sleep`) run on shard 0; admin ops that
/// must see everything (`stats`, `recover-stats`, `snapshot`, bare
/// `evict` / `stream-stats` / `analytics-stats`, `unsubscribe`) fan out
/// across every shard and merge deterministically. The engine itself
/// holds **no lock** — routing is a pure hash, and fan-outs acquire each
/// shard's locks one at a time, off the per-dataset hot path.
pub struct Engine {
    /// The shards, indexed by [`shard_of`].
    pub shards: Vec<Arc<Executor>>,
    /// Static server configuration echoed on `stats`.
    pub info: ServerInfo,
    /// Server start time (for the `stats` uptime field).
    pub started: Instant,
    /// What startup recovery did, when persistence is enabled — the
    /// `recover-stats` admin op reports it verbatim. Recovery spans
    /// every shard (the store is opened once), so the report lives here.
    pub recovery: Option<tc_persist::RecoveryReport>,
    /// Connection-level counters (accepted connections, parse failures).
    pub router: Arc<RouterMetrics>,
}

impl Engine {
    /// The shard that must execute `request`: its dataset's owner, or
    /// shard 0 for dataset-free requests (engine-level fan-outs are
    /// intercepted in `execute_conn` before the
    /// shard executor ever sees them, so their nominal shard only
    /// selects which worker pool runs the fan-out).
    pub fn route(&self, request: &Request) -> usize {
        request
            .dataset()
            .map_or(0, |d| shard_of(d, self.shards.len()))
    }

    /// Executes one request, routing it to its owning shard or fanning
    /// it out, without a connection context.
    pub fn execute(&self, request: &Request) -> Result<Payload, ServiceError> {
        self.execute_conn(self.route(request), request, None)
    }

    /// [`execute`](Self::execute) with the submitting connection
    /// attached; `shard` is the routing decision (made on the reader
    /// thread, so the job landed on that shard's queue).
    pub(crate) fn execute_conn(
        &self,
        shard: usize,
        request: &Request,
        ctx: Option<&ConnContext>,
    ) -> Result<Payload, ServiceError> {
        match request {
            Request::Ping => Ok(vec![
                ("pong".into(), Json::Bool(true)),
                ("shards".into(), u(self.shards.len() as u64)),
            ]),
            Request::Stats => Ok(self.stats_payload()),
            Request::RecoverStats => {
                let r = self.recovery.as_ref().ok_or_else(|| {
                    ServiceError::new(ErrorKind::Failed, "persistence is not enabled")
                })?;
                Ok(vec![
                    ("entries_loaded".into(), u(r.entries_loaded as u64)),
                    (
                        "entries_dropped_stale".into(),
                        u(r.entries_dropped_stale as u64),
                    ),
                    (
                        "streams_from_snapshot".into(),
                        u(r.streams_from_snapshot as u64),
                    ),
                    ("streams_from_wal".into(), u(r.streams_from_wal as u64)),
                    ("wal_records_replayed".into(), u(r.wal_records_replayed)),
                    ("wal_records_skipped".into(), u(r.wal_records_skipped)),
                    ("torn_bytes_truncated".into(), u(r.torn_bytes_truncated)),
                    ("wal_segments".into(), u(r.wal_segments as u64)),
                    (
                        "corrupt_files".into(),
                        Json::Arr(r.corrupt_files.iter().map(|f| s(f.clone())).collect()),
                    ),
                ])
            }
            Request::Evict(None) => {
                let evicted: usize = self.shards.iter().map(|ex| ex.registry.clear()).sum();
                Ok(vec![("evicted".into(), u(evicted as u64))])
            }
            Request::StreamStats(None) => {
                let mut infos: Vec<crate::registry::StreamInfo> = self
                    .shards
                    .iter()
                    .flat_map(|ex| ex.registry.stream_infos())
                    .collect();
                infos.sort_by_key(|i| i.dataset.name());
                let rows: Vec<Json> = infos
                    .iter()
                    .map(|info| Json::Obj(stream_members(info)))
                    .collect();
                Ok(vec![("streams".into(), Json::Arr(rows))])
            }
            Request::AnalyticsStats(None) => {
                let mut infos: Vec<(crate::registry::AnalyticsInfo, usize)> = self
                    .shards
                    .iter()
                    .flat_map(|ex| {
                        ex.registry
                            .analytics_infos()
                            .into_iter()
                            .map(|info| {
                                let active = ex.subs.active_for(info.dataset);
                                (info, active)
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                infos.sort_by_key(|(i, _)| i.dataset.name());
                let rows: Vec<Json> = infos
                    .iter()
                    .map(|(info, active)| Json::Obj(analytics_members(info, *active)))
                    .collect();
                let active: usize = self.shards.iter().map(|ex| ex.subs.active()).sum();
                let sent: u64 = self
                    .shards
                    .iter()
                    .map(|ex| ex.subs.notifications_sent())
                    .sum();
                Ok(vec![
                    ("datasets".into(), Json::Arr(rows)),
                    ("subscriptions".into(), u(active as u64)),
                    ("notifications_sent".into(), u(sent)),
                ])
            }
            Request::Snapshot => {
                let mut streams = 0usize;
                for ex in &self.shards {
                    streams += ex
                        .registry
                        .snapshot_now()
                        .map_err(|e| ServiceError::new(ErrorKind::Failed, e))?;
                }
                let mut payload = vec![("streams_snapshotted".into(), u(streams as u64))];
                // The store is shared, so any shard's handle reports it.
                if let Some(stats) = self.shards[0]
                    .registry
                    .store()
                    .and_then(|st| st.stats().ok())
                {
                    payload.push(("snapshot_files".into(), u(stats.snapshots.files as u64)));
                    payload.push(("snapshot_bytes".into(), u(stats.snapshots.bytes)));
                    payload.push(("wal_segments".into(), u(stats.wal.segments as u64)));
                }
                Ok(payload)
            }
            Request::Unsubscribe { sub } => {
                // Only the shard owning the subscription's dataset knows
                // the id; try each (ownership is still checked — a
                // non-owning connection cannot remove it).
                let conn = ctx.map(|c| c.conn_id);
                let removed = self.shards.iter().any(|ex| ex.subs.unsubscribe(*sub, conn));
                Ok(vec![
                    ("sub".into(), u(*sub)),
                    ("removed".into(), Json::Bool(removed)),
                ])
            }
            _ => {
                let ex = &self.shards[shard.min(self.shards.len() - 1)];
                ex.execute_conn(request, ctx)
            }
        }
    }

    fn stats_payload(&self) -> Payload {
        let regs: Vec<crate::registry::RegistryStats> =
            self.shards.iter().map(|ex| ex.registry.stats()).collect();
        // Saturating: an unbounded per-shard byte budget (usize::MAX)
        // must aggregate to "unbounded", not wrap.
        let sum_reg = |f: &dyn Fn(&crate::registry::RegistryStats) -> u64| -> u64 {
            regs.iter().map(f).fold(0u64, u64::saturating_add)
        };
        let sum_m = |f: &dyn Fn(&ServiceMetrics) -> u64| -> u64 {
            self.shards.iter().map(|ex| f(&ex.metrics)).sum()
        };
        let sum_subs = |f: &dyn Fn(&SubscriptionRegistry) -> u64| -> u64 {
            self.shards.iter().map(|ex| f(&ex.subs)).sum()
        };
        // Per-op rollup: counters sum, histograms merge bucket-wise so
        // the quantile is over the union of every shard's samples.
        let per_op: Vec<(String, Json)> = Op::ALL
            .iter()
            .filter(|op| !matches!(op, Op::Shutdown))
            .map(|op| {
                let mut requests = 0u64;
                let mut errors = 0u64;
                let mut acc = [0u64; BUCKETS];
                for ex in &self.shards {
                    let om = ex.metrics.op(*op);
                    requests += om.requests.load(Ordering::Relaxed);
                    errors += om.errors.load(Ordering::Relaxed);
                    om.latency.fold_into(&mut acc);
                }
                (
                    op.name().to_string(),
                    obj(vec![
                        ("requests", u(requests)),
                        ("errors", u(errors)),
                        ("p50_us", u(quantile_upper_us_from(&acc, 0.50))),
                        ("p99_us", u(quantile_upper_us_from(&acc, 0.99))),
                    ]),
                )
            })
            .collect();
        // Per-shard breakdown: the scaling diagnosis surface (a hot
        // shard shows up as one row's depth/peak, not a global blur).
        let shard_rows: Vec<Json> = self
            .shards
            .iter()
            .zip(regs.iter())
            .map(|(ex, reg)| {
                let m = &ex.metrics;
                let requests: u64 = Op::ALL
                    .iter()
                    .map(|op| m.op(*op).requests.load(Ordering::Relaxed))
                    .sum();
                obj(vec![
                    ("shard", u(ex.shard as u64)),
                    ("requests", u(requests)),
                    (
                        "queue",
                        obj(vec![
                            ("depth", u(m.queue_depth.load(Ordering::Relaxed) as u64)),
                            ("peak", u(m.queue_peak.load(Ordering::Relaxed) as u64)),
                            (
                                "rejected_overload",
                                u(m.rejected_overload.load(Ordering::Relaxed)),
                            ),
                            (
                                "rejected_shutdown",
                                u(m.rejected_shutdown.load(Ordering::Relaxed)),
                            ),
                            (
                                "expired_deadline",
                                u(m.expired_deadline.load(Ordering::Relaxed)),
                            ),
                        ]),
                    ),
                    (
                        "cache",
                        obj(vec![
                            ("entries", u(reg.entries as u64)),
                            ("bytes", u(reg.bytes as u64)),
                            ("budget", u(reg.budget as u64)),
                            ("hits", u(reg.hits)),
                            ("misses", u(reg.misses)),
                            ("streams", u(reg.streams as u64)),
                        ]),
                    ),
                    (
                        "scratch",
                        obj(vec![
                            ("idle", u(ex.scratch.idle() as u64)),
                            ("idle_bytes", u(ex.scratch.idle_bytes() as u64)),
                        ]),
                    ),
                    ("subscriptions", u(ex.subs.active() as u64)),
                ])
            })
            .collect();
        let mut details: Vec<crate::registry::EntryDetail> = self
            .shards
            .iter()
            .flat_map(|ex| ex.registry.entry_details())
            .collect();
        details.sort_by_key(|d| {
            (
                d.target.dataset.name(),
                d.target.direction.name(),
                d.target.ordering.name(),
                d.target.bucket_size,
            )
        });
        let recovered = sum_reg(&|r| r.recovered_entries);
        vec![
            (
                "uptime_ms".into(),
                u(self.started.elapsed().as_millis() as u64),
            ),
            (
                "server".into(),
                obj(vec![
                    ("shards", u(self.info.shards as u64)),
                    ("workers", u(self.info.workers as u64)),
                    ("queue_capacity", u(self.info.queue_capacity as u64)),
                    ("default_deadline_ms", u(self.info.default_deadline_ms)),
                    (
                        "connections",
                        u(self.router.connections.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "queue".into(),
                obj(vec![
                    (
                        "depth",
                        u(sum_m(&|m| m.queue_depth.load(Ordering::Relaxed) as u64)),
                    ),
                    // Peak is the high-water mark of the *fullest* shard
                    // queue — per-shard peaks never coincide, so a sum
                    // would overstate what any queue actually held.
                    (
                        "peak",
                        u(self
                            .shards
                            .iter()
                            .map(|ex| ex.metrics.queue_peak.load(Ordering::Relaxed) as u64)
                            .max()
                            .unwrap_or(0)),
                    ),
                    (
                        "rejected_overload",
                        u(sum_m(&|m| m.rejected_overload.load(Ordering::Relaxed))),
                    ),
                    (
                        "rejected_shutdown",
                        u(sum_m(&|m| m.rejected_shutdown.load(Ordering::Relaxed))),
                    ),
                    (
                        "expired_deadline",
                        u(sum_m(&|m| m.expired_deadline.load(Ordering::Relaxed))),
                    ),
                    (
                        "bad_requests",
                        u(self.router.bad_requests.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "cache".into(),
                obj(vec![
                    ("entries", u(sum_reg(&|r| r.entries as u64))),
                    ("bytes", u(sum_reg(&|r| r.bytes as u64))),
                    ("budget", u(sum_reg(&|r| r.budget as u64))),
                    ("hits", u(sum_reg(&|r| r.hits))),
                    ("misses", u(sum_reg(&|r| r.misses))),
                    ("evictions", u(sum_reg(&|r| r.evictions))),
                    ("invalidations", u(sum_reg(&|r| r.invalidations))),
                    ("raw_graphs", u(sum_reg(&|r| r.raw_graphs as u64))),
                    ("streams", u(sum_reg(&|r| r.streams as u64))),
                    ("recovered_entries", u(recovered)),
                ]),
            ),
            (
                "analytics".into(),
                obj(vec![
                    ("states", u(sum_reg(&|r| r.analytics_states as u64))),
                    ("builds", u(sum_reg(&|r| r.analytics_builds))),
                    ("batches", u(sum_reg(&|r| r.analytics_batches))),
                    ("reads", u(sum_reg(&|r| r.analytics_reads))),
                    ("subscriptions", u(sum_subs(&|s| s.active() as u64))),
                    ("subscribes", u(sum_subs(&|s| s.subscribes()))),
                    ("unsubscribes", u(sum_subs(&|s| s.unsubscribes()))),
                    (
                        "notifications_sent",
                        u(sum_subs(&|s| s.notifications_sent())),
                    ),
                    ("dropped_dead", u(sum_subs(&|s| s.dropped_dead()))),
                ]),
            ),
            ("persistence".into(), {
                match self.shards[0].registry.store() {
                    None => obj(vec![("enabled", Json::Bool(false))]),
                    Some(store) => {
                        let p = store.stats().unwrap_or_default();
                        obj(vec![
                            ("enabled", Json::Bool(true)),
                            ("wal_bytes", u(p.wal.bytes)),
                            ("wal_segments", u(p.wal.segments as u64)),
                            ("wal_records_appended", u(p.wal.records_appended)),
                            ("wal_segments_collected", u(p.wal.segments_collected)),
                            ("snapshot_files", u(p.snapshots.files as u64)),
                            ("snapshot_bytes", u(p.snapshots.bytes)),
                            ("snapshots_written", u(p.snapshots_written)),
                            ("snapshot_failures", u(p.snapshot_failures)),
                            ("op_ticks", u(p.op_ticks)),
                            ("last_snapshot_age_ticks", u(p.last_snapshot_age_ticks)),
                            ("entries_recovered", u(recovered)),
                        ])
                    }
                }
            }),
            ("shards".into(), Json::Arr(shard_rows)),
            (
                "cache_entries".into(),
                Json::Arr(
                    details
                        .iter()
                        .map(|d| {
                            obj(vec![
                                ("dataset", s(d.target.dataset.name())),
                                ("direction", s(d.target.direction.name())),
                                ("ordering", s(d.target.ordering.name())),
                                ("bucket_size", u(d.target.bucket_size as u64)),
                                ("bytes", u(d.bytes as u64)),
                                ("idle_ms", u(d.idle_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("ops".into(), Json::Obj(per_op)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use tc_core::model::ModelParams;
    use tc_datasets::Dataset;

    fn executor() -> Executor {
        Executor {
            shard: 0,
            gpu: GpuConfig::titan_xp_like(),
            registry: Arc::new(GraphRegistry::new(
                usize::MAX,
                ModelParams::default_analytic(),
            )),
            metrics: Arc::new(ServiceMetrics::default()),
            scratch: Arc::new(ScratchPool::new()),
            subs: Arc::new(SubscriptionRegistry::new()),
        }
    }

    fn engine(shards: usize) -> Engine {
        Engine {
            shards: (0..shards)
                .map(|shard| {
                    Arc::new(Executor {
                        shard,
                        ..executor()
                    })
                })
                .collect(),
            info: ServerInfo {
                shards,
                workers: 1,
                queue_capacity: 8,
                default_deadline_ms: 1000,
            },
            started: Instant::now(),
            recovery: None,
            router: Arc::new(RouterMetrics::default()),
        }
    }

    fn run(ex: &Executor, line: &str) -> Result<Payload, ServiceError> {
        ex.execute(&parse_request(line).unwrap().request)
    }

    #[test]
    fn count_matches_direct_cpu_count() {
        let ex = executor();
        let payload = run(&ex, r#"{"op":"count","dataset":"email-Eucore"}"#).unwrap();
        let triangles = payload
            .iter()
            .find(|(k, _)| k == "triangles")
            .and_then(|(_, v)| v.as_u64())
            .unwrap();
        let g = tc_datasets::load(Dataset::EmailEucore);
        let expected = tc_algos::cpu::node_iterator(&g);
        assert_eq!(triangles, expected);
    }

    #[test]
    fn simulate_agrees_with_count_on_triangles() {
        let ex = executor();
        let count = run(&ex, r#"{"op":"count","dataset":"email-Eucore"}"#).unwrap();
        let sim = run(
            &ex,
            r#"{"op":"simulate","dataset":"email-Eucore","algo":"hu"}"#,
        )
        .unwrap();
        let get = |p: &Payload, k: &str| {
            p.iter()
                .find(|(key, _)| key == k)
                .and_then(|(_, v)| v.as_u64())
                .unwrap()
        };
        assert_eq!(get(&count, "triangles"), get(&sim, "triangles"));
        assert!(get(&sim, "kernel_cycles") > 0);
    }

    #[test]
    fn unknown_algo_is_reported() {
        let ex = executor();
        let err = run(
            &ex,
            r#"{"op":"simulate","dataset":"email-Eucore","algo":"warp9"}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownAlgo);
    }

    #[test]
    fn recommend_rejects_out_of_range_source() {
        let ex = executor();
        let err = run(
            &ex,
            r#"{"op":"recommend","dataset":"email-Eucore","source":999999}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Failed);
    }

    #[test]
    fn update_shifts_count_and_ktruss_sees_it() {
        let ex = executor();
        let get = |p: &Payload, k: &str| {
            p.iter()
                .find(|(key, _)| key == k)
                .and_then(|(_, v)| v.as_u64())
                .unwrap()
        };
        let before = get(
            &run(&ex, r#"{"op":"count","dataset":"email-Eucore"}"#).unwrap(),
            "triangles",
        );
        // Delete the first edge of the graph; count must drop or stay.
        let g = ex.registry.graph(Dataset::EmailEucore);
        let (u, v) = g.edges().next().unwrap();
        let upd = run(
            &ex,
            &format!(r#"{{"op":"update","dataset":"email-Eucore","edges":[[{u},{v},"-"]]}}"#),
        )
        .unwrap();
        assert_eq!(get(&upd, "deleted"), 1);
        let after = get(&upd, "triangles");
        assert!(after <= before);
        // A fresh count query sees the mutated graph...
        let counted = get(
            &run(&ex, r#"{"op":"count","dataset":"email-Eucore"}"#).unwrap(),
            "triangles",
        );
        assert_eq!(counted, after);
        // ...and so does an application query (one fewer edge).
        let ktruss = run(&ex, r#"{"op":"ktruss","dataset":"email-Eucore"}"#).unwrap();
        let Json::Arr(rows) = ktruss
            .iter()
            .find(|(k, _)| k == "levels")
            .map(|(_, v)| v.clone())
            .unwrap()
        else {
            panic!("levels must be an array");
        };
        let total: u64 = rows
            .iter()
            .map(|r| r.get("edges").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(total, g.num_edges() as u64 - 1);
    }

    #[test]
    fn stream_stats_requires_a_stream_for_named_dataset() {
        let ex = executor();
        let err = run(&ex, r#"{"op":"stream-stats","dataset":"email-Eucore"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Failed);
        let all = run(&ex, r#"{"op":"stream-stats"}"#).unwrap();
        let Json::Arr(rows) = &all[0].1 else {
            panic!("streams must be an array");
        };
        assert!(rows.is_empty());

        run(
            &ex,
            r#"{"op":"update","dataset":"email-Eucore","edges":[[0,0]]}"#,
        )
        .unwrap();
        let one = run(&ex, r#"{"op":"stream-stats","dataset":"email-Eucore"}"#).unwrap();
        let batches = one
            .iter()
            .find(|(k, _)| k == "batches")
            .and_then(|(_, v)| v.as_u64())
            .unwrap();
        assert_eq!(batches, 1);
    }

    #[test]
    fn engine_routes_to_owning_shards_and_aggregates_stats() {
        let en = engine(2);
        let get = |p: &Payload, k: &str| p.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());

        let ping = en
            .execute(&parse_request(r#"{"op":"ping"}"#).unwrap().request)
            .unwrap();
        assert_eq!(get(&ping, "shards").and_then(|v| v.as_u64()), Some(2));

        // Counts land on their dataset's owning shard — and only there.
        let datasets = [Dataset::EmailEucore, Dataset::Gowalla];
        for d in datasets {
            en.execute(
                &parse_request(&format!(r#"{{"op":"count","dataset":"{}"}}"#, d.name()))
                    .unwrap()
                    .request,
            )
            .unwrap();
        }
        for (i, ex) in en.shards.iter().enumerate() {
            for detail in ex.registry.entry_details() {
                assert_eq!(crate::registry::shard_of(detail.target.dataset, 2), i);
            }
        }
        let total_entries: usize = en.shards.iter().map(|ex| ex.registry.stats().entries).sum();
        assert_eq!(total_entries, datasets.len());

        let stats = en
            .execute(&parse_request(r#"{"op":"stats"}"#).unwrap().request)
            .unwrap();
        let cache = get(&stats, "cache").unwrap();
        assert_eq!(
            cache.get("entries").and_then(Json::as_u64),
            Some(datasets.len() as u64)
        );
        let Some(Json::Arr(shard_rows)) = get(&stats, "shards") else {
            panic!("stats must carry a per-shard array");
        };
        assert_eq!(shard_rows.len(), 2);
        // The global scratch_pool surface is gone; scratch is per-shard.
        assert!(get(&stats, "scratch_pool").is_none());
        assert!(shard_rows[0].get("scratch").is_some());

        // evict-all fans out across every shard.
        let evicted = en
            .execute(&parse_request(r#"{"op":"evict"}"#).unwrap().request)
            .unwrap();
        let n = evicted
            .iter()
            .find(|(k, _)| k == "evicted")
            .and_then(|(_, v)| v.as_u64())
            .unwrap();
        assert_eq!(n, datasets.len() as u64);
        let total: usize = en.shards.iter().map(|ex| ex.registry.stats().entries).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn ktruss_levels_sum_to_edges() {
        let ex = executor();
        let payload = run(&ex, r#"{"op":"ktruss","dataset":"email-Eucore"}"#).unwrap();
        let levels = payload
            .iter()
            .find(|(k, _)| k == "levels")
            .map(|(_, v)| v.clone())
            .unwrap();
        let Json::Arr(rows) = levels else {
            panic!("levels must be an array")
        };
        let total: u64 = rows
            .iter()
            .map(|r| r.get("edges").and_then(Json::as_u64).unwrap())
            .sum();
        let g = tc_datasets::load(Dataset::EmailEucore);
        assert_eq!(total, g.num_edges() as u64);
    }
}
