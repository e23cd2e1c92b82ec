//! The preprocessed-graph registry: the cache that amortises the paper's
//! A-direction/A-order preprocessing across queries.
//!
//! Two layers:
//!
//! - **Raw stand-ins** (`Dataset` → [`CsrGraph`]): generator outputs,
//!   cached unbudgeted — they are modest and every query kind needs one.
//! - **Preprocessed variants** ([`PrepTarget`] → [`PreprocessResult`]):
//!   keyed by `(dataset, direction scheme, ordering scheme, bucket
//!   size)`, charged against a byte budget (via
//!   [`PreprocessResult::approx_bytes`]: the oriented CSR and the
//!   permutation) and evicted least-recently-used.
//!   The first query for a key pays the full direction + ordering +
//!   rebuild cost; later queries hit the cache. Each entry also memoises
//!   pure derived results ([`CachedPrep::triangles`]), so a repeated
//!   `count` query is a lookup, not a recount. `BENCH_service.json`
//!   quantifies the difference.
//!
//! Concurrent misses on the *same* key are deduplicated: the first
//! requester computes while later ones block on a shared [`OnceLock`]
//! cell, so an expensive preprocessing run never executes twice
//! concurrently. Misses on *different* keys proceed in parallel (the
//! compute happens outside the registry lock). An entry larger than the
//! whole budget is returned but never admitted — a zero budget therefore
//! turns the registry into a deliberate cache-bypass mode, which the
//! cold-cache benchmark pass uses.
//!
//! A third layer arrived with `tc-stream`: **streaming state**
//! (`Dataset` → [`tc_stream::DynamicGraph`]), created the first time an
//! `update` touches a dataset. From then on the dataset's "current
//! graph" is the stream's materialized view, every `update` invalidates
//! the dataset's cached variants and memoised counts (tracked by
//! [`RegistryStats::invalidations`]), and a per-dataset mutation epoch
//! guarantees an in-flight preprocessing compute that raced the update
//! is returned to its caller but never admitted to the cache. Lock
//! discipline: the registry lock and a stream lock are never held
//! together — every path acquires `inner`, releases it, then (maybe)
//! takes one stream mutex, so no lock-order cycle can form.

use crate::metrics::Histogram;
use crate::protocol::PrepTarget;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tc_algos::engine::with_thread_scratch;
use tc_analytics::{AnalyticsState, Notification, Observed, Predicate};
use tc_core::model::ModelParams;
use tc_core::{PreprocessResult, Preprocessor};
use tc_datasets::Dataset;
use tc_graph::CsrGraph;
use tc_persist::{PrepKey, Recovered, Store, StreamRecord};
use tc_stream::{BatchResult, DynamicGraph, EdgeOp, StreamCounters};

/// The persistence key for a cache target (`tc-persist` speaks
/// [`PrepKey`] so it never depends on the service layer).
fn prep_key(t: &PrepTarget) -> PrepKey {
    PrepKey {
        dataset: t.dataset,
        direction: t.direction,
        ordering: t.ordering,
        bucket_size: t.bucket_size as u32,
    }
}

fn prep_target(k: &PrepKey) -> PrepTarget {
    PrepTarget {
        dataset: k.dataset,
        direction: k.direction,
        ordering: k.ordering,
        bucket_size: k.bucket_size as usize,
    }
}

/// The shard that owns `dataset` in an engine of `shards` shards:
/// FNV-1a over the dataset's wire name, reduced modulo the shard count.
/// The wire name is the stable identity of a dataset (it is what the
/// protocol, the persistence layer, and the recovery path key on), so
/// the mapping is deterministic across processes and restarts — a
/// recovered stream always lands back on the shard that will serve it.
pub fn shard_of(dataset: Dataset, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in dataset.name().as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Counters a registry exposes on the `stats` surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Cached preprocessed variants.
    pub entries: usize,
    /// Bytes charged against the budget.
    pub bytes: usize,
    /// The byte budget.
    pub budget: usize,
    /// Lookups satisfied from cache (including waits on an in-flight
    /// computation by another thread).
    pub hits: u64,
    /// Lookups that computed the variant.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Raw dataset stand-ins cached.
    pub raw_graphs: usize,
    /// Datasets with live streaming (mutated) state.
    pub streams: usize,
    /// Entries dropped because their dataset was mutated by an `update`.
    pub invalidations: u64,
    /// Entries installed from snapshots at startup (warm restart).
    pub recovered_entries: u64,
    /// Streams currently carrying maintained analytics state.
    pub analytics_states: usize,
    /// Cold-start analytics builds (the expensive full passes).
    pub analytics_builds: u64,
    /// Batches applied through the recorded (analytics-maintaining) path.
    pub analytics_batches: u64,
    /// Reads served from maintained analytics state instead of a full
    /// recompute.
    pub analytics_reads: u64,
}

/// One cached preprocessed variant, described for the `stats` surface:
/// its cache key, its byte charge, and how long ago it was last touched.
#[derive(Clone, Copy, Debug)]
pub struct EntryDetail {
    /// The cache key.
    pub target: PrepTarget,
    /// Bytes charged against the budget.
    pub bytes: usize,
    /// Milliseconds since this entry was last returned by a lookup.
    pub idle_ms: u64,
}

/// Point-in-time streaming state of one dataset, for the `stream-stats`
/// op.
#[derive(Clone, Copy, Debug)]
pub struct StreamInfo {
    /// The streamed dataset.
    pub dataset: Dataset,
    /// Vertices (fixed for the stream's lifetime).
    pub nodes: usize,
    /// Current undirected edge count.
    pub edges: usize,
    /// Current exact triangle count.
    pub triangles: u64,
    /// Edges diverging from the last compacted base snapshot.
    pub delta_edges: usize,
    /// The compaction threshold in force.
    pub compaction_budget: usize,
    /// Lifetime operation counters.
    pub counters: StreamCounters,
    /// Median per-batch apply latency (histogram upper bound, µs).
    pub batch_p50_us: u64,
    /// Tail per-batch apply latency (histogram upper bound, µs).
    pub batch_p99_us: u64,
    /// Approximate resident bytes (base CSR + overlay).
    pub approx_bytes: usize,
}

/// Point-in-time analytics state of one dataset, for the
/// `analytics-stats` op.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticsInfo {
    /// The streamed dataset.
    pub dataset: Dataset,
    /// Edges with maintained support.
    pub tracked_edges: usize,
    /// Exact triangle count per the maintained state.
    pub triangles: u64,
    /// Committed changes replayed into the state since its build.
    pub changes_applied: u64,
    /// Recorded batches replayed into the state since its build.
    pub batches_applied: u64,
    /// Approximate resident bytes of the maintained state.
    pub approx_bytes: usize,
}

/// Mutable streaming state for one dataset: the dynamic graph plus a
/// lazily-materialized CSR of its current effective edge set (shared
/// with every query that asks for "the raw graph"), plus a per-batch
/// apply-latency histogram.
struct StreamState {
    graph: DynamicGraph,
    /// `None` after any mutation; rebuilt (and cached) on next read.
    materialized: Option<Arc<CsrGraph>>,
    latency: Histogram,
    /// WAL sequence of the last applied batch (0 = never logged).
    applied_seq: u64,
    /// Batches applied since the last stream snapshot was enqueued;
    /// drives the auto-snapshot cadence.
    batches_since_snapshot: u64,
    /// Maintained per-edge support and per-vertex local counts, built on
    /// the first analytics read (or subscription) and updated in place
    /// by every subsequent batch via the recorded-change path.
    analytics: Option<AnalyticsState>,
    /// Batches applied to this stream since the service created it; an
    /// analytics build computed outside the lock is installed only if
    /// the epoch is unchanged (no batch raced the build).
    epoch: u64,
}

impl StreamState {
    fn new(graph: DynamicGraph, materialized: Option<Arc<CsrGraph>>, applied_seq: u64) -> Self {
        Self {
            graph,
            materialized,
            latency: Histogram::default(),
            applied_seq,
            batches_since_snapshot: 0,
            analytics: None,
            epoch: 0,
        }
    }

    /// The cached materialisation, rebuilding it if a mutation dropped
    /// it. Called under the stream lock.
    fn materialized(&mut self) -> Arc<CsrGraph> {
        if let Some(m) = &self.materialized {
            return Arc::clone(m);
        }
        let m = Arc::new(self.graph.materialize());
        self.materialized = Some(Arc::clone(&m));
        m
    }
}

/// A cached preprocessed variant plus memoised derived results.
///
/// The variant is immutable, so pure functions of it — today the exact
/// triangle count — are computed once per cache residency and reused by
/// every later query. Evicting the entry drops the memo with it; a
/// zero-budget registry therefore recomputes both preprocessing *and*
/// count on every query, which is exactly the cold pass `serve-bench`
/// measures.
pub struct CachedPrep {
    prep: Arc<PreprocessResult>,
    count: OnceLock<u64>,
}

impl CachedPrep {
    fn new(prep: Arc<PreprocessResult>) -> Self {
        Self {
            prep,
            count: OnceLock::new(),
        }
    }

    /// An entry rebuilt from a snapshot, optionally with its triangle
    /// memo already durable.
    fn recovered(prep: Arc<PreprocessResult>, count: Option<u64>) -> Self {
        let cached = Self::new(prep);
        if let Some(t) = count {
            let _ = cached.count.set(t);
        }
        cached
    }

    /// The triangle memo, if it has been computed (or recovered).
    pub fn memoized(&self) -> Option<u64> {
        self.count.get().copied()
    }

    /// The preprocessed variant.
    pub fn prep(&self) -> &Arc<PreprocessResult> {
        &self.prep
    }

    /// Exact triangle count of the variant, computed on first use.
    pub fn triangles(&self) -> u64 {
        *self
            .count
            .get_or_init(|| tc_algos::cpu::directed_count(self.prep.directed()))
    }
}

struct Entry {
    cached: Arc<CachedPrep>,
    bytes: usize,
    /// Monotonic touch tick; smallest = least recently used.
    last_used: u64,
    /// Wall-clock of the last touch (the `stats` surface reports idle
    /// time; the tick orders evictions).
    last_used_at: Instant,
}

#[derive(Default)]
struct Inner {
    graphs: HashMap<Dataset, Arc<CsrGraph>>,
    entries: HashMap<PrepTarget, Entry>,
    /// In-flight computations, for same-key dedup.
    pending: HashMap<PrepTarget, Arc<OnceLock<Arc<CachedPrep>>>>,
    /// Streaming (mutated) state per dataset. The per-dataset mutex is
    /// *outside* `Inner`'s lock: lock order is always `inner` →
    /// (release) → stream, so a slow materialization or batch apply
    /// never serializes unrelated registry lookups.
    streams: HashMap<Dataset, Arc<Mutex<StreamState>>>,
    /// Mutation epoch per dataset, bumped by every `update`. A
    /// preprocessing compute snapshots the epoch before running and is
    /// admitted only if it is unchanged at admission time — an in-flight
    /// compute racing an update can never install a stale variant.
    epochs: HashMap<Dataset, u64>,
    bytes: usize,
    tick: u64,
}

/// The registry. Cheap to share behind an [`Arc`]; all methods take
/// `&self`.
pub struct GraphRegistry {
    budget: usize,
    params: ModelParams,
    inner: Mutex<Inner>,
    /// Durable home for entry snapshots and the update WAL; `None`
    /// keeps the registry purely in-memory (the historical behavior).
    persist: Option<Arc<Store>>,
    /// Whether new streams run delta compaction on a background worker
    /// (default) or inline on the applying thread.
    background_compaction: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    recovered_entries: AtomicU64,
    analytics_builds: AtomicU64,
    analytics_batches: AtomicU64,
    analytics_reads: AtomicU64,
}

impl GraphRegistry {
    /// A registry holding at most `byte_budget` bytes of preprocessed
    /// variants, preprocessing with the given calibrated model parameters.
    pub fn new(byte_budget: usize, params: ModelParams) -> Self {
        Self::with_persistence(byte_budget, params, None)
    }

    /// A registry backed by a durable [`Store`]: admitted entries are
    /// snapshotted, updates are WAL-logged before they apply, and
    /// streams snapshot on the store's cadence.
    pub fn with_persistence(
        byte_budget: usize,
        params: ModelParams,
        persist: Option<Arc<Store>>,
    ) -> Self {
        Self {
            budget: byte_budget,
            params,
            inner: Mutex::new(Inner::default()),
            persist,
            background_compaction: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            recovered_entries: AtomicU64::new(0),
            analytics_builds: AtomicU64::new(0),
            analytics_batches: AtomicU64::new(0),
            analytics_reads: AtomicU64::new(0),
        }
    }

    /// Chooses whether streams created from here on compact their deltas
    /// on a background worker (`true`, the default) or inline.
    pub fn with_background_compaction(mut self, enabled: bool) -> Self {
        self.background_compaction = enabled;
        self
    }

    fn attach_compactor(&self, graph: DynamicGraph) -> DynamicGraph {
        if self.background_compaction {
            graph.background_compaction()
        } else {
            graph
        }
    }

    /// The backing store, if persistence is enabled.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.persist.as_ref()
    }

    /// Installs state recovered by [`Store::open`] before the service
    /// starts answering queries: streams first (so entry admission sees
    /// them), then entry snapshots, charged against the budget exactly
    /// like live admissions (oversized entries stay on disk but are not
    /// installed).
    pub fn install_recovered(&self, recovered: Recovered) {
        let mut inner = self.inner.lock().expect("registry lock");
        for rs in recovered.streams {
            inner.streams.insert(
                rs.dataset,
                Arc::new(Mutex::new(StreamState::new(
                    self.attach_compactor(rs.graph),
                    None,
                    rs.applied_seq,
                ))),
            );
        }
        for record in recovered.entries {
            let key = prep_target(&record.key);
            let prep = Arc::new(record.prep);
            let bytes = prep.approx_bytes();
            if bytes > self.budget {
                continue;
            }
            self.evict_for(&mut inner, bytes);
            inner.tick += 1;
            let tick = inner.tick;
            inner.bytes += bytes;
            inner.entries.insert(
                key,
                Entry {
                    cached: Arc::new(CachedPrep::recovered(prep, record.triangles)),
                    bytes,
                    last_used: tick,
                    last_used_at: Instant::now(),
                },
            );
            self.recovered_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current graph for `dataset`: the streamed (mutated) edge set
    /// if an `update` ever touched this dataset, else the raw stand-in,
    /// loading (and caching) it on first use.
    pub fn graph(&self, dataset: Dataset) -> Arc<CsrGraph> {
        loop {
            // Fast path under the lock; the generator runs outside it so
            // an expensive load does not serialize unrelated lookups. Two
            // racing first loads may both generate — the generators are
            // deterministic, so either result is identical and one is
            // dropped.
            let stream = {
                let inner = self.inner.lock().expect("registry lock");
                if let Some(s) = inner.streams.get(&dataset) {
                    Some(Arc::clone(s))
                } else if let Some(g) = inner.graphs.get(&dataset) {
                    return Arc::clone(g);
                } else {
                    None
                }
            };
            if let Some(stream) = stream {
                let mut st = stream.lock().expect("stream lock");
                return st.materialized();
            }
            let g = Arc::new(tc_datasets::load(dataset));
            let mut inner = self.inner.lock().expect("registry lock");
            if inner.streams.contains_key(&dataset) {
                // A stream appeared while we generated: the raw stand-in
                // may already be stale, so read through the stream.
                continue;
            }
            return Arc::clone(inner.graphs.entry(dataset).or_insert(g));
        }
    }

    /// The preprocessed variant for `key`: cached, or computed (and, if
    /// it fits the budget, admitted) on miss.
    pub fn preprocessed(&self, key: PrepTarget) -> Arc<PreprocessResult> {
        Arc::clone(self.entry(key).prep())
    }

    /// The cache entry for `key` — the preprocessed variant plus its
    /// memoised derived results ([`CachedPrep::triangles`]).
    pub fn entry(&self, key: PrepTarget) -> Arc<CachedPrep> {
        // Hit or get-or-insert the pending cell, under the lock. The
        // dataset's mutation epoch is snapshotted here: if an `update`
        // lands while we preprocess, the epoch moves and the stale
        // result is returned to this caller but never admitted.
        let (cell, epoch) = {
            let mut inner = self.inner.lock().expect("registry lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = tick;
                entry.last_used_at = Instant::now();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.cached);
            }
            let epoch = inner.epochs.get(&key.dataset).copied().unwrap_or(0);
            (Arc::clone(inner.pending.entry(key).or_default()), epoch)
        };

        // Compute outside the lock. The OnceLock serializes same-key
        // racers: exactly one thread runs the closure, the rest block on
        // it and share the result (counted as hits — they waited, not
        // worked). Different keys preprocess fully in parallel.
        let mut computed_here = false;
        let cached = Arc::clone(cell.get_or_init(|| {
            computed_here = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            let graph = self.graph(key.dataset);
            Arc::new(CachedPrep::new(Arc::new(
                Preprocessor::new()
                    .direction(key.direction)
                    .ordering(key.ordering)
                    .bucket_size(key.bucket_size)
                    .params(self.params.clone())
                    .run(&graph),
            )))
        }));
        if !computed_here {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }

        // The computing thread retires the pending cell and admits the
        // entry (if it fits), evicting LRU victims to make room. Two
        // guards against racing `update`s: only remove the pending cell
        // if it is still *ours* (an invalidation may have replaced it),
        // and only admit if the dataset's epoch is unchanged.
        let bytes = cached.prep().approx_bytes();
        let mut inner = self.inner.lock().expect("registry lock");
        if inner
            .pending
            .get(&key)
            .is_some_and(|c| Arc::ptr_eq(c, &cell))
        {
            inner.pending.remove(&key);
        }
        let fresh = inner.epochs.get(&key.dataset).copied().unwrap_or(0) == epoch;
        if fresh && bytes <= self.budget {
            self.evict_for(&mut inner, bytes);
            inner.tick += 1;
            let tick = inner.tick;
            inner.bytes += bytes;
            inner.entries.insert(
                key,
                Entry {
                    cached: Arc::clone(&cached),
                    bytes,
                    last_used: tick,
                    last_used_at: Instant::now(),
                },
            );
            // Snapshot the admitted variant so the next restart reads
            // it instead of recomputing. Streamed datasets are skipped:
            // their truth is the stream snapshot + WAL, and an entry
            // variant of a mutating dataset would go stale on disk.
            if let Some(p) = &self.persist {
                if !inner.streams.contains_key(&key.dataset) {
                    p.save_entry(prep_key(&key), Arc::clone(cached.prep()), cached.memoized());
                }
            }
        }
        cached
    }

    /// The entry for `key` plus its exact triangle count, via the
    /// entry's memo. When the memo is computed for the first time (and
    /// persistence is on), the entry snapshot is rewritten so the count
    /// survives restarts too.
    pub fn count(&self, key: PrepTarget) -> (Arc<CachedPrep>, u64) {
        let cached = self.entry(key);
        let had_memo = cached.memoized().is_some();
        let triangles = cached.triangles();
        if !had_memo {
            if let Some(p) = &self.persist {
                let inner = self.inner.lock().expect("registry lock");
                let resident = inner
                    .entries
                    .get(&key)
                    .is_some_and(|e| Arc::ptr_eq(&e.cached, &cached));
                if resident && !inner.streams.contains_key(&key.dataset) {
                    p.save_entry(prep_key(&key), Arc::clone(cached.prep()), Some(triangles));
                }
            }
        }
        (cached, triangles)
    }

    /// Evicts least-recently-used entries until `incoming` more bytes fit.
    fn evict_for(&self, inner: &mut Inner, incoming: usize) {
        while inner.bytes + incoming > self.budget {
            let Some((&victim, _)) = inner.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies one batch of edge operations to `dataset`'s dynamic
    /// graph, creating the streaming state on first touch (seeded from
    /// the current raw stand-in), then invalidates every derived cache
    /// for the dataset: the raw-graph memo, all preprocessed variants,
    /// and any in-flight preprocessing compute's right to be admitted.
    ///
    /// With persistence enabled the batch is WAL-logged (append +
    /// fsync) *before* it is applied, inside the stream lock — so the
    /// per-dataset log order equals the apply order, which is what
    /// makes crash replay bit-for-bit. A WAL failure rejects the batch
    /// without applying it: durability is never silently degraded.
    pub fn apply_update(&self, dataset: Dataset, ops: &[EdgeOp]) -> Result<BatchResult, String> {
        self.apply_update_watched(dataset, ops, &[])
            .map(|(result, _)| result)
    }

    /// [`apply_update`](Self::apply_update) with subscription predicates
    /// attached: each `(subscription id, predicate)` pair is observed
    /// immediately before and after the batch, **under the stream
    /// lock**, so evaluation is exact — a predicate can never miss a
    /// crossing to a racing batch or see a torn intermediate state. The
    /// returned notifications are exactly the predicates this batch
    /// tripped, in `watchers` order.
    ///
    /// When watchers are present (or analytics state already exists) the
    /// batch applies through the recorded path and the maintained
    /// analytics state advances in `O(triangles touched)`; the first
    /// watched batch on a cold stream pays one full build.
    pub fn apply_update_watched(
        &self,
        dataset: Dataset,
        ops: &[EdgeOp],
        watchers: &[(u64, Predicate)],
    ) -> Result<(BatchResult, Vec<(u64, Notification)>), String> {
        let state = self.stream_state(dataset);
        let start = Instant::now();
        let (result, fired) = {
            let mut st = state.lock().expect("stream lock");
            let seq = match &self.persist {
                Some(p) => Some(
                    p.log_batch(dataset, ops)
                        .map_err(|e| format!("update not applied, WAL append failed: {e}"))?,
                ),
                None => None,
            };
            if !watchers.is_empty() && st.analytics.is_none() {
                // Cold subscription racing its first batch: build under
                // the lock so the before-observation exists. One-off.
                let m = st.materialized();
                st.analytics = Some(with_thread_scratch(|s| AnalyticsState::build(&m, s)));
                self.analytics_builds.fetch_add(1, Ordering::Relaxed);
            }
            let before: Vec<Observed> = watchers
                .iter()
                .map(|(_, p)| {
                    let a = st.analytics.as_ref().expect("analytics built above");
                    p.observe(a, &st.graph)
                })
                .collect();
            let result = if st.analytics.is_some() {
                let (result, changes) = st.graph.apply_batch_recorded(ops);
                st.analytics
                    .as_mut()
                    .expect("analytics present")
                    .apply_changes(&changes);
                self.analytics_batches.fetch_add(1, Ordering::Relaxed);
                result
            } else {
                st.graph.apply_batch(ops)
            };
            st.epoch += 1;
            let fired: Vec<(u64, Notification)> = watchers
                .iter()
                .zip(before)
                .filter_map(|(&(sub, p), b)| {
                    let a = st.analytics.as_ref().expect("analytics present");
                    p.evaluate(b, p.observe(a, &st.graph)).map(|n| (sub, n))
                })
                .collect();
            if let Some(seq) = seq {
                let p = self.persist.as_ref().expect("seq implies a store");
                st.applied_seq = seq;
                st.batches_since_snapshot += 1;
                if st.batches_since_snapshot >= p.snapshot_every_batches() {
                    p.save_stream(StreamRecord {
                        dataset,
                        last_seq: seq,
                        snapshot: st.graph.snapshot(),
                    });
                    st.batches_since_snapshot = 0;
                }
            }
            st.materialized = None;
            st.latency.record(start.elapsed().as_micros() as u64);
            (result, fired)
        };
        self.invalidate(dataset);
        Ok((result, fired))
    }

    /// Ensures `dataset`'s stream carries maintained analytics state,
    /// building it (one full support + per-vertex pass) if absent. The
    /// build runs *outside* the stream lock and is installed only if no
    /// batch raced it (epoch guard); after a few lost races it falls
    /// back to building under the lock. Returns `false` if the dataset
    /// has no stream (never mutated) — analytics ride the delta layer,
    /// so a static dataset has nothing to maintain.
    pub fn ensure_analytics(&self, dataset: Dataset) -> bool {
        for _ in 0..3 {
            let (m, epoch) = {
                let inner = self.inner.lock().expect("registry lock");
                let Some(stream) = inner.streams.get(&dataset).map(Arc::clone) else {
                    return false;
                };
                drop(inner);
                let mut st = stream.lock().expect("stream lock");
                if st.analytics.is_some() {
                    return true;
                }
                (st.materialized(), st.epoch)
            };
            let built = with_thread_scratch(|s| AnalyticsState::build(&m, s));
            let stream = {
                let inner = self.inner.lock().expect("registry lock");
                let Some(stream) = inner.streams.get(&dataset).map(Arc::clone) else {
                    return false;
                };
                stream
            };
            let mut st = stream.lock().expect("stream lock");
            if st.analytics.is_some() {
                return true;
            }
            if st.epoch == epoch {
                st.analytics = Some(built);
                self.analytics_builds.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // A batch raced the build; retry against the new state.
        }
        // Persistent contention: build under the lock (exact, just slower).
        let stream = {
            let inner = self.inner.lock().expect("registry lock");
            let Some(stream) = inner.streams.get(&dataset).map(Arc::clone) else {
                return false;
            };
            stream
        };
        let mut st = stream.lock().expect("stream lock");
        if st.analytics.is_none() {
            let m = st.materialized();
            st.analytics = Some(with_thread_scratch(|s| AnalyticsState::build(&m, s)));
            self.analytics_builds.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Creates `dataset`'s streaming state if it does not exist yet,
    /// without applying any operations — `subscribe` uses this so a
    /// never-mutated dataset still gets the delta layer its analytics
    /// ride on.
    pub fn ensure_stream(&self, dataset: Dataset) {
        let _ = self.stream_state(dataset);
    }

    /// Whether `dataset` has live streaming state (i.e. was ever
    /// mutated), which is what makes its analytics incremental.
    pub fn has_stream(&self, dataset: Dataset) -> bool {
        self.inner
            .lock()
            .expect("registry lock")
            .streams
            .contains_key(&dataset)
    }

    fn with_analytics<R>(
        &self,
        dataset: Dataset,
        f: impl FnOnce(&mut StreamState, Arc<CsrGraph>) -> R,
    ) -> Option<R> {
        let stream = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.get(&dataset).map(Arc::clone)?
        };
        let mut st = stream.lock().expect("stream lock");
        st.analytics.as_ref()?;
        let m = st.materialized();
        self.analytics_reads.fetch_add(1, Ordering::Relaxed);
        Some(f(&mut st, m))
    }

    /// The materialised current graph plus the maintained per-edge
    /// supports in `g.edges()` order — the exact input the k-truss peel
    /// consumes. `None` until [`ensure_analytics`](Self::ensure_analytics)
    /// has run for the dataset.
    pub fn analytics_supports(&self, dataset: Dataset) -> Option<(Arc<CsrGraph>, Vec<u32>)> {
        self.with_analytics(dataset, |st, m| {
            let supports = st
                .analytics
                .as_ref()
                .expect("checked above")
                .supports_in_edge_order(&m);
            (m, supports)
        })
    }

    /// The materialised current graph plus the maintained per-vertex
    /// local triangle counts — the input to the clustering arithmetic.
    /// `None` until analytics exist for the dataset.
    pub fn analytics_local_counts(&self, dataset: Dataset) -> Option<(Arc<CsrGraph>, Vec<u64>)> {
        self.with_analytics(dataset, |st, m| {
            let local = st
                .analytics
                .as_ref()
                .expect("checked above")
                .local_counts()
                .to_vec();
            (m, local)
        })
    }

    /// Observes the value `predicate` watches right now (used to seed a
    /// new subscription's response). `None` if the dataset carries no
    /// analytics state yet.
    pub fn observe_predicate(&self, dataset: Dataset, predicate: &Predicate) -> Option<Observed> {
        let stream = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.get(&dataset).map(Arc::clone)?
        };
        let st = stream.lock().expect("stream lock");
        st.analytics
            .as_ref()
            .map(|a| predicate.observe(a, &st.graph))
    }

    /// Analytics snapshot for `dataset`, if its stream carries state.
    pub fn analytics_info(&self, dataset: Dataset) -> Option<AnalyticsInfo> {
        let stream = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.get(&dataset).map(Arc::clone)?
        };
        let st = stream.lock().expect("stream lock");
        let a = st.analytics.as_ref()?;
        Some(AnalyticsInfo {
            dataset,
            tracked_edges: a.edge_count(),
            triangles: a.triangles(),
            changes_applied: a.changes_applied(),
            batches_applied: a.batches_applied(),
            approx_bytes: a.approx_bytes(),
        })
    }

    /// Analytics snapshots for every dataset that carries state, ordered
    /// by dataset name (deterministic for the wire).
    pub fn analytics_infos(&self) -> Vec<AnalyticsInfo> {
        let mut datasets: Vec<Dataset> = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.keys().copied().collect()
        };
        datasets.sort_by_key(|d| d.name());
        datasets
            .into_iter()
            .filter_map(|d| self.analytics_info(d))
            .collect()
    }

    /// Snapshots every stream's current state to the store and blocks
    /// until all writes land (admin `snapshot` op and graceful drain).
    /// Returns the number of streams snapshotted.
    pub fn snapshot_now(&self) -> Result<usize, String> {
        let Some(p) = &self.persist else {
            return Err("persistence is not enabled".into());
        };
        let streams: Vec<(Dataset, Arc<Mutex<StreamState>>)> = {
            let inner = self.inner.lock().expect("registry lock");
            inner
                .streams
                .iter()
                .map(|(d, s)| (*d, Arc::clone(s)))
                .collect()
        };
        let n = streams.len();
        for (dataset, state) in streams {
            let mut st = state.lock().expect("stream lock");
            p.save_stream(StreamRecord {
                dataset,
                last_seq: st.applied_seq,
                snapshot: st.graph.snapshot(),
            });
            st.batches_since_snapshot = 0;
        }
        p.flush();
        Ok(n)
    }

    /// The streaming state for `dataset`, created on first use.
    fn stream_state(&self, dataset: Dataset) -> Arc<Mutex<StreamState>> {
        if let Some(s) = self
            .inner
            .lock()
            .expect("registry lock")
            .streams
            .get(&dataset)
        {
            return Arc::clone(s);
        }
        // First touch: seed from the current graph, outside the registry
        // lock (the initial full count is the expensive part — it is the
        // last full count this dataset ever pays). Racing first touches
        // both build; `or_insert` keeps one, and both are identical
        // because the seed graph is.
        let base = self.graph(dataset);
        let graph = self.attach_compactor(DynamicGraph::new((*base).clone()));
        let state = Arc::new(Mutex::new(StreamState::new(graph, Some(base), 0)));
        let mut inner = self.inner.lock().expect("registry lock");
        Arc::clone(inner.streams.entry(dataset).or_insert(state))
    }

    /// Drops every derived cache for a mutated dataset and bumps its
    /// epoch so racing preprocessing computes are not admitted.
    fn invalidate(&self, dataset: Dataset) {
        let mut inner = self.inner.lock().expect("registry lock");
        *inner.epochs.entry(dataset).or_insert(0) += 1;
        inner.graphs.remove(&dataset);
        let stale: Vec<PrepTarget> = inner
            .entries
            .keys()
            .filter(|k| k.dataset == dataset)
            .copied()
            .collect();
        for key in stale {
            let entry = inner.entries.remove(&key).expect("stale key present");
            inner.bytes -= entry.bytes;
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        // Detach in-flight computes for this dataset: their results are
        // now stale, so the next lookup must start fresh rather than
        // join them (the epoch guard stops them from admitting).
        inner.pending.retain(|k, _| k.dataset != dataset);
        drop(inner);
        // The dataset's on-disk entry snapshots are equally stale.
        if let Some(p) = &self.persist {
            p.delete_dataset_entries(dataset);
        }
    }

    /// Streaming snapshot for `dataset`, if it has ever been updated.
    pub fn stream_info(&self, dataset: Dataset) -> Option<StreamInfo> {
        let state = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.get(&dataset).map(Arc::clone)?
        };
        let st = state.lock().expect("stream lock");
        Some(StreamInfo {
            dataset,
            nodes: st.graph.num_vertices(),
            edges: st.graph.num_edges(),
            triangles: st.graph.triangles(),
            delta_edges: st.graph.delta_edges(),
            compaction_budget: st.graph.compaction_policy().max_delta_edges,
            counters: st.graph.counters(),
            batch_p50_us: st.latency.quantile_upper_us(0.50),
            batch_p99_us: st.latency.quantile_upper_us(0.99),
            approx_bytes: st.graph.approx_bytes(),
        })
    }

    /// Streaming snapshots for every updated dataset, ordered by
    /// dataset name (deterministic for the wire).
    pub fn stream_infos(&self) -> Vec<StreamInfo> {
        let mut datasets: Vec<Dataset> = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.keys().copied().collect()
        };
        datasets.sort_by_key(|d| d.name());
        datasets
            .into_iter()
            .filter_map(|d| self.stream_info(d))
            .collect()
    }

    /// Per-entry cache description (bytes, idle time), ordered by cache
    /// key for a deterministic wire layout.
    pub fn entry_details(&self) -> Vec<EntryDetail> {
        let inner = self.inner.lock().expect("registry lock");
        let mut details: Vec<EntryDetail> = inner
            .entries
            .iter()
            .map(|(target, e)| EntryDetail {
                target: *target,
                bytes: e.bytes,
                idle_ms: e.last_used_at.elapsed().as_millis() as u64,
            })
            .collect();
        details.sort_by_key(|d| {
            (
                d.target.dataset.name(),
                d.target.direction.name(),
                d.target.ordering.name(),
                d.target.bucket_size,
            )
        });
        details
    }

    /// Whether `key` is currently cached (test/diagnostic surface).
    pub fn contains(&self, key: &PrepTarget) -> bool {
        self.inner
            .lock()
            .expect("registry lock")
            .entries
            .contains_key(key)
    }

    /// Evicts one variant; returns whether it was present. An explicit
    /// evict also deletes the entry's snapshot — unlike LRU pressure,
    /// which keeps the file so the next restart can still warm-load it.
    pub fn evict(&self, key: &PrepTarget) -> bool {
        let removed = {
            let mut inner = self.inner.lock().expect("registry lock");
            match inner.entries.remove(key) {
                Some(e) => {
                    inner.bytes -= e.bytes;
                    true
                }
                None => false,
            }
        };
        if removed {
            if let Some(p) = &self.persist {
                p.delete_entry(prep_key(key));
            }
        }
        removed
    }

    /// Evicts every variant and every raw stand-in; returns the number of
    /// preprocessed entries dropped. Streaming state is *not* a cache —
    /// it holds mutations with no other home — so it survives a clear
    /// (and `graph` keeps reading through it).
    pub fn clear(&self) -> usize {
        let (n, keys) = {
            let mut inner = self.inner.lock().expect("registry lock");
            let keys: Vec<PrepTarget> = inner.entries.keys().copied().collect();
            let n = inner.entries.len();
            inner.entries.clear();
            inner.graphs.clear();
            inner.bytes = 0;
            (n, keys)
        };
        if let Some(p) = &self.persist {
            for key in keys {
                p.delete_entry(prep_key(&key));
            }
        }
        n
    }

    /// Snapshot of the registry counters.
    pub fn stats(&self) -> RegistryStats {
        let streams: Vec<Arc<Mutex<StreamState>>> = {
            let inner = self.inner.lock().expect("registry lock");
            inner.streams.values().map(Arc::clone).collect()
        };
        let analytics_states = streams
            .iter()
            .filter(|s| s.lock().expect("stream lock").analytics.is_some())
            .count();
        let inner = self.inner.lock().expect("registry lock");
        RegistryStats {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            budget: self.budget,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            raw_graphs: inner.graphs.len(),
            streams: inner.streams.len(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            recovered_entries: self.recovered_entries.load(Ordering::Relaxed),
            analytics_states,
            analytics_builds: self.analytics_builds.load(Ordering::Relaxed),
            analytics_batches: self.analytics_batches.load(Ordering::Relaxed),
            analytics_reads: self.analytics_reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::{DirectionScheme, OrderingScheme};

    fn key(dataset: Dataset, ordering: OrderingScheme) -> PrepTarget {
        PrepTarget {
            dataset,
            direction: DirectionScheme::ADirection,
            ordering,
            bucket_size: 64,
        }
    }

    fn registry(budget: usize) -> GraphRegistry {
        GraphRegistry::new(budget, ModelParams::default_analytic())
    }

    /// Byte cost of one EmailEucore variant (they all share the same
    /// graph shape, so every ordering costs the same).
    fn unit_bytes() -> usize {
        registry(usize::MAX)
            .preprocessed(key(Dataset::EmailEucore, OrderingScheme::AOrder))
            .approx_bytes()
    }

    #[test]
    fn hit_after_miss_and_key_isolation() {
        let r = registry(usize::MAX);
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        let b = key(Dataset::EmailEucore, OrderingScheme::Original);
        let p1 = r.preprocessed(a);
        let p2 = r.preprocessed(a);
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "second lookup must be the cached Arc"
        );
        let p3 = r.preprocessed(b);
        assert!(
            !Arc::ptr_eq(&p1, &p3),
            "different ordering, different entry"
        );
        let s = r.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        // Same triangles either way — the variants differ only in layout.
        assert_eq!(
            tc_algos::cpu::directed_count(p1.directed()),
            tc_algos::cpu::directed_count(p3.directed()),
        );
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let unit = unit_bytes();
        // Room for exactly two EmailEucore variants.
        let r = registry(2 * unit + unit / 2);
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        let b = key(Dataset::EmailEucore, OrderingScheme::Original);
        let c = key(Dataset::EmailEucore, OrderingScheme::DegreeOrder);
        r.preprocessed(a);
        r.preprocessed(b);
        r.preprocessed(a); // touch A: B becomes the LRU victim
        r.preprocessed(c);
        assert!(r.contains(&a), "recently touched entry must survive");
        assert!(!r.contains(&b), "LRU entry must be evicted");
        assert!(r.contains(&c));
        let s = r.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= s.budget);
    }

    #[test]
    fn reload_after_evict_recomputes() {
        let r = registry(usize::MAX);
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        let before = tc_algos::cpu::directed_count(r.preprocessed(a).directed());
        assert!(r.evict(&a));
        assert!(!r.contains(&a));
        assert!(!r.evict(&a), "double evict reports absence");
        let after = tc_algos::cpu::directed_count(r.preprocessed(a).directed());
        assert_eq!(before, after, "re-load must reproduce the same variant");
        assert_eq!(r.stats().misses, 2, "the re-load is a genuine miss");
    }

    #[test]
    fn oversized_entries_bypass_the_cache() {
        let r = registry(0);
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        r.preprocessed(a);
        r.preprocessed(a);
        let s = r.stats();
        assert_eq!(s.entries, 0, "budget 0 admits nothing");
        assert_eq!(s.misses, 2, "every lookup recomputes");
        assert_eq!(s.evictions, 0, "bypass is not eviction");
    }

    #[test]
    fn clear_drops_everything() {
        let r = registry(usize::MAX);
        r.preprocessed(key(Dataset::EmailEucore, OrderingScheme::AOrder));
        r.preprocessed(key(Dataset::EmailEucore, OrderingScheme::Original));
        assert_eq!(r.clear(), 2);
        let s = r.stats();
        assert_eq!((s.entries, s.bytes, s.raw_graphs), (0, 0, 0));
    }

    #[test]
    fn update_invalidates_cached_variants_and_counts() {
        let r = registry(usize::MAX);
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        let before = r.entry(a).triangles();
        assert!(r.contains(&a));

        // Find an absent edge so the update genuinely mutates.
        let g = r.graph(Dataset::EmailEucore);
        let (u, v) = (0..g.num_vertices() as u32)
            .flat_map(|u| ((u + 1)..g.num_vertices() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete");
        let res = r
            .apply_update(Dataset::EmailEucore, &[EdgeOp::Insert(u, v)])
            .expect("update");
        assert_eq!(res.inserted, 1);

        assert!(!r.contains(&a), "mutation must drop the stale variant");
        let s = r.stats();
        assert_eq!((s.streams, s.raw_graphs), (1, 0));
        assert!(s.invalidations >= 1);

        // The refreshed entry counts the mutated graph.
        let after = r.entry(a).triangles();
        assert_eq!(
            after as i64,
            before as i64 + res.triangles_delta,
            "recount must see the inserted edge"
        );
        assert_eq!(after, res.triangles);

        // And the raw-graph surface reads through the stream.
        let m = r.graph(Dataset::EmailEucore);
        assert!(m.has_edge(u, v));
        assert_eq!(tc_algos::cpu::node_iterator(&m), res.triangles);
    }

    #[test]
    fn update_then_revert_restores_the_original_count() {
        let r = registry(usize::MAX);
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        let before = r.entry(a).triangles();
        let g = r.graph(Dataset::EmailEucore);
        let (u, v) = g.edges().next().expect("graph has edges");
        r.apply_update(Dataset::EmailEucore, &[EdgeOp::Delete(u, v)])
            .expect("update");
        let res = r
            .apply_update(Dataset::EmailEucore, &[EdgeOp::Insert(u, v)])
            .expect("update");
        assert_eq!(res.triangles, before);
        assert_eq!(r.entry(a).triangles(), before);
    }

    #[test]
    fn stream_info_reports_state() {
        let r = registry(usize::MAX);
        assert!(r.stream_info(Dataset::EmailEucore).is_none());
        assert!(r.stream_infos().is_empty());
        r.apply_update(
            Dataset::EmailEucore,
            &[EdgeOp::Insert(0, 0), EdgeOp::Insert(1, 1)],
        )
        .expect("update");
        let info = r.stream_info(Dataset::EmailEucore).expect("stream exists");
        assert_eq!(info.counters.batches, 1);
        assert_eq!(info.counters.rejected, 2);
        assert_eq!(info.delta_edges, 0);
        assert!(info.batch_p50_us > 0 || info.counters.batches > 0);
        assert_eq!(r.stream_infos().len(), 1);
    }

    #[test]
    fn persistent_registry_warm_restarts_entries_and_streams() {
        let dir = std::env::temp_dir().join(format!(
            "tc-service-registry-persist-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let (store, recovered) =
                tc_persist::Store::open(tc_persist::PersistConfig::new(&dir)).expect("store");
            (Arc::new(store), recovered)
        };
        let a = key(Dataset::EmailEucore, OrderingScheme::AOrder);
        let streamed = Dataset::Gowalla;

        // First life: cache an entry (memoised count persisted too) and
        // stream a batch into a different dataset.
        let (count_before, stream_before) = {
            let (store, recovered) = open();
            let r = GraphRegistry::with_persistence(
                usize::MAX,
                ModelParams::default_analytic(),
                Some(Arc::clone(&store)),
            );
            r.install_recovered(recovered);
            let (_, count) = r.count(a);
            let g = r.graph(streamed);
            let (u, v) = g.edges().next().expect("has edges");
            r.apply_update(streamed, &[EdgeOp::Delete(u, v)])
                .expect("update");
            r.snapshot_now().expect("snapshot");
            store.flush();
            (count, r.stream_info(streamed).expect("stream"))
        };

        // Second life: the entry and the stream come back from disk —
        // no recompute (misses stay 0), count memo intact, stream state
        // identical in every deterministic field.
        let (store, recovered) = open();
        let r = GraphRegistry::with_persistence(
            usize::MAX,
            ModelParams::default_analytic(),
            Some(Arc::clone(&store)),
        );
        r.install_recovered(recovered);
        assert!(r.contains(&a), "entry must warm-load");
        assert_eq!(r.count(a).1, count_before);
        let s = r.stats();
        assert_eq!(s.misses, 0, "warm restart must not recompute");
        assert_eq!(s.recovered_entries, 1);
        assert_eq!(s.streams, 1);
        let info = r.stream_info(streamed).expect("stream recovered");
        assert_eq!(info.triangles, stream_before.triangles);
        assert_eq!(info.edges, stream_before.edges);
        assert_eq!(info.counters, stream_before.counters);
        drop(r);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_details_expose_bytes_and_idle_time() {
        let r = registry(usize::MAX);
        r.preprocessed(key(Dataset::EmailEucore, OrderingScheme::AOrder));
        r.preprocessed(key(Dataset::EmailEucore, OrderingScheme::Original));
        let details = r.entry_details();
        assert_eq!(details.len(), 2);
        for d in &details {
            assert!(d.bytes > 0);
            assert_eq!(d.target.dataset, Dataset::EmailEucore);
        }
        // Deterministic order: sorted by ordering name within a dataset.
        assert!(details[0].target.ordering.name() <= details[1].target.ordering.name());
    }

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        for d in Dataset::all() {
            assert_eq!(shard_of(d, 1), 0);
            for shards in [2usize, 3, 8] {
                let s = shard_of(d, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(d, shards), "deterministic");
            }
        }
        // The hash must actually spread datasets: with two shards, both
        // sides of the split are inhabited (the cross-shard e2e tests
        // depend on finding datasets on each side).
        for shards in [2usize, 8] {
            let hit: std::collections::HashSet<usize> = Dataset::all()
                .into_iter()
                .map(|d| shard_of(d, shards))
                .collect();
            assert!(hit.len() >= 2, "{shards} shards: all datasets on one");
        }
    }
}
