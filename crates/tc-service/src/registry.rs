//! The preprocessed-graph registry: the cache that amortises the paper's
//! A-direction/A-order preprocessing across queries.
//!
//! Each dataset has one slot in a table fixed at construction. It holds
//! the dataset's current graph — the raw stand-in, cached unbudgeted
//! (stand-ins are modest and every query kind needs one) — and, once an
//! `update` or `subscribe` touched the dataset, its stream: a
//! [`tc_stream::DynamicGraph`] built on the stand-in's own `Arc`, with
//! its WAL cursor, snapshot cadence, batch latency and maintained
//! analytics. Every `update` drops the dataset's cached variants
//! ([`RegistryStats::invalidations`]). A streamed dataset's `count` reads
//! the stream's maintained count ([`GraphRegistry::count`]), and
//! `recommend`, `clustering` and `subscribe` read the stream and its
//! analytics in place ([`GraphRegistry::view`]). Only what needs a CSR
//! rebuilds one from the stream, once per write
//! ([`RegistryStats::materializations`]): a variant for `simulate` or
//! `load`, `ktruss`, and an analytics build on a dataset written before
//! its first analytics read.
//!
//! A slot sits behind an `RwLock`: a query holds it shared while it reads
//! the dataset, an `update` or `subscribe` holds it exclusively. The
//! shard queue already runs each write alone and in admission order (see
//! [`crate::server`]), so on the serving path the lock is never
//! contended; it keeps direct callers correct too. As no write lands
//! while a read holds its dataset, a variant a read computes is current
//! when it is admitted.
//!
//! Preprocessed variants ([`PrepTarget`] → [`PreprocessResult`]) live in
//! one LRU, charged against a byte budget
//! ([`PreprocessResult::approx_bytes`]: the oriented CSR and the
//! permutation), behind a mutex held only for bookkeeping and never while
//! another lock is taken. The first query for a key pays direction +
//! ordering + rebuild; later ones hit, and a repeated `count` reads the
//! entry's memo ([`CachedPrep::triangles`]) — `BENCH_service.json`
//! quantifies both. A miss enters its key before preprocessing outside
//! the mutex, so same-key misses wait on that entry's [`OnceLock`] and
//! compute once, while misses on different keys run in parallel. An
//! entry larger than the whole budget is returned but never admitted, so
//! a zero budget is a deliberate cache-bypass mode (the cold benchmark
//! pass).

use crate::metrics::Histogram;
use crate::protocol::PrepTarget;
use std::collections::{hash_map, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// CSRs rebuilt from a stream for a read that needs one.
    pub materializations: u64,
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

/// The answer to a `count`: the size of the dataset's current graph and
/// its exact triangle count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountAnswer {
    /// Vertices.
    pub nodes: usize,
    /// Undirected edges.
    pub edges: usize,
    /// Exact triangle count.
    pub triangles: u64,
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
    /// Edges of the stream the state follows.
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

/// A dataset as a read finds it ([`GraphRegistry::view`]).
pub enum DatasetView<'a> {
    /// Never streamed: the raw stand-in. The view keeps no hold.
    Static(Arc<CsrGraph>),
    /// Streamed: the stream, held shared until the view drops.
    Streamed(StreamView<'a>),
}

/// A streamed dataset held shared for one read: its stream, read in
/// place, and what derives from it.
pub struct StreamView<'a> {
    ds: RwLockReadGuard<'a, DatasetState>,
    analytics_reads: &'a AtomicU64,
}

impl StreamView<'_> {
    /// The stream: its vertices, sorted neighbour lists and degrees.
    pub fn stream(&self) -> &DynamicGraph {
        self.ds
            .stream
            .as_ref()
            .expect("a streamed view has a stream")
    }

    /// The maintained analytics, built on first use.
    pub fn analytics(&self) -> &AnalyticsState {
        self.analytics_reads.fetch_add(1, Ordering::Relaxed);
        self.ds.analytics().expect("a streamed view has a stream")
    }

    /// The stream materialised as a CSR, rebuilt once per write.
    pub fn graph(&self) -> Arc<CsrGraph> {
        self.ds.graph()
    }
}

/// Everything the registry holds for one dataset apart from its
/// variants. Reads share it; a write holds it alone.
struct DatasetState {
    dataset: Dataset,
    /// The current graph: the raw stand-in, or the stream's materialised
    /// edge set. Built by the first read that needs it (later readers
    /// wait for that one); every write resets it.
    graph: OnceLock<Arc<CsrGraph>>,
    /// Times `graph` was rebuilt from the stream.
    materializations: AtomicU64,
    /// The mutable edge set, created by the first `update` or
    /// `subscribe` and never removed; the fields below describe it.
    stream: Option<DynamicGraph>,
    /// Per-batch apply latency.
    latency: Histogram,
    /// WAL sequence of the last applied batch (0 = never logged).
    applied_seq: u64,
    /// Batches applied since the last stream snapshot was enqueued;
    /// drives the auto-snapshot cadence.
    batches_since_snapshot: u64,
    /// Maintained per-vertex local triangle counts, built on the first
    /// analytics read (or subscription) and advanced in place by every
    /// later batch via the recorded-change path.
    analytics: OnceLock<AnalyticsState>,
}

impl DatasetState {
    fn new(dataset: Dataset) -> Self {
        Self {
            dataset,
            graph: OnceLock::new(),
            materializations: AtomicU64::new(0),
            stream: None,
            latency: Histogram::default(),
            applied_seq: 0,
            batches_since_snapshot: 0,
            analytics: OnceLock::new(),
        }
    }

    /// The current graph, built on first use.
    fn graph(&self) -> Arc<CsrGraph> {
        Arc::clone(self.graph.get_or_init(|| {
            Arc::new(match &self.stream {
                Some(stream) => {
                    self.materializations.fetch_add(1, Ordering::Relaxed);
                    stream.materialize()
                }
                None => tc_datasets::load(self.dataset),
            })
        }))
    }

    /// The maintained analytics, built from the current graph on first
    /// use; `None` without a stream — analytics ride the delta layer,
    /// so a static dataset has nothing to maintain.
    fn analytics(&self) -> Option<&AnalyticsState> {
        self.stream.as_ref()?;
        Some(
            self.analytics
                .get_or_init(|| with_thread_scratch(|s| AnalyticsState::build(&self.graph(), s))),
        )
    }

    /// Enqueues a snapshot of the stream at its last applied batch and
    /// restarts the snapshot cadence; `false` if there is no stream.
    fn save_stream(&mut self, store: &Store) -> bool {
        let Some(stream) = &self.stream else {
            return false;
        };
        store.save_stream(StreamRecord {
            dataset: self.dataset,
            last_seq: self.applied_seq,
            snapshot: stream.snapshot(),
        });
        self.batches_since_snapshot = 0;
        true
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
#[derive(Default)]
pub struct CachedPrep {
    /// Set by the lookup that missed; same-key lookups wait on it.
    prep: OnceLock<Arc<PreprocessResult>>,
    count: OnceLock<u64>,
}

impl CachedPrep {
    /// The preprocessed variant.
    pub fn prep(&self) -> &Arc<PreprocessResult> {
        self.prep
            .get()
            .expect("the registry hands out computed entries only")
    }

    /// Exact triangle count of the variant, computed on first use.
    pub fn triangles(&self) -> u64 {
        *self
            .count
            .get_or_init(|| tc_algos::cpu::directed_count(self.prep().directed()))
    }
}

struct Entry {
    cached: Arc<CachedPrep>,
    /// Bytes charged against the budget; `None` while the variant is
    /// still being computed. An uncharged entry is never evicted, so the
    /// lookup computing it is the one that charges or drops it.
    bytes: Option<usize>,
    /// Monotonic touch tick; smallest = least recently used.
    last_used: u64,
    /// Wall-clock of the last touch (the `stats` surface reports idle
    /// time; the tick orders evictions).
    last_used_at: Instant,
}

impl Entry {
    fn new(cached: Arc<CachedPrep>, bytes: Option<usize>, last_used: u64) -> Self {
        let last_used_at = Instant::now();
        Self {
            cached,
            bytes,
            last_used,
            last_used_at,
        }
    }
}

/// One shard's variants in LRU order.
#[derive(Default)]
struct Lru {
    entries: HashMap<PrepTarget, Entry>,
    tick: u64,
    /// The budget, the bytes charged and the counters of what happened
    /// to the variants; [`GraphRegistry::stats`] fills in the rest.
    stats: RegistryStats,
}

impl Lru {
    /// `key`'s entry, touched. A miss enters an uncharged entry, which
    /// the caller computes and then [admits](Self::admit).
    fn lookup(&mut self, key: PrepTarget) -> Arc<CachedPrep> {
        self.tick += 1;
        let tick = self.tick;
        let entry = match self.entries.entry(key) {
            hash_map::Entry::Occupied(e) => {
                self.stats.hits += 1;
                e.into_mut()
            }
            hash_map::Entry::Vacant(e) => {
                self.stats.misses += 1;
                e.insert(Entry::new(Arc::default(), None, tick))
            }
        };
        entry.last_used = tick;
        entry.last_used_at = Instant::now();
        Arc::clone(&entry.cached)
    }

    /// Charges the computed `cached` under `key`, evicting
    /// least-recently-used entries to make room; an entry larger than
    /// the whole budget is dropped instead. Returns whether it was
    /// admitted.
    fn admit(&mut self, key: PrepTarget, cached: Arc<CachedPrep>, bytes: usize) -> bool {
        self.remove(&key);
        if bytes > self.stats.budget {
            return false;
        }
        while self.stats.bytes + bytes > self.stats.budget {
            let Some(victim) = self
                .charged()
                .min_by_key(|(_, _, e)| e.last_used)
                .map(|(k, _, _)| *k)
            else {
                break;
            };
            self.remove(&victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.stats.bytes += bytes;
        let entry = Entry::new(cached, Some(bytes), self.tick);
        self.entries.insert(key, entry);
        true
    }

    /// Entries charged against the budget (computed and admitted).
    fn charged(&self) -> impl Iterator<Item = (&PrepTarget, usize, &Entry)> {
        self.entries
            .iter()
            .filter_map(|(k, e)| e.bytes.map(|b| (k, b, e)))
    }

    fn is_charged(&self, key: &PrepTarget) -> bool {
        self.entries.get(key).is_some_and(|e| e.bytes.is_some())
    }

    /// A triangle count memoised by any cached variant of `dataset`.
    /// Every variant of a graph has the same triangles, so while the
    /// dataset has no stream, and its variants all count its raw
    /// stand-in, this is the stand-in's exact count.
    fn memoised_count(&self, dataset: Dataset) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(k, _)| k.dataset == dataset)
            .find_map(|(_, e)| e.cached.count.get().copied())
    }

    /// Removes `key`'s entry and its charge.
    fn remove(&mut self, key: &PrepTarget) {
        if let Some(entry) = self.entries.remove(key) {
            self.stats.bytes -= entry.bytes.unwrap_or(0);
        }
    }

    /// Removes the entries `doomed` picks, with their charges; returns
    /// their keys.
    fn remove_where(&mut self, doomed: impl Fn(&PrepTarget, &Entry) -> bool) -> Vec<PrepTarget> {
        let keys: Vec<PrepTarget> = self
            .entries
            .iter()
            .filter(|(k, e)| doomed(k, e))
            .map(|(k, _)| *k)
            .collect();
        for key in &keys {
            self.remove(key);
        }
        keys
    }
}

/// The registry. Cheap to share behind an [`Arc`]; all methods take
/// `&self`.
pub struct GraphRegistry {
    params: ModelParams,
    /// One slot per dataset, in name order (the order every listing is
    /// reported in).
    datasets: Vec<(Dataset, RwLock<DatasetState>)>,
    lru: Mutex<Lru>,
    /// Durable home for entry snapshots and the update WAL; `None`
    /// keeps the registry purely in-memory (the historical behavior).
    persist: Option<Arc<Store>>,
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
        let mut datasets: Vec<(Dataset, RwLock<DatasetState>)> = Dataset::all()
            .into_iter()
            .map(|d| (d, RwLock::new(DatasetState::new(d))))
            .collect();
        datasets.sort_by_key(|(d, _)| d.name());
        Self {
            params,
            datasets,
            lru: Mutex::new(Lru {
                stats: RegistryStats {
                    budget: byte_budget,
                    ..RegistryStats::default()
                },
                ..Lru::default()
            }),
            persist,
            analytics_reads: AtomicU64::new(0),
        }
    }

    fn state(&self, dataset: Dataset) -> &RwLock<DatasetState> {
        let slot = self.datasets.iter().find(|(d, _)| *d == dataset);
        &slot.expect("every dataset has a slot").1
    }

    fn read(&self, dataset: Dataset) -> RwLockReadGuard<'_, DatasetState> {
        self.state(dataset).read().expect("dataset lock")
    }

    fn write(&self, dataset: Dataset) -> RwLockWriteGuard<'_, DatasetState> {
        self.state(dataset).write().expect("dataset lock")
    }

    /// `dataset` held exclusively, its stream created on first touch on
    /// the current graph, shared rather than copied. While the dataset
    /// has no stream every cached variant of it counts that graph, so a
    /// count memo of any of them seeds the stream; without one the
    /// stream counts the graph once, the last full count this dataset
    /// ever pays.
    fn write_streamed(&self, dataset: Dataset) -> RwLockWriteGuard<'_, DatasetState> {
        let mut ds = self.write(dataset);
        if ds.stream.is_none() {
            let base = ds.graph();
            ds.stream = Some(match self.lru().memoised_count(dataset) {
                Some(triangles) => DynamicGraph::with_initial_count(base, triangles),
                None => DynamicGraph::new(base),
            });
        }
        ds
    }

    fn lru(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("variant cache lock")
    }

    /// The backing store, if persistence is enabled.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.persist.as_ref()
    }

    /// Installs state recovered by [`Store::open`] before the service
    /// starts answering queries: streams, then entry snapshots, charged
    /// against the budget exactly like live admissions (oversized
    /// entries stay on disk but are not installed).
    pub fn install_recovered(&self, recovered: Recovered) {
        for rs in recovered.streams {
            let mut ds = self.write(rs.dataset);
            ds.stream = Some(rs.graph);
            ds.applied_seq = rs.applied_seq;
        }
        let mut lru = self.lru();
        for record in recovered.entries {
            let prep = Arc::new(record.prep);
            let bytes = prep.approx_bytes();
            let cached = CachedPrep {
                prep: OnceLock::from(prep),
                count: record.triangles.map_or_else(OnceLock::new, OnceLock::from),
            };
            if lru.admit(prep_target(&record.key), Arc::new(cached), bytes) {
                lru.stats.recovered_entries += 1;
            }
        }
    }

    /// The current graph for `dataset`: the streamed (mutated) edge set
    /// if an `update` ever touched this dataset, materialised (and
    /// counted) once per write, else the raw stand-in, loading (and
    /// caching) it on first use. A test and diagnostic surface: the
    /// serving path reads through [`view`](Self::view).
    pub fn graph(&self, dataset: Dataset) -> Arc<CsrGraph> {
        self.read(dataset).graph()
    }

    /// `dataset` as a read finds it, under one shared hold: the raw
    /// stand-in of a never-streamed dataset (loaded on first use, the
    /// hold already released), or the stream of a streamed one, held
    /// until the view drops, so its reads need nothing materialised.
    pub fn view(&self, dataset: Dataset) -> DatasetView<'_> {
        let ds = self.read(dataset);
        if ds.stream.is_none() {
            return DatasetView::Static(ds.graph());
        }
        DatasetView::Streamed(StreamView {
            ds,
            analytics_reads: &self.analytics_reads,
        })
    }

    /// The preprocessed variant for `key`: cached, or computed (and, if
    /// it fits the budget, admitted) on miss.
    pub fn preprocessed(&self, key: PrepTarget) -> Arc<PreprocessResult> {
        Arc::clone(self.entry(key).prep())
    }

    /// The cache entry for `key` — the preprocessed variant plus its
    /// memoised derived results ([`CachedPrep::triangles`]).
    pub fn entry(&self, key: PrepTarget) -> Arc<CachedPrep> {
        self.entry_in(&self.read(key.dataset), key)
    }

    /// [`entry`](Self::entry) while the caller holds `key`'s dataset
    /// shared, so no update lands between computing the variant and
    /// admitting it.
    fn entry_in(&self, ds: &DatasetState, key: PrepTarget) -> Arc<CachedPrep> {
        let cached = self.lru().lookup(key);
        // Outside the lock: exactly one lookup per key runs the closure;
        // the rest block on it and share the result (counted as hits —
        // they waited, not worked). Different keys preprocess in
        // parallel.
        let mut computed_here = false;
        let prep = cached.prep.get_or_init(|| {
            computed_here = true;
            Arc::new(
                Preprocessor::new()
                    .direction(key.direction)
                    .ordering(key.ordering)
                    .bucket_size(key.bucket_size)
                    .params(self.params.clone())
                    .run(&ds.graph()),
            )
        });
        let admitted = computed_here
            && self
                .lru()
                .admit(key, Arc::clone(&cached), prep.approx_bytes());
        // Snapshot the admitted variant so the next restart reads it
        // instead of recomputing. Streamed datasets are skipped: their
        // truth is the stream snapshot + WAL, and an entry variant of a
        // mutating dataset would go stale on disk.
        if let (true, Some(p), None) = (admitted, &self.persist, &ds.stream) {
            p.save_entry(
                prep_key(&key),
                Arc::clone(prep),
                cached.count.get().copied(),
            );
        }
        cached
    }

    /// The size and exact triangle count of `key`'s dataset. Every
    /// variant of a graph has the same vertices, edges and triangles, so
    /// a streamed dataset answers from its stream, which keeps all three
    /// exact under every update: no variant is looked up, built or
    /// counted. Any other dataset answers from `key`'s entry and its
    /// memo; when the memo is computed for the first time (and
    /// persistence is on), the entry snapshot is rewritten so the count
    /// survives restarts too.
    pub fn count(&self, key: PrepTarget) -> CountAnswer {
        let ds = self.read(key.dataset);
        if let Some(stream) = &ds.stream {
            return CountAnswer {
                nodes: stream.num_vertices(),
                edges: stream.num_edges(),
                triangles: stream.triangles(),
            };
        }
        let cached = self.entry_in(&ds, key);
        let had_memo = cached.count.get().is_some();
        let triangles = cached.triangles();
        if let (false, Some(p)) = (had_memo, &self.persist) {
            // A resident entry for `key` holds this very variant: the
            // dataset cannot change while `ds` is held.
            if self.contains(&key) {
                p.save_entry(prep_key(&key), Arc::clone(cached.prep()), Some(triangles));
            }
        }
        let directed = cached.prep().directed();
        CountAnswer {
            nodes: directed.num_vertices(),
            edges: directed.num_edges(),
            triangles,
        }
    }

    /// Applies one batch of edge operations to `dataset`'s dynamic
    /// graph, creating the streaming state on first touch (seeded from
    /// the current raw stand-in), then drops every derived cache for the
    /// dataset: its current graph and all its preprocessed variants.
    ///
    /// With persistence enabled the batch is WAL-logged (append +
    /// fsync) *before* it is applied, while the dataset is held
    /// exclusively — so the per-dataset log order equals the apply
    /// order, which is what makes crash replay bit-for-bit. A WAL
    /// failure rejects the batch without applying it: durability is
    /// never silently degraded.
    pub fn apply_update(&self, dataset: Dataset, ops: &[EdgeOp]) -> Result<BatchResult, String> {
        self.apply_update_watched(dataset, ops, &[])
            .map(|(result, _)| result)
    }

    /// [`apply_update`](Self::apply_update) with subscription predicates
    /// attached: each `(subscription id, predicate)` pair is observed
    /// immediately before and after the batch, while the dataset is
    /// held exclusively, so evaluation is exact — a predicate can never
    /// miss a crossing to another batch or see a torn intermediate
    /// state. The returned notifications are exactly the predicates this
    /// batch tripped, in `watchers` order.
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
        let mut ds = self.write_streamed(dataset);
        let start = Instant::now();
        let seq = match &self.persist {
            Some(p) => Some(
                p.log_batch(dataset, ops)
                    .map_err(|e| format!("update not applied, WAL append failed: {e}"))?,
            ),
            None => None,
        };
        if !watchers.is_empty() {
            // The before-observations need the state this batch starts
            // from.
            ds.analytics();
        }
        let observe = |ds: &DatasetState| -> Vec<Observed> {
            let (Some(a), Some(g)) = (ds.analytics.get(), &ds.stream) else {
                return Vec::new();
            };
            watchers.iter().map(|(_, p)| p.observe(a, g)).collect()
        };
        let before = observe(&ds);
        let DatasetState {
            stream, analytics, ..
        } = &mut *ds;
        let stream = stream.as_mut().expect("ensured above");
        let result = match analytics.get_mut() {
            Some(analytics) => {
                let (result, changes) = stream.apply_batch_recorded(ops);
                analytics.apply_changes(&changes);
                result
            }
            None => stream.apply_batch(ops),
        };
        let fired: Vec<(u64, Notification)> = watchers
            .iter()
            .zip(before.into_iter().zip(observe(&ds)))
            .filter_map(|(&(sub, p), (b, a))| p.evaluate(b, a).map(|n| (sub, n)))
            .collect();
        if let (Some(seq), Some(p)) = (seq, &self.persist) {
            ds.applied_seq = seq;
            ds.batches_since_snapshot += 1;
            if ds.batches_since_snapshot >= tc_persist::SNAPSHOT_EVERY_BATCHES {
                ds.save_stream(p);
            }
        }
        ds.latency.record(start.elapsed().as_micros() as u64);
        ds.graph.take();
        self.invalidate(dataset);
        Ok((result, fired))
    }

    /// Gives `dataset` the stream and analytics a subscription rides on,
    /// creating them on first use (a never-mutated dataset gets the
    /// delta layer too), and observes the value `predicate` watches now
    /// — the new subscription's starting point.
    pub fn watch(&self, dataset: Dataset, predicate: &Predicate) -> Observed {
        let ds = self.write_streamed(dataset);
        let analytics = ds.analytics().expect("the stream exists");
        predicate.observe(analytics, ds.stream.as_ref().expect("the stream exists"))
    }

    /// Analytics snapshot for `dataset`, if its stream carries state.
    pub fn analytics_info(&self, dataset: Dataset) -> Option<AnalyticsInfo> {
        let ds = self.read(dataset);
        let a = ds.analytics.get()?;
        let stream = ds.stream.as_ref().expect("analytics ride a stream");
        Some(AnalyticsInfo {
            dataset,
            tracked_edges: stream.num_edges(),
            triangles: a.triangles(),
            changes_applied: a.changes_applied(),
            batches_applied: a.batches_applied(),
            approx_bytes: a.approx_bytes(),
        })
    }

    /// Analytics snapshots for every dataset that carries state, ordered
    /// by dataset name (deterministic for the wire).
    pub fn analytics_infos(&self) -> Vec<AnalyticsInfo> {
        let datasets = self.datasets.iter();
        datasets
            .filter_map(|(d, _)| self.analytics_info(*d))
            .collect()
    }

    /// Snapshots every stream's current state to the store and blocks
    /// until all writes land (admin `snapshot` op and graceful drain).
    /// Returns the number of streams snapshotted.
    pub fn snapshot_now(&self) -> Result<usize, String> {
        let Some(p) = &self.persist else {
            return Err("persistence is not enabled".into());
        };
        let saved = self.datasets.iter().filter(|(_, state)| {
            let mut ds = state.write().expect("dataset lock");
            ds.save_stream(p)
        });
        let n = saved.count();
        p.flush();
        Ok(n)
    }

    /// Drops every cached variant of a mutated dataset.
    fn invalidate(&self, dataset: Dataset) {
        {
            let mut lru = self.lru();
            let stale = lru.remove_where(|k, _| k.dataset == dataset);
            lru.stats.invalidations += stale.len() as u64;
        }
        // The dataset's on-disk entry snapshots are equally stale.
        if let Some(p) = &self.persist {
            p.delete_dataset_entries(dataset);
        }
    }

    /// Streaming snapshot for `dataset`, if it has ever been updated.
    pub fn stream_info(&self, dataset: Dataset) -> Option<StreamInfo> {
        let ds = self.read(dataset);
        let stream = ds.stream.as_ref()?;
        Some(StreamInfo {
            dataset,
            nodes: stream.num_vertices(),
            edges: stream.num_edges(),
            triangles: stream.triangles(),
            delta_edges: stream.delta_edges(),
            compaction_budget: stream.compaction_policy().max_delta_edges,
            counters: stream.counters(),
            batch_p50_us: ds.latency.quantile_upper_us(0.50),
            batch_p99_us: ds.latency.quantile_upper_us(0.99),
            approx_bytes: stream.approx_bytes(),
        })
    }

    /// Streaming snapshots for every updated dataset, ordered by
    /// dataset name (deterministic for the wire).
    pub fn stream_infos(&self) -> Vec<StreamInfo> {
        let datasets = self.datasets.iter();
        datasets.filter_map(|(d, _)| self.stream_info(*d)).collect()
    }

    /// Per-entry cache description (bytes, idle time), ordered by cache
    /// key for a deterministic wire layout.
    pub fn entry_details(&self) -> Vec<EntryDetail> {
        let lru = self.lru();
        let mut details: Vec<EntryDetail> = lru
            .charged()
            .map(|(target, bytes, e)| EntryDetail {
                target: *target,
                bytes,
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
        self.lru().is_charged(key)
    }

    /// Evicts one variant; returns whether it was present. An explicit
    /// evict also deletes the entry's snapshot — unlike LRU pressure,
    /// which keeps the file so the next restart can still warm-load it.
    /// A variant still being computed is not cached yet, so it stays.
    pub fn evict(&self, key: &PrepTarget) -> bool {
        let removed = !self
            .lru()
            .remove_where(|k, e| k == key && e.bytes.is_some())
            .is_empty();
        if let (true, Some(p)) = (removed, &self.persist) {
            p.delete_entry(prep_key(key));
        }
        removed
    }

    /// Evicts every variant and every raw stand-in; returns the number of
    /// preprocessed entries dropped. Streaming state is *not* a cache —
    /// it holds mutations with no other home — so it survives a clear
    /// (and `graph` keeps reading through it).
    pub fn clear(&self) -> usize {
        let keys = self.lru().remove_where(|_, e| e.bytes.is_some());
        for (_, state) in &self.datasets {
            let mut ds = state.write().expect("dataset lock");
            if ds.stream.is_none() {
                ds.graph.take();
            }
        }
        if let Some(p) = &self.persist {
            for key in &keys {
                p.delete_entry(prep_key(key));
            }
        }
        keys.len()
    }

    /// Snapshot of the registry counters.
    pub fn stats(&self) -> RegistryStats {
        let mut stats = {
            let lru = self.lru();
            let entries = lru.charged().count();
            RegistryStats {
                entries,
                ..lru.stats
            }
        };
        for (_, state) in &self.datasets {
            let ds = state.read().expect("dataset lock");
            stats.materializations += ds.materializations.load(Ordering::Relaxed);
            match (&ds.stream, ds.analytics.get()) {
                (None, _) => stats.raw_graphs += usize::from(ds.graph.get().is_some()),
                (Some(_), None) => stats.streams += 1,
                (Some(_), Some(a)) => {
                    stats.streams += 1;
                    stats.analytics_states += 1;
                    stats.analytics_batches += a.batches_applied();
                }
            }
        }
        // A stream builds its analytics once and keeps them, so there is
        // one build per state.
        stats.analytics_builds = stats.analytics_states as u64;
        stats.analytics_reads = self.analytics_reads.load(Ordering::Relaxed);
        stats
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
    fn streamed_count_reads_the_stream_and_leaves_the_cache_alone() {
        let r = registry(usize::MAX);
        let g = r.graph(Dataset::EmailEucore);
        let (u, v) = g.edges().next().expect("graph has edges");
        let res = r
            .apply_update(Dataset::EmailEucore, &[EdgeOp::Delete(u, v)])
            .expect("update");
        let before = r.stats();
        let m = r.graph(Dataset::EmailEucore);
        for direction in DirectionScheme::all() {
            for ordering in OrderingScheme::all() {
                let k = PrepTarget {
                    direction,
                    ..key(Dataset::EmailEucore, ordering)
                };
                let count = r.count(k);
                assert_eq!(
                    count,
                    CountAnswer {
                        nodes: m.num_vertices(),
                        edges: m.num_edges(),
                        triangles: res.triangles,
                    }
                );
                assert!(!r.contains(&k), "{k:?} must not be built for a count");
            }
        }
        assert_eq!(res.triangles, tc_algos::cpu::node_iterator(&m));
        let after = r.stats();
        assert_eq!(
            (after.hits, after.misses, after.entries),
            (before.hits, before.misses, before.entries)
        );
    }

    #[test]
    fn seeded_and_unseeded_streams_start_from_the_exact_count() {
        let d = Dataset::EmailEucore;
        let exact = tc_algos::cpu::node_iterator(&tc_datasets::load(d));
        // Seeded: a variant of `d` holds its count memo.
        let seeded = registry(usize::MAX);
        assert_eq!(
            seeded.count(key(d, OrderingScheme::AOrder)).triangles,
            exact
        );
        // Unseeded twice: once with `d`'s variant cached without a memo
        // beside another dataset's memo, which must not be taken for
        // `d`'s count, and once with nothing cached.
        let foreign = registry(usize::MAX);
        foreign.count(PrepTarget {
            direction: DirectionScheme::IdBased,
            ..key(Dataset::EmailEnron, OrderingScheme::Original)
        });
        foreign.preprocessed(key(d, OrderingScheme::AOrder));
        let unseeded = registry(usize::MAX);
        for r in [&seeded, &foreign, &unseeded] {
            r.watch(d, &Predicate::CountCross { threshold: 0 });
            let info = r.stream_info(d).expect("the stream exists");
            assert_eq!(info.triangles, exact);
            let g = r.graph(d);
            let (u, v) = g.edges().next().expect("graph has edges");
            let res = r.apply_update(d, &[EdgeOp::Delete(u, v)]).expect("update");
            assert_eq!(res.triangles, tc_algos::cpu::node_iterator(&r.graph(d)));
        }
    }

    #[test]
    fn a_new_stream_shares_the_stand_in_instead_of_copying_it() {
        let r = registry(usize::MAX);
        let d = Dataset::EmailEucore;
        let stand_in = r.graph(d);
        r.watch(d, &Predicate::CountCross { threshold: 0 });
        let DatasetView::Streamed(view) = r.view(d) else {
            panic!("a watch creates the stream");
        };
        assert!(std::ptr::eq(view.stream().base(), stand_in.as_ref()));
        drop(view);
        assert_eq!(r.stats().materializations, 0);
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
            let count = r.count(a).triangles;
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
        assert_eq!(r.count(a).triangles, count_before);
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
