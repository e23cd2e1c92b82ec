//! The dynamic graph: a static [`CsrGraph`] snapshot plus a
//! [`DeltaAdjacency`] overlay, with exact incremental triangle
//! maintenance and threshold-triggered compaction.

use crate::delta::{DeltaAdjacency, Layer};
use std::collections::HashMap;
use std::sync::Arc;
use tc_algos::engine::{self, Scratch};
use tc_graph::layered::{merge_intersection_count, LayeredNeighbors};
use tc_graph::{csr_from_sorted_lists, Adjacency, CsrGraph, VertexId};

/// One streamed edge operation, in the original (pre-relabelling) id
/// space. Endpoint order does not matter; self-loops and out-of-range
/// endpoints are rejected at application time, mirroring what
/// [`tc_graph::GraphBuilder`] drops at ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert the undirected edge `{u, v}` (no-op if present).
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `{u, v}` (no-op if absent).
    Delete(VertexId, VertexId),
}

impl EdgeOp {
    /// The endpoints, in the order given.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
        }
    }

    /// Whether this is an insert.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }
}

/// One committed change from a recorded batch
/// ([`DynamicGraph::apply_batch_recorded`]): the canonical edge, the
/// direction of the change, and the common neighbourhood `N(u) ∩ N(v)`
/// at the moment the change applied — exactly the triangles the change
/// closed (insert) or opened (delete). Downstream incremental analytics
/// (`tc-analytics`) replay these to maintain per-edge support and
/// per-vertex local triangle counts without re-intersecting anything.
///
/// Changes are emitted in the same ascending `(u, v)` order they were
/// applied in, so replaying them sequentially against a copy of the
/// pre-batch state reproduces the post-batch state exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeChange {
    /// Smaller endpoint (canonical `u < v`).
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// `true` for an applied insert, `false` for an applied delete.
    pub inserted: bool,
    /// Sorted common neighbours of `u` and `v` at change time. The edge
    /// itself never appears; the length is the magnitude of the
    /// triangle-count delta this change caused.
    pub wedges: Vec<VertexId>,
}

/// When the delta overlay must be folded into a fresh base CSR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once more than this many edges diverge from the base.
    pub max_delta_edges: usize,
}

impl CompactionPolicy {
    /// The default budget for a given base: an eighth of its edges, with
    /// a floor of 256 so tiny graphs do not thrash. Keeping the overlay
    /// a bounded fraction of `|E|` bounds both per-update overhead (the
    /// overlay lists stay short) and compaction frequency (amortised
    /// `O(1/8)` rebuilds per delta edge).
    pub fn for_graph(g: &CsrGraph) -> Self {
        Self {
            max_delta_edges: (g.num_edges() / 8).max(256),
        }
    }

    /// A fixed budget.
    pub fn with_budget(max_delta_edges: usize) -> Self {
        Self {
            max_delta_edges: max_delta_edges.max(1),
        }
    }
}

/// Lifetime counters of one dynamic graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Batches applied.
    pub batches: u64,
    /// Edge inserts that changed the graph.
    pub inserts: u64,
    /// Edge deletes that changed the graph.
    pub deletes: u64,
    /// Operations that were valid but changed nothing (insert of a
    /// present edge, delete of an absent one).
    pub noops: u64,
    /// Operations rejected outright (self-loops, out-of-range vertices).
    pub rejected: u64,
    /// Operations superseded by a later op on the same edge in the same
    /// batch (last-wins dedup).
    pub superseded: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// Outcome of one [`DynamicGraph::apply_batch`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchResult {
    /// Inserts applied (graph changed).
    pub inserted: usize,
    /// Deletes applied (graph changed).
    pub deleted: usize,
    /// Valid no-op operations.
    pub noops: usize,
    /// Rejected operations (self-loop or out-of-range endpoint).
    pub rejected: usize,
    /// Operations dropped by last-wins dedup within the batch.
    pub superseded: usize,
    /// Signed triangle-count change this batch caused.
    pub triangles_delta: i64,
    /// Exact triangle count after the batch.
    pub triangles: u64,
    /// Whether this batch pushed the overlay past the budget and folded
    /// it into a fresh base.
    pub compacted: bool,
    /// Delta-overlay size after the batch (0 right after a compaction).
    pub delta_edges: usize,
}

/// A point-in-time, serializable image of a [`DynamicGraph`]: the base
/// CSR, the overlay as canonical `u < v` edge pairs, the maintained
/// count, and the lifetime counters. Restoring it
/// ([`DynamicGraph::restore`]) reproduces the stream's observable state
/// exactly — same triangles, same effective edge set, same compaction
/// distance — which is what makes crash recovery (`tc-persist`: snapshot
/// + WAL replay) bit-for-bit comparable against an unkilled replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// The base CSR as of the last compaction, shared with the stream:
    /// a base is never changed in place (a compaction installs a new
    /// one), so the snapshot needs no copy of it.
    pub base: Arc<CsrGraph>,
    /// `add`-overlay edges, sorted, `u < v`.
    pub adds: Vec<(VertexId, VertexId)>,
    /// `del`-overlay edges, sorted, `u < v`.
    pub dels: Vec<(VertexId, VertexId)>,
    /// Maintained exact triangle count.
    pub triangles: u64,
    /// Current undirected edge count.
    pub num_edges: usize,
    /// The compaction budget in force (set at construction from the
    /// *initial* base, so it must travel with the snapshot).
    pub max_delta_edges: usize,
    /// Lifetime operation counters.
    pub counters: StreamCounters,
}

/// An undirected simple graph under a stream of edge inserts/deletes,
/// maintaining its exact triangle count incrementally.
///
/// The representation is a static [`CsrGraph`] plus a sorted
/// insert/delete overlay ([`DeltaAdjacency`]); neighbourhoods are read
/// through [`LayeredNeighbors`] so per-update work is one
/// merge-intersection of the two endpoints' effective adjacency lists —
/// the same `|N(u) ∩ N(v)|` primitive the paper's kernels evaluate per
/// directed edge, here evaluated once per *changed* edge instead of once
/// per edge of the whole graph.
///
/// When a batch leaves the overlay over
/// [`CompactionPolicy::max_delta_edges`], that same batch folds the
/// layered view into a fresh base CSR before it returns, so the
/// base/overlay split is a function of the batches alone. Preprocessed
/// variants are not kept here: the `tc-service` registry drops a
/// streamed dataset's variants on every update and recomputes them from
/// [`materialize`](DynamicGraph::materialize) on demand.
///
/// # Determinism
///
/// [`apply_batch`](DynamicGraph::apply_batch) is a pure function of
/// (current state, batch): operations are normalized (`u > v`
/// swapped), deduplicated last-wins per edge, then applied in ascending
/// `(u, v)` order. Two replicas that apply the same batches in the same
/// order hold identical graphs and counts regardless of thread count or
/// wall-clock — the differential suite enforces this.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    /// The base CSR as of the last compaction. Never changed in place:
    /// a compaction installs a new one, so clones and snapshots share it.
    base: Arc<CsrGraph>,
    /// Edges inserted into or deleted from `base` since then.
    delta: DeltaAdjacency,
    /// Maintained exact triangle count of `base` + `delta`.
    triangles: u64,
    /// Maintained undirected edge count of `base` + `delta`.
    num_edges: usize,
    policy: CompactionPolicy,
    counters: StreamCounters,
    /// Reusable intersection working memory for the per-edge counting
    /// path (pure cache; cloning a `DynamicGraph` starts it cold).
    scratch: Scratch,
}

impl DynamicGraph {
    /// Wraps a base graph, computing its initial triangle count with the
    /// CPU forward counter. A base passed as an `Arc` is shared, not
    /// copied: the stream never changes it in place.
    pub fn new(base: impl Into<Arc<CsrGraph>>) -> Self {
        let base = base.into();
        let count = tc_algos::cpu::forward(&base);
        Self::with_initial_count(base, count)
    }

    /// Wraps a base graph whose exact triangle count is already known
    /// (e.g. memoised by a cache layer). Supplying a wrong count poisons
    /// every later delta.
    pub fn with_initial_count(base: impl Into<Arc<CsrGraph>>, triangles: u64) -> Self {
        let base = base.into();
        let policy = CompactionPolicy::for_graph(&base);
        let num_edges = base.num_edges();
        Self {
            base,
            delta: DeltaAdjacency::new(),
            triangles,
            num_edges,
            policy,
            counters: StreamCounters::default(),
            scratch: Scratch::new(),
        }
    }

    /// Overrides the compaction policy.
    pub fn policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of vertices (fixed for the stream's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Current number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Exact triangle count of the current graph.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Edges diverging from the base snapshot.
    pub fn delta_edges(&self) -> usize {
        self.delta.len()
    }

    /// The compaction policy in force.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Lifetime counters.
    pub fn counters(&self) -> StreamCounters {
        self.counters
    }

    /// The base snapshot (current as of the last compaction).
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Approximate resident bytes: base CSR plus overlay.
    pub fn approx_bytes(&self) -> usize {
        self.base.approx_bytes() + self.delta.approx_bytes()
    }

    /// Sorted effective neighbourhood of `u`.
    pub fn neighbors(&self, u: VertexId) -> LayeredNeighbors<'_> {
        LayeredNeighbors::new(
            self.base.neighbors(u),
            self.delta.adds_of(u),
            self.delta.dels_of(u),
        )
    }

    /// Effective degree of `u`.
    pub fn degree(&self, u: VertexId) -> usize {
        self.neighbors(u).len()
    }

    /// Whether the edge `{u, v}` currently exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.delta.layer_of(u, v) {
            Some(Layer::Add) => true,
            Some(Layer::Del) => false,
            None => self.base.has_edge(u, v),
        }
    }

    /// `|N(u) ∩ N(v)|` over the layered adjacency — the number of
    /// triangles the edge `{u, v}` participates in (whether or not the
    /// edge itself exists).
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> u64 {
        merge_intersection_count(self.neighbors(u), self.neighbors(v))
    }

    /// [`common_neighbors`](DynamicGraph::common_neighbors) through the
    /// adaptive engine and this graph's own scratch — the batch-apply
    /// hot path. Rows untouched by the overlay (the common case: the
    /// overlay holds only recently-changed edges) intersect directly on
    /// the base CSR slices with no staging copy; layered rows are staged
    /// into the scratch's reusable buffers first.
    fn common_neighbors_fast(&mut self, u: VertexId, v: VertexId) -> u64 {
        let plain_u = self.delta.adds_of(u).is_empty() && self.delta.dels_of(u).is_empty();
        let plain_v = self.delta.adds_of(v).is_empty() && self.delta.dels_of(v).is_empty();
        if plain_u && plain_v {
            return engine::intersect_count(self.base.neighbors(u), self.base.neighbors(v));
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let count = scratch.intersect_iters(self.neighbors(u), self.neighbors(v));
        self.scratch = scratch;
        count
    }

    /// Like [`common_neighbors_fast`](Self::common_neighbors_fast), but
    /// collecting the common neighbours instead of only counting them —
    /// the recorded-batch path, where the wedge set itself is the
    /// payload of an [`EdgeChange`].
    fn common_neighbors_collect(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let plain_u = self.delta.adds_of(u).is_empty() && self.delta.dels_of(u).is_empty();
        let plain_v = self.delta.adds_of(v).is_empty() && self.delta.dels_of(v).is_empty();
        if plain_u && plain_v {
            tc_algos::intersect::merge_collect(
                self.base.neighbors(u),
                self.base.neighbors(v),
                &mut out,
            );
        } else {
            let mut a = self.neighbors(u);
            let mut b = self.neighbors(v);
            let mut x = a.next();
            let mut y = b.next();
            while let (Some(p), Some(q)) = (x, y) {
                match p.cmp(&q) {
                    std::cmp::Ordering::Less => x = a.next(),
                    std::cmp::Ordering::Greater => y = b.next(),
                    std::cmp::Ordering::Equal => {
                        out.push(p);
                        x = a.next();
                        y = b.next();
                    }
                }
            }
        }
        out
    }

    /// Applies one batch of edge operations atomically and
    /// deterministically; returns the batch outcome (including the new
    /// exact triangle count).
    ///
    /// Within a batch, later operations on the same edge supersede
    /// earlier ones (the surviving set is applied in ascending edge
    /// order), so the result depends only on the batch *content*, never
    /// on scheduling.
    pub fn apply_batch(&mut self, ops: &[EdgeOp]) -> BatchResult {
        self.apply_batch_inner(ops, None)
    }

    /// [`apply_batch`](DynamicGraph::apply_batch), additionally
    /// returning one [`EdgeChange`] per committed change (in application
    /// order) with the wedge set each change closed or opened. This is
    /// the change hook incremental analytics ride; the unrecorded path
    /// stays allocation-free per edge.
    pub fn apply_batch_recorded(&mut self, ops: &[EdgeOp]) -> (BatchResult, Vec<EdgeChange>) {
        let mut changes = Vec::new();
        let result = self.apply_batch_inner(ops, Some(&mut changes));
        (result, changes)
    }

    fn apply_batch_inner(
        &mut self,
        ops: &[EdgeOp],
        mut record: Option<&mut Vec<EdgeChange>>,
    ) -> BatchResult {
        let n = self.num_vertices() as u64;
        let mut rejected = 0usize;

        // Normalize and dedup last-wins: the surviving op per edge is the
        // batch's final intent for that edge.
        let mut last: HashMap<(VertexId, VertexId), bool> = HashMap::new();
        let mut total_valid = 0usize;
        for op in ops {
            let (a, b) = op.endpoints();
            if a == b || a as u64 >= n || b as u64 >= n {
                rejected += 1;
                continue;
            }
            total_valid += 1;
            let key = if a < b { (a, b) } else { (b, a) };
            last.insert(key, op.is_insert());
        }
        let superseded = total_valid - last.len();
        let mut surviving: Vec<((VertexId, VertexId), bool)> = last.into_iter().collect();
        surviving.sort_unstable();

        // Apply in edge order, updating the count *before* mutating on
        // insert and after reading on delete — either way the edge
        // {u, v} itself never appears in N(u) ∩ N(v), so the
        // merge-intersection is the exact triangle delta.
        let mut inserted = 0usize;
        let mut deleted = 0usize;
        let mut noops = 0usize;
        let mut tri_delta = 0i64;
        for ((u, v), is_insert) in surviving {
            let layer = self.delta.layer_of(u, v);
            let present = match layer {
                Some(Layer::Add) => true,
                Some(Layer::Del) => false,
                None => self.base.has_edge(u, v),
            };
            if is_insert {
                if present {
                    noops += 1;
                    continue;
                }
                match record.as_deref_mut() {
                    Some(out) => {
                        let wedges = self.common_neighbors_collect(u, v);
                        tri_delta += wedges.len() as i64;
                        out.push(EdgeChange {
                            u,
                            v,
                            inserted: true,
                            wedges,
                        });
                    }
                    None => tri_delta += self.common_neighbors_fast(u, v) as i64,
                }
                self.delta
                    .record_insert(u, v, matches!(layer, Some(Layer::Del)));
                self.num_edges += 1;
                inserted += 1;
            } else {
                if !present {
                    noops += 1;
                    continue;
                }
                match record.as_deref_mut() {
                    Some(out) => {
                        let wedges = self.common_neighbors_collect(u, v);
                        tri_delta -= wedges.len() as i64;
                        out.push(EdgeChange {
                            u,
                            v,
                            inserted: false,
                            wedges,
                        });
                    }
                    None => tri_delta -= self.common_neighbors_fast(u, v) as i64,
                }
                self.delta.record_delete(u, v, layer.is_none());
                self.num_edges -= 1;
                deleted += 1;
            }
        }
        self.triangles = (self.triangles as i64 + tri_delta) as u64;

        // Fold here, in the batch that crossed the budget, so every
        // replica of the stream — live, replayed or restored — splits
        // base and overlay at the same batch.
        let compacted = self.delta.len() > self.policy.max_delta_edges;
        if compacted {
            self.base = Arc::new(self.materialize());
            self.delta.clear();
            self.counters.compactions += 1;
        }

        self.counters.batches += 1;
        self.counters.inserts += inserted as u64;
        self.counters.deletes += deleted as u64;
        self.counters.noops += noops as u64;
        self.counters.rejected += rejected as u64;
        self.counters.superseded += superseded as u64;

        BatchResult {
            inserted,
            deleted,
            noops,
            rejected,
            superseded,
            triangles_delta: tri_delta,
            triangles: self.triangles,
            compacted,
            delta_edges: self.delta.len(),
        }
    }

    /// Captures this stream's observable state as a serializable
    /// [`StreamSnapshot`]. The scratch cache is deliberately excluded:
    /// it is a pure cache.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            base: Arc::clone(&self.base),
            adds: self.delta.add_edge_pairs(),
            dels: self.delta.del_edge_pairs(),
            triangles: self.triangles,
            num_edges: self.num_edges,
            max_delta_edges: self.policy.max_delta_edges,
            counters: self.counters,
        }
    }

    /// Rebuilds a stream from a [`StreamSnapshot`], validating overlay
    /// consistency against the base (adds must be absent from it, dels
    /// present in it, endpoints in range, edge count reconciling).
    /// The result behaves identically to the snapshotted instance under
    /// any further batch sequence.
    pub fn restore(snap: StreamSnapshot) -> Result<Self, String> {
        let n = snap.base.num_vertices() as u64;
        let mut delta = DeltaAdjacency::new();
        for &(u, v) in &snap.adds {
            if u >= v || v as u64 >= n {
                return Err(format!(
                    "snapshot add edge ({u}, {v}) is not canonical in-range"
                ));
            }
            if snap.base.has_edge(u, v) {
                return Err(format!("snapshot add edge ({u}, {v}) already in base"));
            }
            delta.record_insert(u, v, false);
        }
        for &(u, v) in &snap.dels {
            if u >= v || v as u64 >= n {
                return Err(format!(
                    "snapshot del edge ({u}, {v}) is not canonical in-range"
                ));
            }
            if !snap.base.has_edge(u, v) {
                return Err(format!("snapshot del edge ({u}, {v}) not in base"));
            }
            delta.record_delete(u, v, true);
        }
        let expect_edges = snap.base.num_edges() + snap.adds.len() - snap.dels.len();
        if expect_edges != snap.num_edges {
            return Err(format!(
                "snapshot edge count {} does not reconcile with base {} + adds {} - dels {}",
                snap.num_edges,
                snap.base.num_edges(),
                snap.adds.len(),
                snap.dels.len()
            ));
        }
        Ok(Self {
            base: snap.base,
            delta,
            triangles: snap.triangles,
            num_edges: snap.num_edges,
            policy: CompactionPolicy::with_budget(snap.max_delta_edges),
            counters: snap.counters,
            scratch: Scratch::new(),
        })
    }

    /// Builds the current effective graph as a standalone CSR (the
    /// stream itself is unchanged). The layered rows are already sorted
    /// and sized in `O(1)` (`LayeredNeighbors::len`), so assembly goes
    /// through `csr_from_sorted_lists` — offsets from the exact lengths,
    /// then a single fill — with no sort and no `GraphBuilder`.
    pub fn materialize(&self) -> CsrGraph {
        csr_from_sorted_lists(self.num_vertices(), |u| self.neighbors(u))
    }
}

/// The current graph read in place through its layered rows, so the
/// per-vertex applications need no [`materialize`](DynamicGraph::materialize).
impl Adjacency for DynamicGraph {
    fn num_vertices(&self) -> usize {
        DynamicGraph::num_vertices(self)
    }

    fn degree(&self, u: VertexId) -> usize {
        DynamicGraph::degree(self, u)
    }

    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        DynamicGraph::neighbors(self, u)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        DynamicGraph::has_edge(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_algos::cpu;
    use tc_graph::GraphBuilder;

    fn path4() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn insert_closes_triangles() {
        let mut g = DynamicGraph::new(path4());
        assert_eq!(g.triangles(), 0);
        let r = g.apply_batch(&[EdgeOp::Insert(0, 2)]);
        assert_eq!(r.inserted, 1);
        assert_eq!(r.triangles_delta, 1);
        assert_eq!(g.triangles(), 1);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 2));

        // Completing K4 one edge at a time.
        let r = g.apply_batch(&[EdgeOp::Insert(3, 0)]);
        assert_eq!(r.triangles_delta, 1, "0-3 closes 0-2-3");
        let r = g.apply_batch(&[EdgeOp::Insert(1, 3)]);
        assert_eq!(r.triangles_delta, 2, "1-3 closes 0-1-3 and 1-2-3");
        assert_eq!(g.triangles(), 4, "K4 has four triangles");
    }

    #[test]
    fn delete_reopens_triangles() {
        let g0 = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).build();
        let mut g = DynamicGraph::new(g0);
        assert_eq!(g.triangles(), 1);
        let r = g.apply_batch(&[EdgeOp::Delete(2, 0)]);
        assert_eq!(r.deleted, 1);
        assert_eq!(r.triangles_delta, -1);
        assert_eq!(g.triangles(), 0);
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_and_noops_are_classified() {
        let mut g = DynamicGraph::new(path4());
        let r = g.apply_batch(&[
            EdgeOp::Insert(1, 1),  // self-loop
            EdgeOp::Insert(0, 99), // out of range
            EdgeOp::Insert(0, 1),  // already present
            EdgeOp::Delete(0, 3),  // already absent
            EdgeOp::Insert(0, 2),  // real insert
        ]);
        assert_eq!((r.rejected, r.noops, r.inserted, r.deleted), (2, 2, 1, 0));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn last_wins_dedup_within_a_batch() {
        let mut g = DynamicGraph::new(path4());
        // Insert then delete the same edge: final intent is delete of an
        // absent edge — a no-op, graph unchanged.
        let r = g.apply_batch(&[EdgeOp::Insert(0, 2), EdgeOp::Delete(2, 0)]);
        assert_eq!((r.inserted, r.deleted, r.noops, r.superseded), (0, 0, 1, 1));
        assert_eq!(g.num_edges(), 3);
        assert!(!g.has_edge(0, 2));

        // Delete an existing edge then re-insert it: net no-op.
        let r = g.apply_batch(&[EdgeOp::Delete(0, 1), EdgeOp::Insert(1, 0)]);
        assert_eq!((r.noops, r.superseded), (1, 1));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn batch_result_is_independent_of_op_order() {
        let ops_a = [
            EdgeOp::Insert(0, 2),
            EdgeOp::Insert(1, 3),
            EdgeOp::Delete(1, 2),
        ];
        let ops_b = [
            EdgeOp::Delete(1, 2),
            EdgeOp::Insert(1, 3),
            EdgeOp::Insert(0, 2),
        ];
        let mut ga = DynamicGraph::new(path4());
        let mut gb = DynamicGraph::new(path4());
        let ra = ga.apply_batch(&ops_a);
        let rb = gb.apply_batch(&ops_b);
        assert_eq!(ra, rb, "distinct-edge batches commute");
        assert_eq!(ga.materialize(), gb.materialize());
    }

    #[test]
    fn compaction_folds_and_preserves_everything() {
        let base = path4();
        let mut g = DynamicGraph::new(base).policy(CompactionPolicy::with_budget(2));

        let r = g.apply_batch(&[
            EdgeOp::Insert(0, 2),
            EdgeOp::Insert(1, 3),
            EdgeOp::Insert(0, 3),
        ]);
        assert!(r.compacted, "3 delta edges > budget 2");
        assert_eq!(r.delta_edges, 0);
        assert_eq!(g.counters().compactions, 1);
        assert_eq!(g.base().num_edges(), 6);
        assert_eq!(g.triangles(), cpu::node_iterator(g.base()));
    }

    #[test]
    fn snapshot_restore_round_trips_state_and_behavior() {
        let mut g = DynamicGraph::new(path4()).policy(CompactionPolicy::with_budget(5));
        g.apply_batch(&[
            EdgeOp::Insert(0, 2),
            EdgeOp::Delete(2, 3),
            EdgeOp::Insert(1, 1),
        ]);

        let snap = g.snapshot();
        assert_eq!(snap.adds, vec![(0, 2)]);
        assert_eq!(snap.dels, vec![(2, 3)]);
        assert_eq!(snap.max_delta_edges, 5);

        let mut r = DynamicGraph::restore(snap.clone()).expect("restore");
        assert_eq!(r.triangles(), g.triangles());
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.delta_edges(), g.delta_edges());
        assert_eq!(r.counters(), g.counters());
        assert_eq!(r.materialize(), g.materialize());
        assert_eq!(r.snapshot(), snap, "snapshot of a restore is idempotent");

        // Identical behavior under further batches, including the
        // compaction trigger point (same budget, same delta distance).
        let ops = [
            EdgeOp::Insert(1, 3),
            EdgeOp::Insert(0, 3),
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(2, 3),
        ];
        for chunk in ops.chunks(2) {
            assert_eq!(g.apply_batch(chunk), r.apply_batch(chunk));
        }
        assert_eq!(g.snapshot(), r.snapshot());
    }

    #[test]
    fn snapshot_shares_the_base_instead_of_copying_it() {
        let mut g = DynamicGraph::new(path4()).policy(CompactionPolicy::with_budget(2));
        g.apply_batch(&[EdgeOp::Insert(0, 2)]);
        assert!(std::ptr::eq(g.snapshot().base.as_ref(), g.base()));
        let r = DynamicGraph::restore(g.snapshot()).expect("restore");
        assert!(std::ptr::eq(r.base(), g.base()), "restore keeps the Arc");

        // A fold installs a new base; the old snapshot keeps the old one.
        let before = g.snapshot();
        let r = g.apply_batch(&[EdgeOp::Insert(1, 3), EdgeOp::Insert(0, 3)]);
        assert!(r.compacted);
        assert!(!std::ptr::eq(before.base.as_ref(), g.base()));
        assert_eq!(before.base.num_edges(), 3);
        assert!(std::ptr::eq(g.snapshot().base.as_ref(), g.base()));
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let g = DynamicGraph::new(path4());
        let mut bad = g.snapshot();
        bad.adds.push((0, 1)); // already a base edge
        assert!(DynamicGraph::restore(bad).is_err());

        let mut bad = g.snapshot();
        bad.dels.push((0, 3)); // not a base edge
        assert!(DynamicGraph::restore(bad).is_err());

        let mut bad = g.snapshot();
        bad.num_edges += 1; // fails reconciliation
        assert!(DynamicGraph::restore(bad).is_err());

        let mut bad = g.snapshot();
        bad.adds.push((2, 0)); // not canonical u < v
        assert!(DynamicGraph::restore(bad).is_err());
    }

    #[test]
    fn recorded_batch_matches_plain_and_reports_wedges() {
        let base = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]).build();
        let ops = [
            EdgeOp::Insert(0, 2), // closes 0-1-2 and 0-2-3
            EdgeOp::Delete(1, 3), // reopens 0-1-3? no: 1-3 was in 1-2-3 and 0-1-3
            EdgeOp::Insert(2, 4), // isolated endpoint 4: no wedges
        ];
        let mut plain = DynamicGraph::new(base.clone());
        let mut recorded = DynamicGraph::new(base);
        let rp = plain.apply_batch(&ops);
        let (rr, changes) = recorded.apply_batch_recorded(&ops);
        assert_eq!(rp, rr, "recorded path must not change batch semantics");
        assert_eq!(plain.materialize(), recorded.materialize());

        // Ascending edge order: (0,2), (1,3), (2,4).
        assert_eq!(changes.len(), 3);
        assert_eq!(
            (changes[0].u, changes[0].v, changes[0].inserted),
            (0, 2, true)
        );
        assert_eq!(changes[0].wedges, vec![1, 3]);
        assert_eq!(
            (changes[1].u, changes[1].v, changes[1].inserted),
            (1, 3, false)
        );
        // At delete time edge (0,2) exists, so 1-3's common set is {0, 2}.
        assert_eq!(changes[1].wedges, vec![0, 2]);
        assert_eq!(
            (changes[2].u, changes[2].v, changes[2].inserted),
            (2, 4, true)
        );
        assert!(changes[2].wedges.is_empty());

        let net: i64 = changes
            .iter()
            .map(|c| {
                let w = c.wedges.len() as i64;
                if c.inserted {
                    w
                } else {
                    -w
                }
            })
            .sum();
        assert_eq!(net, rr.triangles_delta);
    }

    #[test]
    fn noops_and_rejects_emit_no_changes() {
        let mut g = DynamicGraph::new(path4());
        let (r, changes) = g.apply_batch_recorded(&[
            EdgeOp::Insert(0, 1),  // present: noop
            EdgeOp::Delete(0, 2),  // absent: noop
            EdgeOp::Insert(1, 1),  // rejected
            EdgeOp::Insert(0, 99), // rejected
        ]);
        assert_eq!((r.noops, r.rejected), (2, 2));
        assert!(changes.is_empty());
    }

    #[test]
    fn materialize_matches_rebuilt_graph() {
        let mut g = DynamicGraph::new(path4());
        g.apply_batch(&[EdgeOp::Insert(0, 2), EdgeOp::Delete(2, 3)]);
        let m = g.materialize();
        assert!(m.validate().is_ok());
        let rebuilt = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2)]).build();
        assert_eq!(m, rebuilt);
        assert_eq!(g.triangles(), cpu::node_iterator(&m));
    }
}
