//! The dynamic graph: a static [`CsrGraph`] snapshot plus an overlay of
//! changed rows, with exact incremental triangle maintenance and
//! threshold-triggered compaction.

use crate::delta::DeltaAdjacency;
use std::collections::HashMap;
use std::sync::Arc;
use tc_algos::engine;
use tc_algos::intersect::merge_collect;
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
/// (`tc-analytics`) replay these to maintain per-vertex local triangle
/// counts without re-intersecting anything.
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
/// CSR, the overlay as canonical `u < v` edge pairs (its rows' diff
/// against the base), the maintained count, and the lifetime counters.
/// Restoring it ([`DynamicGraph::restore`]) reproduces the stream's
/// observable state exactly — same triangles, same effective edge set,
/// same compaction distance — which is what makes crash recovery
/// (`tc-persist`: snapshot + WAL replay) bit-for-bit comparable against
/// an unkilled replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// The base CSR as of the last compaction, shared with the stream:
    /// a base is never changed in place (a compaction installs a new
    /// one), so the snapshot needs no copy of it.
    pub base: Arc<CsrGraph>,
    /// Edges present now but absent from the base, sorted, `u < v`.
    pub adds: Vec<(VertexId, VertexId)>,
    /// Base edges deleted since, sorted, `u < v`.
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
/// The representation is a static [`CsrGraph`] plus an overlay holding
/// the whole current row of every changed vertex, so every
/// neighbourhood is a sorted slice and per-update work is one
/// intersection of the two endpoints' rows — the same `|N(u) ∩ N(v)|`
/// primitive the paper's kernels evaluate per directed edge, here
/// evaluated once per *changed* edge instead of once per edge of the
/// whole graph.
///
/// When a batch leaves the overlay over
/// [`CompactionPolicy::max_delta_edges`], that same batch folds the
/// current rows into a fresh base CSR before it returns, so the
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
    /// The current rows of the vertices changed since then.
    delta: DeltaAdjacency,
    /// Maintained exact triangle count of `base` + `delta`.
    triangles: u64,
    /// Maintained undirected edge count of `base` + `delta`.
    num_edges: usize,
    policy: CompactionPolicy,
    counters: StreamCounters,
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

    /// Sorted current neighbourhood of `u`: its overlay row if it has
    /// changed since the base, its base row otherwise.
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        self.delta.row(u).unwrap_or_else(|| self.base.neighbors(u))
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

        // Apply in edge order, intersecting before the edge flips: the
        // edge {u, v} itself never appears in N(u) ∩ N(v), so the
        // intersection is the exact triangle delta of an insert and of a
        // delete alike.
        let mut inserted = 0usize;
        let mut deleted = 0usize;
        let mut noops = 0usize;
        let mut tri_delta = 0i64;
        for ((u, v), is_insert) in surviving {
            let (a, b) = (self.neighbors(u), self.neighbors(v));
            if a.binary_search(&v).is_ok() == is_insert {
                noops += 1;
                continue;
            }
            let closed = match record.as_deref_mut() {
                Some(out) => {
                    let mut wedges = Vec::new();
                    merge_collect(a, b, &mut wedges);
                    let closed = wedges.len() as i64;
                    out.push(EdgeChange {
                        u,
                        v,
                        inserted: is_insert,
                        wedges,
                    });
                    closed
                }
                None => engine::intersect_count(a, b) as i64,
            };
            self.delta.toggle(&self.base, u, v);
            if is_insert {
                tri_delta += closed;
                self.num_edges += 1;
                inserted += 1;
            } else {
                tri_delta -= closed;
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
    /// [`StreamSnapshot`]: the overlay rows go out as their diff against
    /// the base.
    pub fn snapshot(&self) -> StreamSnapshot {
        let (adds, dels) = self.delta.diff(&self.base);
        StreamSnapshot {
            base: Arc::clone(&self.base),
            adds,
            dels,
            triangles: self.triangles,
            num_edges: self.num_edges,
            max_delta_edges: self.policy.max_delta_edges,
            counters: self.counters,
        }
    }

    /// Rebuilds a stream from a [`StreamSnapshot`], validating overlay
    /// consistency against the base (adds must be absent from it, dels
    /// present in it, endpoints in range, each list strictly ascending,
    /// edge count reconciling). The result behaves identically to the
    /// snapshotted instance under any further batch sequence.
    pub fn restore(snap: StreamSnapshot) -> Result<Self, String> {
        let n = snap.base.num_vertices() as u64;
        let mut delta = DeltaAdjacency::new();
        for (kind, pairs, in_base) in [("add", &snap.adds, false), ("del", &snap.dels, true)] {
            // A repeated pair would toggle its edge back out while still
            // counting towards `num_edges`.
            if let Some(w) = pairs.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "snapshot {kind} edges {:?}, {:?} are not strictly ascending",
                    w[0], w[1]
                ));
            }
            for &(u, v) in pairs {
                if u >= v || v as u64 >= n {
                    return Err(format!(
                        "snapshot {kind} edge ({u}, {v}) is not canonical in-range"
                    ));
                }
                if snap.base.has_edge(u, v) != in_base {
                    let why = if in_base { "not in" } else { "already in" };
                    return Err(format!("snapshot {kind} edge ({u}, {v}) {why} base"));
                }
                delta.toggle(&snap.base, u, v);
            }
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
        })
    }

    /// Builds the current graph as a standalone CSR (the stream itself
    /// is unchanged). Every row is already a sorted slice, so assembly
    /// goes through `csr_from_sorted_lists` — offsets from the row
    /// lengths, then one copy per row — with no sort and no
    /// `GraphBuilder`.
    pub fn materialize(&self) -> CsrGraph {
        csr_from_sorted_lists(self.num_vertices(), |u| self.neighbors(u))
    }
}

/// The current graph read in place through its rows, so the per-vertex
/// applications need no [`materialize`](DynamicGraph::materialize).
impl Adjacency for DynamicGraph {
    fn num_vertices(&self) -> usize {
        DynamicGraph::num_vertices(self)
    }

    fn neighbors(&self, u: VertexId) -> &[VertexId] {
        DynamicGraph::neighbors(self, u)
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
    fn restore_rejects_pair_lists_that_are_not_strictly_ascending() {
        let mut g = DynamicGraph::new(path4());
        g.apply_batch(&[
            EdgeOp::Insert(0, 2),
            EdgeOp::Insert(1, 3),
            EdgeOp::Delete(0, 1),
        ]);
        let snap = g.snapshot();
        assert_eq!(
            (snap.adds.as_slice(), snap.dels.as_slice()),
            (&[(0, 2), (1, 3)][..], &[(0, 1)][..])
        );
        let restored = DynamicGraph::restore(snap.clone()).expect("restore");
        assert_eq!(restored.num_edges(), restored.materialize().num_edges());

        // The add listed twice, with the count raised to reconcile: the
        // second copy would toggle the edge back out.
        let mut bad = DynamicGraph::new(path4()).snapshot();
        bad.adds = vec![(0, 2), (0, 2)];
        bad.num_edges += 2;
        assert!(DynamicGraph::restore(bad).is_err());

        let mut bad = snap.clone();
        bad.adds.reverse();
        assert!(DynamicGraph::restore(bad).is_err());

        let mut bad = snap.clone();
        bad.dels = vec![(0, 1), (0, 1)];
        bad.num_edges -= 1;
        assert!(DynamicGraph::restore(bad).is_err());

        let mut bad = snap;
        bad.dels = vec![(2, 3), (1, 2)];
        bad.num_edges -= 1;
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
