//! The maintained analytics state: exact per-edge support and per-vertex
//! local triangle counts, updated in `O(wedges)` per committed change.

use std::collections::HashMap;
use tc_algos::engine::{self, Scratch};
use tc_graph::{degree_rank, orient_by_rank, CsrGraph, VertexId};
use tc_stream::EdgeChange;

/// Canonical `u < v` key for an undirected edge.
#[inline]
fn key(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Exact per-edge support and per-vertex local triangle counts of a
/// dynamic graph, maintained incrementally from the
/// [`EdgeChange`] stream of
/// [`DynamicGraph::apply_batch_recorded`](tc_stream::DynamicGraph::apply_batch_recorded).
///
/// Invariants (all exact, enforced by the differential suite):
///
/// - `supports` holds every present edge once, keyed `u < v`, with
///   `supports[(u, v)] = |N(u) ∩ N(v)|` on the current graph;
/// - `local[v]` is the number of triangles containing `v`;
/// - `triangles = Σ local / 3 = Σ supports / 3`.
///
/// The update rule rides the same identity the stream's count
/// maintenance uses: inserting `{u, v}` with common neighbourhood `W`
/// closes exactly `|W|` triangles — one per `w ∈ W` — each of which
/// raises the support of `(u, w)` and `(v, w)` by one and the local
/// count of all three corners; deletion is the mirror image. The wedge
/// sets arrive precomputed in the [`EdgeChange`]s (the stream already
/// intersected the endpoints to maintain its count), so applying a
/// change is pure bookkeeping: no intersections, no graph access.
#[derive(Clone, Debug, Default)]
pub struct AnalyticsState {
    supports: HashMap<(VertexId, VertexId), u32>,
    local: Vec<u64>,
    triangles: u64,
    changes_applied: u64,
    batches_applied: u64,
}

impl AnalyticsState {
    /// Cold-start build from a static graph: one pass of
    /// [`engine::edge_triangles`] over the (degree, id) orientation
    /// yields every edge's support and every vertex's count, and the
    /// support map is filled straight from the out-slots. This is the
    /// expensive path that incremental maintenance subsequently avoids.
    pub fn build(g: &CsrGraph, scratch: &mut Scratch) -> Self {
        let oriented = orient_by_rank(g, &degree_rank(g));
        let (per_slot, local) = engine::edge_triangles(&oriented, scratch);
        let mut supports = HashMap::with_capacity(g.num_edges());
        for ((u, v), support) in oriented.edges().zip(per_slot) {
            supports.insert(key(u, v), support);
        }
        let triangles = local.iter().sum::<u64>() / 3;
        Self {
            supports,
            local,
            triangles,
            changes_applied: 0,
            batches_applied: 0,
        }
    }

    /// Applies one recorded batch worth of committed changes, in the
    /// order they were emitted. Cost is `O(Σ |wedges|)` — proportional
    /// to the number of triangles the batch touched, independent of
    /// graph size.
    pub fn apply_changes(&mut self, changes: &[EdgeChange]) {
        for ch in changes {
            let w_count = ch.wedges.len() as u64;
            if ch.inserted {
                let prev = self.supports.insert((ch.u, ch.v), ch.wedges.len() as u32);
                debug_assert!(prev.is_none(), "insert of an already-tracked edge");
                for &w in &ch.wedges {
                    for e in [key(ch.u, w), key(ch.v, w)] {
                        *self
                            .supports
                            .get_mut(&e)
                            .expect("wedge edge must be tracked") += 1;
                    }
                    self.local[w as usize] += 1;
                }
                self.local[ch.u as usize] += w_count;
                self.local[ch.v as usize] += w_count;
                self.triangles += w_count;
            } else {
                let prev = self.supports.remove(&(ch.u, ch.v));
                debug_assert_eq!(
                    prev,
                    Some(ch.wedges.len() as u32),
                    "support of a deleted edge must equal its wedge count"
                );
                for &w in &ch.wedges {
                    for e in [key(ch.u, w), key(ch.v, w)] {
                        *self
                            .supports
                            .get_mut(&e)
                            .expect("wedge edge must be tracked") -= 1;
                    }
                    self.local[w as usize] -= 1;
                }
                self.local[ch.u as usize] -= w_count;
                self.local[ch.v as usize] -= w_count;
                self.triangles -= w_count;
            }
            self.changes_applied += 1;
        }
        self.batches_applied += 1;
    }

    /// Support of edge `{a, b}` (any endpoint order); `None` if the edge
    /// is not currently present.
    pub fn support(&self, a: VertexId, b: VertexId) -> Option<u32> {
        self.supports.get(&key(a, b)).copied()
    }

    /// Number of triangles through `v`; 0 for out-of-range ids.
    pub fn local_count(&self, v: VertexId) -> u64 {
        self.local.get(v as usize).copied().unwrap_or(0)
    }

    /// Per-vertex triangle counts, indexed by vertex id.
    pub fn local_counts(&self) -> &[u64] {
        &self.local
    }

    /// Exact global triangle count.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Number of tracked (present) edges.
    pub fn edge_count(&self) -> usize {
        self.supports.len()
    }

    /// Number of vertices the state was built over.
    pub fn num_vertices(&self) -> usize {
        self.local.len()
    }

    /// Committed changes applied since the build.
    pub fn changes_applied(&self) -> u64 {
        self.changes_applied
    }

    /// Recorded batches applied since the build.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// The maintained supports laid out in `g.edges()` order — the input
    /// [`tc_apps::ktruss_from_supports`] expects. `g` must be a
    /// materialisation of the same graph this state tracks (the
    /// expect below enforces edge-set agreement).
    pub fn supports_in_edge_order(&self, g: &CsrGraph) -> Vec<u32> {
        assert_eq!(
            g.num_edges(),
            self.supports.len(),
            "materialised graph and analytics state disagree on edge count"
        );
        g.edges()
            .map(|(u, v)| {
                *self
                    .supports
                    .get(&(u, v))
                    .expect("materialised edge missing from analytics state")
            })
            .collect()
    }

    /// Approximate resident bytes (hash map entries + local vector).
    pub fn approx_bytes(&self) -> usize {
        // Entry ≈ key (8) + value (4, padded to 8) + hashmap overhead.
        self.supports.len() * 24 + self.local.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_stream::{DynamicGraph, EdgeOp};

    fn k4_minus_one() -> CsrGraph {
        // K4 without (2, 3).
        tc_graph::GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).build()
    }

    #[test]
    fn build_matches_definitions() {
        let g = k4_minus_one();
        let mut scratch = Scratch::new();
        let st = AnalyticsState::build(&g, &mut scratch);
        assert_eq!(st.triangles(), 2); // 0-1-2 and 0-1-3
        assert_eq!(st.support(0, 1), Some(2));
        assert_eq!(st.support(1, 2), Some(1));
        assert_eq!(st.support(3, 0), Some(1));
        assert_eq!(st.support(2, 3), None);
        assert_eq!(st.local_counts(), &[2, 2, 1, 1]);
        assert_eq!(st.edge_count(), 5);
    }

    #[test]
    fn incremental_tracks_insert_and_delete() {
        let g = k4_minus_one();
        let mut scratch = Scratch::new();
        let mut st = AnalyticsState::build(&g, &mut scratch);
        let mut dg = DynamicGraph::new(g);

        let (_, changes) = dg.apply_batch_recorded(&[EdgeOp::Insert(2, 3)]);
        st.apply_changes(&changes);
        // K4 complete: every edge supports 2, every vertex sits in 3.
        assert_eq!(st.triangles(), 4);
        assert_eq!(st.support(2, 3), Some(2));
        assert_eq!(st.support(0, 1), Some(2));
        assert_eq!(st.local_counts(), &[3, 3, 3, 3]);

        let (_, changes) = dg.apply_batch_recorded(&[EdgeOp::Delete(0, 1)]);
        st.apply_changes(&changes);
        assert_eq!(st.triangles(), 2);
        assert_eq!(st.support(0, 1), None);
        assert_eq!(st.support(0, 2), Some(1));
        assert_eq!(st.local_counts(), &[1, 1, 2, 2]);
        assert_eq!(st.changes_applied(), 2);
        assert_eq!(st.batches_applied(), 2);

        // The maintained state equals a fresh build on the materialised
        // graph.
        let m = dg.materialize();
        let fresh = AnalyticsState::build(&m, &mut scratch);
        assert_eq!(st.supports, fresh.supports);
        assert_eq!(st.local, fresh.local);
        assert_eq!(st.triangles, fresh.triangles);
        assert_eq!(
            st.supports_in_edge_order(&m),
            fresh.supports_in_edge_order(&m)
        );
    }
}
