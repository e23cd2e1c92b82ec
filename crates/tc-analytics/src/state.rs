//! The maintained analytics state: exact per-vertex local triangle
//! counts, updated in `O(wedges)` per committed change.

use tc_algos::engine::Scratch;
use tc_graph::{CsrGraph, VertexId};
use tc_stream::EdgeChange;

/// Exact per-vertex local triangle counts of a dynamic graph, maintained
/// incrementally from the [`EdgeChange`] stream of
/// [`DynamicGraph::apply_batch_recorded`](tc_stream::DynamicGraph::apply_batch_recorded).
///
/// Invariants (both exact, enforced by the differential suite):
///
/// - `local[v]` is the number of triangles containing `v`;
/// - `triangles = Σ local / 3`.
///
/// The update rule rides the same identity the stream's count
/// maintenance uses: inserting `{u, v}` with common neighbourhood `W`
/// closes exactly `|W|` triangles — one per `w ∈ W` — each of which
/// raises the local count of all three corners; deletion is the mirror
/// image. The wedge sets arrive precomputed in the [`EdgeChange`]s (the
/// stream already intersected the endpoints to maintain its count), so
/// applying a change is pure bookkeeping: no intersections, no graph
/// access.
///
/// Nothing is kept per edge. An edge's support is one intersection of
/// its endpoints' rows whenever a reader needs it, and `ktruss` on a
/// stream recomputes its supports as it does on a static dataset.
#[derive(Clone, Debug, Default)]
pub struct AnalyticsState {
    local: Vec<u64>,
    triangles: u64,
    changes_applied: u64,
    batches_applied: u64,
}

impl AnalyticsState {
    /// Cold-start build from a static graph: one counting pass
    /// ([`tc_apps::triangles_per_vertex_with`]) yields every vertex's
    /// count. This is the expensive path that incremental maintenance
    /// subsequently avoids.
    pub fn build(g: &CsrGraph, scratch: &mut Scratch) -> Self {
        let local = tc_apps::triangles_per_vertex_with(g, scratch);
        let triangles = local.iter().sum::<u64>() / 3;
        Self {
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
                for &w in &ch.wedges {
                    self.local[w as usize] += 1;
                }
                self.local[ch.u as usize] += w_count;
                self.local[ch.v as usize] += w_count;
                self.triangles += w_count;
            } else {
                for &w in &ch.wedges {
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

    /// Approximate resident bytes: the per-vertex counts.
    pub fn approx_bytes(&self) -> usize {
        self.local.len() * std::mem::size_of::<u64>()
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
        assert_eq!(st.local_counts(), &[2, 2, 1, 1]);
        assert_eq!(st.local_count(3), 1);
        assert_eq!(st.local_count(4), 0);
        assert_eq!(st.num_vertices(), 4);
    }

    #[test]
    fn incremental_tracks_insert_and_delete() {
        let g = k4_minus_one();
        let mut scratch = Scratch::new();
        let mut st = AnalyticsState::build(&g, &mut scratch);
        let mut dg = DynamicGraph::new(g);

        let (_, changes) = dg.apply_batch_recorded(&[EdgeOp::Insert(2, 3)]);
        st.apply_changes(&changes);
        // K4 complete: every vertex sits in 3 triangles.
        assert_eq!(st.triangles(), 4);
        assert_eq!(st.local_counts(), &[3, 3, 3, 3]);

        let (_, changes) = dg.apply_batch_recorded(&[EdgeOp::Delete(0, 1)]);
        st.apply_changes(&changes);
        assert_eq!(st.triangles(), 2);
        assert_eq!(st.local_counts(), &[1, 1, 2, 2]);
        assert_eq!(st.changes_applied(), 2);
        assert_eq!(st.batches_applied(), 2);

        // The maintained state equals a fresh build on the materialised
        // graph.
        let fresh = AnalyticsState::build(&dg.materialize(), &mut scratch);
        assert_eq!(st.local, fresh.local);
        assert_eq!(st.triangles, fresh.triangles);
    }
}
