//! Read access to an undirected graph through its sorted neighbour lists.

use crate::{CsrGraph, VertexId};

/// An undirected simple graph read through sorted neighbour slices: all
/// that the per-vertex applications (`tc-apps`' link recommendation and
/// clustering folds) need. A [`CsrGraph`] serves its rows, and
/// `tc-stream`'s dynamic graph the current row of each vertex, so a
/// streamed graph is read in place with no CSR rebuilt for it.
pub trait Adjacency {
    /// Number of vertices; ids run `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Neighbours of `u`, strictly ascending.
    fn neighbors(&self, u: VertexId) -> &[VertexId];

    /// Degree of `u`.
    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        self.neighbors(u).len()
    }

    /// Whether the edge `{u, v}` exists (binary search of `u`'s row).
    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

/// A CSR answers `degree` from its offsets alone, without forming the
/// row, which keeps the clustering folds' degree loop vectorisable.
impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, u: VertexId) -> &[VertexId] {
        CsrGraph::neighbors(self, u)
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        CsrGraph::degree(self, u)
    }
}
