//! Read access to an undirected graph through its sorted neighbour lists.

use crate::{CsrGraph, VertexId};

/// An undirected simple graph read through sorted neighbour lists and
/// degrees: all that the per-vertex applications (`tc-apps`' link
/// recommendation and clustering folds) need. A [`CsrGraph`] serves it
/// from its rows, and `tc-stream`'s dynamic graph from its layered view
/// ([`crate::LayeredNeighbors`]), so a streamed graph is read in place
/// with no CSR rebuilt for it.
pub trait Adjacency {
    /// Number of vertices; ids run `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Degree of `u`.
    fn degree(&self, u: VertexId) -> usize;

    /// Neighbours of `u`, ascending.
    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_;

    /// Whether the edge `{u, v}` exists.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;
}

impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        CsrGraph::degree(self, u)
    }

    #[inline]
    fn neighbors(&self, u: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        CsrGraph::neighbors(self, u).iter().copied()
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }
}
