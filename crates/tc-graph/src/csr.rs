//! Undirected simple graphs in compressed sparse row (CSR) form.

use crate::VertexId;

/// An undirected simple graph stored in CSR form.
///
/// Each undirected edge `{u, v}` appears twice: `v` in `u`'s adjacency list
/// and `u` in `v`'s. Adjacency lists are sorted ascending, contain no
/// duplicates, and never contain the owning vertex (no self-loops).
///
/// Invariants (checked by [`CsrGraph::validate`], enforced by
/// [`crate::GraphBuilder`]):
/// - `offsets.len() == num_vertices + 1`, `offsets[0] == 0`, non-decreasing;
/// - `neighbors.len() == offsets[num_vertices] == 2 * num_edges`;
/// - every list sorted strictly ascending; symmetry (`v ∈ N(u) ⇔ u ∈ N(v)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    /// Panics (in debug builds) if the arrays violate the CSR invariants.
    /// Prefer [`crate::GraphBuilder`] for untrusted input.
    pub fn from_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        let g = Self { offsets, neighbors };
        debug_assert!(g.validate().is_ok(), "invalid CSR arrays");
        g
    }

    /// Builds a graph from CSR arrays, validating every invariant —
    /// the entry point for untrusted input (e.g. deserialization).
    pub fn try_from_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Result<Self, String> {
        let g = Self { offsets, neighbors };
        g.validate()?;
        Ok(g)
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted adjacency list of vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Average degree `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.num_vertices() as f64
    }

    /// Approximate resident size of the CSR arrays in bytes. Used by
    /// cache byte-budget accounting (e.g. the `tc-service` registry);
    /// intentionally ignores allocator slack and the struct header.
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
    }

    /// Raw CSR offsets (length `num_vertices() + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw concatenated adjacency array.
    pub fn neighbor_array(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Checks every CSR invariant; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        let n = self.num_vertices();
        for u in 0..n {
            if self.offsets[u] > self.offsets[u + 1] {
                return Err(format!("offsets decrease at vertex {u}"));
            }
        }
        if *self.offsets.last().expect("non-empty") != self.neighbors.len() {
            return Err("last offset must equal neighbors.len()".into());
        }
        for u in 0..n as VertexId {
            let list = self.neighbors(u);
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {u} not strictly ascending"));
                }
            }
            for &v in list {
                if v as usize >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("asymmetric edge {u}->{v}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).build()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn triangle_graph_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 0));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn average_degrees() {
        let g = triangle();
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let g = CsrGraph {
            offsets: vec![0, 1, 1],
            neighbors: vec![1],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_unsorted() {
        let g = CsrGraph {
            offsets: vec![0, 2, 3, 4],
            neighbors: vec![2, 1, 0, 0],
        };
        assert!(g.validate().is_err());
    }
}
