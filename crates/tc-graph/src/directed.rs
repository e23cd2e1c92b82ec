//! Oriented graphs: the output of an edge-directing scheme.

use crate::VertexId;

/// A directed graph produced by orienting an undirected [`crate::CsrGraph`].
///
/// Only *out*-neighbour lists are stored (triangle counting on oriented
/// graphs never consults in-neighbours), and each list is sorted so binary
/// search applies directly — matching the layout every GPU kernel in the
/// paper assumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectedGraph {
    offsets: Vec<usize>,
    out_neighbors: Vec<VertexId>,
    /// Total undirected edges in the source graph (== out_neighbors.len()).
    num_edges: usize,
}

impl DirectedGraph {
    /// Builds from raw out-CSR arrays. See [`crate::orient_by_rank`] for the
    /// trusted construction path.
    pub fn from_parts(offsets: Vec<usize>, out_neighbors: Vec<VertexId>) -> Self {
        let num_edges = out_neighbors.len();
        let g = Self {
            offsets,
            out_neighbors,
            num_edges,
        };
        debug_assert!(g.validate().is_ok(), "invalid directed CSR arrays");
        g
    }

    /// Builds from raw out-CSR arrays, validating every invariant —
    /// the entry point for untrusted input (e.g. deserialization).
    pub fn try_from_parts(
        offsets: Vec<usize>,
        out_neighbors: Vec<VertexId>,
    ) -> Result<Self, String> {
        let num_edges = out_neighbors.len();
        let g = Self {
            offsets,
            out_neighbors,
            num_edges,
        };
        g.validate()?;
        Ok(g)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (== undirected edges of the source graph).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Out-degree of `u` (the paper's `d̃(u)`).
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted out-neighbour list of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.out_neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Approximate resident size of the out-CSR arrays in bytes (cache
    /// byte-budget accounting; ignores allocator slack).
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.out_neighbors.len() * std::mem::size_of::<VertexId>()
    }

    /// Whether the directed edge `u -> v` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Average out-degree (`d̃_avg = |E| / |V|`).
    pub fn average_out_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.num_edges as f64 / self.num_vertices() as f64
    }

    /// Out-degree sequence indexed by vertex id.
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .map(|u| self.offsets[u + 1] - self.offsets[u])
            .collect()
    }

    /// Raw CSR offsets.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw concatenated out-neighbour array.
    pub fn out_neighbor_array(&self) -> &[VertexId] {
        &self.out_neighbors
    }

    /// Exhaustively checks for a directed 3-cycle `u -> v -> w -> u`.
    ///
    /// The paper (footnote 1) requires orientations to contain none, or
    /// triangles would be silently missed. Intended for tests; cost is the
    /// same order as triangle counting itself.
    pub fn find_directed_triangle_cycle(&self) -> Option<(VertexId, VertexId, VertexId)> {
        for u in self.vertices() {
            for &v in self.out_neighbors(u) {
                for &w in self.out_neighbors(v) {
                    if self.has_edge(w, u) {
                        return Some((u, v, w));
                    }
                }
            }
        }
        None
    }

    /// Checks structural invariants (mirrors [`crate::CsrGraph::validate`],
    /// minus symmetry, which directed graphs do not have).
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() || self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        let n = self.num_vertices();
        for u in 0..n {
            if self.offsets[u] > self.offsets[u + 1] {
                return Err(format!("offsets decrease at vertex {u}"));
            }
        }
        if *self.offsets.last().expect("non-empty") != self.out_neighbors.len() {
            return Err("last offset must equal out_neighbors.len()".into());
        }
        for u in 0..n as VertexId {
            let list = self.out_neighbors(u);
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("out-list of {u} not strictly ascending"));
                }
            }
            for &v in list {
                if v as usize >= n {
                    return Err(format!("out-neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("directed self-loop at {u}"));
                }
                if self.has_edge(v, u) {
                    return Err(format!("2-cycle between {u} and {v}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> DirectedGraph {
        // 0 -> 1 -> 2, 0 -> 2
        DirectedGraph::from_parts(vec![0, 2, 3, 3], vec![1, 2, 2])
    }

    #[test]
    fn basic_accessors() {
        let g = path();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn no_cycle_in_dag_orientation() {
        assert_eq!(path().find_directed_triangle_cycle(), None);
    }

    #[test]
    fn detects_directed_triangle_cycle() {
        // 0 -> 1, 1 -> 2, 2 -> 0 — skips validate (2-cycle check passes,
        // but the 3-cycle must be caught).
        let g = DirectedGraph {
            offsets: vec![0, 1, 2, 3],
            out_neighbors: vec![1, 2, 0],
            num_edges: 3,
        };
        assert!(g.find_directed_triangle_cycle().is_some());
    }

    #[test]
    fn validate_rejects_two_cycle() {
        let g = DirectedGraph {
            offsets: vec![0, 1, 2],
            out_neighbors: vec![1, 0],
            num_edges: 2,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn average_out_degree_matches_edges_over_vertices() {
        let g = path();
        assert!((g.average_out_degree() - 1.0).abs() < 1e-12);
    }
}
