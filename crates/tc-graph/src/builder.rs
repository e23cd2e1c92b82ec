//! Ingestion of raw edge lists into validated [`CsrGraph`]s.

use crate::{CsrGraph, VertexId};

/// Accumulates raw (possibly duplicated, possibly self-looping) undirected
/// edges and produces a canonical [`CsrGraph`].
///
/// The builder is the single trusted entry point for constructing graphs
/// from external data: it drops self-loops, deduplicates parallel edges,
/// sorts adjacency lists, and symmetrizes.
///
/// ```
/// use tc_graph::GraphBuilder;
/// let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 0), (1, 1), (2, 3)]).build();
/// assert_eq!(g.num_edges(), 2); // duplicate and self-loop removed
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `num_vertices` vertices and no edges yet.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_capacity(num_vertices, 0)
    }

    /// A builder with room for `raw_edges` [`add_edge`] calls before its
    /// edge list grows. Callers that know their raw edge count reserve it,
    /// so the list carries no doubling slack into [`build`].
    ///
    /// [`add_edge`]: GraphBuilder::add_edge
    /// [`build`]: GraphBuilder::build
    pub fn with_capacity(num_vertices: usize, raw_edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(raw_edges),
        }
    }

    /// Convenience constructor from a slice of undirected edges.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = Self::with_capacity(num_vertices, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b
    }

    /// Raises the vertex count to `num_vertices`, for readers that learn
    /// vertices while they add edges.
    pub(crate) fn grow_vertices(&mut self, num_vertices: usize) {
        debug_assert!(num_vertices >= self.num_vertices, "vertex count shrank");
        self.num_vertices = num_vertices;
    }

    /// Adds one undirected edge. Self-loops are silently dropped; endpoint
    /// order does not matter; duplicates are removed at [`build`] time.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    ///
    /// [`build`]: GraphBuilder::build
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Finalizes into a canonical [`CsrGraph`].
    ///
    /// Four steps, `O(n + m + Σ d log d)`:
    /// 1. count each vertex's row length (both endpoints of every raw
    ///    edge) into `offsets` and prefix-sum them into row starts;
    /// 2. scatter both directions of every edge straight into a
    ///    `neighbors` array of exactly `2 × raw edges`, with `offsets` as
    ///    the write cursors, which leaves `offsets[u]` at the end of row u;
    /// 3. drop the raw edge list;
    /// 4. sort each row, then copy its distinct ids down to the write
    ///    position while rewriting `offsets[u]` to the row's new start, and
    ///    shrink `neighbors` to the deduplicated length.
    ///
    /// Peak memory is the raw edge list plus `neighbors` plus `offsets`,
    /// about twice the returned graph when few edges repeat.
    pub fn build(self) -> CsrGraph {
        let GraphBuilder {
            num_vertices: n,
            edges,
        } = self;

        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        let mut neighbors = vec![0 as VertexId; offsets[n]];
        for &(u, v) in &edges {
            neighbors[offsets[u as usize]] = v;
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize]] = u;
            offsets[v as usize] += 1;
        }
        drop(edges);

        let mut start = 0;
        let mut write = 0;
        for offset in &mut offsets[..n] {
            let end = *offset;
            neighbors[start..end].sort_unstable();
            *offset = write;
            for read in start..end {
                let v = neighbors[read];
                if write == *offset || neighbors[write - 1] != v {
                    neighbors[write] = v;
                    write += 1;
                }
            }
            start = end;
        }
        offsets[n] = write;
        neighbors.truncate(write);
        neighbors.shrink_to_fit();

        CsrGraph::from_parts(offsets, neighbors)
    }
}

/// Assembles a [`CsrGraph`] directly from per-vertex sorted neighbour
/// lists, visiting each list twice: once for its length (offsets), once
/// for its elements. The builder's counterpart for sources whose rows are
/// already sorted and cheap to replay — `tc-stream` compaction streams
/// its layered (base ∪ adds) \ dels rows through this instead of
/// re-sorting.
///
/// Each list must be strictly ascending and symmetric (`v ∈ list(u)` ⇔
/// `u ∈ list(v)`); [`CsrGraph::from_parts`] enforces the per-row
/// invariants in debug builds.
pub fn csr_from_sorted_lists<I, F>(num_vertices: usize, mut lists: F) -> CsrGraph
where
    F: FnMut(VertexId) -> I,
    I: Iterator<Item = VertexId> + ExactSizeIterator,
{
    let mut offsets = Vec::with_capacity(num_vertices + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for u in 0..num_vertices {
        total += lists(u as VertexId).len();
        offsets.push(total);
    }
    let mut neighbors = Vec::with_capacity(total);
    for u in 0..num_vertices {
        neighbors.extend(lists(u as VertexId));
    }
    debug_assert_eq!(neighbors.len(), total, "list lengths must be exact");
    CsrGraph::from_parts(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]).build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = GraphBuilder::from_edges(5, &[(4, 2), (2, 0), (2, 3), (1, 2)]).build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn counting_sort_build_matches_comparison_build() {
        // Reference implementation: the seed's comparison-sort pipeline.
        fn reference(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
            let mut canon: Vec<(VertexId, VertexId)> = edges
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
                .collect();
            canon.sort_unstable();
            canon.dedup();
            let mut lists: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for &(u, v) in &canon {
                lists[u as usize].push(v);
                lists[v as usize].push(u);
            }
            let mut offsets = vec![0usize];
            let mut neighbors = Vec::new();
            for mut l in lists {
                l.sort_unstable();
                neighbors.extend_from_slice(&l);
                offsets.push(neighbors.len());
            }
            CsrGraph::from_parts(offsets, neighbors)
        }

        fn check(n: usize, edges: &[(VertexId, VertexId)]) {
            let got = GraphBuilder::from_edges(n, edges).build();
            assert!(got.validate().is_ok());
            assert_eq!(
                got,
                reference(n, edges),
                "n = {n}, {} raw edges",
                edges.len()
            );
        }

        // Pseudo-random edge soup over `n` vertices with duplicates and
        // self-loops. With `hub`, vertex n / 2 is an endpoint of about
        // three edges in four, so its row is long and mostly duplicates.
        fn soup(n: u64, len: usize, seed: u64, hub: bool) -> Vec<(VertexId, VertexId)> {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            (0..len)
                .map(|_| {
                    let u = if hub && next() % 4 != 0 {
                        n / 2
                    } else {
                        next() % n
                    };
                    (u as VertexId, (next() % n) as VertexId)
                })
                .collect()
        }

        // `from_edges` reserves its list through `with_capacity`; one seed
        // also goes through `new`, whose list grows by doubling.
        for seed in [0x9E3779B97F4A7C15, 7, 0xDEAD_BEEF] {
            check(97, &soup(97, 4000, seed, false));
        }
        let edges = soup(97, 4000, 7, false);
        let mut grown = GraphBuilder::new(97);
        for &(u, v) in &edges {
            grown.add_edge(u, v);
        }
        assert_eq!(grown.build(), reference(97, &edges));
        check(300, &soup(300, 5000, 11, true));
        // Every leaf row holds just the hub, so each row starts with the
        // id the row before it kept last.
        check(9, &(1..9).map(|v| (v, 0)).collect::<Vec<_>>());
        check(8, &(0..8).map(|v| (v, v)).collect::<Vec<_>>());
        let both: Vec<_> = soup(61, 500, 5, false)
            .into_iter()
            .flat_map(|(u, v)| [(u, v), (v, u)])
            .collect();
        check(61, &both);
        check(0, &[]);
        check(1, &[]);
        check(1, &[(0, 0), (0, 0)]);
        // Vertices 0..10, every odd vertex and 90..100 stay isolated.
        let sparse: Vec<_> = soup(40, 300, 3, false)
            .into_iter()
            .map(|(u, v)| (2 * u + 10, 2 * v + 10))
            .collect();
        check(100, &sparse);
    }

    #[test]
    fn csr_from_sorted_lists_round_trips() {
        let g = GraphBuilder::from_edges(5, &[(4, 2), (2, 0), (2, 3), (1, 2), (0, 1)]).build();
        let rebuilt = csr_from_sorted_lists(g.num_vertices(), |u| g.neighbors(u).iter().copied());
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        for u in g.vertices() {
            assert_eq!(rebuilt.neighbors(u), g.neighbors(u));
        }
    }
}
