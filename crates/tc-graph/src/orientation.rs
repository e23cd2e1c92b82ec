//! Turning undirected graphs into oriented ones via a strict total rank.

use crate::{CsrGraph, DirectedGraph, Permutation, VertexId};

/// Orients every undirected edge from the endpoint with the **smaller rank**
/// to the one with the larger rank.
///
/// Because `rank` induces a strict total order on vertices, the resulting
/// directed graph is acyclic — in particular it contains no directed
/// 3-cycle, so every triangle of the source graph survives as exactly one
/// directed wedge-closing pattern `u -> v, u -> w, v -> w`. All edge-directing
/// schemes in `tc-core` reduce to computing a rank array and calling this.
///
/// # Panics
/// Panics if `rank.len() != g.num_vertices()` or if two adjacent vertices
/// share a rank (which would leave an edge undirectable).
pub fn orient_by_rank(g: &CsrGraph, rank: &[u64]) -> DirectedGraph {
    assert_eq!(
        rank.len(),
        g.num_vertices(),
        "rank array must cover every vertex"
    );
    let n = g.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut acc = 0usize;
    for u in 0..n as VertexId {
        let ru = rank[u as usize];
        let out = g
            .neighbors(u)
            .iter()
            .filter(|&&v| {
                let rv = rank[v as usize];
                assert_ne!(ru, rv, "adjacent vertices {u} and {v} share rank {ru}");
                ru < rv
            })
            .count();
        acc += out;
        offsets.push(acc);
    }

    let mut out_neighbors = Vec::with_capacity(acc);
    for u in 0..n as VertexId {
        let ru = rank[u as usize];
        // Source list is sorted; filtering preserves order, so out-lists
        // stay sorted without a second pass.
        out_neighbors.extend(
            g.neighbors(u)
                .iter()
                .copied()
                .filter(|&v| ru < rank[v as usize]),
        );
    }

    DirectedGraph::from_parts(offsets, out_neighbors)
}

/// [`orient_by_rank`] of `g` relabelled by `perm`, built straight from
/// `g` without materialising the relabelled graph. Old vertex `u`'s
/// out-edges under `rank` become new vertex `perm.map(u)`'s out-list of
/// `perm.map(v)`, sorted.
///
/// `rank` is indexed by old id. The result equals
/// `orient_by_rank(&perm.apply(g), &r)` with `r[perm.map(u)] = rank[u]`,
/// at the cost of the m oriented edges instead of the 2m relabelled ones.
///
/// # Panics
/// Panics if `rank` or `perm` does not cover every vertex, or if two
/// adjacent vertices share a rank.
pub fn orient_relabelled(g: &CsrGraph, rank: &[u64], perm: &Permutation) -> DirectedGraph {
    let n = g.num_vertices();
    assert_eq!(rank.len(), n, "rank array must cover every vertex");
    assert_eq!(perm.len(), n, "permutation must cover every vertex");
    // Each old vertex's out-degree lands one past its new id, so the
    // prefix sum turns the counts into offsets in the new id space.
    let mut offsets = vec![0usize; n + 1];
    for u in 0..n as VertexId {
        let ru = rank[u as usize];
        offsets[perm.map(u) as usize + 1] = g
            .neighbors(u)
            .iter()
            .filter(|&&v| {
                let rv = rank[v as usize];
                assert_ne!(ru, rv, "adjacent vertices {u} and {v} share rank {ru}");
                ru < rv
            })
            .count();
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }

    let mut out_neighbors = vec![0 as VertexId; offsets[n]];
    for u in 0..n as VertexId {
        let ru = rank[u as usize];
        let new_u = perm.map(u) as usize;
        let list = &mut out_neighbors[offsets[new_u]..offsets[new_u + 1]];
        let targets = g.neighbors(u).iter().filter(|&&v| ru < rank[v as usize]);
        for (slot, &v) in list.iter_mut().zip(targets) {
            *slot = perm.map(v);
        }
        list.sort_unstable();
    }

    DirectedGraph::from_parts(offsets, out_neighbors)
}

/// The (degree, id) rank: lower degree first, ties broken by id — the
/// forward algorithm's order and `tc-core`'s D-direction. Orienting by
/// it leaves no vertex more than `√(2m)` out-edges, which bounds the
/// wedges of the oriented graph by `O(m^{3/2})`.
pub fn degree_rank(g: &CsrGraph) -> Vec<u64> {
    g.vertices()
        .map(|u| ((g.degree(u) as u64) << 32) | u as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn k4() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build()
    }

    #[test]
    fn identity_rank_orients_small_to_large_id() {
        let g = k4();
        let d = orient_by_rank(&g, &[0, 1, 2, 3]);
        assert_eq!(d.out_neighbors(0), &[1, 2, 3]);
        assert_eq!(d.out_degree(3), 0);
        assert_eq!(d.num_edges(), 6);
        assert!(d.validate().is_ok());
        assert_eq!(d.find_directed_triangle_cycle(), None);
    }

    #[test]
    fn reversed_rank_flips_orientation() {
        let g = k4();
        let d = orient_by_rank(&g, &[3, 2, 1, 0]);
        assert_eq!(d.out_degree(0), 0);
        assert_eq!(d.out_neighbors(3), &[0, 1, 2]);
    }

    #[test]
    fn every_edge_directed_exactly_once() {
        let g = k4();
        let d = orient_by_rank(&g, &[7, 3, 11, 5]);
        assert_eq!(d.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(d.has_edge(u, v) ^ d.has_edge(v, u));
        }
    }

    #[test]
    fn relabelled_orientation_matches_orienting_the_relabelled_graph() {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)]).build();
        let rank = [7, 3, 11, 5, 2, 9];
        let perm = Permutation::new(vec![4, 0, 5, 2, 1, 3]).expect("bijection");
        let mut relabelled = [0u64; 6];
        for (old, &r) in rank.iter().enumerate() {
            relabelled[perm.map(old as VertexId) as usize] = r;
        }
        let d = orient_relabelled(&g, &rank, &perm);
        assert_eq!(d, orient_by_rank(&perm.apply(&g), &relabelled));
        assert_eq!(d.out_degree(perm.map(5)), 0);
        let identity = Permutation::identity(6);
        assert_eq!(
            orient_relabelled(&g, &rank, &identity),
            orient_by_rank(&g, &rank)
        );
    }

    #[test]
    #[should_panic(expected = "share rank")]
    fn relabelled_orientation_panics_on_equal_adjacent_ranks() {
        let g = k4();
        let _ = orient_relabelled(
            &g,
            &[1, 1, 2, 3],
            &Permutation::new(vec![3, 2, 1, 0]).unwrap(),
        );
    }

    #[test]
    #[should_panic(expected = "share rank")]
    fn equal_ranks_on_adjacent_vertices_panic() {
        let g = k4();
        let _ = orient_by_rank(&g, &[1, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "must cover every vertex")]
    fn short_rank_array_panics() {
        let g = k4();
        let _ = orient_by_rank(&g, &[0, 1]);
    }
}
