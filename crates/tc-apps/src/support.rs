//! Per-edge triangle support and per-vertex triangle counts — the shared
//! primitive of every application in this crate.
//!
//! Both come from one pass of [`engine::edge_triangles`] over the
//! graph's (degree, id) orientation, which finds each triangle once and
//! credits its three edges and three corners: the forward algorithm's
//! `O(m^{3/2})` wedge work. The `*_with` variants take a caller-owned
//! [`Scratch`] (a service worker's, sized for the graph up front); the
//! plain variants borrow the thread-local scratch.

use tc_algos::engine::{self, with_thread_scratch, Scratch};
use tc_graph::{degree_rank, orient_by_rank, CsrGraph, DirectedGraph};

/// The triangle support of every edge (`|N(u) ∩ N(v)|`), in
/// [`CsrGraph::edges`] order: the input of [`crate::ktruss_from_supports`].
/// The supports sum to three times the triangle count, since each
/// triangle has three edges.
pub fn supports_in_edge_order_with(g: &CsrGraph, scratch: &mut Scratch) -> Vec<u32> {
    let oriented = orient_by_rank(g, &degree_rank(g));
    let (per_slot, _) = engine::edge_triangles(&oriented, scratch);
    in_edge_order(g, &oriented, &per_slot)
}

/// Number of triangles through each vertex.
///
/// `result[v]` counts unordered triangles containing `v`; the vector sums
/// to three times the global triangle count.
pub fn triangles_per_vertex(g: &CsrGraph) -> Vec<u64> {
    with_thread_scratch(|scratch| triangles_per_vertex_with(g, scratch))
}

/// [`triangles_per_vertex`] against a caller-owned scratch.
pub fn triangles_per_vertex_with(g: &CsrGraph, scratch: &mut Scratch) -> Vec<u64> {
    engine::edge_triangles(&orient_by_rank(g, &degree_rank(g)), scratch).1
}

/// Lays per-slot values of `oriented`, an orientation of `g`, out in
/// [`CsrGraph::edges`] order.
///
/// `g.edges()` meets the edges at each vertex `t` in ascending order of
/// their other endpoint, and `N⁺(t)` is sorted, so `t`'s out-edges come
/// up in slot order: one cursor per vertex finds every slot without a
/// search. The edge `(u, v)` is `u`'s next out-slot if that slot holds
/// `v`, and otherwise `v`'s.
fn in_edge_order(g: &CsrGraph, oriented: &DirectedGraph, per_slot: &[u32]) -> Vec<u32> {
    let offsets = oriented.offsets();
    let heads = oriented.out_neighbor_array();
    let mut next = offsets[..g.num_vertices()].to_vec();
    g.edges()
        .map(|(u, v)| {
            let (u, v) = (u as usize, v as usize);
            let tail = if next[u] < offsets[u + 1] && heads[next[u]] as usize == v {
                u
            } else {
                v
            };
            let slot = next[tail];
            debug_assert_eq!(heads[slot] as usize, u + v - tail, "slot out of order");
            next[tail] += 1;
            per_slot[slot]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_algos::cpu;
    use tc_graph::generators::{erdos_renyi, power_law_configuration};
    use tc_graph::GraphBuilder;

    fn k4() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build()
    }

    #[test]
    fn k4_every_edge_supports_two_triangles() {
        let sup = supports_in_edge_order_with(&k4(), &mut Scratch::new());
        assert_eq!(sup, vec![2; 6]);
    }

    #[test]
    fn supports_sum_to_three_times_triangles() {
        let mut scratch = Scratch::new();
        for seed in 0..4u64 {
            let g = erdos_renyi(100, 400, seed);
            let supports = supports_in_edge_order_with(&g, &mut scratch);
            assert_eq!(supports.len(), g.num_edges(), "seed {seed}");
            let total: u64 = supports.iter().map(|&s| u64::from(s)).sum();
            assert_eq!(total, 3 * cpu::node_iterator(&g), "seed {seed}");
        }
    }

    #[test]
    fn per_vertex_counts_sum_to_three_times_triangles() {
        let g = power_law_configuration(300, 2.2, 7.0, 5);
        let per_vertex = triangles_per_vertex(&g);
        assert_eq!(per_vertex.iter().sum::<u64>(), 3 * cpu::node_iterator(&g));
    }

    #[test]
    fn per_vertex_counts_on_k4() {
        // Every vertex of K4 sits in 3 triangles.
        assert_eq!(triangles_per_vertex(&k4()), vec![3, 3, 3, 3]);
    }

    #[test]
    fn shared_scratch_across_both_primitives_is_consistent() {
        let g = power_law_configuration(300, 2.2, 7.0, 5);
        let mut scratch = Scratch::new();
        let sup: u64 = supports_in_edge_order_with(&g, &mut scratch)
            .iter()
            .map(|&s| u64::from(s))
            .sum();
        let per_vertex: u64 = triangles_per_vertex_with(&g, &mut scratch).iter().sum();
        assert_eq!(sup, per_vertex);
        // Reusing the now-warm scratch must not change anything.
        let sup2: u64 = supports_in_edge_order_with(&g, &mut scratch)
            .iter()
            .map(|&s| u64::from(s))
            .sum();
        assert_eq!(sup, sup2);
    }

    #[test]
    fn triangle_free_graph_has_zero_support() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).build();
        let mut scratch = Scratch::new();
        assert!(supports_in_edge_order_with(&g, &mut scratch)
            .iter()
            .all(|&s| s == 0));
        assert!(triangles_per_vertex(&g).iter().all(|&c| c == 0));
    }
}
