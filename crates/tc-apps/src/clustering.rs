//! Clustering coefficients (Watts & Strogatz; the paper's reference \[34\]).

use crate::support::{triangles_per_vertex, triangles_per_vertex_with};
use tc_algos::engine::Scratch;
use tc_graph::{Adjacency, CsrGraph, VertexId};

/// Local clustering coefficient of every vertex:
/// `C(v) = 2·T(v) / (d(v)·(d(v)−1))`, 0 for degree < 2.
pub fn clustering_coefficients(g: &CsrGraph) -> Vec<f64> {
    coefficients_from_counts(g, &triangles_per_vertex(g))
}

/// [`clustering_coefficients`] against a caller-owned scratch.
pub fn clustering_coefficients_with(g: &CsrGraph, scratch: &mut Scratch) -> Vec<f64> {
    coefficients_from_counts(g, &triangles_per_vertex_with(g, scratch))
}

/// The local coefficient of one vertex with `triangles` triangles
/// through it and degree `degree`: `2·T / (d·(d−1))`, 0 for degree < 2.
/// Every local coefficient the workspace reports, folded here or
/// observed by a `tc-analytics` subscription, is this arithmetic.
pub fn local_coefficient(triangles: u64, degree: usize) -> f64 {
    let d = degree as u64;
    if d < 2 {
        0.0
    } else {
        2.0 * triangles as f64 / (d * (d - 1)) as f64
    }
}

/// Local coefficients from already-known per-vertex triangle counts
/// (`triangles[v]` = triangles through `v` in `g`). Pure arithmetic —
/// identical integer inputs yield bit-identical floats — which is what
/// lets incrementally maintained counts (`tc-analytics`) serve the same
/// answers as a fresh recompute. Only degrees are read from `g`, so a
/// streamed graph answers in place.
pub fn coefficients_from_counts<G: Adjacency + ?Sized>(g: &G, triangles: &[u64]) -> Vec<f64> {
    triangles
        .iter()
        .zip(0..g.num_vertices() as VertexId)
        .map(|(&t, v)| local_coefficient(t, g.degree(v)))
        .collect()
}

/// The global clustering coefficient (transitivity):
/// `3 × triangles / open-or-closed wedges`.
pub fn global_clustering_coefficient(g: &CsrGraph) -> f64 {
    global_from_counts(g, &triangles_per_vertex(g))
}

/// [`global_clustering_coefficient`] against a caller-owned scratch.
pub fn global_clustering_coefficient_with(g: &CsrGraph, scratch: &mut Scratch) -> f64 {
    global_from_counts(g, &triangles_per_vertex_with(g, scratch))
}

/// Global coefficient from already-known per-vertex triangle counts.
/// Same bit-identical-from-counts contract as
/// [`coefficients_from_counts`].
pub fn global_from_counts<G: Adjacency + ?Sized>(g: &G, per_vertex: &[u64]) -> f64 {
    let triangles: u64 = per_vertex.iter().sum::<u64>() / 3;
    let wedges: u64 = (0..g.num_vertices() as VertexId)
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangles as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators::{road_lattice, watts_strogatz};
    use tc_graph::GraphBuilder;

    #[test]
    fn complete_graph_is_fully_clustered() {
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build();
        assert!(clustering_coefficients(&g)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_graph_has_zero_clustering() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        assert!(clustering_coefficients(&g).iter().all(|&c| c == 0.0));
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn ring_lattice_coefficient_formula() {
        // Watts-Strogatz beta = 0: C = 3(k-1) / (2(2k-1)); for k = 2 → 0.5.
        let g = watts_strogatz(40, 2, 0.0, 0);
        let c = clustering_coefficients(&g);
        assert!(c.iter().all(|&x| (x - 0.5).abs() < 1e-12), "{c:?}");
    }

    #[test]
    fn small_world_clusters_more_than_road_lattice() {
        let sw = global_clustering_coefficient(&watts_strogatz(500, 3, 0.1, 1));
        let road = global_clustering_coefficient(&road_lattice(22, 22, 0.0, 0.0, 0));
        assert!(sw > 0.3, "small world should cluster, got {sw}");
        assert_eq!(road, 0.0, "pure grid has no triangles");
    }

    #[test]
    fn coefficients_lie_in_unit_interval() {
        let g = tc_graph::generators::power_law_configuration(400, 2.2, 8.0, 7);
        for c in clustering_coefficients(&g) {
            assert!((0.0..=1.0).contains(&c));
        }
        let gc = global_clustering_coefficient(&g);
        assert!((0.0..=1.0).contains(&gc));
    }
}
