//! Barabási–Albert preferential attachment.

use crate::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a preferential-attachment graph: vertices arrive one at a time
/// and attach `edges_per_vertex` edges to existing vertices chosen with
/// probability proportional to their current degree.
///
/// Produces the heavy-tailed degree distribution and temporal (DAG-like)
/// structure of citation networks — the stand-in model for `cit-Patent`.
pub fn preferential_attachment(n: usize, edges_per_vertex: usize, seed: u64) -> CsrGraph {
    assert!(n > edges_per_vertex, "need more vertices than edges each");
    assert!(edges_per_vertex >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    // Seed clique over the first edges_per_vertex + 1 vertices.
    let k = edges_per_vertex + 1;
    let raw_edges = k * (k - 1) / 2 + (n - k) * edges_per_vertex;
    let mut b = GraphBuilder::with_capacity(n, raw_edges);
    // `endpoints` holds one entry per edge endpoint, so sampling an index
    // uniformly samples a vertex proportionally to its degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * raw_edges);

    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u as VertexId, v as VertexId);
            endpoints.push(u as VertexId);
            endpoints.push(v as VertexId);
        }
    }

    let mut chosen = Vec::with_capacity(edges_per_vertex);
    for u in k..n {
        chosen.clear();
        while chosen.len() < edges_per_vertex {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != u as VertexId && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(u as VertexId, t);
            endpoints.push(u as VertexId);
            endpoints.push(t);
        }
    }
    drop(endpoints);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            preferential_attachment(200, 3, 5),
            preferential_attachment(200, 3, 5)
        );
    }

    #[test]
    fn edge_count_formula() {
        let n = 500;
        let m = 4;
        let g = preferential_attachment(n, m, 1);
        let seed_edges = (m + 1) * m / 2;
        // Each later vertex adds exactly m distinct edges; some may
        // coincide with existing ones and be deduped, hence <=.
        assert!(g.num_edges() <= seed_edges + (n - m - 1) * m);
        assert!(g.num_edges() >= seed_edges + (n - m - 1) * m * 9 / 10);
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let g = preferential_attachment(2000, 3, 7);
        let max_d = g.vertices().map(|u| g.degree(u)).max().unwrap_or(0);
        assert!(max_d as f64 > 5.0 * g.average_degree());
        assert!(g.validate().is_ok());
    }
}
