//! Watts–Strogatz small-world graphs.

use crate::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a Watts–Strogatz graph: a ring lattice where each vertex
/// connects to its `k` nearest neighbours on each side, with each edge
/// rewired to a random endpoint with probability `beta`.
///
/// High clustering coefficient (lots of triangles) with near-uniform
/// degrees — a useful contrast case for the workload-diversity model, since
/// it has triangles but no long/short list disparity.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(n > 2 * k, "ring too small for k={k}");
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * k);
    for u in 0..n {
        for offset in 1..=k {
            let v = (u + offset) % n;
            if rng.gen::<f64>() < beta {
                // Rewire: keep u, pick a uniform random other endpoint.
                let mut w = rng.gen_range(0..n);
                while w == u {
                    w = rng.gen_range(0..n);
                }
                b.add_edge(u as VertexId, w as VertexId);
            } else {
                b.add_edge(u as VertexId, v as VertexId);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_beta_is_pure_ring() {
        let g = watts_strogatz(20, 2, 0.0, 0);
        assert_eq!(g.num_edges(), 40);
        for u in g.vertices() {
            assert_eq!(g.degree(u), 4);
        }
    }

    #[test]
    fn ring_lattice_is_triangle_rich() {
        let g = watts_strogatz(30, 2, 0.0, 0);
        // Each vertex closes a triangle with (u+1, u+2).
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
    }

    #[test]
    fn deterministic_and_valid() {
        let g1 = watts_strogatz(100, 3, 0.2, 4);
        let g2 = watts_strogatz(100, 3, 0.2, 4);
        assert_eq!(g1, g2);
        assert!(g1.validate().is_ok());
    }
}
