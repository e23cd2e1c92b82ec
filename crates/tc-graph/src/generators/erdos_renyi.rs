//! Uniform G(n, m) random graphs.

use crate::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a uniform random graph with `n` vertices and (after dedup)
/// about `m` undirected edges.
///
/// Used as a no-skew control in model-validation tests: with near-uniform
/// degrees, the paper's balancing machinery should offer little benefit,
/// and our experiments confirm the models predict that.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as VertexId;
        let mut v = rng.gen_range(0..n) as VertexId;
        while v == u {
            v = rng.gen_range(0..n) as VertexId;
        }
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(100, 300, 1), erdos_renyi(100, 300, 1));
    }

    #[test]
    fn no_self_loops_and_valid() {
        let g = erdos_renyi(50, 200, 2);
        assert!(g.validate().is_ok());
        for u in g.vertices() {
            assert!(!g.has_edge(u, u));
        }
    }

    #[test]
    fn edge_count_close_to_nominal() {
        let g = erdos_renyi(1000, 5000, 3);
        assert!(g.num_edges() > 4800 && g.num_edges() <= 5000);
    }
}
