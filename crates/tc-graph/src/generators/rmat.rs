//! R-MAT / Kronecker graph generator (Chakrabarti–Zhan–Faloutsos).

use crate::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quadrant probabilities for the recursive R-MAT edge placement.
///
/// The defaults `(0.57, 0.19, 0.19, 0.05)` are the graph500 / Kronecker
/// standard and what the paper's `kron-logn*` datasets use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
    /// Probability of recursing into the bottom-right quadrant.
    pub d: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

impl RmatParams {
    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!(
            (sum - 1.0).abs() < 1e-9 && self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0,
            "R-MAT quadrant probabilities must be non-negative and sum to 1"
        );
    }
}

/// Generates an undirected R-MAT graph with `2^scale` vertices and
/// (approximately) `edge_factor * 2^scale` undirected edges before
/// deduplication.
///
/// Self-loops and duplicate edges produced by the stochastic process are
/// removed by the builder, so the realized edge count is slightly below the
/// nominal one — the same behaviour as the graph500 generator the paper
/// references.
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    assert!(scale < 31, "scale {scale} would overflow VertexId");
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let (u, v) = rmat_edge(scale, params, &mut rng);
        b.add_edge(u, v);
    }
    b.build()
}

/// One edge, one quadrant per level: `r < a` is top-left (no bit),
/// `[a, a+b)` top-right (`v`), `[a+b, a+b+c)` bottom-left (`u`), and the
/// rest bottom-right (both). The bits are set from the comparisons with
/// non-short-circuit `&` and `|`, so the draw has no data-dependent
/// branch.
fn rmat_edge(scale: u32, p: RmatParams, rng: &mut StdRng) -> (VertexId, VertexId) {
    let (ab, abc) = (p.a + p.b, p.a + p.b + p.c);
    let mut u = 0 as VertexId;
    let mut v = 0 as VertexId;
    for _ in 0..scale {
        let r: f64 = rng.gen();
        u = (u << 1) | (r >= ab) as VertexId;
        v = (v << 1) | (((r >= p.a) & (r < ab)) | (r >= abc)) as VertexId;
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let g1 = rmat(8, 8, RmatParams::default(), 42);
        let g2 = rmat(8, 8, RmatParams::default(), 42);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = rmat(8, 8, RmatParams::default(), 1);
        let g2 = rmat(8, 8, RmatParams::default(), 2);
        assert_ne!(g1, g2);
    }

    #[test]
    fn size_is_close_to_nominal() {
        let g = rmat(10, 8, RmatParams::default(), 7);
        assert_eq!(g.num_vertices(), 1024);
        // Dedup removes some edges but most survive.
        assert!(g.num_edges() > 1024 * 8 / 2);
        assert!(g.num_edges() <= 1024 * 8);
    }

    #[test]
    fn skewed_quadrants_produce_skewed_degrees() {
        let g = rmat(10, 8, RmatParams::default(), 11);
        let max_d = g.vertices().map(|u| g.degree(u)).max().unwrap_or(0);
        // Power-law-ish: the hub degree dwarfs the average (16).
        assert!(
            max_d > 8 * g.average_degree() as usize,
            "max degree {max_d} not skewed"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_params_panic() {
        let p = RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.0,
            d: 0.0,
        };
        let _ = rmat(4, 2, p, 0);
    }
}
