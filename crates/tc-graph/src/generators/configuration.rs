//! Power-law configuration model (Aiello–Chung–Lu style).

use crate::{CsrGraph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a degree sequence of length `n` from a discrete power law
/// `Pr[d] ∝ d^(-gamma)` on `1..=max_degree`, scaled so the *average* degree
/// is approximately `target_avg_degree`.
///
/// This is the sequence family the paper uses (via the ACL configuration
/// model) for its Figure 7 study of the approximation ratio under varying
/// edge density.
pub fn power_law_degree_sequence(
    n: usize,
    gamma: f64,
    target_avg_degree: f64,
    max_degree: usize,
    seed: u64,
) -> Vec<usize> {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    assert!(max_degree >= 1);
    let mut rng = StdRng::seed_from_u64(seed);

    // Inverse-CDF sampling over the truncated discrete power law.
    let weights: Vec<f64> = (1..=max_degree).map(|d| (d as f64).powf(-gamma)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(max_degree);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let mut degrees: Vec<usize> = (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            match cdf.binary_search_by(|p| p.partial_cmp(&r).expect("finite")) {
                Ok(i) | Err(i) => (i + 1).min(max_degree),
            }
        })
        .collect();

    // Rescale multiplicatively toward the target average, clamping to the
    // valid range — this keeps the shape while letting callers sweep density.
    let avg = degrees.iter().sum::<usize>() as f64 / n.max(1) as f64;
    if avg > 0.0 {
        let scale = target_avg_degree / avg;
        for d in &mut degrees {
            *d = (((*d as f64) * scale).round() as usize).clamp(1, max_degree);
        }
    }
    degrees
}

/// Instantiates a configuration-model graph from a power-law degree
/// sequence: stubs are shuffled and paired; self-loops and multi-edges are
/// dropped (erased configuration model), so realized degrees are close to
/// but not exactly the drawn sequence — standard practice, and all the
/// paper's analysis needs is the degree *shape*.
///
/// # Panics
/// Panics if `n < 2`: no vertex could have a neighbour.
pub fn power_law_configuration(
    n: usize,
    gamma: f64,
    target_avg_degree: f64,
    seed: u64,
) -> CsrGraph {
    assert!(n >= 2, "need at least two vertices");
    let max_degree = (n as f64).sqrt() as usize * 4 + 8;
    let degrees =
        power_law_degree_sequence(n, gamma, target_avg_degree, max_degree.min(n - 1), seed);
    from_degree_sequence(&degrees, seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// Pairs stubs of the given degree sequence uniformly at random (erased
/// configuration model).
pub fn from_degree_sequence(degrees: &[usize], seed: u64) -> CsrGraph {
    let n = degrees.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<VertexId> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as VertexId, d));
    }
    // Fisher–Yates shuffle.
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    let mut b = GraphBuilder::with_capacity(n, stubs.len() / 2);
    for pair in stubs.chunks_exact(2) {
        b.add_edge(pair[0], pair[1]);
    }
    drop(stubs);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_deterministic() {
        let a = power_law_degree_sequence(100, 2.2, 8.0, 50, 3);
        let b = power_law_degree_sequence(100, 2.2, 8.0, 50, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_hits_target_density_roughly() {
        let degs = power_law_degree_sequence(5000, 2.2, 10.0, 200, 5);
        let avg = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!((avg - 10.0).abs() < 3.0, "avg degree {avg} far from target");
    }

    #[test]
    fn graph_is_valid_and_skewed() {
        let g = power_law_configuration(2000, 2.1, 8.0, 9);
        assert!(g.validate().is_ok());
        let max_d = g.vertices().map(|u| g.degree(u)).max().unwrap_or(0);
        assert!(max_d as f64 > 3.0 * g.average_degree());
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn configuration_rejects_an_empty_graph() {
        power_law_configuration(0, 2.1, 4.0, 1);
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn configuration_rejects_a_single_vertex() {
        power_law_configuration(1, 2.1, 4.0, 1);
    }

    #[test]
    fn degree_sequence_graph_respects_bounds() {
        let g = from_degree_sequence(&[3, 3, 2, 2, 1, 1], 4);
        assert_eq!(g.num_vertices(), 6);
        for u in g.vertices() {
            assert!(g.degree(u) <= 3 + 2); // erased model can only lose edges
        }
    }
}
