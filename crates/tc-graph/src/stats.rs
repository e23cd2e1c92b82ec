//! Degree statistics used by the paper's analytic models.

use crate::CsrGraph;

/// Summary of a graph's degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2|E| / |V|`).
    pub mean: f64,
    /// Population standard deviation of the degree distribution.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`); the paper's imbalance
    /// pathologies appear when this is large.
    pub cv: f64,
}

/// Computes [`DegreeStats`] for a graph.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            num_vertices: 0,
            num_edges: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
            cv: 0.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    let mut sum_sq = 0f64;
    for u in g.vertices() {
        let d = g.degree(u);
        min = min.min(d);
        max = max.max(d);
        sum += d;
        sum_sq += (d * d) as f64;
    }
    let mean = sum as f64 / n as f64;
    let var = (sum_sq / n as f64 - mean * mean).max(0.0);
    let std_dev = var.sqrt();
    DegreeStats {
        num_vertices: n,
        num_edges: g.num_edges(),
        min,
        max,
        mean,
        std_dev,
        cv: if mean > 0.0 { std_dev / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{power_law_configuration, road_lattice};
    use crate::GraphBuilder;

    #[test]
    fn stats_of_star_graph() {
        // Star with center 0 and 4 leaves.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
        assert!(s.cv > 0.5);
    }

    #[test]
    fn power_law_graph_has_high_cv_road_low() {
        let pl = degree_stats(&power_law_configuration(3000, 2.2, 8.0, 1));
        let road = degree_stats(&road_lattice(55, 55, 0.05, 0.05, 1));
        assert!(
            pl.cv > 2.0 * road.cv,
            "power-law cv {} vs road cv {}",
            pl.cv,
            road.cv
        );
    }

    #[test]
    fn empty_graph_stats() {
        let s = degree_stats(&CsrGraph::empty(0));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cv, 0.0);
    }
}
