//! Edge-directing schemes (Section 4).
//!
//! Every scheme reduces to a strict total *rank* over vertices; each
//! undirected edge is oriented from lower to higher rank, which guarantees
//! acyclicity (no directed 3-cycles, so every triangle is counted exactly
//! once — the paper's footnote 1 requirement).

pub mod a_direction;
pub mod optimal;
pub mod ratio;

pub use a_direction::{a_direction_phased_rank, a_direction_rank};
pub use optimal::optimal_direction_cost;
pub use ratio::{approximation_ratio_bound, RatioBound};

use tc_graph::{degree_rank, orient_by_rank, CsrGraph, DirectedGraph};

/// The edge-directing strategies the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DirectionScheme {
    /// Small vertex id → large vertex id.
    IdBased,
    /// Small degree → large degree ("D-direction", the popular heuristic;
    /// ties broken by id).
    DegreeBased,
    /// The paper's analytic peeling scheme (Algorithm 1), realized as the
    /// exact smallest-residual-first peel.
    #[default]
    ADirection,
    /// Algorithm 1 with the pseudocode's literal threshold-doubling
    /// schedule — kept for the ablation study (coarser peel, worse
    /// Equation-1 cost, same complexity).
    ADirectionPhased,
}

impl DirectionScheme {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DirectionScheme::IdBased => "ID-based",
            DirectionScheme::DegreeBased => "D-direction",
            DirectionScheme::ADirection => "A-direction",
            DirectionScheme::ADirectionPhased => "A-direction (phased)",
        }
    }

    /// The three schemes of the paper's tables.
    pub fn all() -> [DirectionScheme; 3] {
        [
            DirectionScheme::IdBased,
            DirectionScheme::DegreeBased,
            DirectionScheme::ADirection,
        ]
    }

    /// The rank array realizing this scheme on `g`.
    pub fn rank(&self, g: &CsrGraph) -> Vec<u64> {
        match self {
            DirectionScheme::IdBased => g.vertices().map(u64::from).collect(),
            DirectionScheme::DegreeBased => degree_rank(g),
            DirectionScheme::ADirection => a_direction_rank(g),
            DirectionScheme::ADirectionPhased => a_direction_phased_rank(g),
        }
    }

    /// Orients `g` under this scheme.
    pub fn orient(&self, g: &CsrGraph) -> DirectedGraph {
        orient_by_rank(g, &self.rank(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::direction_cost;
    use tc_algos::cpu;
    use tc_graph::generators::power_law_configuration;

    #[test]
    fn all_schemes_preserve_triangle_count() {
        let g = power_law_configuration(400, 2.2, 8.0, 7);
        let expect = cpu::node_iterator(&g);
        for scheme in DirectionScheme::all() {
            let d = scheme.orient(&g);
            assert_eq!(cpu::directed_count(&d), expect, "{}", scheme.name());
            assert_eq!(
                d.find_directed_triangle_cycle(),
                None,
                "{} produced a 3-cycle",
                scheme.name()
            );
        }
    }

    #[test]
    fn degree_based_beats_id_based_on_skewed_graphs() {
        let g = power_law_configuration(2000, 2.1, 10.0, 1);
        let id = direction_cost(&DirectionScheme::IdBased.orient(&g));
        let deg = direction_cost(&DirectionScheme::DegreeBased.orient(&g));
        assert!(deg < id, "degree {deg} should beat id {id}");
    }

    #[test]
    fn a_direction_not_worse_than_degree_based() {
        for seed in 0..5u64 {
            let g = power_law_configuration(1500, 2.2, 8.0, seed);
            let deg = direction_cost(&DirectionScheme::DegreeBased.orient(&g));
            let a = direction_cost(&DirectionScheme::ADirection.orient(&g));
            assert!(
                a <= deg * 1.02,
                "seed {seed}: A-direction {a} vs D-direction {deg}"
            );
        }
    }
}
