//! The end-to-end preprocessing pipeline: direction → ordering → rebuild.
//!
//! The rebuild writes the oriented CSR straight into the new id space
//! ([`orient_relabelled`]); the relabelled undirected graph, which the
//! kernels never read, is not built.

use crate::direction::DirectionScheme;
use crate::model::ModelParams;
use crate::ordering::{OrderingContext, OrderingScheme};
use std::time::{Duration, Instant};
use tc_graph::{orient_relabelled, CsrGraph, DirectedGraph, Permutation};

/// Wall-clock cost of each preprocessing stage. The paper's "total time"
/// columns add the relevant stage(s) to the kernel time — preprocessing
/// that costs more than it saves is precisely what Tables 5/6 expose in
/// the DFS/BFS-R/SlashBurn/GRO baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct PreprocessTimings {
    /// Computing the direction rank.
    pub direction: Duration,
    /// Computing the vertex ordering.
    pub ordering: Duration,
    /// Building the relabelled, oriented CSR.
    pub rebuild: Duration,
}

impl PreprocessTimings {
    /// Direction + ordering + rebuild, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.direction + self.ordering + self.rebuild).as_secs_f64() * 1e3
    }

    /// Ordering stage only, in milliseconds (the reordering-experiment
    /// accounting of Tables 5/6).
    pub fn ordering_ms(&self) -> f64 {
        self.ordering.as_secs_f64() * 1e3
    }

    /// Direction stage only, in milliseconds (the directing-experiment
    /// accounting of Figures 12/13).
    pub fn direction_ms(&self) -> f64 {
        self.direction.as_secs_f64() * 1e3
    }
}

/// Output of [`Preprocessor::run`]: the relabelled, oriented CSR the
/// kernels read, and the relabelling that produced it. The relabelled
/// undirected graph is never built, so nothing beside these two is kept.
#[derive(Clone, Debug)]
pub struct PreprocessResult {
    directed: DirectedGraph,
    permutation: Permutation,
    /// Stage timings.
    pub timings: PreprocessTimings,
}

impl PreprocessResult {
    /// Reassembles a result from its parts — the snapshot
    /// deserialization path. The timings are zeroed: a recovered variant
    /// never re-paid its preprocessing, which is the point.
    pub fn from_parts(directed: DirectedGraph, permutation: Permutation) -> Result<Self, String> {
        if permutation.len() != directed.num_vertices() {
            return Err(format!(
                "permutation maps {} vertices, directed graph has {}",
                permutation.len(),
                directed.num_vertices()
            ));
        }
        Ok(Self {
            directed,
            permutation,
            timings: PreprocessTimings::default(),
        })
    }

    /// The oriented graph the kernels consume (new id space).
    pub fn directed(&self) -> &DirectedGraph {
        &self.directed
    }

    /// The applied relabelling (old → new).
    pub fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    /// Approximate resident size of this result in bytes: the oriented
    /// CSR and the permutation. Cache layers (the `tc-service` registry)
    /// charge entries against a byte budget with this estimate.
    pub fn approx_bytes(&self) -> usize {
        self.directed.approx_bytes() + self.permutation.approx_bytes()
    }
}

/// Builder composing an edge-directing scheme with a vertex-ordering
/// scheme — the paper's full preprocessing (Section 6.5 combines both).
///
/// ```
/// use tc_core::{Preprocessor, DirectionScheme, OrderingScheme};
/// use tc_graph::generators::power_law_configuration;
///
/// let g = power_law_configuration(500, 2.2, 8.0, 1);
/// let prep = Preprocessor::new()
///     .direction(DirectionScheme::ADirection)
///     .ordering(OrderingScheme::AOrder)
///     .run(&g);
/// assert_eq!(prep.directed().num_edges(), g.num_edges());
/// ```
#[derive(Clone, Debug)]
pub struct Preprocessor {
    direction: DirectionScheme,
    ordering: OrderingScheme,
    bucket_size: usize,
    params: Option<ModelParams>,
}

impl Default for Preprocessor {
    fn default() -> Self {
        Self::new()
    }
}

impl Preprocessor {
    /// A preprocessor with the paper's recommended defaults: A-direction +
    /// A-order, bucket size matching Hu's kernel.
    pub fn new() -> Self {
        Self {
            direction: DirectionScheme::ADirection,
            ordering: OrderingScheme::AOrder,
            bucket_size: 64,
            params: None,
        }
    }

    /// Selects the edge-directing scheme.
    pub fn direction(mut self, d: DirectionScheme) -> Self {
        self.direction = d;
        self
    }

    /// Selects the vertex-ordering scheme.
    pub fn ordering(mut self, o: OrderingScheme) -> Self {
        self.ordering = o;
        self
    }

    /// Sets the bucket size `k` (must match the kernel's block work-set).
    pub fn bucket_size(mut self, k: usize) -> Self {
        self.bucket_size = k.max(1);
        self
    }

    /// Supplies calibrated model parameters (defaults to the analytic
    /// fallback otherwise).
    pub fn params(mut self, p: ModelParams) -> Self {
        self.params = Some(p);
        self
    }

    /// Runs the pipeline on an undirected graph.
    pub fn run(&self, g: &CsrGraph) -> PreprocessResult {
        let params = self
            .params
            .clone()
            .unwrap_or_else(ModelParams::default_analytic);

        // Stage 1: direction rank.
        let t = Instant::now();
        let rank = self.direction.rank(g);
        let direction_time = t.elapsed();

        // Out-degrees implied by the rank (needed by A-order; cheap scan).
        let out_degrees_old: Vec<usize> = g
            .vertices()
            .map(|u| {
                let ru = rank[u as usize];
                g.neighbors(u)
                    .iter()
                    .filter(|&&v| ru < rank[v as usize])
                    .count()
            })
            .collect();

        // Stage 2: ordering.
        let t = Instant::now();
        let ctx = OrderingContext {
            out_degrees: &out_degrees_old,
            params: &params,
            bucket_size: self.bucket_size,
        };
        let permutation = self.ordering.permutation(g, &ctx);
        let ordering_time = t.elapsed();
        // Freed before the rebuild allocates the oriented CSR.
        drop(out_degrees_old);

        // Stage 3: build the oriented CSR in the new id space.
        let t = Instant::now();
        let directed = orient_relabelled(g, &rank, &permutation);
        let rebuild_time = t.elapsed();

        PreprocessResult {
            directed,
            permutation,
            timings: PreprocessTimings {
                direction: direction_time,
                ordering: ordering_time,
                rebuild: rebuild_time,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_algos::cpu;
    use tc_graph::generators::{power_law_configuration, rmat, road_lattice, RmatParams};
    use tc_graph::{orient_by_rank, GraphBuilder};

    #[test]
    fn every_combination_preserves_triangles() {
        let g = power_law_configuration(300, 2.2, 7.0, 4);
        let expect = cpu::node_iterator(&g);
        for direction in DirectionScheme::all() {
            for ordering in [
                OrderingScheme::Original,
                OrderingScheme::DegreeOrder,
                OrderingScheme::AOrder,
            ] {
                let prep = Preprocessor::new()
                    .direction(direction)
                    .ordering(ordering)
                    .run(&g);
                assert_eq!(
                    cpu::directed_count(prep.directed()),
                    expect,
                    "{} + {}",
                    direction.name(),
                    ordering.name()
                );
                assert_eq!(
                    prep.directed().find_directed_triangle_cycle(),
                    None,
                    "{} + {} produced a 3-cycle",
                    direction.name(),
                    ordering.name()
                );
            }
        }
    }

    /// The graphs the oriented-CSR differential runs on: skewed,
    /// recursive-matrix, near-regular, a single hub, no vertices at all,
    /// and edges beside isolated vertices.
    fn differential_graphs() -> Vec<(&'static str, CsrGraph)> {
        let star: Vec<(u32, u32)> = (1..40).map(|v| (0, v)).collect();
        vec![
            ("power-law", power_law_configuration(300, 2.1, 7.0, 11)),
            ("rmat", rmat(8, 6, RmatParams::default(), 5)),
            ("road-lattice", road_lattice(12, 15, 0.2, 0.1, 3)),
            ("star", GraphBuilder::from_edges(40, &star).build()),
            ("empty", CsrGraph::empty(0)),
            (
                "isolated",
                GraphBuilder::from_edges(12, &[(1, 4), (4, 9), (1, 9), (9, 10), (6, 7)]).build(),
            ),
        ]
    }

    #[test]
    fn run_matches_orienting_the_relabelled_graph() {
        for (name, g) in differential_graphs() {
            for direction in DirectionScheme::all() {
                for ordering in OrderingScheme::all() {
                    let prep = Preprocessor::new()
                        .direction(direction)
                        .ordering(ordering)
                        .run(&g);
                    let perm = prep.permutation();
                    let rank = direction.rank(&g);
                    let mut relabelled = vec![0u64; rank.len()];
                    for (old, &r) in rank.iter().enumerate() {
                        relabelled[perm.map(old as u32) as usize] = r;
                    }
                    let expect = orient_by_rank(&perm.apply(&g), &relabelled);
                    assert_eq!(
                        prep.directed(),
                        &expect,
                        "{name}: {} + {}",
                        direction.name(),
                        ordering.name()
                    );
                }
            }
        }
    }

    #[test]
    fn out_degrees_match_directed_graph() {
        let g = power_law_configuration(200, 2.1, 6.0, 9);
        let prep = Preprocessor::new().run(&g);
        let rank = DirectionScheme::ADirection.rank(&g);
        let mut expect = vec![0usize; g.num_vertices()];
        for u in g.vertices() {
            let ru = rank[u as usize];
            expect[prep.permutation().map(u) as usize] = g
                .neighbors(u)
                .iter()
                .filter(|&&v| ru < rank[v as usize])
                .count();
        }
        assert_eq!(prep.directed().out_degrees(), expect);
    }

    #[test]
    fn timings_are_recorded() {
        let g = power_law_configuration(400, 2.2, 8.0, 2);
        let prep = Preprocessor::new().ordering(OrderingScheme::Gro).run(&g);
        assert!(prep.timings.total_ms() > 0.0);
        assert!(prep.timings.ordering_ms() >= 0.0);
    }

    #[test]
    fn original_ordering_keeps_ids() {
        let g = power_law_configuration(100, 2.2, 5.0, 3);
        let prep = Preprocessor::new()
            .ordering(OrderingScheme::Original)
            .run(&g);
        assert_eq!(
            prep.directed(),
            &orient_by_rank(&g, &DirectionScheme::ADirection.rank(&g))
        );
        assert_eq!(
            prep.permutation(),
            &tc_graph::Permutation::identity(g.num_vertices())
        );
    }
}
