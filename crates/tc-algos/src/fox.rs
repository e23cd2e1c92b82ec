//! Fox, Green et al. (HPEC'18): adaptive list intersections via
//! logarithmic radix binning.
//!
//! Edges are binned by the logarithm of their estimated intersection work
//! so each block receives work-items of similar size; within a block the
//! kernel proceeds warp-per-edge like TriCore. The *edge order* is this
//! algorithm's block-assignment knob: the paper's Figure 15 swaps Fox's
//! default binned order for an analytically balanced one (A-order over
//! edges) and gains 2–26%.

use crate::tricore::TriCoreKernel;
use crate::{run_kernel, GpuTriangleCounter, RunResult};
use tc_gpusim::search::SearchCosts;
use tc_gpusim::GpuConfig;
use tc_graph::DirectedGraph;

/// Fox's adaptive-binning algorithm.
#[derive(Clone, Debug)]
pub struct Fox {
    /// Explicit edge processing order. `None` = logarithmic radix binning
    /// (the algorithm's default).
    pub edge_order: Option<Vec<u32>>,
    /// Edges per warp.
    pub edges_per_warp: usize,
    /// Search-loop cost constants.
    pub costs: SearchCosts,
}

impl Default for Fox {
    fn default() -> Self {
        Self {
            edge_order: None,
            edges_per_warp: 4,
            costs: SearchCosts::default(),
        }
    }
}

impl Fox {
    /// Fox with an explicit edge order (the Figure 15 experiment).
    pub fn with_edge_order(order: Vec<u32>) -> Self {
        Self {
            edge_order: Some(order),
            ..Self::default()
        }
    }

    /// The default logarithmic radix binning: edges stably bucketed by
    /// `log2` of their estimated work `d⁺(u) + d⁺(v)`.
    pub fn radix_bin_order(g: &DirectedGraph) -> Vec<u32> {
        let mut edge_src = Vec::with_capacity(g.num_edges());
        for u in g.vertices() {
            edge_src.extend(std::iter::repeat_n(u, g.out_degree(u)));
        }
        let bin = |e: &u32| -> u32 {
            let u = edge_src[*e as usize];
            let v = g.out_neighbor_array()[*e as usize];
            let work = (g.out_degree(u) + g.out_degree(v)) as u32;
            33 - (work + 1).leading_zeros()
        };
        let mut order: Vec<u32> = (0..g.num_edges() as u32).collect();
        order.sort_by_key(bin);
        order
    }
}

impl GpuTriangleCounter for Fox {
    fn name(&self) -> &'static str {
        "Fox"
    }

    fn count(&self, g: &DirectedGraph, gpu: &GpuConfig) -> RunResult {
        let order = match &self.edge_order {
            Some(o) => o.clone(),
            None => Self::radix_bin_order(g),
        };
        // Lean kernel: high occupancy, like TriCore.
        let gpu = gpu.with_blocks_per_sm(gpu.blocks_per_sm.max(6));
        let kernel =
            TriCoreKernel::new(g, &gpu, self.edges_per_warp, self.costs).with_edge_order(order);
        run_kernel(&kernel, &gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use tc_graph::generators::{erdos_renyi, power_law_configuration};
    use tc_graph::{orient_by_rank, GraphBuilder};

    fn orient(g: &tc_graph::CsrGraph) -> DirectedGraph {
        let rank: Vec<u64> = g.vertices().map(u64::from).collect();
        orient_by_rank(g, &rank)
    }

    #[test]
    fn counts_k4() {
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build();
        let r = Fox::default().count(&orient(&g), &GpuConfig::tiny());
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn matches_cpu() {
        let gpu = GpuConfig::titan_xp_like();
        for seed in 0..3u64 {
            let g = erdos_renyi(130, 550, seed);
            let d = orient(&g);
            assert_eq!(
                Fox::default().count(&d, &gpu).triangles,
                cpu::directed_count(&d),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn custom_edge_order_preserves_count() {
        let g = power_law_configuration(300, 2.2, 7.0, 4);
        let d = orient(&g);
        let gpu = GpuConfig::titan_xp_like();
        let expect = cpu::directed_count(&d);
        // Reverse order is a valid permutation.
        let rev: Vec<u32> = (0..d.num_edges() as u32).rev().collect();
        assert_eq!(Fox::with_edge_order(rev).count(&d, &gpu).triangles, expect);
    }

    #[test]
    fn radix_order_is_a_permutation_sorted_by_work() {
        let g = power_law_configuration(200, 2.2, 6.0, 8);
        let d = orient(&g);
        let order = Fox::radix_bin_order(&d);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..d.num_edges() as u32).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "duplicate edge id")]
    fn invalid_edge_order_rejected() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).build();
        let d = orient(&g);
        let _ = Fox::with_edge_order(vec![0, 0, 1]).count(&d, &GpuConfig::tiny());
    }
}
