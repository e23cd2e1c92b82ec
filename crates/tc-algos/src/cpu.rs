//! Exact CPU triangle counters.
//!
//! These serve three roles: ground truth for every GPU run, the reference
//! baselines the GPU literature compares against (node-iterator,
//! edge-iterator, forward — Schank & Wagner's taxonomy, Section 2.2.1 of
//! the paper), and a Shun-style multicore counter built on scoped threads.
//!
//! Except for the deliberately naive [`node_iterator`] (the ground truth
//! everything else is tested against) and the [`hashed_count`] baseline,
//! every counter here runs on the adaptive intersection engine
//! ([`crate::engine`]): the `*_with` variants take an explicit
//! [`Kernel`] and [`Scratch`] so callers with long-lived working memory
//! (services, streams, benchmarks) get zero-allocation hot loops, and the
//! plain variants default to [`Kernel::Adaptive`] on the thread-local
//! scratch.

use crate::engine::{self, with_thread_scratch, Kernel, Scratch};
use tc_graph::{degree_rank, orient_by_rank, CsrGraph, DirectedGraph};

/// Node-iterator: for every vertex, test every neighbour pair for an edge.
///
/// Each triangle `u < v < w` is counted exactly once, at its smallest
/// vertex. `O(Σ d(v)²)` — the slowest classical baseline. Kept off the
/// engine on purpose: it is the independent reference the differential
/// suites compare every kernel against.
pub fn node_iterator(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    for u in g.vertices() {
        let nbrs = g.neighbors(u);
        for (i, &v) in nbrs.iter().enumerate() {
            if v <= u {
                continue;
            }
            for &w in &nbrs[i + 1..] {
                if g.has_edge(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Edge-iterator: for every edge, intersect the endpoints' adjacency
/// lists. Every triangle is seen from its three edges, so the sum is
/// divided by three.
pub fn edge_iterator(g: &CsrGraph) -> u64 {
    let total: u64 = g
        .edges()
        .map(|(u, v)| engine::intersect_count(g.neighbors(u), g.neighbors(v)))
        .sum();
    debug_assert_eq!(total % 3, 0, "each triangle must be seen thrice");
    total / 3
}

/// The forward algorithm: orient edges from lower to higher (degree, id)
/// rank, then count directed wedges that close. `O(m^{3/2})`.
pub fn forward(g: &CsrGraph) -> u64 {
    with_thread_scratch(|scratch| forward_with(g, Kernel::Adaptive, scratch))
}

/// [`forward`] under an explicit kernel and caller-owned scratch.
pub fn forward_with(g: &CsrGraph, kernel: Kernel, scratch: &mut Scratch) -> u64 {
    let oriented = orient_by_rank(g, &degree_rank(g));
    directed_count_with(&oriented, kernel, scratch)
}

/// The canonical exact counter on an oriented graph: for each directed
/// edge `u → v`, triangles through it are `|N⁺(u) ∩ N⁺(v)|`.
///
/// Every GPU algorithm in this workspace must agree with this function —
/// the integration suite enforces it.
pub fn directed_count(g: &DirectedGraph) -> u64 {
    with_thread_scratch(|scratch| directed_count_with(g, Kernel::Adaptive, scratch))
}

/// [`directed_count`] under an explicit kernel and caller-owned scratch.
pub fn directed_count_with(g: &DirectedGraph, kernel: Kernel, scratch: &mut Scratch) -> u64 {
    engine::directed_triangles(g, kernel, scratch)
}

/// Hash-based counter (the second strategy in Shun & Tangwongsan's
/// multicore study): each vertex's out-neighbourhood goes into a hash set
/// once, then every wedge does an `O(1)` membership probe instead of a
/// merge. Kept as the seed-era baseline the engine's stamp array replaces
/// — `cpu-bench` measures both so the win stays visible.
pub fn hashed_count(g: &DirectedGraph) -> u64 {
    use std::collections::HashSet;
    let mut count = 0u64;
    let mut set: HashSet<u32> = HashSet::new();
    for u in g.vertices() {
        let out_u = g.out_neighbors(u);
        if out_u.len() < 2 {
            continue; // a triangle at u needs two distinct out-edges
        }
        set.clear();
        set.extend(out_u.iter().copied());
        for &v in out_u {
            for w in g.out_neighbors(v) {
                if set.contains(w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Shun-style multicore counter: vertex ranges processed by scoped worker
/// threads, each with its own [`Scratch`], partial sums combined at the
/// end. Exact and deterministic at every thread count.
pub fn parallel_count(g: &DirectedGraph, num_threads: usize) -> u64 {
    let num_threads = num_threads.max(1);
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let chunk = n.div_ceil(num_threads);
    let mut partials = vec![0u64; num_threads];
    std::thread::scope(|scope| {
        for (t, out) in partials.iter_mut().enumerate() {
            let start = (t * chunk).min(n);
            let end = ((t + 1) * chunk).min(n);
            scope.spawn(move || {
                let mut scratch = Scratch::new();
                scratch.reserve_vertices(n);
                let mut local = 0u64;
                for u in start as u32..end as u32 {
                    local += engine::vertex_triangles(g, u, Kernel::Adaptive, &mut scratch);
                }
                *out = local;
            });
        }
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators::{erdos_renyi, power_law_configuration, watts_strogatz};
    use tc_graph::GraphBuilder;

    fn k4() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build()
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = k4();
        assert_eq!(node_iterator(&g), 4);
        assert_eq!(edge_iterator(&g), 4);
        assert_eq!(forward(&g), 4);
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // A path and a 4-cycle.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).build();
        assert_eq!(node_iterator(&g), 0);
        assert_eq!(edge_iterator(&g), 0);
        assert_eq!(forward(&g), 0);
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = CsrGraph::empty(10);
        assert_eq!(node_iterator(&g), 0);
        assert_eq!(forward(&g), 0);
    }

    #[test]
    fn all_counters_agree_on_random_graphs() {
        for seed in 0..5u64 {
            let g = erdos_renyi(120, 600, seed);
            let expect = node_iterator(&g);
            assert_eq!(edge_iterator(&g), expect, "seed {seed}");
            assert_eq!(forward(&g), expect, "seed {seed}");
        }
    }

    #[test]
    fn counters_agree_on_skewed_graphs() {
        let g = power_law_configuration(800, 2.1, 7.0, 3);
        let expect = node_iterator(&g);
        assert_eq!(edge_iterator(&g), expect);
        assert_eq!(forward(&g), expect);
    }

    #[test]
    fn ring_lattice_triangle_count_formula() {
        // Watts–Strogatz with beta = 0, k = 2: exactly n triangles.
        let g = watts_strogatz(50, 2, 0.0, 0);
        assert_eq!(node_iterator(&g), 50);
    }

    #[test]
    fn directed_count_invariant_to_orientation() {
        let g = power_law_configuration(400, 2.2, 6.0, 9);
        let expect = node_iterator(&g);
        // Any acyclic orientation preserves the count.
        let by_id: Vec<u64> = g.vertices().map(u64::from).collect();
        let by_rev: Vec<u64> = g.vertices().map(|u| u64::MAX - u as u64).collect();
        assert_eq!(directed_count(&orient_by_rank(&g, &by_id)), expect);
        assert_eq!(directed_count(&orient_by_rank(&g, &by_rev)), expect);
    }

    #[test]
    fn hashed_matches_merge() {
        for seed in 0..4u64 {
            let g = power_law_configuration(500, 2.2, 7.0, seed);
            let rank: Vec<u64> = g.vertices().map(u64::from).collect();
            let d = orient_by_rank(&g, &rank);
            assert_eq!(hashed_count(&d), directed_count(&d), "seed {seed}");
        }
    }

    #[test]
    fn every_kernel_matches_directed_count() {
        let g = power_law_configuration(500, 2.1, 8.0, 11);
        let expect = node_iterator(&g);
        let mut scratch = Scratch::new();
        for kernel in Kernel::ALL {
            assert_eq!(
                forward_with(&g, kernel, &mut scratch),
                expect,
                "kernel {}",
                kernel.name()
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let g = power_law_configuration(600, 2.3, 8.0, 4);
        let rank: Vec<u64> = g.vertices().map(u64::from).collect();
        let d = orient_by_rank(&g, &rank);
        let serial = directed_count(&d);
        for threads in [1, 2, 4, 7] {
            assert_eq!(parallel_count(&d, threads), serial, "threads={threads}");
        }
    }
}
