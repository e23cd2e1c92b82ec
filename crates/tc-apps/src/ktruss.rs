//! k-truss decomposition (Wang & Cheng; the paper's reference \[31\]).
//!
//! The *k-truss* of a graph is the maximal subgraph in which every edge
//! participates in at least `k − 2` triangles. The decomposition assigns
//! each edge its *trussness*: the largest `k` whose k-truss contains it.
//! Computed by the standard support-peeling algorithm: repeatedly remove
//! the edge of minimum support, decrementing the support of the edges of
//! every triangle it closed.

use std::collections::HashMap;
use tc_algos::engine::{with_thread_scratch, Scratch};
use tc_graph::{CsrGraph, VertexId};

/// The trussness of every edge, keyed by `(u, v)` with `u < v`.
pub fn ktruss_decomposition(g: &CsrGraph) -> HashMap<(VertexId, VertexId), u32> {
    with_thread_scratch(|scratch| ktruss_decomposition_with(g, scratch))
}

/// [`ktruss_decomposition`] with the initial support pass running
/// through a caller-owned scratch.
pub fn ktruss_decomposition_with(
    g: &CsrGraph,
    scratch: &mut Scratch,
) -> HashMap<(VertexId, VertexId), u32> {
    ktruss_from_supports(g, crate::support::supports_in_edge_order_with(g, scratch))
}

/// The peeling phase alone: decomposes `g` given the initial per-edge
/// supports in [`CsrGraph::edges`] order (`support[i]` belongs to the
/// i-th edge). This is the read path for incrementally maintained
/// supports (`tc-analytics`): the support pass is skipped, and because
/// the peel is deterministic in edge order, the
/// result is bit-identical to a full [`ktruss_decomposition`] whenever
/// the supports are.
///
/// Supplying supports that do not match `g` yields an arbitrary (but
/// safe) decomposition.
pub fn ktruss_from_supports(
    g: &CsrGraph,
    mut support: Vec<u32>,
) -> HashMap<(VertexId, VertexId), u32> {
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let m = edges.len();
    assert_eq!(support.len(), m, "one support per edge of g");
    let index_of: HashMap<(VertexId, VertexId), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let edge_key = |a: VertexId, b: VertexId| if a < b { (a, b) } else { (b, a) };

    // Bucket queue over supports.
    let max_support = support.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_support + 1];
    for (i, &s) in support.iter().enumerate() {
        buckets[s as usize].push(i);
    }
    let mut removed = vec![false; m];
    let mut trussness = vec![2u32; m];
    let mut removed_count = 0usize;
    let mut k = 2u32; // current truss level being peeled
    let mut cursor = 0usize;

    while removed_count < m {
        // Find the minimum remaining support (lazy bucket queue).
        while cursor <= max_support && buckets[cursor].is_empty() {
            cursor += 1;
        }
        let e = match buckets.get_mut(cursor).and_then(Vec::pop) {
            Some(e) => e,
            None => break,
        };
        if removed[e] || support[e] as usize != cursor {
            continue; // stale entry
        }
        // Peeling at support s means the edge survives in the (s+2)-truss.
        k = k.max(support[e] + 2);
        trussness[e] = k;
        removed[e] = true;
        removed_count += 1;

        // Every triangle through e loses this edge: decrement the other
        // two edges' supports.
        let (u, v) = edges[e];
        let (short, long) = if g.degree(u) <= g.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        for &w in g.neighbors(short) {
            if w == long || !g.has_edge(long, w) {
                continue;
            }
            // The triangle (u, v, w) only still exists if both its other
            // edges survive; then each loses one unit of support.
            let e1 = index_of[&edge_key(u, w)];
            let e2 = index_of[&edge_key(v, w)];
            if removed[e1] || removed[e2] {
                continue;
            }
            for oi in [e1, e2] {
                if support[oi] > 0 {
                    support[oi] -= 1;
                    let s = support[oi] as usize;
                    buckets[s].push(oi);
                    if s < cursor {
                        cursor = s;
                    }
                }
            }
        }
    }

    edges.into_iter().zip(trussness).collect()
}

/// The maximum trussness over all edges (0 for edgeless graphs).
pub fn max_truss(g: &CsrGraph) -> u32 {
    ktruss_decomposition(g).values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tc_graph::generators::{
        erdos_renyi, power_law_configuration, rmat, watts_strogatz, RmatParams,
    };
    use tc_graph::GraphBuilder;

    /// Trussness by definition: for k = 3, 4, …, repeatedly drop the
    /// edges that close fewer than k − 2 triangles among the surviving
    /// edges; an edge's trussness is the largest k it survives, and 2 if
    /// it survives none.
    fn brute_force_trussness(g: &CsrGraph) -> HashMap<(VertexId, VertexId), u32> {
        let key = |a: VertexId, b: VertexId| if a < b { (a, b) } else { (b, a) };
        let mut truss: HashMap<(VertexId, VertexId), u32> = g.edges().map(|e| (e, 2)).collect();
        let mut alive: HashSet<(VertexId, VertexId)> = truss.keys().copied().collect();
        let mut k = 3u32;
        while !alive.is_empty() {
            loop {
                let weak: Vec<(VertexId, VertexId)> = alive
                    .iter()
                    .copied()
                    .filter(|&(u, v)| {
                        let closed = g
                            .neighbors(u)
                            .iter()
                            .filter(|&&w| alive.contains(&key(u, w)) && alive.contains(&key(v, w)))
                            .count();
                        closed < (k - 2) as usize
                    })
                    .collect();
                if weak.is_empty() {
                    break;
                }
                for e in weak {
                    alive.remove(&e);
                }
            }
            for &e in &alive {
                truss.insert(e, k);
            }
            k += 1;
        }
        truss
    }

    fn clique(n: VertexId) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        GraphBuilder::from_edges(n as usize, &edges).build()
    }

    #[test]
    fn matches_brute_force_trussness_edge_by_edge() {
        let mut graphs: Vec<(String, CsrGraph)> = Vec::new();
        for seed in 0..4u64 {
            graphs.push((
                format!("erdos_renyi seed {seed}"),
                erdos_renyi(60, 400, seed),
            ));
            graphs.push((
                format!("power_law seed {seed}"),
                power_law_configuration(300, 2.2, 8.0, seed),
            ));
            graphs.push((
                format!("rmat seed {seed}"),
                rmat(8, 8, RmatParams::default(), seed),
            ));
        }
        graphs.push(("K8".into(), clique(8)));
        graphs.push(("K4".into(), clique(4)));
        graphs.push((
            "triangle with pendant".into(),
            GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).build(),
        ));
        let mut two_k4s = vec![];
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                two_k4s.push((a, b));
                two_k4s.push((a + 3, b + 3));
            }
        }
        graphs.push((
            "two K4s sharing a vertex".into(),
            GraphBuilder::from_edges(7, &two_k4s).build(),
        ));
        graphs.push((
            "5-cycle".into(),
            GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).build(),
        ));
        graphs.push(("ring lattice".into(), watts_strogatz(24, 2, 0.0, 0)));
        graphs.push(("empty".into(), CsrGraph::empty(5)));
        for (name, g) in &graphs {
            let want = brute_force_trussness(g);
            let got = ktruss_decomposition(g);
            assert_eq!(got.len(), want.len(), "{name}: one trussness per edge");
            for (e, k) in &want {
                assert_eq!(got.get(e), Some(k), "{name}: edge {e:?}");
            }
        }
    }

    #[test]
    fn k4_is_a_4_truss() {
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build();
        let t = ktruss_decomposition(&g);
        assert!(t.values().all(|&k| k == 4), "{t:?}");
        assert_eq!(max_truss(&g), 4);
    }

    #[test]
    fn triangle_with_pendant_edge() {
        // Triangle {0,1,2} (trussness 3) + pendant edge 2-3 (trussness 2).
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).build();
        let t = ktruss_decomposition(&g);
        assert_eq!(t[&(0, 1)], 3);
        assert_eq!(t[&(0, 2)], 3);
        assert_eq!(t[&(1, 2)], 3);
        assert_eq!(t[&(2, 3)], 2);
    }

    #[test]
    fn two_k4s_sharing_a_vertex() {
        // Both cliques keep trussness 4; the shared vertex doesn't merge them.
        let mut edges = vec![];
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
            }
        }
        for a in 3..7u32 {
            for b in (a + 1)..7 {
                edges.push((a, b));
            }
        }
        let g = GraphBuilder::from_edges(7, &edges).build();
        let t = ktruss_decomposition(&g);
        assert!(t.values().all(|&k| k == 4), "{t:?}");
    }

    #[test]
    fn triangle_free_graph_is_all_2_truss() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).build();
        assert!(ktruss_decomposition(&g).values().all(|&k| k == 2));
    }

    #[test]
    fn trussness_matches_definition_on_random_graphs() {
        // Check the defining property: within the k-truss (edges with
        // trussness >= k), every edge closes >= k-2 triangles.
        for seed in 0..3u64 {
            let g = erdos_renyi(40, 200, seed);
            let t = ktruss_decomposition(&g);
            let max_k = t.values().copied().max().unwrap_or(2);
            for k in 3..=max_k {
                let in_truss: std::collections::HashSet<(u32, u32)> = t
                    .iter()
                    .filter(|&(_, &kk)| kk >= k)
                    .map(|(&e, _)| e)
                    .collect();
                for &(u, v) in &in_truss {
                    let mut common = 0;
                    for &w in g.neighbors(u) {
                        if w == v {
                            continue;
                        }
                        let e1 = if u < w { (u, w) } else { (w, u) };
                        let e2 = if v < w { (v, w) } else { (w, v) };
                        if in_truss.contains(&e1) && in_truss.contains(&e2) {
                            common += 1;
                        }
                    }
                    assert!(
                        common >= k - 2,
                        "seed {seed}: edge ({u},{v}) has {common} triangles in the {k}-truss"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_lattice_truss() {
        // Watts-Strogatz beta=0, k=2: every edge to distance-1 neighbours
        // closes 2 triangles, distance-2 edges close 1; the 3-truss keeps
        // everything, the 4-truss... just check it's >= 3.
        let g = watts_strogatz(24, 2, 0.0, 0);
        assert!(max_truss(&g) >= 3);
    }

    #[test]
    fn empty_graph() {
        assert_eq!(max_truss(&CsrGraph::empty(5)), 0);
    }
}
