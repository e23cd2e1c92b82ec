//! Per-edge supports and per-vertex triangle counts against a
//! brute-force reference that lives only here.
//!
//! The service's clustering and k-truss gates take their expected values
//! from the same `tc-apps` functions the server calls, so a bug in the
//! counting pass would agree with itself there. This suite recomputes
//! both quantities the slow, obvious way — one merge of the two full
//! neighbour lists per edge — and compares them with `tc-apps`, with a
//! cold `AnalyticsState::build`, and with `SupportBelow` observations of
//! a stream over the graph, on empty, isolated-vertex, star, K₈,
//! Erdős–Rényi, power-law and R-MAT graphs.

use proptest::prelude::*;
use tc_algos::cpu;
use tc_algos::engine::Scratch;
use tc_analytics::{AnalyticsState, Observed, Predicate};
use tc_apps::{supports_in_edge_order_with, triangles_per_vertex, triangles_per_vertex_with};
use tc_graph::generators::{erdos_renyi, power_law_configuration, rmat, RmatParams};
use tc_graph::{CsrGraph, GraphBuilder, VertexId};
use tc_stream::DynamicGraph;

/// The common neighbours of `u` and `v`, by a two-pointer merge of
/// their full sorted lists.
fn common_neighbors(g: &CsrGraph, u: VertexId, v: VertexId) -> Vec<VertexId> {
    let (a, b) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Reference supports, one per edge in `g.edges()` order.
fn reference_supports(g: &CsrGraph) -> Vec<u32> {
    g.edges()
        .map(|(u, v)| common_neighbors(g, u, v).len() as u32)
        .collect()
}

/// Reference per-vertex counts: each triangle `u < v < w` is found at
/// its edge `(u, v)` and credited to all three corners.
fn reference_per_vertex(g: &CsrGraph) -> Vec<u64> {
    let mut counts = vec![0u64; g.num_vertices()];
    for (u, v) in g.edges() {
        for w in common_neighbors(g, u, v) {
            if w > v {
                counts[u as usize] += 1;
                counts[v as usize] += 1;
                counts[w as usize] += 1;
            }
        }
    }
    counts
}

/// Compares every public way of getting supports and per-vertex counts
/// with the reference, through a fresh scratch and through `warm`,
/// which the caller carries across graphs.
fn check(g: &CsrGraph, warm: &mut Scratch) {
    let supports = reference_supports(g);
    let per_vertex = reference_per_vertex(g);

    let expect: Vec<(VertexId, VertexId, u32)> = g
        .edges()
        .zip(&supports)
        .map(|((u, v), &s)| (u, v, s))
        .collect();
    assert_eq!(
        supports_in_edge_order_with(g, &mut Scratch::new()),
        supports,
        "supports_in_edge_order_with diverged from the reference"
    );
    assert_eq!(
        supports_in_edge_order_with(g, warm),
        supports,
        "supports_in_edge_order_with(warm) diverged from the reference"
    );

    assert_eq!(triangles_per_vertex(g), per_vertex, "triangles_per_vertex");
    assert_eq!(
        triangles_per_vertex_with(g, warm),
        per_vertex,
        "triangles_per_vertex_with(warm)"
    );
    let triangles = cpu::node_iterator(g);
    assert_eq!(per_vertex.iter().sum::<u64>(), 3 * triangles);

    let stream = DynamicGraph::new(g.clone());
    assert_eq!(stream.num_edges(), g.num_edges());
    for scratch in [&mut Scratch::new(), warm] {
        let state = AnalyticsState::build(g, scratch);
        assert_eq!(state.num_vertices(), g.num_vertices());
        assert_eq!(state.triangles(), triangles);
        assert_eq!(state.local_counts(), per_vertex.as_slice());
        let observe = |u, v| Predicate::SupportBelow { u, v, k: 1 }.observe(&state, &stream);
        for &(u, v, s) in &expect {
            assert_eq!(
                observe(u, v),
                Observed::Support(Some(s)),
                "support of ({u}, {v})"
            );
            assert_eq!(
                observe(v, u),
                Observed::Support(Some(s)),
                "support of ({v}, {u})"
            );
        }
        // Absent pairs, sampled: the first absent partner of each vertex.
        for u in g.vertices() {
            if let Some(v) = (u + 1..g.num_vertices() as VertexId).find(|&v| !g.has_edge(u, v)) {
                assert_eq!(
                    observe(u, v),
                    Observed::Support(None),
                    "({u}, {v}) is absent"
                );
            }
        }
    }
}

fn complete(n: u32) -> CsrGraph {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            edges.push((a, b));
        }
    }
    GraphBuilder::from_edges(n as usize, &edges).build()
}

/// Hub 0 joined to every other vertex, plus chords between leaves.
fn star(n: u32, chords: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for v in 1..n {
        b.add_edge(0, v);
    }
    for &(x, y) in chords {
        let (u, v) = (1 + x % (n - 1), 1 + y % (n - 1));
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[test]
fn fixed_shapes_match_the_reference() {
    let mut warm = Scratch::new();
    let k8 = complete(8);
    let shapes = [
        ("no vertices", CsrGraph::empty(0)),
        ("isolated vertices only", CsrGraph::empty(9)),
        (
            // A triangle and a pendant edge among isolated vertices, with
            // the isolated ids on both sides of the connected ones.
            "isolated vertices around a triangle",
            GraphBuilder::from_edges(12, &[(3, 7), (7, 9), (3, 9), (9, 10)]).build(),
        ),
        ("star", star(40, &[])),
        (
            "star with chords",
            star(40, &[(0, 1), (1, 2), (5, 9), (30, 2)]),
        ),
        ("K8", k8.clone()),
    ];
    for (name, g) in &shapes {
        println!("{name}");
        check(g, &mut warm);
    }
    // Every edge of K8 closes a triangle with each of the other 6
    // vertices, and every vertex sits in C(7, 2) = 21 triangles.
    assert!(reference_supports(&k8).iter().all(|&s| s == 6));
    assert!(reference_per_vertex(&k8).iter().all(|&c| c == 21));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn erdos_renyi_graphs_match_the_reference(
        (n, m_factor, seed) in (2usize..120, 1usize..8, 0u64..1 << 40),
    ) {
        let mut warm = Scratch::new();
        check(&erdos_renyi(n, n * m_factor, seed), &mut warm);
    }

    #[test]
    fn power_law_graphs_match_the_reference(
        (n, seed) in (20usize..400, 0u64..1 << 40),
    ) {
        let mut warm = Scratch::new();
        check(&power_law_configuration(n, 2.1, 7.0, seed), &mut warm);
    }

    #[test]
    fn rmat_graphs_match_the_reference(
        (scale, edge_factor, seed) in (3u32..9, 2usize..10, 0u64..1 << 40),
    ) {
        let mut warm = Scratch::new();
        check(&rmat(scale, edge_factor, RmatParams::default(), seed), &mut warm);
    }

    #[test]
    fn star_graphs_match_the_reference(
        (n, chords) in (3u32..200, prop::collection::vec((0u32..1000, 0u32..1000), 0..80)),
    ) {
        let mut warm = Scratch::new();
        check(&star(n, &chords), &mut warm);
    }

    /// One scratch carried across graphs that grow and shrink, so stale
    /// marks from a larger graph are in play.
    #[test]
    fn a_scratch_reused_across_graphs_changes_nothing(
        seeds in prop::collection::vec(0u64..1 << 40, 2..6),
    ) {
        let mut warm = Scratch::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let g = if i % 2 == 0 {
                power_law_configuration(300, 2.2, 8.0, seed)
            } else {
                erdos_renyi(30, 90, seed)
            };
            check(&g, &mut warm);
        }
    }
}
