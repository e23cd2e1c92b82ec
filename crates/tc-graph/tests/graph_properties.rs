//! Property tests on the core graph data structures.

use proptest::prelude::*;
use tc_graph::generators::erdos_renyi;
use tc_graph::{orient_by_rank, CsrGraph, GraphBuilder, Permutation, VertexId};

/// Strategy: an arbitrary small raw edge list (duplicates and self-loops
/// included — the builder must clean them up).
fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..max_m);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder output always satisfies every CSR invariant.
    #[test]
    fn builder_output_is_always_valid((n, edges) in arb_edges(64, 200)) {
        let g = GraphBuilder::from_edges(n as usize, &edges).build();
        prop_assert_eq!(g.num_vertices(), n as usize);
        prop_assert!(g.validate().is_ok());
        // No self-loops survive, and the edge count never exceeds the
        // distinct input pairs.
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v));
        }
    }

    /// Builder is idempotent: rebuilding from its own edge list gives the
    /// same graph.
    #[test]
    fn builder_round_trips((n, edges) in arb_edges(48, 150)) {
        let g = GraphBuilder::from_edges(n as usize, &edges).build();
        let again = GraphBuilder::from_edges(
            g.num_vertices(),
            &g.edges().collect::<Vec<_>>(),
        ).build();
        prop_assert_eq!(g, again);
    }

    /// Applying a permutation then its inverse is the identity.
    #[test]
    fn permutation_inverse_round_trips(
        (n, edges) in arb_edges(40, 120),
        seed in 0u64..1_000,
    ) {
        let g = GraphBuilder::from_edges(n as usize, &edges).build();
        let perm = random_permutation(n as usize, seed);
        let h = perm.apply(&g);
        let back = perm.inverse().apply(&h);
        prop_assert_eq!(back, g);
    }

    /// Any injective rank orients every edge exactly once, acyclically.
    #[test]
    fn orientation_is_total_and_antisymmetric(
        (n, edges) in arb_edges(40, 120),
        seed in 0u64..1_000,
    ) {
        let g = GraphBuilder::from_edges(n as usize, &edges).build();
        // A random bijective rank.
        let rank: Vec<u64> = random_permutation(n as usize, seed)
            .as_slice().iter().map(|&v| v as u64).collect();
        let d = orient_by_rank(&g, &rank);
        prop_assert_eq!(d.num_edges(), g.num_edges());
        prop_assert!(d.validate().is_ok());
        for (u, v) in g.edges() {
            prop_assert!(d.has_edge(u, v) ^ d.has_edge(v, u));
        }
    }

    /// Text round trip: write_edge_list ∘ read_edge_list preserves edges.
    #[test]
    fn text_io_round_trips(seed in 0u64..500) {
        let g = erdos_renyi(60, 180, seed);
        let mut buf = Vec::new();
        tc_graph::io::write_edge_list(&g, &mut buf).expect("write");
        let h = tc_graph::io::read_edge_list(&buf[..]).expect("read");
        prop_assert_eq!(g.num_edges(), h.num_edges());
    }

    /// Binary round trip is exact.
    #[test]
    fn binary_io_round_trips(seed in 0u64..500) {
        let g = erdos_renyi(60, 180, seed);
        let bytes = tc_graph::binary_io::graph_to_bytes(&g);
        let h = tc_graph::binary_io::graph_from_bytes(&bytes).expect("read");
        prop_assert_eq!(g, h);
    }

    /// Component sizes partition the vertex set, and each component is
    /// internally reachable.
    #[test]
    fn components_partition_the_graph(seed in 0u64..500) {
        let g = erdos_renyi(80, 90, seed); // sparse → multiple components
        let c = tc_graph::components::connected_components(&g);
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), g.num_vertices());
        for (u, v) in g.edges() {
            prop_assert_eq!(c.label[u as usize], c.label[v as usize]);
        }
    }
}

/// Deterministic pseudo-random permutation (Fisher–Yates on a seeded LCG;
/// proptest drives the seed).
fn random_permutation(n: usize, seed: u64) -> Permutation {
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    Permutation::from_order(&order)
}

#[test]
fn empty_inputs_are_fine() {
    let g = CsrGraph::empty(0);
    assert!(g.validate().is_ok());
    let p = Permutation::identity(0);
    assert_eq!(p.apply(&g), g);
    assert_eq!(orient_by_rank(&g, &[]).num_edges(), 0);
}
