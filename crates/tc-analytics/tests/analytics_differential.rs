//! Differential suite: incrementally maintained analytics vs fresh
//! recomputes, under random insert/delete streams.
//!
//! The acceptance property of the tc-analytics subsystem: after
//! **every** random batch — inserts, deletes, flip-flops, rejects, and
//! any compaction schedule — the maintained per-vertex local counts
//! must equal a fresh `tc-apps` recompute on the materialised graph,
//! the clustering read paths fed from them must be **bit-identical** to
//! the full recomputes, and a `SupportBelow` observation of a present
//! edge must equal its recomputed support (`None` for an absent one).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_algos::engine::Scratch;
use tc_analytics::{AnalyticsState, Observed, Predicate};
use tc_apps::{
    clustering_coefficients_with, coefficients_from_counts, global_clustering_coefficient_with,
    global_from_counts, recommend_for_with, supports_in_edge_order_with, triangles_per_vertex_with,
};
use tc_datasets::Dataset;
use tc_graph::generators::{erdos_renyi, power_law_configuration};
use tc_graph::CsrGraph;
use tc_stream::{CompactionPolicy, DynamicGraph, EdgeOp};

/// Strategy shared with the tc-stream differential suite: a base graph
/// size, a seed, and a stream of raw op batches that intentionally
/// range past the vertex count to exercise rejection.
#[allow(clippy::type_complexity)]
fn arb_stream(
    max_n: u32,
    batches: usize,
    batch_len: usize,
) -> impl Strategy<Value = (u32, u64, Vec<Vec<(u32, u32, bool)>>)> {
    (8..max_n, 0u64..1 << 40).prop_flat_map(move |(n, seed)| {
        let op = (0..n + 2, 0..n + 2, prop_oneof![Just(true), Just(false)]);
        let batch = prop::collection::vec(op, 1..batch_len);
        (
            Just(n),
            Just(seed),
            prop::collection::vec(batch, 1..batches),
        )
    })
}

fn to_ops(raw: &[(u32, u32, bool)]) -> Vec<EdgeOp> {
    raw.iter()
        .map(|&(u, v, ins)| {
            if ins {
                EdgeOp::Insert(u, v)
            } else {
                EdgeOp::Delete(u, v)
            }
        })
        .collect()
}

/// Asserts that a `SupportBelow` observation on the stream `g` reads
/// each edge's recomputed support on `m`, its materialisation, for
/// every `stride`-th edge (both endpoint orders), and `None` for every
/// `stride`-th absent pair.
fn assert_support_observations(
    state: &AnalyticsState,
    g: &DynamicGraph,
    m: &CsrGraph,
    stride: usize,
    scratch: &mut Scratch,
) {
    let observe = |u, v| Predicate::SupportBelow { u, v, k: 1 }.observe(state, g);
    let fresh = supports_in_edge_order_with(m, scratch);
    for ((u, v), support) in m.edges().zip(fresh).step_by(stride) {
        assert_eq!(
            observe(u, v),
            Observed::Support(Some(support)),
            "support of ({u}, {v}) diverged"
        );
        assert_eq!(observe(v, u), Observed::Support(Some(support)));
    }
    let n = m.num_vertices() as u32;
    let absent = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    for (u, v) in absent.filter(|&(u, v)| !m.has_edge(u, v)).step_by(stride) {
        assert_eq!(
            observe(u, v),
            Observed::Support(None),
            "({u}, {v}) is absent"
        );
    }
}

/// Asserts the maintained state equals a fresh build on `m`, field by
/// field, and that the clustering read paths are bit-identical to full
/// recomputes.
fn assert_state_matches(state: &AnalyticsState, m: &CsrGraph, scratch: &mut Scratch) {
    // Per-vertex local counts.
    let fresh_local = triangles_per_vertex_with(m, scratch);
    assert_eq!(state.local_counts(), fresh_local.as_slice());
    assert_eq!(state.triangles(), fresh_local.iter().sum::<u64>() / 3);
    assert_eq!(state.num_vertices(), m.num_vertices());

    // Clustering from maintained counts == full recompute, bit for bit.
    let coeffs = coefficients_from_counts(m, state.local_counts());
    let full_coeffs = clustering_coefficients_with(m, scratch);
    assert_eq!(coeffs.len(), full_coeffs.len());
    for (i, (a, b)) in coeffs.iter().zip(&full_coeffs).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "clustering coefficient of {i} not bit-identical: {a} vs {b}"
        );
    }
    let global = global_from_counts(m, state.local_counts());
    let full_global = global_clustering_coefficient_with(m, scratch);
    assert!(global.to_bits() == full_global.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Maintained analytics == fresh recomputes after every batch, with
    /// a tight compaction budget so inline compactions fire mid-stream.
    #[test]
    fn maintained_analytics_match_recomputes_after_every_batch(
        (n, seed, stream) in arb_stream(40, 5, 30),
    ) {
        let base = erdos_renyi(n as usize, (n as usize) * 2, seed);
        let mut scratch = Scratch::new();
        let mut state = AnalyticsState::build(&base, &mut scratch);
        let mut g = DynamicGraph::new(base).policy(CompactionPolicy::with_budget(12));
        for (i, raw) in stream.iter().enumerate() {
            let (r, changes) = g.apply_batch_recorded(&to_ops(raw));
            state.apply_changes(&changes);
            prop_assert_eq!(
                state.triangles(), r.triangles,
                "maintained count diverged from stream at batch {}", i
            );
            let m = g.materialize();
            assert_state_matches(&state, &m, &mut scratch);
            assert_support_observations(&state, &g, &m, 1, &mut scratch);
        }
    }

    /// Skewed power-law bases (the paper's workload shape), checked at
    /// stream end to afford bigger graphs.
    #[test]
    fn skewed_graphs_converge(
        (n, seed, stream) in arb_stream(150, 4, 100),
    ) {
        let base = power_law_configuration(n as usize, 2.2, 6.0, seed);
        let mut scratch = Scratch::new();
        let mut state = AnalyticsState::build(&base, &mut scratch);
        let mut g = DynamicGraph::new(base);
        for raw in &stream {
            let (_, changes) = g.apply_batch_recorded(&to_ops(raw));
            state.apply_changes(&changes);
        }
        let m = g.materialize();
        assert_state_matches(&state, &m, &mut scratch);
        assert_support_observations(&state, &g, &m, 7, &mut scratch);
    }
}

/// Deterministic scripted stream: maintained state survives forced
/// compaction, and a replica maintained on a different compaction
/// schedule agrees exactly.
#[test]
fn compaction_schedules_do_not_affect_analytics() {
    let base = power_law_configuration(200, 2.1, 5.0, 0xA11A);
    let mut scratch = Scratch::new();
    let mut state_lazy = AnalyticsState::build(&base, &mut scratch);
    let mut state_eager = state_lazy.clone();
    let mut lazy =
        DynamicGraph::new(base.clone()).policy(CompactionPolicy::with_budget(usize::MAX));
    let mut eager = DynamicGraph::new(base).policy(CompactionPolicy::with_budget(1));

    for b in 0..8u32 {
        let mut ops = Vec::new();
        for i in 0..30u32 {
            let x = (b * 89 + i * 37) % 200;
            let y = (b * 41 + i * 13 + 1) % 200;
            ops.push(EdgeOp::Insert(x, y));
            if i % 4 == 0 {
                ops.push(EdgeOp::Delete(x, y));
            }
        }
        let (_, cl) = lazy.apply_batch_recorded(&ops);
        let (_, ce) = eager.apply_batch_recorded(&ops);
        assert_eq!(cl, ce, "recorded changes diverged at batch {b}");
        state_lazy.apply_changes(&cl);
        state_eager.apply_changes(&ce);
    }
    assert!(eager.counters().compactions > 0);
    let m = lazy.materialize();
    assert_eq!(m, eager.materialize());
    assert_eq!(state_lazy.local_counts(), state_eager.local_counts());
    assert_eq!(state_lazy.triangles(), state_eager.triangles());
    assert_support_observations(&state_lazy, &lazy, &m, 3, &mut scratch);
    assert_support_observations(&state_eager, &eager, &m, 3, &mut scratch);

    let fresh = AnalyticsState::build(&m, &mut scratch);
    assert_eq!(state_lazy.triangles(), fresh.triangles());
    assert_eq!(state_lazy.local_counts(), fresh.local_counts());
}

/// The reads a server answers from a stream in place equal the same
/// reads on its materialised CSR, floats bit for bit: `recommend` for
/// every 97th source through the stream's layered rows, and both
/// clustering folds over the maintained counts and the stream's degrees.
/// Each dataset takes two random batches of deletes and inserts: the
/// first leaves half a compaction budget in the overlay, the second
/// crosses the budget and folds.
#[test]
fn in_place_reads_match_the_materialised_csr_bit_for_bit() {
    let bits = |r: &tc_apps::RecommendScore| {
        (
            r.candidate,
            r.common_neighbors,
            r.jaccard.to_bits(),
            r.adamic_adar.to_bits(),
        )
    };
    let mut scratch = Scratch::new();
    for dataset in [Dataset::EmailEuall, Dataset::KronLogn18] {
        let base = tc_datasets::load(dataset);
        let n = base.num_vertices() as u32;
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        let mut state = AnalyticsState::build(&base, &mut scratch);
        let mut g = DynamicGraph::new(base);
        let budget = g.compaction_policy().max_delta_edges;
        for (batch, per_kind) in [budget / 4, budget / 2 + 1].into_iter().enumerate() {
            let edges: Vec<(u32, u32)> = g.materialize().edges().collect();
            let mut ops: Vec<EdgeOp> = (0..per_kind)
                .map(|_| {
                    let (u, v) = edges[rng.gen_range(0..edges.len())];
                    EdgeOp::Delete(u, v)
                })
                .collect();
            ops.extend(
                (0..per_kind).map(|_| EdgeOp::Insert(rng.gen_range(0..n), rng.gen_range(0..n))),
            );
            let (r, changes) = g.apply_batch_recorded(&ops);
            state.apply_changes(&changes);
            assert_eq!(r.compacted, batch == 1, "{dataset:?} batch {batch}");

            let m = g.materialize();
            for source in (0..n).step_by(97) {
                let streamed = recommend_for_with(&g, source, usize::MAX, &mut scratch);
                let want = recommend_for_with(&m, source, usize::MAX, &mut scratch);
                assert_eq!(
                    streamed.iter().map(bits).collect::<Vec<_>>(),
                    want.iter().map(bits).collect::<Vec<_>>(),
                    "{dataset:?} batch {batch}, recommend from {source}"
                );
            }
            let counts = state.local_counts();
            assert_eq!(counts, triangles_per_vertex_with(&m, &mut scratch));
            let coefficient_bits =
                |c: Vec<f64>| c.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                coefficient_bits(coefficients_from_counts(&g, counts)),
                coefficient_bits(coefficients_from_counts(&m, counts)),
                "{dataset:?} batch {batch}, local coefficients"
            );
            assert_eq!(
                global_from_counts(&g, counts).to_bits(),
                global_from_counts(&m, counts).to_bits(),
                "{dataset:?} batch {batch}, global coefficient"
            );
        }
    }
}
