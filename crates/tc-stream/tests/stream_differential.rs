//! Differential suite: incremental triangle maintenance vs a fresh CPU
//! recount, under random insert/delete streams.
//!
//! The acceptance property of the tc-stream subsystem: after **every**
//! batch of random edge operations (duplicates, self-loops, out-of-range
//! endpoints, insert-then-delete flip-flops included), the maintained
//! count must equal a from-scratch count on the materialized graph —
//! serial (`node_iterator`) *and* multicore (`parallel_count` at 1 and
//! N worker threads), which must agree with each other bit-for-bit.

use proptest::prelude::*;
use tc_algos::cpu;
use tc_graph::generators::{erdos_renyi, power_law_configuration};
use tc_graph::{orient_by_rank, CsrGraph, GraphBuilder};
use tc_stream::{CompactionPolicy, DynamicGraph, EdgeOp};

/// Strategy: a base graph plus a stream of batches of raw edge ops.
/// Ops intentionally range slightly past the vertex count so rejection
/// paths are exercised alongside real mutations.
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

/// Reference recount on a materialized CSR, asserted identical at one
/// and several worker threads.
fn recount_all_ways(m: &CsrGraph) -> u64 {
    let serial = cpu::node_iterator(m);
    let rank: Vec<u64> = m.vertices().map(u64::from).collect();
    let oriented = orient_by_rank(m, &rank);
    for threads in [1, 4] {
        assert_eq!(
            cpu::parallel_count(&oriented, threads),
            serial,
            "parallel recount diverged at {threads} threads"
        );
    }
    serial
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Maintained count == fresh recount after every batch, on sparse
    /// random bases with a tight compaction budget (so compactions
    /// actually fire mid-stream).
    #[test]
    fn maintained_count_matches_recount_after_every_batch(
        (n, seed, stream) in arb_stream(48, 6, 40),
    ) {
        let base = erdos_renyi(n as usize, (n as usize) * 2, seed);
        let mut g = DynamicGraph::new(base).policy(CompactionPolicy::with_budget(16));
        for (i, raw) in stream.iter().enumerate() {
            let before = g.triangles();
            let r = g.apply_batch(&to_ops(raw));
            prop_assert_eq!(r.triangles, g.triangles());
            prop_assert_eq!(
                before as i64 + r.triangles_delta,
                g.triangles() as i64,
                "delta inconsistent at batch {}", i
            );
            let m = g.materialize();
            prop_assert!(m.validate().is_ok(), "materialized CSR invalid at batch {}", i);
            prop_assert_eq!(
                g.triangles(),
                recount_all_ways(&m),
                "count diverged from recount at batch {}", i
            );
            prop_assert_eq!(m.num_edges(), g.num_edges());
        }
    }

    /// Every read of a live stream and of its restored snapshot, after
    /// every batch: each `neighbors(u)` of both equals the materialised
    /// CSR's row, and `restore(snapshot())` gives back the same snapshot
    /// and byte estimate. Each batch first undoes half of the one before
    /// it, so re-inserts cancel deletes of base edges and deletes cancel
    /// inserts, dropping rows; budgets from 2 to 40 make some streams
    /// fold, and others never.
    #[test]
    fn rows_and_restored_snapshots_match_the_materialised_graph(
        (n, seed, stream) in arb_stream(24, 8, 30),
        budget in 2usize..40,
    ) {
        let base = erdos_renyi(n as usize, (n as usize) * 2, seed);
        let mut g = DynamicGraph::new(base).policy(CompactionPolicy::with_budget(budget));
        let mut undo: Vec<(u32, u32, bool)> = Vec::new();
        for (i, raw) in stream.iter().enumerate() {
            let mut ops = to_ops(&undo);
            ops.extend(to_ops(raw));
            g.apply_batch(&ops);
            undo = raw[..raw.len().div_ceil(2)]
                .iter()
                .map(|&(u, v, ins)| (u, v, !ins))
                .collect();

            let m = g.materialize();
            let snap = g.snapshot();
            let restored = DynamicGraph::restore(snap.clone()).expect("restore");
            for u in m.vertices() {
                prop_assert_eq!(g.neighbors(u), m.neighbors(u), "row {} at batch {}", u, i);
                prop_assert_eq!(restored.neighbors(u), m.neighbors(u), "restored row {} at batch {}", u, i);
            }
            prop_assert_eq!(restored.snapshot(), snap, "snapshot at batch {}", i);
            prop_assert_eq!(restored.approx_bytes(), g.approx_bytes(), "bytes at batch {}", i);
            prop_assert_eq!(restored.num_edges(), restored.materialize().num_edges(), "edges at batch {}", i);
        }
    }

    /// Same property on skewed power-law bases (the paper's workload
    /// shape), checking only at stream end to afford bigger graphs.
    #[test]
    fn skewed_graphs_converge_to_recount(
        (n, seed, stream) in arb_stream(200, 4, 120),
    ) {
        let base = power_law_configuration(n as usize, 2.2, 6.0, seed);
        let mut g = DynamicGraph::new(base);
        for raw in &stream {
            g.apply_batch(&to_ops(raw));
        }
        let m = g.materialize();
        prop_assert_eq!(g.triangles(), recount_all_ways(&m));
    }

    /// Duplicate edges and self-loops in a batch are rejected or
    /// deduplicated exactly as `GraphBuilder` ingestion would: building a
    /// graph from (base edges + surviving inserts − deletes) from scratch
    /// equals the stream's materialized view.
    #[test]
    fn stream_agrees_with_builder_semantics(
        (n, seed, stream) in arb_stream(40, 4, 30),
    ) {
        let base = erdos_renyi(n as usize, n as usize, seed);
        let mut g = DynamicGraph::new(base.clone());
        let mut edges: std::collections::BTreeSet<(u32, u32)> = base.edges().collect();
        for raw in &stream {
            g.apply_batch(&to_ops(raw));
            // Shadow model: last-wins per edge, loops/out-of-range dropped.
            let mut intent: std::collections::BTreeMap<(u32, u32), bool> =
                std::collections::BTreeMap::new();
            for &(u, v, ins) in raw {
                if u == v || u >= n || v >= n {
                    continue;
                }
                intent.insert((u.min(v), u.max(v)), ins);
            }
            for (e, ins) in intent {
                if ins { edges.insert(e); } else { edges.remove(&e); }
            }
            let rebuilt = GraphBuilder::from_edges(
                n as usize,
                &edges.iter().copied().collect::<Vec<_>>(),
            )
            .build();
            prop_assert_eq!(&g.materialize(), &rebuilt);
        }
    }

    /// Splitting one batch into per-edge singleton batches gives the same
    /// final graph and count (batching is an optimization, not a
    /// semantics change) when each edge appears at most once.
    #[test]
    fn batching_is_semantically_transparent(
        (n, seed, stream) in arb_stream(40, 3, 25),
    ) {
        let base = erdos_renyi(n as usize, n as usize, seed);
        let mut batched = DynamicGraph::new(base.clone());
        let mut singles = DynamicGraph::new(base);
        for raw in &stream {
            // Dedup to the surviving intent so singleton application
            // (which has no cross-op dedup) sees the same ops.
            let mut intent: std::collections::BTreeMap<(u32, u32), bool> =
                std::collections::BTreeMap::new();
            for &(u, v, ins) in raw {
                if u == v || u >= n || v >= n {
                    continue;
                }
                intent.insert((u.min(v), u.max(v)), ins);
            }
            let ops: Vec<EdgeOp> = intent
                .into_iter()
                .map(|((u, v), ins)| if ins { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) })
                .collect();
            batched.apply_batch(&ops);
            for op in &ops {
                singles.apply_batch(std::slice::from_ref(op));
            }
            prop_assert_eq!(batched.triangles(), singles.triangles());
            prop_assert_eq!(&batched.materialize(), &singles.materialize());
        }
    }
}

/// Deterministic replay: two replicas fed the same batches hold
/// identical state, and an aggressive compaction schedule changes
/// nothing observable.
#[test]
fn replicas_and_compaction_schedules_agree() {
    let base = power_law_configuration(300, 2.1, 5.0, 0x5EED);
    let mut rng_edges: Vec<(u32, u32)> = base.edges().collect();
    // A scripted stream: delete every 7th base edge, insert wrap-around
    // chords, occasionally flip-flop.
    let mut batches: Vec<Vec<EdgeOp>> = Vec::new();
    for b in 0..10u32 {
        let mut ops = Vec::new();
        for i in 0..40u32 {
            let x = (b * 97 + i * 31) % 300;
            let y = (b * 53 + i * 17 + 1) % 300;
            ops.push(EdgeOp::Insert(x, y));
            if i % 5 == 0 {
                ops.push(EdgeOp::Delete(x, y));
            }
        }
        if let Some(&(u, v)) = rng_edges.get((b as usize * 7) % rng_edges.len()) {
            ops.push(EdgeOp::Delete(u, v));
        }
        rng_edges.rotate_left(3);
        batches.push(ops);
    }

    let mut lazy =
        DynamicGraph::new(base.clone()).policy(CompactionPolicy::with_budget(usize::MAX));
    let mut eager = DynamicGraph::new(base).policy(CompactionPolicy::with_budget(1));
    for batch in &batches {
        let rl = lazy.apply_batch(batch);
        let re = eager.apply_batch(batch);
        assert_eq!(rl.triangles, re.triangles);
        assert_eq!(rl.triangles_delta, re.triangles_delta);
        assert_eq!(
            (rl.inserted, rl.deleted, rl.noops, rl.rejected),
            (re.inserted, re.deleted, re.noops, re.rejected)
        );
    }
    assert_eq!(lazy.materialize(), eager.materialize());
    assert_eq!(lazy.counters().compactions, 0);
    assert!(eager.counters().compactions > 0);
    assert_eq!(lazy.triangles(), cpu::node_iterator(&lazy.materialize()));
}
