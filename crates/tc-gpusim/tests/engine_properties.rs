//! Property tests for the discrete-event engine on randomized traces.

use proptest::prelude::*;
use tc_gpusim::ops::WarpOp;
use tc_gpusim::trace::{self, BlockTrace, SliceBlockSource, WarpTrace};
use tc_gpusim::{simulate, simulate_with_events, GpuConfig};

/// Strategy: a random warp trace without barriers (barrier counts must
/// agree across warps, handled separately).
fn arb_warp(max_ops: usize) -> impl Strategy<Value = WarpTrace> {
    prop::collection::vec(
        prop_oneof![
            (1u32..200).prop_map(WarpOp::Compute),
            (1u32..33).prop_map(|segments| WarpOp::GlobalAccess { segments }),
            (1u32..8).prop_map(|transactions| WarpOp::SharedAccess { transactions }),
        ],
        0..max_ops,
    )
    .prop_map(WarpTrace::new)
}

fn arb_blocks(max_blocks: usize) -> impl Strategy<Value = Vec<BlockTrace>> {
    prop::collection::vec(
        prop::collection::vec(arb_warp(12), 1..5).prop_map(BlockTrace::new),
        0..max_blocks,
    )
}

/// Strategy: random blocks where every warp additionally runs a common
/// number of `BlockSync` barriers (consistency is required by the engine).
fn arb_barrier_blocks(max_blocks: usize) -> impl Strategy<Value = Vec<BlockTrace>> {
    prop::collection::vec(
        (prop::collection::vec(arb_warp(8), 1..5), 0usize..3).prop_map(|(warps, syncs)| {
            let warps = warps
                .into_iter()
                .map(|w| {
                    let mut ops = w.ops;
                    for _ in 0..syncs {
                        ops.push(WarpOp::BlockSync);
                    }
                    WarpTrace::new(ops)
                })
                .collect();
            BlockTrace::new(warps)
        }),
        0..max_blocks,
    )
}

fn total_compute(blocks: &[BlockTrace]) -> u64 {
    blocks.iter().map(|b| trace::compute_cycles(b.ops())).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same trace, same GPU → identical metrics and per-block lifetimes,
    /// barriers included, whether or not events are collected.
    #[test]
    fn deterministic(blocks in arb_barrier_blocks(16)) {
        let src = SliceBlockSource::new(blocks);
        let gpu = GpuConfig::titan_xp_like();
        let (metrics, events) = simulate_with_events(&gpu, &src);
        prop_assert_eq!(&simulate(&gpu, &src), &metrics);
        prop_assert_eq!((metrics, events), simulate_with_events(&gpu, &src));
    }

    /// The makespan can never beat the per-SM compute lower bound: total
    /// compute work divided by aggregate throughput.
    #[test]
    fn makespan_respects_compute_lower_bound(blocks in arb_blocks(10)) {
        let gpu = GpuConfig::tiny(); // 1 SM, throughput 1.0
        let lower = total_compute(&blocks);
        let src = SliceBlockSource::new(blocks);
        let m = simulate(&gpu, &src);
        prop_assert!(
            m.kernel_cycles >= lower,
            "makespan {} below compute bound {}", m.kernel_cycles, lower
        );
    }

    /// Doubling compute throughput never increases the makespan.
    #[test]
    fn faster_compute_never_hurts(blocks in arb_blocks(10)) {
        let src = SliceBlockSource::new(blocks);
        let slow = GpuConfig::tiny();
        let mut fast = GpuConfig::tiny();
        fast.compute_throughput = 2.0;
        prop_assert!(
            simulate(&fast, &src).kernel_cycles <= simulate(&slow, &src).kernel_cycles
        );
    }

    /// Metrics conserve the trace's op totals exactly.
    #[test]
    fn metrics_conserve_op_totals(blocks in arb_blocks(10)) {
        let compute: u64 = total_compute(&blocks);
        let global: u64 = blocks.iter().flat_map(BlockTrace::ops)
            .map(|op| match op { WarpOp::GlobalAccess { segments } => segments as u64, _ => 0 })
            .sum();
        let src = SliceBlockSource::new(blocks);
        let m = simulate(&GpuConfig::titan_xp_like(), &src);
        prop_assert_eq!(m.compute_cycles, compute);
        prop_assert_eq!(m.global_segments, global);
    }

    /// Appending one more non-empty block never reduces the makespan.
    #[test]
    fn more_work_never_finishes_earlier(
        blocks in arb_blocks(8),
        extra in arb_warp(8).prop_filter("non-empty", |w| !w.ops.is_empty()),
    ) {
        let gpu = GpuConfig::tiny();
        let base = simulate(&gpu, &SliceBlockSource::new(blocks.clone())).kernel_cycles;
        let mut more = blocks;
        more.push(BlockTrace::new(vec![extra]));
        let extended = simulate(&gpu, &SliceBlockSource::new(more)).kernel_cycles;
        prop_assert!(extended >= base, "extended {extended} < base {base}");
    }
}
