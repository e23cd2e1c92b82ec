//! The `nvprof` substitute: micro-benchmarks that measure how binary-search
//! workloads behave as a function of adjacency-list length.
//!
//! The paper (Section 5.3, Figure 8) runs `nvprof` over Hu's kernel to
//! obtain (a) achieved shared-memory bandwidth `BW(d̃)` and (b) the
//! computing-pressure headroom `p_c(d̃)` — the factor by which compute work
//! can be multiplied before a memory-dominated kernel slows by more than
//! 5%. We reproduce the same protocol against the simulator: a micro-kernel
//! performing batches of 32 lock-step binary searches over a staged list of
//! a given length, swept over lengths.

use crate::config::GpuConfig;
use crate::engine::simulate;
use crate::ops::WarpOp;
use crate::search::{lockstep_binary_search, SearchCosts, SearchSpace};
use crate::trace::{BlockSource, BlockTrace};
use crate::VertexId32;
use std::borrow::Cow;

/// One measured point of the length sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfilePoint {
    /// Adjacency-list length this point was measured at.
    pub list_len: usize,
    /// Achieved shared-memory bandwidth in bytes/cycle (Figure 8, left axis).
    pub shared_bandwidth: f64,
    /// Computing-pressure headroom before the 5% slowdown (Figure 8,
    /// right axis). 0 for compute-dominated lengths.
    pub p_c: u32,
    /// Baseline kernel cycles at this length (no extra pressure).
    pub baseline_cycles: u64,
}

/// Slowdown tolerance of the balance-point experiment (the paper uses 5%).
pub const SLOWDOWN_TOLERANCE: f64 = 1.05;

/// Micro-kernel: every warp repeatedly (a) stages the list from global
/// memory, (b) syncs, (c) runs one batch of 32 binary searches, optionally
/// followed by `extra_compute` artificial compute cycles. Every block is
/// the same, so the trace is built once and lent for each grid slot.
struct SweepKernel {
    blocks: usize,
    block: BlockTrace,
}

impl BlockSource for SweepKernel {
    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn block(&self, _idx: usize) -> Cow<'_, BlockTrace> {
        Cow::Borrowed(&self.block)
    }
}

/// Batches of searches each warp runs per kernel.
const ROUNDS: usize = 8;

/// Even-valued list and odd search keys spread uniformly: every search
/// misses, so all lanes run the full log2(len) depth — the worst case the
/// models reason about.
fn sweep_inputs(list_len: usize) -> (Vec<VertexId32>, Vec<VertexId32>) {
    let list = (0..list_len as u32).map(|i| i * 2).collect();
    let keys = (0..32u32)
        .map(|i| ((i as u64 * 2 + 1) * list_len.max(1) as u64 * 2 / 64) as u32 | 1)
        .collect();
    (list, keys)
}

/// The sweep grid is exactly one wave: `num_sms × blocks_per_sm` identical
/// blocks, all resident at t = 0. SMs share no server, queue or slot, and
/// event ties break by the global push sequence, which keeps the same
/// relative order within each SM; so every SM runs the same schedule and
/// the kernel takes as long as one SM does. The kernel therefore holds
/// `blocks_per_sm` blocks and [`sweep_cycles`] runs it on one SM, which
/// gives the full grid's `kernel_cycles` (a test checks the two agree).
fn sweep_kernel(config: &GpuConfig, list_len: usize, extra_compute: u32) -> SweepKernel {
    let (list, keys) = sweep_inputs(list_len);
    let costs = SearchCosts::default();
    // Stage the list cooperatively from global memory: the block streams
    // `list_len` words, `ceil(len/32)` coalesced segments shared across
    // warps; charge each warp its share.
    let share = (list_len as u64).div_ceil(32 * config.warps_per_block as u64);
    let mut b = BlockTrace::builder();
    for _ in 0..config.warps_per_block {
        for _ in 0..ROUNDS {
            b.ops_mut().push(WarpOp::GlobalAccess {
                segments: share.max(1) as u32,
            });
            b.ops_mut().push(WarpOp::BlockSync);
            let _ = lockstep_binary_search(&list, &keys, SearchSpace::Shared, &costs, b.ops_mut());
            if extra_compute > 0 {
                b.ops_mut().push(WarpOp::Compute(extra_compute));
            }
        }
        b.end_warp();
    }
    SweepKernel {
        blocks: config.blocks_per_sm,
        block: b.finish(),
    }
}

/// Kernel cycles of the sweep kernel on `config`, simulated on one of its
/// SMs (see [`sweep_kernel`]).
fn sweep_cycles(config: &GpuConfig, list_len: usize, extra_compute: u32) -> u64 {
    let one_sm = GpuConfig {
        num_sms: 1,
        ..config.clone()
    };
    simulate(&one_sm, &sweep_kernel(config, list_len, extra_compute)).kernel_cycles
}

/// Distinct shared-memory words one warp touches per kernel, times 4 —
/// the bandwidth numerator per warp.
fn shared_bytes_per_warp(list_len: usize) -> u64 {
    let (list, keys) = sweep_inputs(list_len);
    let out = lockstep_binary_search(
        &list,
        &keys,
        SearchSpace::Shared,
        &SearchCosts::default(),
        &mut Vec::new(),
    );
    out.words_touched * 4 * ROUNDS as u64
}

/// Runs the full sweep: for each length, measure achieved shared-memory
/// bandwidth and the `p_c` balance point.
pub fn profile_lengths(config: &GpuConfig, lengths: &[usize]) -> Vec<ProfilePoint> {
    lengths
        .iter()
        .map(|&len| profile_one(config, len))
        .collect()
}

/// Measures a single list length.
pub fn profile_one(config: &GpuConfig, list_len: usize) -> ProfilePoint {
    let baseline = sweep_cycles(config, list_len, 0).max(1);
    // The numerator counts the whole grid, not the one simulated SM.
    let grid_warps = config.num_sms * config.blocks_per_sm * config.warps_per_block;
    let total_bytes = shared_bytes_per_warp(list_len) * grid_warps as u64;
    let bandwidth = total_bytes as f64 / baseline as f64;

    ProfilePoint {
        list_len,
        shared_bandwidth: bandwidth,
        p_c: balance_point(config, list_len, baseline),
        baseline_cycles: baseline,
    }
}

/// The paper's balance-point experiment: the largest extra-compute factor
/// whose kernel time stays within [`SLOWDOWN_TOLERANCE`] of baseline.
///
/// Kernel time is non-decreasing in the injected compute, so exponential
/// probing followed by binary search is exact.
fn balance_point(config: &GpuConfig, list_len: usize, baseline: u64) -> u32 {
    let fits = |p_c: u32| -> bool {
        let t = sweep_cycles(config, list_len, p_c);
        t as f64 <= baseline as f64 * SLOWDOWN_TOLERANCE
    };
    if !fits(1) {
        return 0;
    }
    // Exponential probe.
    let mut lo = 1u32;
    let mut hi = 2u32;
    while hi <= 4096 && fits(hi) {
        lo = hi;
        hi *= 2;
    }
    if hi > 4096 {
        return lo;
    }
    // Binary search in (lo, hi): fits(lo), !fits(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The standard length grid for Figure 8: powers of two covering short
/// (compute-intensive) through long (memory-intensive) lists.
pub fn standard_lengths() -> Vec<usize> {
    (1..=13).map(|s| 1usize << s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-wave argument behind [`sweep_kernel`]: one SM with
    /// `blocks_per_sm` blocks takes exactly as long as the whole grid.
    #[test]
    fn one_sm_matches_the_full_grid() {
        let skewed = GpuConfig {
            num_sms: 7,
            blocks_per_sm: 3,
            warps_per_block: 4,
            ..GpuConfig::titan_xp_like()
        };
        for config in [GpuConfig::titan_xp_like(), skewed] {
            for len in standard_lengths() {
                for extra_compute in [0, 1, 7, 64] {
                    let reduced = sweep_cycles(&config, len, extra_compute);
                    let grid = SweepKernel {
                        blocks: config.num_sms * config.blocks_per_sm,
                        block: sweep_kernel(&config, len, extra_compute).block,
                    };
                    let full = simulate(&config, &grid).kernel_cycles;
                    assert_eq!(
                        reduced, full,
                        "{} SMs, len {len}, extra compute {extra_compute}",
                        config.num_sms
                    );
                }
            }
        }
    }

    #[test]
    fn block_is_lent_not_rebuilt() {
        let kernel = sweep_kernel(&GpuConfig::titan_xp_like(), 64, 0);
        assert!(matches!(kernel.block(0), Cow::Borrowed(_)));
        assert!(std::ptr::eq(&*kernel.block(0), &*kernel.block(1)));
    }

    #[test]
    fn profile_is_deterministic() {
        let a = profile_one(&GpuConfig::titan_xp_like(), 256);
        let b = profile_one(&GpuConfig::titan_xp_like(), 256);
        assert_eq!(a, b);
    }

    #[test]
    fn bandwidth_grows_with_list_length() {
        let c = GpuConfig::titan_xp_like();
        let short = profile_one(&c, 8);
        let long = profile_one(&c, 4096);
        assert!(
            long.shared_bandwidth > short.shared_bandwidth,
            "BW must rise with length: short {} vs long {}",
            short.shared_bandwidth,
            long.shared_bandwidth
        );
    }

    #[test]
    fn p_c_grows_with_list_length() {
        // Long lists are memory-dominated: plenty of compute headroom.
        let c = GpuConfig::titan_xp_like();
        let short = profile_one(&c, 4);
        let long = profile_one(&c, 8192);
        assert!(
            long.p_c >= short.p_c,
            "p_c must not shrink with length: short {} vs long {}",
            short.p_c,
            long.p_c
        );
    }

    #[test]
    fn standard_grid_is_ascending_powers_of_two() {
        let g = standard_lengths();
        assert_eq!(g.first(), Some(&2));
        assert_eq!(g.last(), Some(&8192));
        for w in g.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }
}
