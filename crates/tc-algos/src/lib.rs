//! Triangle-counting algorithms.
//!
//! The paper evaluates its preprocessing against five published GPU
//! algorithms. Each is implemented here as a *trace generator*: the
//! algorithm's real traversal logic runs on the CPU — so triangle counts
//! are exact — while emitting the warp-level operation stream its CUDA
//! kernel would execute; `tc-gpusim` turns that stream into cycles.
//!
//! | Module | Paper algorithm | Work granularity |
//! |---|---|---|
//! | [`polak`] | Polak 2016 | thread per edge |
//! | [`gunrock`] | Wang et al. 2016 (Gunrock) | thread per edge, binary-search or sort-merge |
//! | [`tricore`] | Hu/Liu/Huang 2018 (TriCore) | warp per edge |
//! | [`bisson`] | Bisson & Fatica 2017 | block per vertex + bitmap + barriers |
//! | [`hu`] | Hu/Guan/Zou 2019 | wedge per thread + shared staging + barriers |
//! | [`fox`] | Fox/Green et al. 2018 | adaptive edge binning |
//! | [`trust`] | Pandey et al. 2021 (TRUST) | block per vertex, hash buckets + probes |
//! | [`cpu`] | Schank & Wagner baselines, Shun-style multicore | exact CPU counters |
//!
//! All GPU algorithms consume a [`tc_graph::DirectedGraph`] (the output of
//! an edge-directing scheme) and count each triangle exactly once as the
//! directed pattern `u→v, u→w, v→w`.
//!
//! A kernel is a [`KernelGen`], and [`run_kernel`] simulates it on the
//! calling thread: the engine asks for each block's trace in grid order
//! as an SM slot frees, and the generator builds it there and then, so a
//! simulation spawns no thread and holds only its resident blocks.

pub mod bisson;
pub mod cpu;
pub mod engine;
pub mod fox;
pub mod gunrock;
pub mod hu;
pub mod intersect;
pub mod polak;
pub mod simd;
mod trace_util;
pub mod tricore;
pub mod trust;

use std::borrow::Cow;
use std::cell::Cell;
use tc_gpusim::{
    simulate, simulate_with_events, BlockSource, BlockTrace, GpuConfig, KernelMetrics,
};
use tc_graph::DirectedGraph;

/// Result of one simulated GPU triangle-counting run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Exact number of triangles found.
    pub triangles: u64,
    /// Simulated timing and traffic counters.
    pub metrics: KernelMetrics,
}

impl RunResult {
    /// Kernel time in milliseconds at the configured clock.
    pub fn kernel_ms(&self, gpu: &GpuConfig) -> f64 {
        gpu.cycles_to_ms(self.metrics.kernel_cycles)
    }
}

/// A GPU triangle-counting algorithm.
///
/// `Sync` because experiment grids evaluate (dataset, algorithm) cells on
/// worker threads sharing the algorithm handles.
pub trait GpuTriangleCounter: Sync {
    /// Short display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Counts triangles of `g` while simulating the kernel on `gpu`.
    fn count(&self, g: &DirectedGraph, gpu: &GpuConfig) -> RunResult;
}

/// A kernel whose blocks are generated (and partially counted) on demand.
///
/// Implementors return, for each block index, the block's trace *and* the
/// number of triangles that block finds. [`run_kernel`] wires this into the
/// simulator and totals the counts.
///
/// [`run_kernel`] calls [`gen_block`] on the simulating thread, one block
/// at a time, so a generator may keep one scratch buffer per kernel
/// instance behind a `RefCell` (see `bisson::BissonKernel`). Each call's
/// result must depend only on `self`'s inputs and `idx`: the
/// [`BlockSource`] contract lets the engine regenerate a block.
///
/// [`gen_block`]: KernelGen::gen_block
pub trait KernelGen {
    /// Number of blocks in the grid.
    fn num_blocks(&self) -> usize;

    /// Trace and partial triangle count of block `idx`. Must be
    /// deterministic: the engine may in principle regenerate a block.
    fn gen_block(&self, idx: usize) -> (BlockTrace, u64);
}

/// Adapter: runs a [`KernelGen`] through the simulator, recording each
/// block's triangle count as its trace is generated.
///
/// Counts are *stored* per block index (not summed on the fly), so the
/// total stays exact even if a block is ever regenerated.
struct CountingSource<'a, K: KernelGen + ?Sized> {
    gen: &'a K,
    counts: Vec<Cell<u64>>,
}

impl<'a, K: KernelGen + ?Sized> CountingSource<'a, K> {
    fn new(gen: &'a K) -> Self {
        Self {
            gen,
            counts: vec![Cell::new(0); gen.num_blocks()],
        }
    }

    fn total(&self) -> u64 {
        self.counts.iter().map(Cell::get).sum()
    }
}

impl<K: KernelGen + ?Sized> BlockSource for CountingSource<'_, K> {
    fn num_blocks(&self) -> usize {
        self.gen.num_blocks()
    }

    fn block(&self, idx: usize) -> Cow<'_, BlockTrace> {
        let (trace, count) = self.gen.gen_block(idx);
        self.counts[idx].set(count);
        Cow::Owned(trace)
    }
}

/// Simulates a [`KernelGen`] and returns its total count plus metrics.
///
/// Each block's trace is generated on the calling thread, inside the
/// engine's request for that block, so at most the blocks resident on
/// the simulated SMs are held at once.
pub fn run_kernel<K: KernelGen + ?Sized>(gen: &K, gpu: &GpuConfig) -> RunResult {
    let source = CountingSource::new(gen);
    let metrics = simulate(gpu, &source);
    RunResult {
        triangles: source.total(),
        metrics,
    }
}

/// Like [`run_kernel`] but also returns the per-block schedule events for
/// timeline analysis ([`tc_gpusim::timeline`]).
pub fn run_kernel_with_events<K: KernelGen + ?Sized>(
    gen: &K,
    gpu: &GpuConfig,
) -> (RunResult, Vec<tc_gpusim::BlockEvent>) {
    let source = CountingSource::new(gen);
    let (metrics, events) = simulate_with_events(gpu, &source);
    (
        RunResult {
            triangles: source.total(),
            metrics,
        },
        events,
    )
}

/// Convenience: every implemented GPU algorithm with default settings —
/// the paper's five, Fox's binning, and the post-paper TRUST hashed
/// kernel — for experiments that sweep over them.
pub fn all_gpu_algorithms() -> Vec<Box<dyn GpuTriangleCounter>> {
    vec![
        Box::new(polak::Polak::default()),
        Box::new(gunrock::Gunrock::default()),
        Box::new(tricore::TriCore::default()),
        Box::new(bisson::Bisson::default()),
        Box::new(hu::HuFineGrained::default()),
        Box::new(fox::Fox::default()),
        Box::new(trust::Trust::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::thread::ThreadId;
    use tc_gpusim::{WarpOp, WarpTrace};

    /// A generator that records every block it is asked for, and on which
    /// thread; block `idx` counts `3 * idx + 1` triangles.
    struct Recorder {
        blocks: usize,
        calls: RefCell<Vec<(usize, ThreadId)>>,
    }

    impl KernelGen for Recorder {
        fn num_blocks(&self) -> usize {
            self.blocks
        }

        fn gen_block(&self, idx: usize) -> (BlockTrace, u64) {
            self.calls
                .borrow_mut()
                .push((idx, std::thread::current().id()));
            let ops = vec![
                WarpOp::Compute(1 + idx as u32 % 7),
                WarpOp::BlockSync,
                WarpOp::Compute(3),
            ];
            (
                BlockTrace::new(vec![WarpTrace::new(ops); 2]),
                3 * idx as u64 + 1,
            )
        }
    }

    #[test]
    fn run_kernel_generates_each_block_once_in_grid_order_on_the_calling_thread() {
        let gpu = GpuConfig::titan_xp_like();
        // Several times the 60 resident slots, so slots are reused.
        let blocks = 500;
        let caller = std::thread::current().id();
        for with_events in [false, true] {
            let gen = Recorder {
                blocks,
                calls: RefCell::new(Vec::new()),
            };
            let run = if with_events {
                run_kernel_with_events(&gen, &gpu).0
            } else {
                run_kernel(&gen, &gpu)
            };
            let expected: Vec<(usize, ThreadId)> = (0..blocks).map(|idx| (idx, caller)).collect();
            assert_eq!(gen.calls.into_inner(), expected, "events: {with_events}");
            let total: u64 = (0..blocks as u64).map(|idx| 3 * idx + 1).sum();
            assert_eq!(run.triangles, total, "events: {with_events}");
            assert_eq!(run.metrics.blocks, blocks, "events: {with_events}");
        }
    }
}
