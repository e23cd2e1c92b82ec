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
use std::sync::atomic::{AtomicU64, Ordering};
use tc_gpusim::pipeline::{configured_threads, simulate_pipelined, simulate_pipelined_with_events};
use tc_gpusim::{BlockSource, BlockTrace, GpuConfig, KernelMetrics};
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
/// Generators must be [`Sync`]: [`run_kernel`] feeds them to the parallel
/// trace-generation pipeline, whose workers call [`gen_block`] for
/// different indices concurrently. Each call must depend only on `self`
/// and `idx` (the determinism the [`BlockSource`] contract already
/// requires); per-call scratch state belongs in a pool, not in shared
/// interior mutability (see `bisson::StampPool` for the pattern).
///
/// [`gen_block`]: KernelGen::gen_block
pub trait KernelGen: Sync {
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
/// total stays exact even if a block is ever regenerated, and the store is
/// atomic so pipeline workers can generate blocks concurrently — the
/// per-worker partial results meet only in the final reduction.
struct CountingSource<'a, K: KernelGen + ?Sized> {
    gen: &'a K,
    counts: Vec<AtomicU64>,
}

impl<'a, K: KernelGen + ?Sized> CountingSource<'a, K> {
    fn new(gen: &'a K) -> Self {
        let counts = (0..gen.num_blocks()).map(|_| AtomicU64::new(0)).collect();
        Self { gen, counts }
    }

    fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl<K: KernelGen + ?Sized> BlockSource for CountingSource<'_, K> {
    fn num_blocks(&self) -> usize {
        self.gen.num_blocks()
    }

    fn block(&self, idx: usize) -> Cow<'_, BlockTrace> {
        let (trace, count) = self.gen.gen_block(idx);
        self.counts[idx].store(count, Ordering::Relaxed);
        Cow::Owned(trace)
    }
}

/// Simulates a [`KernelGen`] and returns its total count plus metrics.
///
/// Trace generation runs on the parallel prefetch pipeline
/// ([`tc_gpusim::pipeline`]) with the configured worker count
/// (`TC_PIPELINE_THREADS` / all cores); metrics and counts are bit-for-bit
/// identical at every thread count.
pub fn run_kernel<K: KernelGen + ?Sized>(gen: &K, gpu: &GpuConfig) -> RunResult {
    let source = CountingSource::new(gen);
    let metrics = simulate_pipelined(gpu, &source, configured_threads());
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
    let (metrics, events) = simulate_pipelined_with_events(gpu, &source, configured_threads());
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
