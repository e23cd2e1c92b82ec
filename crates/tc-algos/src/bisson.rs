//! Bisson & Fatica (TPDS'17): block-per-vertex counting with bitmaps.
//!
//! A block owns one vertex `u`: it marks `N⁺(u)` in a shared-memory bitmap,
//! barriers, then processes `u`'s neighbours in rounds of one neighbour per
//! thread — each thread scanning its neighbour's list and probing the
//! bitmap — with a barrier between rounds (the paper's Figure 1). The
//! per-round cost is set by the *largest* neighbour list in the round,
//! which is exactly the imbalance A-direction attacks (Figure 13).

use crate::{run_kernel, GpuTriangleCounter, KernelGen, RunResult};
use std::sync::Mutex;
use tc_gpusim::coalesce::bank_transactions;
use tc_gpusim::ops::WarpOp;
use tc_gpusim::trace::{BlockTrace, WarpTrace};
use tc_gpusim::GpuConfig;
use tc_graph::{DirectedGraph, VertexId};

/// Bisson & Fatica's algorithm.
#[derive(Clone, Debug, Default)]
pub struct Bisson {
    _private: (),
}

/// Bitmap word index of vertex `w` (32 vertices per word).
fn bitmap_word(w: VertexId) -> u64 {
    w as u64 / 32
}

/// One checked-out stamp bitmap: `stamp[v] == generation` means the bit is
/// set. Bumping the generation replaces an O(n) clear per block.
struct StampBuffer {
    stamp: Vec<u32>,
    generation: u32,
}

/// Pool of stamp bitmaps, one per concurrent `gen_block` call.
///
/// Pipeline workers generate different blocks of the same kernel at the
/// same time, so per-call scratch can't live in a single shared buffer.
/// Each worker checks a buffer out for the duration of one block and
/// returns it afterwards; the pool grows to the number of concurrent
/// workers (a handful) and each buffer is reused for thousands of blocks,
/// so the O(n) zero-fill happens once per worker, not once per block.
pub(crate) struct StampPool {
    vertices: usize,
    free: Mutex<Vec<StampBuffer>>,
}

impl StampPool {
    fn new(vertices: usize) -> Self {
        Self {
            vertices,
            free: Mutex::new(Vec::new()),
        }
    }

    fn check_out(&self) -> StampBuffer {
        let pooled = self.free.lock().expect("stamp pool poisoned").pop();
        pooled.unwrap_or_else(|| StampBuffer {
            stamp: vec![0; self.vertices],
            generation: 0,
        })
    }

    fn check_in(&self, buf: StampBuffer) {
        self.free.lock().expect("stamp pool poisoned").push(buf);
    }
}

pub(crate) struct BissonKernel<'a> {
    g: &'a DirectedGraph,
    warps_per_block: usize,
    stamps: StampPool,
}

impl<'a> BissonKernel<'a> {
    pub(crate) fn new(g: &'a DirectedGraph, gpu: &GpuConfig) -> Self {
        Self {
            g,
            warps_per_block: gpu.warps_per_block,
            stamps: StampPool::new(g.num_vertices()),
        }
    }
}

impl KernelGen for BissonKernel<'_> {
    fn num_blocks(&self) -> usize {
        self.g.num_vertices()
    }

    fn gen_block(&self, idx: usize) -> (BlockTrace, u64) {
        let u = idx as VertexId;
        let nbrs = self.g.out_neighbors(u);
        let wpb = self.warps_per_block;
        if nbrs.len() < 2 {
            // 0 or 1 out-neighbours can close no wedge at u.
            return (BlockTrace::new(vec![WarpTrace::empty(); wpb]), 0);
        }

        // Mark N+(u) in a checked-out stamped bitmap.
        let mut buf = self.stamps.check_out();
        buf.generation = buf.generation.wrapping_add(1);
        if buf.generation == 0 {
            // Wrapped: stale stamps could collide with generation 0.
            buf.stamp.fill(0);
            buf.generation = 1;
        }
        let generation = buf.generation;
        let stamp = &mut buf.stamp;
        for &v in nbrs {
            stamp[v as usize] = generation;
        }

        let threads = 32 * wpb;
        let mut warp_ops: Vec<Vec<WarpOp>> = vec![Vec::new(); wpb];
        let mut count = 0u64;

        // -- Phase 1: build the bitmap cooperatively.
        for (w_idx, ops) in warp_ops.iter_mut().enumerate() {
            let read_segments = (nbrs.len() as u64).div_ceil(32 * wpb as u64).max(1) as u32;
            ops.push(WarpOp::GlobalAccess {
                segments: read_segments,
            });
            // Representative bit-set access for this warp's first chunk of
            // neighbours (later chunks repeat the same pattern cost).
            let write = bank_transactions(
                nbrs.iter()
                    .skip(w_idx * 32)
                    .take(32)
                    .map(|&v| bitmap_word(v)),
            );
            ops.push(WarpOp::SharedAccess {
                transactions: write.transactions.max(1),
            });
            ops.push(WarpOp::BlockSync);
        }

        // -- Phase 2: rounds of one neighbour per thread. One lane-list
        // buffer serves every warp of every round.
        let mut lane_lists: Vec<&[VertexId]> = Vec::with_capacity(32);
        for round in nbrs.chunks(threads) {
            for (w_idx, ops) in warp_ops.iter_mut().enumerate() {
                lane_lists.clear();
                lane_lists.extend(
                    round
                        .iter()
                        .skip(w_idx * 32)
                        .take(32)
                        .map(|&v| self.g.out_neighbors(v)),
                );
                let max_len = lane_lists.iter().map(|l| l.len()).max().unwrap_or(0);
                for t in 0..max_len {
                    if t % 32 == 0 {
                        // Each lane streams its list sequentially; a new
                        // 128-byte segment roughly every 32 elements.
                        let active = lane_lists.iter().filter(|l| t < l.len()).count() as u32;
                        ops.push(WarpOp::GlobalAccess { segments: active });
                    }
                    let probe = bank_transactions(
                        lane_lists
                            .iter()
                            .filter_map(|l| l.get(t))
                            .map(|&w| bitmap_word(w)),
                    );
                    ops.push(WarpOp::SharedAccess {
                        transactions: probe.transactions,
                    });
                    ops.push(WarpOp::Compute(2));
                    for l in &lane_lists {
                        if let Some(&w) = l.get(t) {
                            if stamp[w as usize] == generation {
                                count += 1;
                            }
                        }
                    }
                }
                ops.push(WarpOp::BlockSync);
            }
        }

        self.stamps.check_in(buf);
        let warps = warp_ops.into_iter().map(WarpTrace::new).collect();
        (BlockTrace::new(warps), count)
    }
}

impl GpuTriangleCounter for Bisson {
    fn name(&self) -> &'static str {
        "Bisson"
    }

    fn count(&self, g: &DirectedGraph, gpu: &GpuConfig) -> RunResult {
        let kernel = BissonKernel::new(g, gpu);
        run_kernel(&kernel, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use tc_graph::generators::{erdos_renyi, power_law_configuration};
    use tc_graph::{orient_by_rank, GraphBuilder};

    fn orient(g: &tc_graph::CsrGraph) -> DirectedGraph {
        let rank: Vec<u64> = g.vertices().map(u64::from).collect();
        orient_by_rank(g, &rank)
    }

    #[test]
    fn counts_k4() {
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build();
        let r = Bisson::default().count(&orient(&g), &GpuConfig::tiny());
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn matches_cpu_on_random_graphs() {
        let gpu = GpuConfig::tiny();
        for seed in 0..4u64 {
            let g = erdos_renyi(150, 700, seed);
            let d = orient(&g);
            assert_eq!(
                Bisson::default().count(&d, &gpu).triangles,
                cpu::directed_count(&d),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_cpu_on_skewed_graph() {
        let g = power_law_configuration(500, 2.1, 8.0, 11);
        let d = orient(&g);
        let r = Bisson::default().count(&d, &GpuConfig::titan_xp_like());
        assert_eq!(r.triangles, cpu::directed_count(&d));
    }

    #[test]
    fn uses_barriers_between_rounds() {
        let g = power_law_configuration(400, 2.2, 8.0, 2);
        let d = orient(&g);
        let r = Bisson::default().count(&d, &GpuConfig::titan_xp_like());
        assert!(r.metrics.barrier_arrivals > 0);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let gpu = GpuConfig::tiny();
        let d = orient(&tc_graph::CsrGraph::empty(6));
        assert_eq!(Bisson::default().count(&d, &gpu).triangles, 0);
        let path = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]).build();
        assert_eq!(Bisson::default().count(&orient(&path), &gpu).triangles, 0);
    }
}
