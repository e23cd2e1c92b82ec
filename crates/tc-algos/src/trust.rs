//! TRUST (Pandey, Wang, Zhang et al., TPDS 2021 — "Triangle Counting
//! Reloaded on GPUs"): hash-partitioned counting, the post-paper state
//! of the art and the one kernel in this workspace that intersects
//! **nothing**.
//!
//! Where every other generator answers `|N⁺(u) ∩ N⁺(v)|` with a sorted
//! intersection (merge, binary search, or bitmap), TRUST builds a
//! shared-memory **hash table** of `N⁺(u)` once per vertex — each
//! neighbour dropped into bucket `w mod H` — and then answers every
//! wedge endpoint with a bucket scan. The model here mirrors that
//! two-phase structure as a block-per-vertex kernel:
//!
//! - **Build**: the block streams `N⁺(u)` from global memory and
//!   hash-inserts it; insert traffic goes through the bank-conflict
//!   model at the slot addresses the counting-sort layout assigns, and
//!   one block barrier publishes the table.
//! - **Probe**: warps take `u`'s neighbours round-robin; the 32 lanes of
//!   a warp take 32 consecutive elements of one `N⁺(v)` (coalesced — one
//!   128-byte segment per chunk) and each lane scans its key's bucket.
//!   Lanes retire in lock step, so a chunk costs the **maximum** bucket
//!   occupancy among its lanes — hash skew becomes warp divergence, the
//!   exact analogue of the list-imbalance cost the paper's model
//!   attributes to intersection kernels. No barriers: the table is
//!   read-only during probing.
//!
//! That shape is why TRUST is the interesting sixth generator for the
//! direction/ordering grid (`experiments trust-grid`): A-direction still
//! matters (it bounds `d(u)`, the table size, and balances the probe
//! rounds), but A-order's resource-conflict argument was derived for
//! intersections — here vertex renumbering instead moves the *residues*
//! `w mod H`, i.e. the hash skew. Whether the paper's choices help or
//! hurt a non-intersection kernel is exactly what the grid measures.

use crate::{run_kernel, GpuTriangleCounter, KernelGen, RunResult};
use std::cell::RefCell;
use tc_gpusim::coalesce::bank_transactions;
use tc_gpusim::ops::WarpOp;
use tc_gpusim::trace::{BlockTrace, WarpTrace};
use tc_gpusim::GpuConfig;
use tc_graph::{DirectedGraph, VertexId};

/// TRUST's hash-partitioned algorithm.
#[derive(Clone, Debug, Default)]
pub struct Trust {
    /// Shared-memory hash buckets per block; 0 derives the default from
    /// the GPU configuration (4 buckets per resident thread).
    pub buckets_per_block: usize,
}

/// The hash-table layout: counting-sort of a neighbour list into `H`
/// buckets. `counts`/`offsets` are sized to `H` once; `slots` grows to
/// the largest neighbour list seen.
struct BucketBuffer {
    counts: Vec<u32>,
    offsets: Vec<u32>,
    slots: Vec<VertexId>,
}

impl BucketBuffer {
    /// Counting-sorts `list` into `buckets` residue classes; afterwards
    /// bucket `b` occupies `slots[offsets[b] as usize..offsets[b + 1] as usize]`.
    fn build(&mut self, list: &[VertexId], buckets: usize) {
        self.counts.fill(0);
        for &v in list {
            self.counts[v as usize % buckets] += 1;
        }
        let mut sum = 0u32;
        for (b, &c) in self.counts.iter().enumerate() {
            self.offsets[b] = sum;
            sum += c;
        }
        self.offsets[buckets] = sum;
        self.slots.clear();
        self.slots.resize(list.len(), 0);
        // Reuse `counts` as per-bucket write cursors.
        self.counts.copy_from_slice(&self.offsets[..buckets]);
        for &v in list {
            let b = v as usize % buckets;
            self.slots[self.counts[b] as usize] = v;
            self.counts[b] += 1;
        }
    }

    /// The bucket holding residue class of `w`.
    fn bucket(&self, w: VertexId, buckets: usize) -> &[VertexId] {
        let b = w as usize % buckets;
        &self.slots[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

pub(crate) struct TrustKernel<'a> {
    g: &'a DirectedGraph,
    warps_per_block: usize,
    buckets: usize,
    /// One table for the whole grid: [`run_kernel`] generates one block
    /// at a time.
    table: RefCell<BucketBuffer>,
}

impl<'a> TrustKernel<'a> {
    pub(crate) fn new(g: &'a DirectedGraph, gpu: &GpuConfig, buckets_per_block: usize) -> Self {
        let buckets = if buckets_per_block == 0 {
            4 * gpu.threads_per_block()
        } else {
            buckets_per_block
        }
        .max(1);
        Self {
            g,
            warps_per_block: gpu.warps_per_block,
            buckets,
            table: RefCell::new(BucketBuffer {
                counts: vec![0; buckets],
                offsets: vec![0; buckets + 1],
                slots: Vec::new(),
            }),
        }
    }
}

impl KernelGen for TrustKernel<'_> {
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

        let buckets = self.buckets;
        let mut table = self.table.borrow_mut();
        table.build(nbrs, buckets);

        let mut warp_ops: Vec<Vec<WarpOp>> = vec![Vec::new(); wpb];
        let mut count = 0u64;

        // -- Phase 1: cooperative hash build. Each warp streams its
        // share of N+(u) (coalesced reads) and inserts one element per
        // lane; the insert addresses are the final slot positions, so
        // residue collisions turn into shared-memory bank pressure.
        for (w_idx, ops) in warp_ops.iter_mut().enumerate() {
            let read_segments = (nbrs.len() as u64).div_ceil(32 * wpb as u64).max(1) as u32;
            ops.push(WarpOp::GlobalAccess {
                segments: read_segments,
            });
            let inserts = bank_transactions(nbrs.iter().skip(w_idx * 32).take(32).map(|&v| {
                let b = v as usize % buckets;
                table.offsets[b] as u64
            }));
            ops.push(WarpOp::Compute(1)); // the mod-H hash
            ops.push(WarpOp::SharedAccess {
                transactions: inserts.transactions.max(1),
            });
            // Publish the table to the probing warps.
            ops.push(WarpOp::BlockSync);
        }

        // -- Phase 2: probe. Warps take u's neighbours round-robin; the
        // 32 lanes of a warp scan the buckets of 32 consecutive wedge
        // endpoints w in N+(v). The table is read-only, so there are no
        // further barriers — only divergence, paid at the occupancy of
        // the fullest bucket in each chunk.
        for (v_idx, &v) in nbrs.iter().enumerate() {
            let ops = &mut warp_ops[v_idx % wpb];
            for chunk in self.g.out_neighbors(v).chunks(32) {
                // 32 consecutive u32 keys: one 128-byte segment.
                ops.push(WarpOp::GlobalAccess { segments: 1 });
                ops.push(WarpOp::Compute(1)); // the mod-H hash
                let lane_buckets: Vec<&[VertexId]> =
                    chunk.iter().map(|&w| table.bucket(w, buckets)).collect();
                let depth = lane_buckets.iter().map(|b| b.len()).max().unwrap_or(0);
                for step in 0..depth {
                    let probes: Vec<u64> = chunk
                        .iter()
                        .zip(&lane_buckets)
                        .filter(|(_, b)| step < b.len())
                        .map(|(&w, _)| (self.offsets_base(&table, w) + step) as u64)
                        .collect();
                    let access = bank_transactions(probes.iter().copied());
                    ops.push(WarpOp::SharedAccess {
                        transactions: access.transactions,
                    });
                    ops.push(WarpOp::Compute(1));
                }
                for (&w, bucket) in chunk.iter().zip(&lane_buckets) {
                    if bucket.contains(&w) {
                        count += 1;
                    }
                }
            }
        }

        let warps = warp_ops.into_iter().map(WarpTrace::new).collect();
        (BlockTrace::new(warps), count)
    }
}

impl TrustKernel<'_> {
    /// Shared-memory word offset of `w`'s bucket base.
    fn offsets_base(&self, table: &BucketBuffer, w: VertexId) -> usize {
        table.offsets[w as usize % self.buckets] as usize
    }
}

impl GpuTriangleCounter for Trust {
    fn name(&self) -> &'static str {
        "TRUST"
    }

    fn count(&self, g: &DirectedGraph, gpu: &GpuConfig) -> RunResult {
        let kernel = TrustKernel::new(g, gpu, self.buckets_per_block);
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
        let r = Trust::default().count(&orient(&g), &GpuConfig::tiny());
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn matches_cpu_on_random_graphs() {
        let gpu = GpuConfig::tiny();
        for seed in 0..4u64 {
            let g = erdos_renyi(150, 700, seed);
            let d = orient(&g);
            assert_eq!(
                Trust::default().count(&d, &gpu).triangles,
                cpu::directed_count(&d),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_cpu_on_skewed_graph() {
        let g = power_law_configuration(500, 2.1, 8.0, 11);
        let d = orient(&g);
        let r = Trust::default().count(&d, &GpuConfig::titan_xp_like());
        assert_eq!(r.triangles, cpu::directed_count(&d));
    }

    #[test]
    fn tiny_bucket_counts_stay_exact() {
        // Extreme collision pressure: 2 buckets. Costs change, counts
        // must not.
        let g = power_law_configuration(300, 2.2, 7.0, 5);
        let d = orient(&g);
        let skewed = Trust {
            buckets_per_block: 2,
        };
        assert_eq!(
            skewed.count(&d, &GpuConfig::tiny()).triangles,
            cpu::directed_count(&d)
        );
    }

    #[test]
    fn collision_pressure_costs_cycles() {
        // Same graph, 2 buckets vs the derived default: the skewed
        // table must scan longer chains and so burn more cycles.
        let g = power_law_configuration(400, 2.2, 8.0, 2);
        let d = orient(&g);
        let gpu = GpuConfig::tiny();
        let wide = Trust::default().count(&d, &gpu);
        let narrow = Trust {
            buckets_per_block: 2,
        }
        .count(&d, &gpu);
        assert_eq!(wide.triangles, narrow.triangles);
        assert!(
            narrow.metrics.kernel_cycles > wide.metrics.kernel_cycles,
            "bucket collisions must show up as kernel time ({} <= {})",
            narrow.metrics.kernel_cycles,
            wide.metrics.kernel_cycles
        );
    }

    #[test]
    fn build_phase_barriers_probe_phase_none() {
        let g = power_law_configuration(400, 2.2, 8.0, 2);
        let d = orient(&g);
        let r = Trust::default().count(&d, &GpuConfig::titan_xp_like());
        // One sync per warp per non-trivial block, from the build phase
        // only: at most warps_per_block arrivals per block.
        assert!(r.metrics.barrier_arrivals > 0);
        let blocks = d.num_vertices() as u64;
        assert!(
            r.metrics.barrier_arrivals <= blocks * 8,
            "probe phase must not add barriers"
        );
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let gpu = GpuConfig::tiny();
        let d = orient(&tc_graph::CsrGraph::empty(6));
        assert_eq!(Trust::default().count(&d, &gpu).triangles, 0);
        let path = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]).build();
        assert_eq!(Trust::default().count(&orient(&path), &gpu).triangles, 0);
    }
}
