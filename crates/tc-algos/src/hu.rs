//! Hu, Guan & Zou (ICDEW'19): fine-grained wedge-per-thread counting.
//!
//! The workload unit is a *wedge* `u → v → w`: one thread binary-searches
//! `w` in `u`'s adjacency list, which a block first stages into shared
//! memory. Execution follows the paper's "copy–synchronize–search"
//! supersteps (Figure 2): the block loads the lists it needs, barriers,
//! then every warp runs 32 divergent searches in lock step, barriers
//! again, and moves to the next chunk of wedges.
//!
//! The generator never lists a bucket's wedges in full. A cursor over
//! (`u`, `v` in `N⁺(u)`, position in `N⁺(v)`) refills one superstep's chunk
//! of `32 × warps × batches` wedges (1024 at `titan_xp_like`) at a time,
//! so a block holds that many wedges however large its bucket is; a
//! kron-logn18 bucket can have over 185 000.
//!
//! This is the algorithm the paper uses as its running example: it hosts
//! both analytic models (intra-block BSP for A-direction, resource balance
//! for A-order) and appears in Tables 2 and 5 and Figures 12 and 16.

use crate::intersect::{lockstep_multi_search, LaneSearch};
use crate::{run_kernel, GpuTriangleCounter, KernelGen, RunResult};
use tc_gpusim::coalesce::segments_for_addresses;
use tc_gpusim::ops::WarpOp;
use tc_gpusim::search::SearchCosts;
use tc_gpusim::trace::{BlockTrace, WarpTrace};
use tc_gpusim::GpuConfig;
use tc_graph::{DirectedGraph, VertexId};

/// Hu's fine-grained algorithm.
#[derive(Clone, Debug)]
pub struct HuFineGrained {
    /// Consecutive vertices whose wedges one block owns — the paper's
    /// bucket size `k` (Section 3.2.4). A-order optimizes exactly this
    /// grouping.
    pub bucket_size: usize,
    /// 32-wedge search batches each warp runs between two barriers. One
    /// staged piece serves `32 × warps × batches` searches, amortizing the
    /// copy phase the way the real kernel's shared-memory piece does.
    pub batches_per_superstep: usize,
    /// Search-loop cost constants.
    pub costs: SearchCosts,
}

impl Default for HuFineGrained {
    fn default() -> Self {
        Self {
            bucket_size: 64,
            batches_per_superstep: 4,
            costs: SearchCosts::default(),
        }
    }
}

/// One wedge work item: search `key` (= w) in `N⁺(u)`.
struct Wedge {
    u: VertexId,
    key: VertexId,
    /// Global word address `w` was streamed from (inside `N⁺(v)`).
    key_addr: u64,
}

pub(crate) struct HuKernel<'a> {
    g: &'a DirectedGraph,
    bucket_size: usize,
    warps_per_block: usize,
    batches_per_superstep: usize,
    costs: SearchCosts,
}

impl<'a> HuKernel<'a> {
    pub(crate) fn new(
        g: &'a DirectedGraph,
        gpu: &GpuConfig,
        bucket_size: usize,
        batches_per_superstep: usize,
        costs: SearchCosts,
    ) -> Self {
        Self {
            g,
            bucket_size: bucket_size.max(1),
            warps_per_block: gpu.warps_per_block,
            batches_per_superstep: batches_per_superstep.max(1),
            costs,
        }
    }

    /// A cursor at the first wedge of bucket `idx`.
    fn bucket_wedges(&self, idx: usize) -> WedgeCursor<'a> {
        let start = idx * self.bucket_size;
        let end = ((idx + 1) * self.bucket_size).min(self.g.num_vertices());
        WedgeCursor {
            g: self.g,
            u: start as VertexId,
            end: end as VertexId,
            vi: 0,
            wi: 0,
        }
    }
}

/// Walks a bucket's wedges `u → v → w` in order of `u`, then `v` in
/// `N⁺(u)`, then `w` in `N⁺(v)`, handing them out one superstep at a time.
struct WedgeCursor<'a> {
    g: &'a DirectedGraph,
    /// Current source vertex; the bucket ends before `end`.
    u: VertexId,
    end: VertexId,
    /// Position of the current `v` in `N⁺(u)`.
    vi: usize,
    /// Position of the next `w` in `N⁺(v)`.
    wi: usize,
}

impl WedgeCursor<'_> {
    /// Replaces `buf` with the next `max` wedges, or the rest of the bucket
    /// if fewer remain. Returns `false` once the bucket is exhausted.
    fn refill(&mut self, buf: &mut Vec<Wedge>, max: usize) -> bool {
        buf.clear();
        while buf.len() < max && self.u < self.end {
            let Some(&v) = self.g.out_neighbors(self.u).get(self.vi) else {
                self.u += 1;
                self.vi = 0;
                continue;
            };
            let out_v = self.g.out_neighbors(v);
            let base_v = self.g.offsets()[v as usize] as u64;
            let take = (out_v.len() - self.wi).min(max - buf.len());
            buf.extend((self.wi..self.wi + take).map(|t| Wedge {
                u: self.u,
                key: out_v[t],
                key_addr: base_v + t as u64,
            }));
            self.wi += take;
            if self.wi == out_v.len() {
                self.vi += 1;
                self.wi = 0;
            }
        }
        !buf.is_empty()
    }
}

impl KernelGen for HuKernel<'_> {
    fn num_blocks(&self) -> usize {
        self.g.num_vertices().div_ceil(self.bucket_size)
    }

    fn gen_block(&self, idx: usize) -> (BlockTrace, u64) {
        let wpb = self.warps_per_block;
        let chunk = 32 * wpb * self.batches_per_superstep;
        let mut warp_ops: Vec<Vec<WarpOp>> = vec![Vec::new(); wpb];
        let mut count = 0u64;
        let mut cursor = self.bucket_wedges(idx);
        let mut wedges = Vec::with_capacity(chunk);

        while cursor.refill(&mut wedges, chunk) {
            let superstep = wedges.as_slice();
            // -- Copy phase: stage the distinct u-lists this chunk searches.
            // Wedges arrive grouped by u, so distinct-u detection is a scan.
            let mut stage_words = 0u64;
            let mut stage_base = Vec::<(VertexId, u64)>::new();
            for w in superstep {
                if stage_base.last().map(|&(u, _)| u) != Some(w.u) {
                    stage_base.push((w.u, stage_words));
                    stage_words += self.g.out_degree(w.u) as u64;
                }
            }
            let stage_share = stage_words.div_ceil(32 * wpb as u64).max(1) as u32;
            for ops in warp_ops.iter_mut() {
                ops.push(WarpOp::GlobalAccess {
                    segments: stage_share,
                });
                ops.push(WarpOp::SharedAccess {
                    transactions: stage_share,
                });
                ops.push(WarpOp::BlockSync);
            }

            // -- Search phase. Threads receive wedges by global thread id
            // (thread t ← wedge t), so a warp's 32 lanes hold wedges
            // spread across the chunk — when the chunk spans several
            // source vertices, lanes search lists of *different lengths*
            // and the lock-step warp runs at the deepest lane's depth.
            // This is the divergence the paper's Figure 2 describes, and
            // the imbalance that A-direction's flattened out-degrees
            // remove.
            for batch in 0..self.batches_per_superstep {
                let window = &superstep[(batch * 32 * wpb).min(superstep.len())
                    ..((batch + 1) * 32 * wpb).min(superstep.len())];
                if window.is_empty() {
                    break;
                }
                for (w_idx, ops) in warp_ops.iter_mut().enumerate() {
                    let lane_wedges: Vec<&Wedge> = (0..32)
                        .filter_map(|l| window.get(l * wpb + w_idx))
                        .collect();
                    if lane_wedges.is_empty() {
                        continue;
                    }
                    // Stream the 32 keys (w values) from global memory. The
                    // strided thread assignment interleaves lanes across the
                    // same v-lists, so consecutive warps re-touch the same
                    // 128-byte segments; L1 turns the aggregate into a nearly
                    // streaming access, which the cap models (total unique key
                    // words across the kernel ≈ one word per wedge).
                    ops.push(WarpOp::GlobalAccess {
                        segments: segments_for_addresses(lane_wedges.iter().map(|w| w.key_addr))
                            .min(4),
                    });
                    let lanes: Vec<LaneSearch<'_>> = lane_wedges
                        .iter()
                        .map(|w| {
                            let base = stage_base
                                .iter()
                                .find(|&&(u, _)| u == w.u)
                                .map(|&(_, b)| b)
                                .expect("staged");
                            LaneSearch {
                                list: self.g.out_neighbors(w.u),
                                base,
                                key: w.key,
                            }
                        })
                        .collect();
                    count += lockstep_multi_search(&lanes, &self.costs, ops);
                }
            }

            // -- End-of-superstep barrier before the shared buffer is reused.
            for ops in warp_ops.iter_mut() {
                ops.push(WarpOp::BlockSync);
            }
        }

        let warps = warp_ops.into_iter().map(WarpTrace::new).collect();
        (BlockTrace::new(warps), count)
    }
}

impl HuFineGrained {
    /// Runs the kernel and also returns the per-block schedule events
    /// (for [`tc_gpusim::timeline`] analysis of bucket/block imbalance).
    pub fn count_with_events(
        &self,
        g: &DirectedGraph,
        gpu: &GpuConfig,
    ) -> (RunResult, Vec<tc_gpusim::BlockEvent>) {
        let kernel = HuKernel::new(
            g,
            gpu,
            self.bucket_size,
            self.batches_per_superstep,
            self.costs,
        );
        crate::run_kernel_with_events(&kernel, gpu)
    }
}

impl GpuTriangleCounter for HuFineGrained {
    fn name(&self) -> &'static str {
        "Hu fine-grained"
    }

    fn count(&self, g: &DirectedGraph, gpu: &GpuConfig) -> RunResult {
        let kernel = HuKernel::new(
            g,
            gpu,
            self.bucket_size,
            self.batches_per_superstep,
            self.costs,
        );
        run_kernel(&kernel, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use tc_graph::generators::{erdos_renyi, power_law_configuration, watts_strogatz};
    use tc_graph::{orient_by_rank, GraphBuilder};

    fn orient(g: &tc_graph::CsrGraph) -> DirectedGraph {
        let rank: Vec<u64> = g.vertices().map(u64::from).collect();
        orient_by_rank(g, &rank)
    }

    #[test]
    fn counts_k4() {
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build();
        let r = HuFineGrained::default().count(&orient(&g), &GpuConfig::tiny());
        assert_eq!(r.triangles, 4);
    }

    #[test]
    fn matches_cpu_on_random_graphs() {
        let gpu = GpuConfig::tiny();
        for seed in 0..4u64 {
            let g = erdos_renyi(150, 700, seed);
            let d = orient(&g);
            let r = HuFineGrained::default().count(&d, &gpu);
            assert_eq!(r.triangles, cpu::directed_count(&d), "seed {seed}");
        }
    }

    #[test]
    fn matches_cpu_on_skewed_and_clustered_graphs() {
        let gpu = GpuConfig::titan_xp_like();
        let skewed = power_law_configuration(500, 2.1, 8.0, 11);
        let d = orient(&skewed);
        assert_eq!(
            HuFineGrained::default().count(&d, &gpu).triangles,
            cpu::directed_count(&d)
        );
        let ring = watts_strogatz(300, 3, 0.1, 7);
        let d = orient(&ring);
        assert_eq!(
            HuFineGrained::default().count(&d, &gpu).triangles,
            cpu::directed_count(&d)
        );
    }

    #[test]
    fn bucket_size_does_not_change_the_count() {
        let g = power_law_configuration(400, 2.2, 7.0, 3);
        let d = orient(&g);
        let gpu = GpuConfig::titan_xp_like();
        let expect = cpu::directed_count(&d);
        for k in [1, 7, 64, 1000] {
            let algo = HuFineGrained {
                bucket_size: k,
                ..HuFineGrained::default()
            };
            assert_eq!(algo.count(&d, &gpu).triangles, expect, "bucket {k}");
        }
    }

    #[test]
    fn empty_graph_runs() {
        let d = orient(&tc_graph::CsrGraph::empty(5));
        let r = HuFineGrained::default().count(&d, &GpuConfig::tiny());
        assert_eq!(r.triangles, 0);
    }

    /// FNV-1a over a stream of `u64` words.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, x: u64) {
            for byte in x.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn op(&mut self, op: impl std::borrow::Borrow<WarpOp>) {
            let (kind, payload) = match *op.borrow() {
                WarpOp::Compute(c) => (0, c),
                WarpOp::GlobalAccess { segments } => (1, segments),
                WarpOp::SharedAccess { transactions } => (2, transactions),
                WarpOp::BlockSync => (3, 0),
            };
            self.word(kind);
            self.word(u64::from(payload));
        }
    }

    /// Digest of every block's triangle count and decoded ops, warp by
    /// warp, at `titan_xp_like` (1024 wedges per superstep).
    fn trace_digest(d: &DirectedGraph, bucket_size: usize) -> (u64, u64) {
        let gpu = GpuConfig::titan_xp_like();
        let algo = HuFineGrained {
            bucket_size,
            ..HuFineGrained::default()
        };
        let kernel = HuKernel::new(
            d,
            &gpu,
            algo.bucket_size,
            algo.batches_per_superstep,
            algo.costs,
        );
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut triangles = 0;
        h.word(kernel.num_blocks() as u64);
        for idx in 0..kernel.num_blocks() {
            let (trace, count) = kernel.gen_block(idx);
            triangles += count;
            h.word(count);
            h.word(trace.num_warps() as u64);
            for warp in trace.warps() {
                h.word(warp.len() as u64);
                for op in warp {
                    h.op(op);
                }
            }
        }
        (triangles, h.0)
    }

    /// Pins every Hu block's trace and count. The 60-clique is one bucket
    /// of 34 220 wedges, about 34 supersteps; the R-MAT and power-law
    /// graphs, oriented by id, have hub buckets spanning several.
    #[test]
    fn block_traces_are_pinned() {
        let clique: Vec<(VertexId, VertexId)> = (0..60)
            .flat_map(|u| (u + 1..60).map(move |v| (u, v)))
            .collect();
        let k8: Vec<(VertexId, VertexId)> = (0..8)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
            .collect();
        let graphs = [
            ("clique60", GraphBuilder::from_edges(60, &clique).build()),
            (
                "rmat",
                tc_graph::generators::rmat(9, 8, Default::default(), 3),
            ),
            ("power-law", power_law_configuration(600, 2.1, 8.0, 5)),
            ("k8", GraphBuilder::from_edges(8, &k8).build()),
            ("empty", tc_graph::CsrGraph::empty(0)),
            (
                "isolated",
                GraphBuilder::from_edges(100, &[(3, 50), (3, 96), (50, 96)]).build(),
            ),
        ];
        let expected: [(&str, usize, u64, u64); 24] = [
            ("clique60", 1, 34_220, 0x431c_674b_3e40_5e4e),
            ("clique60", 7, 34_220, 0x8d64_d03c_a8a9_5c0b),
            ("clique60", 64, 34_220, 0xb3a9_23f6_6044_8d33),
            ("clique60", 1000, 34_220, 0xb3a9_23f6_6044_8d33),
            ("rmat", 1, 9510, 0xe613_9f68_90ae_78c3),
            ("rmat", 7, 9510, 0xb175_44ec_ed96_737e),
            ("rmat", 64, 9510, 0x8e94_4685_b6ae_e8b6),
            ("rmat", 1000, 9510, 0x09b6_d284_297e_16df),
            ("power-law", 1, 1318, 0xaa7b_f5c4_b640_dfd9),
            ("power-law", 7, 1318, 0xee4d_a9e9_e737_57df),
            ("power-law", 64, 1318, 0x132f_9213_2266_71f7),
            ("power-law", 1000, 1318, 0xc340_1020_f9cd_bf64),
            ("k8", 1, 56, 0x9f39_4ade_54ed_429d),
            ("k8", 7, 56, 0x6d13_8011_23d0_32bf),
            ("k8", 64, 56, 0xadc1_803b_b9e2_6894),
            ("k8", 1000, 56, 0xadc1_803b_b9e2_6894),
            ("empty", 1, 0, 0xa8c7_f832_281a_39c5),
            ("empty", 7, 0, 0xa8c7_f832_281a_39c5),
            ("empty", 64, 0, 0xa8c7_f832_281a_39c5),
            ("empty", 1000, 0, 0xa8c7_f832_281a_39c5),
            ("isolated", 1, 1, 0xd638_09be_6a97_5289),
            ("isolated", 7, 1, 0xcd6e_9e56_0525_c1ca),
            ("isolated", 64, 1, 0xae7a_c2b0_9a35_e62f),
            ("isolated", 1000, 1, 0xef03_7290_281b_fa04),
        ];
        for (name, bucket, triangles, digest) in expected {
            let g = &graphs.iter().find(|(n, _)| *n == name).expect("graph").1;
            let d = orient(g);
            let got = trace_digest(&d, bucket);
            assert_eq!(got.0, cpu::directed_count(&d), "{name} bucket {bucket}");
            assert_eq!(got, (triangles, digest), "{name} bucket {bucket}");
        }
    }

    #[test]
    fn emits_supersteps_with_barriers() {
        let g = power_law_configuration(300, 2.2, 8.0, 1);
        let d = orient(&g);
        let r = HuFineGrained::default().count(&d, &GpuConfig::titan_xp_like());
        assert!(r.metrics.barrier_arrivals > 0, "BSP supersteps must sync");
        assert!(
            r.metrics.shared_transactions > 0,
            "searches hit shared memory"
        );
    }
}
