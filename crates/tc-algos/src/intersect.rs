//! List-intersection primitives shared by the GPU trace generators.
//!
//! Two families, matching Section 6.2 of the paper:
//! - **binary search** — each element of one list searched in the other;
//!   on GPU this is the better strategy and most algorithms use it;
//! - **sort-merge** — two-pointer merge; implemented for the Gunrock
//!   comparison (Figure 10).
//!
//! Plus [`lockstep_multi_search`], the divergent variant used by Hu's
//! kernel where every lane of a warp searches a *different* staged list.

use tc_gpusim::coalesce::bank_transactions;
use tc_gpusim::ops::WarpOp;
use tc_gpusim::search::SearchCosts;
use tc_graph::VertexId;

/// Exact size of the intersection of two sorted lists (two-pointer merge).
///
/// Counting only — the innermost loop of every merge-based counter, kept
/// free of the element sink so there is no per-element branch. Use
/// [`merge_collect`] when the common elements themselves are needed.
#[inline]
pub fn merge_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Two-pointer merge that appends each common element to `out` and
/// returns how many it found. `out` is *not* cleared first, so callers
/// can accumulate across edges (the `tc-apps` support counters do).
pub fn merge_collect(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// One lane's work item for [`lockstep_multi_search`]: search `key` in the
/// sorted `list` staged at shared-memory word offset `base`.
#[derive(Clone, Copy, Debug)]
pub struct LaneSearch<'a> {
    /// The staged list this lane searches.
    pub list: &'a [VertexId],
    /// Shared-memory word offset of the list (for bank-conflict modelling).
    pub base: u64,
    /// The key to search for.
    pub key: VertexId,
}

/// Lock-step execution of up to 32 *independent* binary searches, each lane
/// over its own staged list — the inner loop of Hu's fine-grained kernel.
///
/// SIMT semantics: the warp iterates until every lane terminates, so the
/// step count is the **maximum** lane depth (short-list lanes idle while
/// long-list lanes keep probing — the divergence cost the paper's
/// imbalance model captures). Each step's shared-memory cost comes from
/// the actual probe addresses via the bank-conflict model.
///
/// Returns the number of keys found, appending ops to `ops`.
pub fn lockstep_multi_search(
    lanes: &[LaneSearch<'_>],
    costs: &SearchCosts,
    ops: &mut Vec<WarpOp>,
) -> u64 {
    assert!(lanes.len() <= 32, "a warp has at most 32 lanes");
    if lanes.is_empty() {
        return 0;
    }
    if costs.compute_overhead > 0 {
        ops.push(WarpOp::Compute(costs.compute_overhead));
    }

    let mut lo = [0usize; 32];
    let mut hi = [0usize; 32];
    let mut active = [false; 32];
    let mut found = 0u64;
    for (i, lane) in lanes.iter().enumerate() {
        hi[i] = lane.list.len();
        active[i] = !lane.list.is_empty();
    }

    let mut probes: Vec<u64> = Vec::with_capacity(lanes.len());
    loop {
        probes.clear();
        for (i, lane) in lanes.iter().enumerate() {
            if active[i] {
                probes.push(lane.base + ((lo[i] + hi[i]) / 2) as u64);
            }
        }
        if probes.is_empty() {
            break;
        }
        let access = bank_transactions(probes.iter().copied());
        ops.push(WarpOp::SharedAccess {
            transactions: access.transactions,
        });
        ops.push(WarpOp::Compute(costs.compute_per_step));

        for (i, lane) in lanes.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let mid = (lo[i] + hi[i]) / 2;
            let v = lane.list[mid];
            if v == lane.key {
                found += 1;
                active[i] = false;
            } else if v < lane.key {
                lo[i] = mid + 1;
            } else {
                hi[i] = mid;
            }
            if active[i] && lo[i] >= hi[i] {
                active[i] = false;
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_count_basic() {
        assert_eq!(merge_count(&[1, 3, 5, 7], &[2, 3, 5, 8]), 2);
        assert_eq!(merge_count(&[], &[1, 2]), 0);
        assert_eq!(merge_count(&[4], &[4]), 1);
    }

    #[test]
    fn merge_collects_elements() {
        let mut out = Vec::new();
        let found = merge_collect(&[1, 2, 3, 9], &[2, 3, 4, 9], &mut out);
        assert_eq!(out, vec![2, 3, 9]);
        assert_eq!(found, 3);
        // Accumulates rather than clears.
        merge_collect(&[5], &[5], &mut out);
        assert_eq!(out, vec![2, 3, 9, 5]);
    }

    #[test]
    fn multi_search_counts_exactly() {
        let l1: Vec<u32> = vec![1, 4, 9, 16, 25];
        let l2: Vec<u32> = vec![2, 3, 5, 7];
        let lanes = [
            LaneSearch {
                list: &l1,
                base: 0,
                key: 9,
            }, // hit
            LaneSearch {
                list: &l2,
                base: 100,
                key: 6,
            }, // miss
            LaneSearch {
                list: &l1,
                base: 0,
                key: 25,
            }, // hit
            LaneSearch {
                list: &l2,
                base: 100,
                key: 2,
            }, // hit
        ];
        let mut ops = Vec::new();
        let found = lockstep_multi_search(&lanes, &SearchCosts::default(), &mut ops);
        assert_eq!(found, 3);
        assert!(!ops.is_empty());
    }

    #[test]
    fn multi_search_step_count_is_max_lane_depth() {
        let long: Vec<u32> = (0..1024).map(|i| i * 2 + 1).collect(); // all misses
        let short: Vec<u32> = vec![1];
        let lanes = [
            LaneSearch {
                list: &short,
                base: 0,
                key: 0,
            },
            LaneSearch {
                list: &long,
                base: 16,
                key: 4,
            },
        ];
        let mut ops = Vec::new();
        lockstep_multi_search(&lanes, &SearchCosts::default(), &mut ops);
        let mem = ops.iter().filter(|o| o.is_memory()).count();
        assert!(
            (10..=11).contains(&mem),
            "divergent warp runs at the longest lane's depth, got {mem}"
        );
    }

    #[test]
    fn multi_search_empty_lists_and_lanes() {
        let mut ops = Vec::new();
        assert_eq!(
            lockstep_multi_search(&[], &SearchCosts::default(), &mut ops),
            0
        );
        assert!(ops.is_empty());
        let lanes = [LaneSearch {
            list: &[],
            base: 0,
            key: 1,
        }];
        assert_eq!(
            lockstep_multi_search(&lanes, &SearchCosts::default(), &mut ops),
            0
        );
    }
}
