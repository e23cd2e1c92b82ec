//! The adaptive zero-allocation intersection engine behind every CPU
//! counting path.
//!
//! The paper's core observation (Section 4) is that intersection
//! strategy must match list shape: intersecting a short list with a long
//! one is **memory-transaction-bound** — a handful of probes into the
//! long list beat streaming the whole thing — while two lists of similar
//! length are **compute-bound** and the branch-friendly linear merge
//! wins. The GPU kernels encode that choice statically; this module is
//! the CPU mirror, with the choice made per pair (and per vertex) from
//! the same size-ratio model. There are two kernels:
//!
//! - [`Kernel::Merge`] — two-pointer linear merge, `O(|a| + |b|)`.
//!   The seed implementation used this unconditionally; it stays as the
//!   reference the benchmarks and tests measure the engine against.
//! - [`Kernel::Adaptive`] — the crossover selector. Its tiers are
//!   private:
//!   - A raw pair ([`intersect_count`]) gallops — an exponential search
//!     of each element of the shorter list in the longer, with a
//!     monotone cursor, `O(s · log(l/s))` — once the longer list is
//!     `GALLOP_RATIO` times the shorter. Otherwise it merges: with the
//!     AVX2/SSE2 block merge of [`crate::simd`] under the `simd` cargo
//!     feature (runtime-detected), with the scalar merge without it.
//!   - The counting loops pin every vertex that can close a triangle:
//!     its out-list goes into the bitmap below once, and each wedge's
//!     list is probed against it (`Scratch::count_marked`: the AVX2
//!     eight-wide gather under the `simd` feature, a scalar loop
//!     otherwise).
//!   - A probe list `PROBE_GALLOP_RATIO` times longer than the pinned
//!     list gallops the pinned list through it instead.
//!
//! Fixed gallop-only, scalar-probe bitmap, word-`AND` bitmap and
//! stand-alone SIMD-merge kernels never won a `cpu-bench` cell against
//! Adaptive (DESIGN.md §3.10 has the numbers), so no other kernel is
//! public.
//!
//! ## The packed bitmap
//!
//! Membership lives in a packed `u64` bitmap: bit `v % 64` of word
//! `v / 64`. The bitmap is **authoritative at probe time**: `mark`
//! records which words the current set touches (`touched`) and erases
//! the previous set's words before installing the new one — the classic
//! sparse-set reset — so a probe is one pure word load with no validity
//! check of any kind. (A first cut validated words with per-word
//! generation tags instead; the tag load+compare on *every* probe
//! doubled probe cost in `cpu-bench`, while the reset walk costs `O(d)`
//! stores once per pinned vertex — orders of magnitude off the probe
//! loop. See DESIGN.md §3.10.)
//!
//! Versus the old one-`u32`-per-vertex stamp array the packed words are
//! 32× smaller (8 bytes per 64 vertices instead of 256), which keeps
//! the whole bitmap of a few-hundred-thousand-vertex graph inside
//! L1/L2 during the pinned counting loops.
//!
//! The counting loops run against a caller-owned [`Scratch`], so they
//! perform **zero heap allocation** once the scratch has warmed up: the
//! counting entry points size the bitmap to the graph once up front
//! ([`Scratch::reserve_vertices`]) and assert it never reallocates
//! mid-count.

use crate::intersect::merge_count;
use tc_graph::{DirectedGraph, VertexId};

/// Length ratio past which galloping search beats the linear merge.
///
/// Merge touches `s + l` elements; galloping touches about
/// `s · (log₂(l/s) + 2)`. Equating the two, galloping wins once
/// `l/s` exceeds roughly `log₂(l/s) + 1` — but its probes are
/// data-dependent branches and cache misses while the merge is a
/// predictable stream, so the empirical CPU crossover sits much higher
/// than the operation counts suggest. 16 is conservative on every
/// dataset in `BENCH_cpu.json`; re-sweeping after the vectorised merge
/// landed moved the crossover less than the run-to-run noise, so the
/// scalar-era value stands. This ratio governs the per-pair crossover
/// ([`intersect_count`] on raw lists); the pinned vertex loop uses the
/// much higher [`PROBE_GALLOP_RATIO`].
const GALLOP_RATIO: usize = 16;

/// Wedge-level escape hatch of the pinned probe loop: when a probe list
/// is this many times longer than the pinned list, [`Kernel::Adaptive`]
/// gallops the pinned list through it instead of probing it end to end.
///
/// Probing is linear in the probe list, so a hub successor list dwarfing
/// the pinned list would otherwise dominate the vertex; galloping costs
/// `|N⁺(u)| · log |N⁺(v)|` regardless. The crossover sits far above
/// [`GALLOP_RATIO`] because the vectorised gather probe
/// ([`crate::simd::probe_count`]) retires probes several times faster
/// than the branchy per-element gallop steps — a sweep over
/// {8, 16, 32, 64, 128} put 8–16 clearly behind and 32–128 within
/// run-to-run noise of each other on every dataset/ordering cell.
const PROBE_GALLOP_RATIO: usize = 64;

/// An intersection strategy: [`Kernel::Adaptive`] is the engine, and
/// [`Kernel::Merge`] is the reference it is measured and tested against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Two-pointer linear merge (the seed behaviour).
    Merge,
    /// Size-ratio crossover between gallop, merge and pinned probes.
    Adaptive,
}

impl Kernel {
    /// Both kernels.
    pub const ALL: [Kernel; 2] = [Kernel::Merge, Kernel::Adaptive];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Adaptive => "adaptive",
        }
    }
}

/// The at-rest value of every [`Scratch`] slot-marker entry. No out-list
/// index reaches it: an out-list holds at most `u32::MAX` distinct ids.
const UNMARKED: u32 = u32::MAX;

/// Log₂ of the bitmap word width.
const WORD_SHIFT: u32 = 6;
/// Bit-position mask within one bitmap word.
const WORD_MASK: u32 = 63;

/// Reusable per-thread working memory: the packed membership bitmap
/// behind the pinned probe, the slot marker behind [`edge_triangles`],
/// and a pair buffer (wedges in `tc-apps`' recommendation scoring). A
/// pair intersection of two slices ([`intersect_count`]) reads none of
/// it.
///
/// Everything inside is a pure cache — dropping or swapping a `Scratch`
/// never changes any count — and every buffer grows monotonically, so a
/// long-lived scratch (thread-local or a caller's) makes the counting
/// loops allocation-free.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Packed membership bitmap; bit `v & 63` of `words[v >> 6]` is set
    /// iff `v` is in the marked set. Invariant: every word not listed in
    /// `touched` is zero, so probes need no validity check.
    words: Vec<u64>,
    /// Indices of the nonzero words of the current marked set — the
    /// sparse-set reset list [`mark`](Scratch::mark) erases on the next
    /// call.
    touched: Vec<u32>,
    /// Largest vertex id in the current marked set (0 when the set is
    /// empty — harmless, since word 0 is then all-zero anyway). Probe
    /// lists are clipped to `..= max_marked`: 20–30 % of wedge probes on
    /// the benchmark graphs target ids past the pinned list's maximum
    /// and can never hit, so they are cut before the bitmap is touched.
    max_marked: VertexId,
    /// Slot marker of [`edge_triangles`]: while `N⁺(u)` is scanned,
    /// `slots[w]` is `w`'s index in `N⁺(u)`; every other entry, and every
    /// entry at rest, is [`UNMARKED`].
    slots: Vec<u32>,
    pairs: Vec<(VertexId, VertexId)>,
}

impl Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident bytes (diagnostics; the service `stats` surface).
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + (self.touched.capacity() + self.slots.capacity()) * std::mem::size_of::<u32>()
            + self.pairs.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
    }

    /// Number of vertex ids the bitmap currently covers.
    pub fn stamp_capacity(&self) -> usize {
        self.words.len() << WORD_SHIFT
    }

    /// Pre-sizes the bitmap to cover vertex ids `< n`.
    ///
    /// The counting entry points call this once per graph before their
    /// hot loops (and `debug_assert` that no reallocation happens inside
    /// them); `mark` still grows on demand for direct callers.
    pub fn reserve_vertices(&mut self, n: usize) {
        self.ensure(n);
        // A marked set touches at most one reset entry per word, so a
        // capacity of `words.len()` bounds `touched` for every list the
        // bitmap can hold.
        let words = self.words.len();
        if self.touched.capacity() < words {
            self.touched.reserve(words - self.touched.len());
        }
    }

    /// Grows the bitmap to cover vertex ids `< n`; new words start zero
    /// (the at-rest state every word outside `touched` must hold).
    fn ensure(&mut self, n: usize) {
        let need = n.div_ceil(1 << WORD_SHIFT);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Marks `list` as the current set (previous marks are forgotten).
    ///
    /// Erases the previous set's words via the `touched` reset list,
    /// then sets one bit per element — `O(|previous| + |list|)` however
    /// large the bitmap has grown, and it restores the all-zero-at-rest
    /// invariant that lets every probe skip validity checks.
    pub(crate) fn mark(&mut self, list: &[VertexId]) {
        for w in self.touched.drain(..) {
            self.words[w as usize] = 0;
        }
        self.max_marked = list.last().copied().unwrap_or(0);
        if !list.is_empty() {
            self.ensure(self.max_marked as usize + 1);
        }
        for &v in list {
            let w = (v >> WORD_SHIFT) as usize;
            let bit = 1u64 << (v & WORD_MASK);
            if self.words[w] == 0 {
                self.touched.push(w as u32);
            }
            self.words[w] |= bit;
        }
    }

    /// Drops the tail of a sorted probe list that lies past the largest
    /// marked id — those probes cannot hit, and on the oriented
    /// benchmark graphs they are 20–30 % of all wedge probes. One
    /// binary search, only taken when the tail actually overshoots.
    #[inline]
    fn clip<'a>(&self, list: &'a [VertexId]) -> &'a [VertexId] {
        // Only worth a binary search when there is enough list to cut:
        // on short lists the search's mispredicted branches cost more
        // than the handful of (cheap, branchless) probes they save.
        if list.len() >= 32 && *list.last().unwrap() > self.max_marked {
            &list[..list.partition_point(|&x| x <= self.max_marked)]
        } else {
            list
        }
    }

    /// How many elements of the sorted `list` are in the marked set: the
    /// pinned probe of [`Kernel::Adaptive`]. The list is clipped to the
    /// marked range, then probed through the fastest membership loop
    /// available — the AVX2 eight-wide gather of `simd::probe_count`
    /// when the `simd` feature is on and the CPU has it, a scalar loop
    /// that sums the membership bits otherwise. Ids beyond the bitmap
    /// read as absent.
    pub(crate) fn count_marked(&self, list: &[VertexId]) -> u64 {
        crate::simd::probe_count(&self.words, self.clip(list))
    }

    /// The reusable pair buffer, cleared: for callers that collect and
    /// sort vertex pairs (recommendation scoring collects its wedges)
    /// without owning a staging vector.
    pub fn pairs(&mut self) -> &mut Vec<(VertexId, VertexId)> {
        self.pairs.clear();
        &mut self.pairs
    }
}

/// Index of the first element of `list[from..]` that is `>= key`,
/// found by galloping out from `from` then binary-searching the
/// bracketed window.
#[inline]
fn lower_bound_gallop(list: &[VertexId], from: usize, key: VertexId) -> usize {
    let n = list.len();
    if from >= n || list[from] >= key {
        return from;
    }
    // Invariant: list[lo] < key; hi is the galloping probe.
    let mut lo = from;
    let mut step = 1usize;
    let mut hi = from + step;
    while hi < n && list[hi] < key {
        lo = hi;
        step <<= 1;
        hi = from + step;
    }
    let mut left = lo + 1;
    let mut right = hi.min(n);
    while left < right {
        let mid = left + (right - left) / 2;
        if list[mid] < key {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

/// Intersection count by galloping search: each element of the shorter
/// list is located in the longer with an exponential probe from a
/// monotone cursor, so total work is `O(s · log(l/s))` instead of the
/// merge's `O(s + l)`.
fn gallop_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut pos = 0usize;
    let mut count = 0u64;
    for &x in short {
        pos = lower_bound_gallop(long, pos, x);
        if pos == long.len() {
            break;
        }
        if long[pos] == x {
            count += 1;
            pos += 1;
        }
    }
    count
}

/// Exact `|a ∩ b|` of two sorted slices: the pair crossover of
/// [`Kernel::Adaptive`]. Gallops once the longer list is `GALLOP_RATIO`
/// times the shorter; merges otherwise, through the SIMD block merge
/// under the `simd` feature.
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (s, l) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    if s == 0 {
        0
    } else if l / s >= GALLOP_RATIO {
        gallop_count(a, b)
    } else {
        crate::simd::simd_merge_count(a, b)
    }
}

/// Triangles through vertex `u` of an oriented graph:
/// `Σ_{v ∈ N⁺(u)} |N⁺(u) ∩ N⁺(v)|`.
///
/// [`Kernel::Merge`] merges `N⁺(u)` with every `N⁺(v)`.
/// [`Kernel::Adaptive`] marks `N⁺(u)` once and probes every wedge
/// endpoint list against it, turning the per-vertex cost from
/// `Σ_v (d(u) + d(v))` into `d(u) + Σ_v d(v)`.
pub fn vertex_triangles(
    g: &DirectedGraph,
    u: VertexId,
    kernel: Kernel,
    scratch: &mut Scratch,
) -> u64 {
    let out_u = g.out_neighbors(u);
    if out_u.len() < 2 {
        // A triangle at u needs two out-edges; N⁺(u) ∩ N⁺(v) for the
        // lone neighbour v cannot contain v itself (no self-loops).
        return 0;
    }
    let mut count = 0u64;
    match kernel {
        Kernel::Merge => {
            for &v in out_u {
                count += merge_count(out_u, g.out_neighbors(v));
            }
        }
        Kernel::Adaptive => {
            scratch.mark(out_u);
            // Probing is linear in |N⁺(v)|, so a hub successor list
            // dwarfing the pinned list is cheaper to answer by galloping
            // the pinned list through it — |N⁺(u)|·log|N⁺(v)| — than by
            // probing it end to end.
            let gallop_at = out_u.len().saturating_mul(PROBE_GALLOP_RATIO);
            for &v in out_u {
                let nv = g.out_neighbors(v);
                count += if nv.len() >= gallop_at {
                    gallop_count(out_u, nv)
                } else {
                    scratch.count_marked(nv)
                };
            }
        }
    }
    count
}

/// Exact triangle count of an oriented graph under the chosen kernel —
/// the engine-backed replacement for the seed's merge-only
/// `directed_count` loop.
///
/// Sizes the scratch bitmap to the graph once up front; the hot loop is
/// then reallocation-free (asserted in debug builds).
pub fn directed_triangles(g: &DirectedGraph, kernel: Kernel, scratch: &mut Scratch) -> u64 {
    scratch.reserve_vertices(g.num_vertices());
    #[cfg(debug_assertions)]
    let cap_before = (scratch.words.capacity(), scratch.touched.capacity());
    let count = g
        .vertices()
        .map(|u| vertex_triangles(g, u, kernel, scratch))
        .sum();
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        (scratch.words.capacity(), scratch.touched.capacity()),
        cap_before,
        "the pre-sized bitmap must not reallocate during a count"
    );
    count
}

/// Per-edge supports and per-vertex triangle counts of an oriented
/// graph, in one pass: the forward algorithm with every triangle
/// credited to its three edges and three corners.
///
/// For each `u`, every `w ∈ N⁺(u)` is marked with its index in `N⁺(u)`.
/// Each `w ∈ N⁺(v)`, `v ∈ N⁺(u)`, that hits a mark closes the triangle
/// `u → v → w` with `u → w`; an acyclic orientation has exactly one such
/// pattern per triangle, so each is found once. It raises the support
/// of the out-slots `u → v`, `v → w` and `u → w` and the counts of `u`,
/// `v` and `w`. On a (degree, id) orientation this is the forward
/// algorithm's `O(m^{3/2})` wedge work.
///
/// Returns `(supports, corners)`: `supports[s]` counts the triangles
/// through the edge in slot `s` of [`DirectedGraph::out_neighbor_array`],
/// `corners[v]` the triangles through `v`. Sizes the scratch's slot
/// marker once up front and leaves it unmarked again.
pub fn edge_triangles(g: &DirectedGraph, scratch: &mut Scratch) -> (Vec<u32>, Vec<u64>) {
    // Sized here rather than in `reserve_vertices`: at 4 B per vertex
    // the marker is 32× the bitmap, and scratches that only count never
    // read it.
    let slots = &mut scratch.slots;
    if slots.len() < g.num_vertices() {
        slots.resize(g.num_vertices(), UNMARKED);
    }
    let offsets = g.offsets();
    let mut supports = vec![0u32; g.num_edges()];
    let mut corners = vec![0u64; g.num_vertices()];
    for u in g.vertices() {
        let out_u = g.out_neighbors(u);
        if out_u.len() < 2 {
            continue;
        }
        let base_u = offsets[u as usize];
        for (i, &w) in out_u.iter().enumerate() {
            slots[w as usize] = i as u32;
        }
        let mut at_u = 0u64;
        for (i, &v) in out_u.iter().enumerate() {
            let base_v = offsets[v as usize];
            let mut closed = 0u32;
            for (j, &w) in g.out_neighbors(v).iter().enumerate() {
                let k = slots[w as usize];
                if k != UNMARKED {
                    closed += 1;
                    supports[base_v + j] += 1;
                    supports[base_u + k as usize] += 1;
                    corners[w as usize] += 1;
                }
            }
            supports[base_u + i] += closed;
            corners[v as usize] += u64::from(closed);
            at_u += u64::from(closed);
        }
        corners[u as usize] += at_u;
        for &w in out_u {
            slots[w as usize] = UNMARKED;
        }
    }
    (supports, corners)
}

/// Runs `f` against this thread's long-lived scratch. The default entry
/// point for code without a better home for working memory (one scratch
/// per OS thread ≈ one per service worker). Re-entrant calls fall back
/// to a fresh scratch rather than aliasing the borrowed one.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::merge_count;
    use proptest::prelude::*;

    fn lists() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![4], vec![4]),
            (vec![1, 3, 5, 7], vec![2, 3, 5, 8]),
            (vec![0, 1, 2, 3], vec![0, 1, 2, 3]),
            ((0..200).step_by(3).collect(), (0..200).step_by(5).collect()),
            (vec![7], (0..1000).collect()),
            (vec![999], (0..1000).collect()),
            (vec![1000], (0..1000).collect()),
            ((0..1000).collect(), vec![0, 500, 999, 2000]),
            // Word-boundary shapes: single-word, exactly one word, one
            // bit into the next word, dense runs crossing words.
            ((0..63).collect(), (0..63).collect()),
            ((0..64).collect(), (32..96).collect()),
            ((0..65).collect(), (64..65).collect()),
            ((0..128).collect(), (63..65).collect()),
            (
                (0..128).step_by(2).collect(),
                (0..128).step_by(64).collect(),
            ),
        ]
    }

    /// A scratch whose bitmap already holds stale state: a dense run, a
    /// far word inside the operands' id range and one beyond it.
    fn dirty_scratch() -> Scratch {
        let mut scratch = Scratch::new();
        let noise: Vec<u32> = (0..97).chain([640, 4097]).collect();
        scratch.mark(&noise);
        scratch
    }

    /// Every tier [`Kernel::Adaptive`] routes a pair or a wedge to,
    /// checked against the scalar merge in both operand orders: the pair
    /// crossover itself, the gallop, the balanced-side merge (the SIMD
    /// block merge under `--features simd`) and the pinned probe, which
    /// pins each operand in turn and probes the other through `scratch`.
    fn assert_tiers_match_merge(a: &[u32], b: &[u32], scratch: &mut Scratch) {
        let expect = merge_count(a, b);
        for (x, y) in [(a, b), (b, a)] {
            let shape = format!("{} vs {} elements", x.len(), y.len());
            assert_eq!(intersect_count(x, y), expect, "pair crossover, {shape}");
            assert_eq!(gallop_count(x, y), expect, "gallop, {shape}");
            let merged = crate::simd::simd_merge_count(x, y);
            assert_eq!(merged, expect, "balanced merge, {shape}");
            scratch.mark(x);
            assert_eq!(scratch.count_marked(y), expect, "pinned probe, {shape}");
        }
    }

    /// The adversarial list lengths: zero, singleton, and every
    /// off-by-one around the 64-bit bitmap word and the 128-element
    /// double word the packed bitmap and the SIMD blocks care about.
    const ADVERSARIAL_LENS: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

    /// A strictly increasing list of one of [`ADVERSARIAL_LENS`], with
    /// gaps drawn from 1 (dense runs sharing words) to 69 (every element
    /// in its own word), so one case mixes both.
    fn adversarial_list() -> impl Strategy<Value = Vec<u32>> {
        (
            0usize..ADVERSARIAL_LENS.len(),
            0u32..128,
            prop::collection::vec(1u32..70, 128..129),
        )
            .prop_map(|(len_idx, start, gaps)| {
                let mut x = start;
                gaps.iter()
                    .take(ADVERSARIAL_LENS[len_idx])
                    .map(|&g| {
                        let v = x;
                        x += g;
                        v
                    })
                    .collect()
            })
    }

    #[test]
    fn every_kernel_matches_merge_on_fixtures() {
        let mut dirty = dirty_scratch();
        for (a, b) in lists() {
            assert_tiers_match_merge(&a, &b, &mut Scratch::new());
            assert_tiers_match_merge(&a, &b, &mut dirty);
        }
    }

    #[test]
    fn pair_crossover_boundary_matches_merge() {
        // Long lists one below, at and one above GALLOP_RATIO times the
        // short one, so the pair takes each side of the crossover; the
        // short list hits every other stride of the long one and misses
        // in between.
        for s in [1usize, 2, 4, 7] {
            for l in [s * GALLOP_RATIO - 1, s * GALLOP_RATIO, s * GALLOP_RATIO + 1] {
                let long: Vec<u32> = (0..l as u32).map(|x| 2 * x).collect();
                let short: Vec<u32> = (0..s as u32)
                    .map(|i| i * 2 * GALLOP_RATIO as u32 + i % 2)
                    .collect();
                assert_tiers_match_merge(&short, &long, &mut Scratch::new());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn adaptive_tiers_match_merge_on_adversarial_lists(
            (a, b) in (adversarial_list(), adversarial_list()),
        ) {
            assert_tiers_match_merge(&a, &b, &mut Scratch::new());
            assert_tiers_match_merge(&a, &b, &mut dirty_scratch());
        }

        #[test]
        fn adaptive_tiers_cover_overlap_extremes(offset in 0u32..200) {
            let mut dirty = dirty_scratch();
            for la in ADVERSARIAL_LENS {
                for lb in ADVERSARIAL_LENS {
                    let a: Vec<u32> = (offset..offset + la as u32).collect();
                    let same: Vec<u32> = (offset..offset + lb as u32).collect();
                    let disjoint: Vec<u32> = (1000 + offset..1000 + offset + lb as u32).collect();
                    for b in [&same, &disjoint] {
                        assert_tiers_match_merge(&a, b, &mut dirty);
                    }
                }
            }
        }
    }

    #[test]
    fn lower_bound_gallop_agrees_with_partition_point() {
        let list: Vec<u32> = (0..64).map(|i| i * 3).collect();
        for from in [0usize, 1, 10, 63, 64] {
            for key in 0..200u32 {
                let got = lower_bound_gallop(&list, from, key);
                let expect = from.max(list.partition_point(|&x| x < key));
                assert_eq!(got, expect, "from={from} key={key}");
            }
        }
    }

    #[test]
    fn reset_walk_restores_all_zero_at_rest() {
        let mut scratch = Scratch::new();
        scratch.mark(&[1, 2, 3, 640, 700]);
        scratch.mark(&[2]);
        // Every word outside the current touched set must be literally
        // zero — the invariant that lets probes skip validity checks.
        assert_eq!(scratch.count_marked(&[2]), 1);
        for stale in [1u32, 3, 640, 700] {
            assert_eq!(
                scratch.count_marked(&[stale]),
                0,
                "stale mark {stale} leaked"
            );
        }
        let live: Vec<u64> = scratch.words.to_vec();
        assert_eq!(live.iter().filter(|&&w| w != 0).count(), 1);
        scratch.mark(&[]);
        assert!(scratch.words.iter().all(|&w| w == 0));
    }

    #[test]
    fn marks_are_replaced_not_accumulated() {
        let mut scratch = Scratch::new();
        scratch.mark(&[1, 5, 9]);
        assert_eq!(scratch.count_marked(&[1, 5, 9]), 3);
        scratch.mark(&[2]);
        assert_eq!(scratch.count_marked(&[1, 5, 9]), 0);
        assert_eq!(scratch.count_marked(&[2]), 1);
    }

    #[test]
    fn probe_beyond_bitmap_range_is_absent() {
        let mut scratch = Scratch::new();
        scratch.mark(&[1, 2]);
        assert_eq!(scratch.count_marked(&[1_000_000]), 0);
        assert_eq!(scratch.count_marked(&[1, 1_000_000]), 1);
    }

    #[test]
    fn stale_words_read_as_empty_across_marks() {
        let mut scratch = Scratch::new();
        // Touch a far word, then mark a near one: the far word goes
        // stale and must not leak into the new epoch's counts.
        scratch.mark(&[640, 641]);
        scratch.mark(&[1]);
        assert_eq!(scratch.count_marked(&[640, 641, 1]), 1);
    }

    #[test]
    fn reserve_vertices_pre_sizes_the_bitmap() {
        let mut scratch = Scratch::new();
        scratch.reserve_vertices(1000);
        assert!(scratch.stamp_capacity() >= 1000);
        let bytes = scratch.approx_bytes();
        scratch.mark(&[999]);
        assert_eq!(scratch.approx_bytes(), bytes, "mark within reserve is free");
    }

    #[test]
    fn edge_triangles_credits_each_triangle_once_per_edge_and_corner() {
        // K4 oriented by id, plus the pendant edge 3 → 4.
        let d = DirectedGraph::from_parts(vec![0, 3, 5, 6, 7, 7], vec![1, 2, 3, 2, 3, 3, 4]);
        let mut scratch = Scratch::new();
        let (supports, corners) = edge_triangles(&d, &mut scratch);
        assert_eq!(supports, [2, 2, 2, 2, 2, 2, 0]);
        assert_eq!(corners, [3, 3, 3, 3, 0]);
        assert!(scratch.slots.iter().all(|&k| k == UNMARKED));
        assert_eq!(
            corners.iter().sum::<u64>(),
            3 * directed_triangles(&d, Kernel::Adaptive, &mut scratch)
        );
    }

    #[test]
    fn thread_scratch_is_reentrant_safe() {
        let outer = with_thread_scratch(|s| {
            s.mark(&[1, 2]);
            with_thread_scratch(|inner| {
                inner.mark(&[3]);
                inner.count_marked(&[3]) == 1
            })
        });
        assert!(outer);
    }
}
