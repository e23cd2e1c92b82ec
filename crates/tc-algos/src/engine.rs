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
//! the same size-ratio model:
//!
//! - [`Kernel::Merge`] — two-pointer linear merge, `O(|a| + |b|)`.
//!   The seed implementation used this unconditionally.
//! - [`Kernel::Galloping`] — exponential (galloping) search of each
//!   element of the shorter list in the longer, with a monotone cursor;
//!   `O(s · log(l/s))` total. Wins when `l ≫ s`.
//! - [`Kernel::Bitmap`] — membership bitmap, probed one element at a
//!   time: mark one list once, test the other at `O(1)` per element.
//!   Kept as the scalar-probe reference the word kernel is measured
//!   against.
//! - [`Kernel::WordBitmap`] — the same bitmap probed one **word** at a
//!   time: consecutive probe candidates sharing a 64-vertex word are
//!   packed into one probe mask and answered with a single
//!   `AND` + `count_ones`, so a dense probe list retires up to 64
//!   membership tests per instruction (see [`Scratch::count_marked`]).
//! - [`Kernel::SimdMerge`] — chunked merge that compares blocks of
//!   elements per step ([`crate::simd`]): AVX2/SSE all-pairs compare
//!   under the `simd` cargo feature (runtime-detected), a scalar block
//!   merge otherwise.
//! - [`Kernel::Adaptive`] — the crossover selector: pins every vertex
//!   with at least [`PIN_DEGREE`] out-edges and probes through the
//!   fastest membership kernel available (the AVX2 eight-wide gather of
//!   [`crate::simd::probe_count`] under the `simd` feature, the scalar
//!   loop otherwise), escaping to a gallop when a probe list outweighs
//!   the pinned list by [`PROBE_GALLOP_RATIO`]; raw pairs go through
//!   the [`GALLOP_RATIO`] gallop/merge crossover.
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
//! L1/L2 during the pinned counting loops — and it is what unlocks the
//! word-AND probe ([`Scratch::count_marked`]).
//!
//! All kernels run against a caller-owned [`Scratch`], so the hot loop
//! performs **zero heap allocation** once the scratch has warmed up: the
//! counting entry points size the bitmap to the graph once up front
//! ([`Scratch::reserve_vertices`]) and assert it never reallocates
//! mid-count.

use crate::intersect::merge_count;
use std::sync::Mutex;
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
pub const GALLOP_RATIO: usize = 16;

/// Wedge-level escape hatch of the pinned probe loop: when a probe list
/// is this many times longer than the pinned list, [`Kernel::Adaptive`]
/// gallops the pinned list through it instead of probing it end to end.
///
/// Probing is linear in the probe list, so a hub successor list dwarfing
/// the pinned list would otherwise dominate the vertex; galloping costs
/// `|N⁺(u)| · log |N⁺(v)|` regardless. The crossover sits far above
/// [`GALLOP_RATIO`] because the vectorised gather probe
/// ([`crate::simd::probe_count`]) retires probes several times faster
/// than the branchy per-element gallop steps — the PR 6 sweep over
/// {8, 16, 32, 64, 128} put 8–16 clearly behind and 32–128 within
/// run-to-run noise of each other on every dataset/ordering cell.
pub const PROBE_GALLOP_RATIO: usize = 64;

/// Out-degree past which [`Kernel::Adaptive`] pins a vertex's
/// neighbour list into the bitmap instead of merging per pair.
///
/// Pinning costs `d(u)` bit writes and then answers each wedge with
/// `O(1)` probes instead of a `d(u) + d(v)` merge, so it amortises
/// almost immediately. The scalar-probe era ran with 4 (4 vs 2 within
/// noise); re-sweeping after the gather probe landed moved 2 slightly
/// but consistently ahead, so the engine now pins every vertex that can
/// form a wedge at all — the per-pair crossover path only serves direct
/// [`intersect_count`] callers (e.g. the per-edge deltas in
/// `tc-stream`). The degree-skew worst case — a tiny pinned list
/// probing a hub's successor list — is covered by the
/// [`PROBE_GALLOP_RATIO`] escape inside the pinned loop itself.
pub const PIN_DEGREE: usize = 2;

/// An intersection strategy. `Adaptive` is the engine's decision mode;
/// the fixed kernels exist so benchmarks and tests can pin a strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Two-pointer linear merge (the seed behaviour).
    Merge,
    /// Galloping (exponential) search of the shorter list in the longer.
    Galloping,
    /// Bitmap mark-and-probe, one element per probe (the scalar
    /// reference for [`Kernel::WordBitmap`]).
    Bitmap,
    /// Bitmap mark-and-probe, one packed `u64` word per probe
    /// (`AND` + `count_ones` over up to 64 candidates at a time).
    WordBitmap,
    /// Chunked/vectorised merge (`simd` feature: AVX2/SSE; otherwise a
    /// scalar block merge).
    SimdMerge,
    /// Size-ratio crossover between the above.
    Adaptive,
}

impl Kernel {
    /// Every kernel, in benchmark-sweep order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Merge,
        Kernel::Galloping,
        Kernel::Bitmap,
        Kernel::WordBitmap,
        Kernel::SimdMerge,
        Kernel::Adaptive,
    ];

    /// Stable display / wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Galloping => "galloping",
            Kernel::Bitmap => "bitmap",
            Kernel::WordBitmap => "word-bitmap",
            Kernel::SimdMerge => "simd-merge",
            Kernel::Adaptive => "adaptive",
        }
    }

    /// Inverse of [`name`](Kernel::name).
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == name)
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
/// behind the bitmap kernels, the slot marker behind [`edge_triangles`],
/// and two staging buffers for intersections whose operands only exist
/// as iterators (layered adjacency in `tc-stream`).
///
/// Everything inside is a pure cache — dropping or swapping a `Scratch`
/// never changes any count — and every buffer grows monotonically, so a
/// long-lived scratch (thread-local, pooled, or owned by a
/// `DynamicGraph`) makes the counting loops allocation-free.
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
    buf_a: Vec<VertexId>,
    buf_b: Vec<VertexId>,
}

/// Cloning a scratch yields a fresh empty one: the contents are a pure
/// cache, and the clone path (e.g. `DynamicGraph: Clone`) must not pay
/// for — or share — megabytes of bitmap.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
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
            + (self.buf_a.capacity() + self.buf_b.capacity()) * std::mem::size_of::<VertexId>()
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
    pub fn mark(&mut self, list: &[VertexId]) {
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

    /// Word `w` of the bitmap (zero when out of range).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Whether `v` is in the marked set.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        self.word((v >> WORD_SHIFT) as usize) >> (v & WORD_MASK) & 1 == 1
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

    /// How many elements of `list` are in the marked set, one word-`AND`
    /// per 64-vertex word the (sorted) list touches.
    ///
    /// Consecutive candidates sharing a word are packed into a probe
    /// mask; the word is fetched once and answered with
    /// `(live & mask).count_ones()`. On the renumbered orderings the
    /// paper studies (A-order, D-order) neighbour ids cluster, so dense
    /// hub lists retire tens of membership tests per probe. Ids beyond
    /// the marked range read as absent.
    pub fn count_marked(&self, list: &[VertexId]) -> u64 {
        let list = self.clip(list);
        let mut count = 0u64;
        let mut cur = usize::MAX;
        let mut mask = 0u64;
        for &v in list {
            let w = (v >> WORD_SHIFT) as usize;
            if w != cur {
                count += (self.word(cur) & mask).count_ones() as u64;
                cur = w;
                mask = 0;
            }
            mask |= 1u64 << (v & WORD_MASK);
        }
        count + (self.word(cur) & mask).count_ones() as u64
    }

    /// [`count_marked`](Scratch::count_marked) probing one element at a
    /// time — the scalar reference path [`Kernel::Bitmap`] pins so the
    /// word-batched win stays measurable in `cpu-bench`.
    ///
    /// The probe list is first [clipped](Scratch::clip) to the marked
    /// range, and the membership bit is summed rather than branched on,
    /// keeping the loop a straight stream of loads the core can
    /// pipeline.
    pub fn count_marked_scalar(&self, list: &[VertexId]) -> u64 {
        self.clip(list)
            .iter()
            .map(|&v| self.word((v >> WORD_SHIFT) as usize) >> (v & WORD_MASK) & 1)
            .sum()
    }

    /// [`count_marked_scalar`](Scratch::count_marked_scalar) through the
    /// fastest probe kernel available — the AVX2 eight-wide gather tier
    /// of [`crate::simd::probe_count`] when the `simd` feature is on
    /// and the CPU has it, the identical scalar loop otherwise. This is
    /// what [`Kernel::Adaptive`] probes with.
    pub fn count_marked_fast(&self, list: &[VertexId]) -> u64 {
        crate::simd::probe_count(&self.words, self.clip(list))
    }

    /// Merge-intersects two sorted slices into an internal reusable
    /// buffer and returns the common elements. For callers that need the
    /// elements themselves (recommendation scoring)
    /// without owning a staging vector.
    pub fn collect_common(&mut self, a: &[VertexId], b: &[VertexId]) -> &[VertexId] {
        let mut buf = std::mem::take(&mut self.buf_a);
        buf.clear();
        crate::intersect::merge_collect(a, b, &mut buf);
        self.buf_a = buf;
        &self.buf_a
    }

    /// Intersection count of two sorted iterators: stages both into the
    /// reusable buffers, then dispatches to `kernel` on the slices.
    /// The staging path exists for operands without a contiguous
    /// representation (layered adjacency); slice operands should call
    /// [`intersect_count`] directly.
    pub fn intersect_iters(
        &mut self,
        kernel: Kernel,
        a: impl Iterator<Item = VertexId>,
        b: impl Iterator<Item = VertexId>,
    ) -> u64 {
        let mut buf_a = std::mem::take(&mut self.buf_a);
        let mut buf_b = std::mem::take(&mut self.buf_b);
        buf_a.clear();
        buf_b.clear();
        buf_a.extend(a);
        buf_b.extend(b);
        let count = intersect_count(kernel, &buf_a, &buf_b, self);
        self.buf_a = buf_a;
        self.buf_b = buf_b;
        count
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
pub fn gallop_count(a: &[VertexId], b: &[VertexId]) -> u64 {
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

/// Intersection count via the bitmap with scalar probes: mark the
/// shorter list, test the longer one element at a time. One-shot form of
/// the [`Kernel::Bitmap`] pinned path; `O(s + l)` with `O(1)` probes and
/// no comparisons.
pub fn bitmap_count(a: &[VertexId], b: &[VertexId], scratch: &mut Scratch) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    scratch.mark(short);
    scratch.count_marked_scalar(long)
}

/// Bulk word-at-a-time intersection: both sorted lists meet in the
/// packed bitmap domain — the shorter is pinned into live words, the
/// longer is packed word-by-word into probe masks, and each touched word
/// is resolved with one `AND` + `count_ones` over up to 64 candidates.
/// One-shot form of the [`Kernel::WordBitmap`] pinned path.
pub fn intersect_words(a: &[VertexId], b: &[VertexId], scratch: &mut Scratch) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    scratch.mark(short);
    scratch.count_marked(long)
}

/// The merge used on the balanced side of the adaptive crossover: the
/// vectorised kernel when the `simd` feature is enabled, the plain
/// scalar merge otherwise (without vector units the block fallback's
/// all-pairs compares cost more than the two-pointer walk).
#[inline]
fn adaptive_merge(a: &[VertexId], b: &[VertexId]) -> u64 {
    if cfg!(feature = "simd") {
        crate::simd::simd_merge_count(a, b)
    } else {
        merge_count(a, b)
    }
}

/// The crossover selector for one pair of sorted lists (the pairwise
/// half of [`Kernel::Adaptive`]; the vertex loops also pin — see
/// [`vertex_triangles`]).
#[inline]
fn adaptive_pair(a: &[VertexId], b: &[VertexId]) -> u64 {
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
        adaptive_merge(a, b)
    }
}

/// Exact `|a ∩ b|` of two sorted slices under the chosen kernel.
pub fn intersect_count(
    kernel: Kernel,
    a: &[VertexId],
    b: &[VertexId],
    scratch: &mut Scratch,
) -> u64 {
    match kernel {
        Kernel::Merge => merge_count(a, b),
        Kernel::Galloping => gallop_count(a, b),
        Kernel::Bitmap => bitmap_count(a, b, scratch),
        Kernel::WordBitmap => intersect_words(a, b, scratch),
        Kernel::SimdMerge => crate::simd::simd_merge_count(a, b),
        Kernel::Adaptive => adaptive_pair(a, b),
    }
}

/// Triangles through vertex `u` of an oriented graph:
/// `Σ_{v ∈ N⁺(u)} |N⁺(u) ∩ N⁺(v)|`.
///
/// For the bitmap kernels — and for [`Kernel::Adaptive`] above
/// [`PIN_DEGREE`] — `N⁺(u)` is marked once and every wedge endpoint list
/// is probed against it, turning the per-vertex cost from
/// `Σ_v (d(u) + d(v))` into `d(u) + Σ_v d(v)` — with the probes retiring
/// a packed word at a time everywhere except the deliberately scalar
/// [`Kernel::Bitmap`].
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
    let pin = match kernel {
        Kernel::Bitmap | Kernel::WordBitmap => true,
        Kernel::Adaptive => out_u.len() >= PIN_DEGREE,
        Kernel::Merge | Kernel::Galloping | Kernel::SimdMerge => false,
    };
    let mut count = 0u64;
    if pin {
        scratch.mark(out_u);
        match kernel {
            Kernel::WordBitmap => {
                for &v in out_u {
                    count += scratch.count_marked(g.out_neighbors(v));
                }
            }
            Kernel::Bitmap => {
                for &v in out_u {
                    count += scratch.count_marked_scalar(g.out_neighbors(v));
                }
            }
            _ => {
                // Adaptive: probing is linear in |N⁺(v)|, so a hub
                // successor list dwarfing the pinned list is cheaper to
                // answer by galloping the pinned list through it —
                // |N⁺(u)|·log|N⁺(v)| — than by probing it end to end.
                let gallop_at = out_u.len().saturating_mul(PROBE_GALLOP_RATIO);
                for &v in out_u {
                    let nv = g.out_neighbors(v);
                    count += if nv.len() >= gallop_at {
                        gallop_count(out_u, nv)
                    } else {
                        scratch.count_marked_fast(nv)
                    };
                }
            }
        }
    } else {
        for &v in out_u {
            count += match kernel {
                Kernel::Merge => merge_count(out_u, g.out_neighbors(v)),
                Kernel::Galloping => gallop_count(out_u, g.out_neighbors(v)),
                Kernel::SimdMerge => crate::simd::simd_merge_count(out_u, g.out_neighbors(v)),
                Kernel::Bitmap | Kernel::WordBitmap | Kernel::Adaptive => {
                    adaptive_pair(out_u, g.out_neighbors(v))
                }
            };
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

/// A checkout/return pool of [`Scratch`] instances for worker crowds
/// whose thread identities are unstable or whose working memory should
/// be bounded and observable (the `tc-service` executor).
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a scratch (reusing a warm one when available); it
    /// returns to the pool when the guard drops.
    pub fn checkout(&self) -> PooledScratch<'_> {
        let scratch = self
            .pool
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default();
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Checks out a scratch with its bitmap pre-sized for a graph of `n`
    /// vertices, so the request that uses it never grows it mid-count.
    pub fn checkout_for(&self, n: usize) -> PooledScratch<'_> {
        let mut guard = self.checkout();
        guard.reserve_vertices(n);
        guard
    }

    /// Number of idle pooled instances.
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("scratch pool lock").len()
    }

    /// Total resident bytes across idle instances.
    pub fn idle_bytes(&self) -> usize {
        self.pool
            .lock()
            .expect("scratch pool lock")
            .iter()
            .map(Scratch::approx_bytes)
            .sum()
    }
}

/// RAII guard for a pooled [`Scratch`]; derefs to the scratch and
/// returns it (warm) on drop.
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<Scratch>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.lock_pool_push(scratch);
        }
    }
}

impl ScratchPool {
    fn lock_pool_push(&self, scratch: Scratch) {
        // A poisoned pool just drops the scratch — it is a pure cache.
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::merge_count;

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

    #[test]
    fn every_kernel_matches_merge_on_fixtures() {
        let mut scratch = Scratch::new();
        for (a, b) in lists() {
            let expect = merge_count(&a, &b);
            for kernel in Kernel::ALL {
                assert_eq!(
                    intersect_count(kernel, &a, &b, &mut scratch),
                    expect,
                    "{} on {a:?} ∩ {b:?}",
                    kernel.name()
                );
                // Symmetry.
                assert_eq!(intersect_count(kernel, &b, &a, &mut scratch), expect);
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
        assert!(scratch.is_marked(2));
        for stale in [1u32, 3, 640, 700] {
            assert!(!scratch.is_marked(stale), "stale mark {stale} leaked");
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
        assert!(scratch.is_marked(2));
    }

    #[test]
    fn probe_beyond_bitmap_range_is_absent() {
        let mut scratch = Scratch::new();
        scratch.mark(&[1, 2]);
        assert!(!scratch.is_marked(1_000_000));
        assert_eq!(scratch.count_marked(&[1, 1_000_000]), 1);
        assert_eq!(scratch.count_marked_scalar(&[1, 1_000_000]), 1);
    }

    #[test]
    fn word_and_scalar_probes_agree_across_word_boundaries() {
        let mut scratch = Scratch::new();
        let marked: Vec<u32> = (0..300).step_by(3).collect();
        scratch.mark(&marked);
        for probe in [
            (0u32..64).collect::<Vec<_>>(),
            (60..70).collect(),
            (0..300).step_by(5).collect(),
            vec![63, 64, 127, 128, 191, 192, 255, 256],
            vec![299],
            vec![],
        ] {
            assert_eq!(
                scratch.count_marked(&probe),
                scratch.count_marked_scalar(&probe),
                "probe {probe:?}"
            );
        }
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
    fn intersect_iters_stages_and_counts() {
        let mut scratch = Scratch::new();
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 3, 5, 8];
        for kernel in Kernel::ALL {
            assert_eq!(
                scratch.intersect_iters(kernel, a.iter().copied(), b.iter().copied()),
                2
            );
        }
        assert!(scratch.approx_bytes() > 0);
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::from_name("warp9"), None);
    }

    #[test]
    fn pool_reuses_warm_scratch() {
        let pool = ScratchPool::new();
        {
            let mut s = pool.checkout();
            s.mark(&[0, 1, 2, 3, 4, 5, 6, 7]);
        }
        assert_eq!(pool.idle(), 1);
        let warm_bytes = pool.idle_bytes();
        assert!(warm_bytes > 0);
        {
            let s = pool.checkout();
            assert_eq!(pool.idle(), 0);
            assert!(s.approx_bytes() >= warm_bytes, "checkout must reuse");
        }
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn checkout_for_pre_sizes() {
        let pool = ScratchPool::new();
        let s = pool.checkout_for(5000);
        assert!(s.stamp_capacity() >= 5000);
    }

    #[test]
    fn clone_is_fresh_and_cheap() {
        let mut scratch = Scratch::new();
        scratch.mark(&[1, 2, 3]);
        let cloned = scratch.clone();
        assert_eq!(cloned.approx_bytes(), 0);
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
                inner.is_marked(3)
            })
        });
        assert!(outer);
    }
}
