//! The vectorised tiers of [`Kernel::Adaptive`]: the block merge on the
//! balanced side of its pair crossover and the gather probe of its
//! pinned counting loop.
//!
//! [`Kernel::Adaptive`]: crate::engine::Kernel::Adaptive
//!
//! The scalar two-pointer merge retires **one comparison per step**; on
//! a machine with 128/256-bit vector units most of each cache line's
//! work is left on the table. The block merge processes both lists in
//! fixed-size blocks instead: load a block from each side, compare
//! **all pairs** at once (the vector registers hold every rotation of
//! one block against the other), popcount the match mask, then advance
//! whichever block has the smaller maximum — the classic
//! shuffle-compare kernel of the SIMD set-intersection literature.
//!
//! Three tiers, best available chosen at runtime:
//!
//! - **AVX2** (`simd` feature, `x86_64`, detected via
//!   `is_x86_feature_detected!`): 8×8 candidate pairs per merge step —
//!   one `vpcmpeqd` against each of the 8 cyclic rotations of the other
//!   block, OR-accumulated, `movemask` + `count_ones` — and eight
//!   bitmap probes per gather.
//! - **SSE2** (`simd` feature, `x86_64`, always present on the 64-bit
//!   baseline): the same merge at 4×4; probes stay scalar.
//! - **Scalar** (all other builds, including the default feature set):
//!   the two-pointer merge and a scalar probe loop. Without vector units
//!   an all-pairs block compare does more raw work than the two-pointer
//!   walk, so scalar builds have no block merge.
//!
//! Operands must be strictly increasing (duplicate-free sorted sets) —
//! the invariant every adjacency list in the workspace already holds.
//! Strictness is what makes the both-blocks-advance-on-equal-max rule
//! and the once-per-pair match accounting exact.
//!
//! This is the one module in the workspace allowed to use `unsafe`: the
//! unaligned vector loads take raw pointers, and the AVX2 entry points
//! are `#[target_feature]` functions that must only be reached behind
//! the runtime detection check (which is how `simd_merge_count` and
//! `probe_count` call them).

#![allow(unsafe_code)]

use tc_graph::VertexId;

/// Exact `|a ∩ b|` of two strictly-increasing slices via the best
/// available merge tier (AVX2 → SSE2 → the scalar merge).
pub(crate) fn simd_merge_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_enabled() {
            // SAFETY: `merge_count_avx2` requires AVX2, which
            // `avx2_enabled` just verified on this CPU.
            unsafe { x86::merge_count_avx2(a, b) }
        } else {
            x86::merge_count_sse2(a, b)
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    crate::intersect::merge_count(a, b)
}

/// Membership probes of a sorted candidate list against a packed
/// bitmap, vectorised where possible.
///
/// This is the pinned-vertex hot path: for each wedge, every element of
/// one adjacency list is tested against the bitmap holding the pinned
/// list. The scalar loop retires ~3 cycles per probe (shift, word load,
/// shift, mask, add); the AVX2 tier instead views the `u64` bitmap as
/// `u32` half-words (exact on little-endian x86_64: bit `v & 63` of
/// word `v >> 6` *is* bit `v & 31` of half-word `v >> 5`) and answers
/// **eight probes per step** — one `vpgatherdd` for the eight half-words,
/// a `vpsrlvd` by each `v & 31`, mask to the low bit, lane-add.
///
/// Falls back to the scalar loop when the `simd` feature is off, AVX2
/// is absent, the list is too short for the gather latency to beat a
/// handful of scalar loads, or the largest id overruns the bitmap
/// (every live gather lane's index must be in bounds).
pub(crate) fn probe_count(words: &[u64], list: &[VertexId]) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if list.len() >= 4
            && avx2_enabled()
            && ((*list.last().unwrap() >> 5) as usize) < words.len() * 2
        {
            // SAFETY: AVX2 just verified; the list is sorted, so the
            // last-element check bounds every gathered index.
            return unsafe { x86::probe_count_avx2(words, list) };
        }
    }
    probe_count_scalar(words, list)
}

/// The scalar membership-probe loop — the portable tier of
/// [`probe_count`] and the reference its AVX2 tier is differentially
/// tested against. Ids past the bitmap read as absent.
fn probe_count_scalar(words: &[u64], list: &[VertexId]) -> u64 {
    list.iter()
        .map(|&v| {
            let w = (v >> 6) as usize;
            words.get(w).copied().unwrap_or(0) >> (v & 63) & 1
        })
        .sum()
}

/// Name of the tier the merge and the probe dispatch to on this build
/// and CPU — `"avx2"`, `"sse2"`, or `"scalar"`. Benchmarks record it so
/// BENCH numbers say which code actually ran.
pub fn active_tier() -> &'static str {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2_enabled() {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        "scalar"
    }
}

/// Memoised `is_x86_feature_detected!("avx2")` — one relaxed atomic load
/// on the hot path instead of the detection machinery per call.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_enabled() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHE: AtomicU8 = AtomicU8::new(0);
    match CACHE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            CACHE.store(if avx2 { 1 } else { 2 }, Ordering::Relaxed);
            avx2
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! The SSE2 and AVX2 tiers. Every intrinsic here is either gated by
    //! the `x86_64` baseline feature set (SSE2) or lives in a
    //! `#[target_feature(enable = "avx2")]` function reached only behind
    //! runtime detection.

    use crate::intersect::merge_count;
    use std::arch::x86_64::*;
    use tc_graph::VertexId;

    /// 4×4 all-pairs block intersection on SSE2 (part of the `x86_64`
    /// baseline, so no runtime detection is needed).
    pub fn merge_count_sse2(a: &[VertexId], b: &[VertexId]) -> u64 {
        const B: usize = 4;
        let mut i = 0usize;
        let mut j = 0usize;
        let mut count = 0u64;
        while i + B <= a.len() && j + B <= b.len() {
            // SAFETY: `i + 4 <= a.len()` and `j + 4 <= b.len()` bound the
            // unaligned 16-byte loads.
            let matches = unsafe {
                let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
                let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
                let mut m = _mm_cmpeq_epi32(va, vb);
                // Compare against the three remaining cyclic rotations
                // of `vb` (shuffle immediates rotate the 4 lanes).
                m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01)));
                m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10)));
                m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11)));
                _mm_movemask_ps(_mm_castsi128_ps(m)) as u32
            };
            count += matches.count_ones() as u64;
            let a_max = a[i + B - 1];
            let b_max = b[j + B - 1];
            if a_max <= b_max {
                i += B;
            }
            if b_max <= a_max {
                j += B;
            }
        }
        count + merge_count(&a[i..], &b[j..])
    }

    /// 8×8 all-pairs block intersection on AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn merge_count_avx2(a: &[VertexId], b: &[VertexId]) -> u64 {
        const B: usize = 8;
        let mut i = 0usize;
        let mut j = 0usize;
        let mut count = 0u64;
        if i + B <= a.len() && j + B <= b.len() {
            // The 7 cyclic lane rotations of a 256-bit 8×u32 vector.
            let rotations = [
                _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0),
                _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1),
                _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2),
                _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3),
                _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4),
                _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5),
                _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6),
            ];
            while i + B <= a.len() && j + B <= b.len() {
                // SAFETY: the loop condition bounds the unaligned
                // 32-byte loads.
                let matches = unsafe {
                    let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                    let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i);
                    let mut m = _mm256_cmpeq_epi32(va, vb);
                    for rot in rotations {
                        let vr = _mm256_permutevar8x32_epi32(vb, rot);
                        m = _mm256_or_si256(m, _mm256_cmpeq_epi32(va, vr));
                    }
                    _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
                };
                count += matches.count_ones() as u64;
                let a_max = a[i + B - 1];
                let b_max = b[j + B - 1];
                if a_max <= b_max {
                    i += B;
                }
                if b_max <= a_max {
                    j += B;
                }
            }
        }
        count + merge_count(&a[i..], &b[j..])
    }

    /// Eight bitmap membership probes per step via `vpgatherdd` (the
    /// AVX2 tier of [`super::probe_count`]).
    ///
    /// The bitmap is reinterpreted as `u32` half-words — exact on
    /// little-endian x86_64, where bit `v & 63` of `words[v >> 6]` is
    /// bit `v & 31` of half-word `v >> 5`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `list` must be sorted with
    /// `(last >> 5) < words.len() * 2`: the gather reads the half-word
    /// `v >> 5` for every lane with no masking, so each index must be
    /// in bounds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn probe_count_avx2(words: &[u64], list: &[VertexId]) -> u64 {
        const B: usize = 8;
        let base = words.as_ptr().cast::<i32>();
        let mask31 = _mm256_set1_epi32(31);
        let one = _mm256_set1_epi32(1);
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + B <= list.len() {
            // SAFETY: the loop condition bounds the 32-byte id load;
            // the caller contract bounds every gathered half-word
            // index (sorted list, last element checked).
            unsafe {
                let ids = _mm256_loadu_si256(list.as_ptr().add(i) as *const __m256i);
                let widx = _mm256_srli_epi32::<5>(ids);
                let half_words = _mm256_i32gather_epi32::<4>(base, widx);
                let bit = _mm256_and_si256(ids, mask31);
                let hit = _mm256_and_si256(_mm256_srlv_epi32(half_words, bit), one);
                acc = _mm256_add_epi32(acc, hit);
            }
            i += B;
        }
        let rem = (list.len() - i) as i32;
        if rem > 0 {
            // Masked final step: `vpmaskmovd` loads only the live
            // lanes (no over-read) and the masked gather leaves dead
            // lanes at the zero src (no load, no hit) — so the tail
            // costs one more vector step instead of a branchy scalar
            // loop.
            let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), iota);
            // SAFETY: maskload reads only lanes below `rem`, all inside
            // `list`; dead-lane ids load as 0, but their gather lanes
            // are masked off entirely, so no index is dereferenced for
            // them.
            unsafe {
                let ids = _mm256_maskload_epi32(list.as_ptr().add(i).cast::<i32>(), live);
                let widx = _mm256_srli_epi32::<5>(ids);
                let half_words =
                    _mm256_mask_i32gather_epi32::<4>(_mm256_setzero_si256(), base, widx, live);
                let bit = _mm256_and_si256(ids, mask31);
                let hit = _mm256_and_si256(_mm256_srlv_epi32(half_words, bit), one);
                acc = _mm256_add_epi32(acc, hit);
            }
        }
        // Horizontal sum of the eight u32 hit counters (each lane adds
        // at most 1 per step, so u32 lanes cannot overflow on in-memory
        // list lengths).
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256::<1>(acc);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
        _mm_cvtsi128_si32(s) as u32 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::merge_count;

    /// Adversarial sorted-set shapes: every length around the block and
    /// word boundaries, plus all-overlap / no-overlap / interleaved.
    fn fixtures() -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut cases: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for &la in &[0usize, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128] {
            for &lb in &[0usize, 1, 4, 8, 64, 65, 128] {
                // All-overlap.
                cases.push(((0..la as u32).collect(), (0..lb as u32).collect()));
                // No-overlap (disjoint ranges).
                cases.push(((0..la as u32).collect(), (1000..1000 + lb as u32).collect()));
                // Interleaved strides.
                cases.push((
                    (0..la as u32).map(|x| x * 3).collect(),
                    (0..lb as u32).map(|x| x * 5).collect(),
                ));
            }
        }
        cases
    }

    #[test]
    fn dispatcher_matches_scalar_merge() {
        for (a, b) in fixtures() {
            assert_eq!(
                simd_merge_count(&a, &b),
                merge_count(&a, &b),
                "{} vs {} elements",
                a.len(),
                b.len()
            );
            assert_eq!(simd_merge_count(&b, &a), merge_count(&a, &b));
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn sse2_matches_scalar_merge() {
        for (a, b) in fixtures() {
            assert_eq!(x86::merge_count_sse2(&a, &b), merge_count(&a, &b));
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn avx2_matches_scalar_merge() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // nothing to test on this machine
        }
        for (a, b) in fixtures() {
            // SAFETY: AVX2 presence checked above.
            assert_eq!(
                unsafe { x86::merge_count_avx2(&a, &b) },
                merge_count(&a, &b)
            );
        }
    }

    #[test]
    fn equal_maxima_advance_both_blocks() {
        // a and b share their block maxima; strict sets guarantee the
        // double-advance loses nothing.
        let a: Vec<u32> = vec![0, 2, 4, 7, 10, 12, 14, 15];
        let b: Vec<u32> = vec![1, 3, 5, 7, 8, 9, 13, 15];
        assert_eq!(simd_merge_count(&a, &b), merge_count(&a, &b));
    }

    /// A packed bitmap holding exactly the elements of `set`, sized to
    /// cover `cover` vertex ids.
    fn bitmap_of(set: &[u32], cover: u32) -> Vec<u64> {
        let mut words = vec![0u64; (cover as usize).div_ceil(64)];
        for &v in set {
            words[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
        words
    }

    #[test]
    fn probe_dispatcher_matches_set_intersection() {
        for (a, b) in fixtures() {
            let cover = 1 + a.iter().chain(&b).copied().max().unwrap_or(0);
            let words = bitmap_of(&a, cover);
            let expect = merge_count(&a, &b);
            assert_eq!(probe_count(&words, &b), expect, "dispatcher");
            assert_eq!(probe_count_scalar(&words, &b), expect, "scalar");
        }
    }

    #[test]
    fn probe_ids_past_the_bitmap_read_as_absent() {
        // One 64-id word; probes far beyond it must fall back cleanly
        // (the vector guard) and count zero.
        let words = bitmap_of(&[1, 5, 63], 64);
        let list: Vec<u32> = (60..80).collect();
        assert_eq!(probe_count(&words, &list), 1); // only 63 hits
        assert_eq!(probe_count_scalar(&words, &list), 1);
        assert_eq!(probe_count(&[], &list), 0);
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn avx2_probe_matches_scalar_probe() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // nothing to test on this machine
        }
        for (a, b) in fixtures() {
            let cover = 1 + a.iter().chain(&b).copied().max().unwrap_or(0);
            let words = bitmap_of(&a, cover);
            if b.last()
                .is_some_and(|&m| ((m >> 5) as usize) < words.len() * 2)
            {
                // SAFETY: AVX2 checked above; the guard bounds every
                // gathered index.
                assert_eq!(
                    unsafe { x86::probe_count_avx2(&words, &b) },
                    probe_count_scalar(&words, &b)
                );
            }
        }
    }
}
