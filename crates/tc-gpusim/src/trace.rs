//! Kernel traces: how algorithms describe their work to the engine.
//!
//! # Storage layout
//!
//! Generators emit each warp's ops as a [`WarpTrace`] and hand a block's
//! warps to [`BlockTrace::new`], its only constructor. That packs every op
//! into **one 4-byte word** of a flat per-block arena, plus a per-warp
//! table of end offsets: at most three allocations per block, whatever its
//! warp count, and half the bytes of a `WarpOp`, so the blocks resident in
//! SM slots hold 4 bytes per op.
//!
//! A word's top 2 bits are the op kind and its low 30 bits the payload
//! (cycles, segments or transactions; 0 for a barrier). A payload of
//! 2^30 − 1 or more does not fit: its word holds the escape value 2^30 − 1
//! and the real payload goes to the block's overflow list, keyed by op
//! index, so every `u32` round-trips; the list stays empty unless a
//! generator emits a payload that large. Readers see decoded [`WarpOp`]s
//! through [`Ops`]; the engine decodes an op when it executes it
//! ([`BlockTrace::op`]) and counts barriers on the packed words, where a
//! payload-free `BlockSync` is always the same word.

use crate::ops::WarpOp;
use std::borrow::Cow;
use std::ops::Range;

/// Total compute cycles in a sequence of ops.
pub fn compute_cycles(ops: impl IntoIterator<Item = WarpOp>) -> u64 {
    ops.into_iter()
        .map(|op| match op {
            WarpOp::Compute(c) => c as u64,
            _ => 0,
        })
        .sum()
}

/// Total memory transactions (global + shared) in a sequence of ops.
pub fn memory_transactions(ops: impl IntoIterator<Item = WarpOp>) -> u64 {
    ops.into_iter()
        .map(|op| match op {
            WarpOp::GlobalAccess { segments } => segments as u64,
            WarpOp::SharedAccess { transactions } => transactions as u64,
            _ => 0,
        })
        .sum()
}

/// Number of `BlockSync` barriers in a sequence of ops.
pub fn sync_count(ops: impl IntoIterator<Item = WarpOp>) -> usize {
    ops.into_iter()
        .filter(|&op| op == WarpOp::BlockSync)
        .count()
}

/// The op stream of one warp, as a generator emits it (a [`BlockTrace`]
/// stores it packed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WarpTrace {
    /// Operations in program order.
    pub ops: Vec<WarpOp>,
}

impl WarpTrace {
    /// An empty warp (idle for the whole block).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds from an op list.
    pub fn new(ops: Vec<WarpOp>) -> Self {
        Self { ops }
    }

    /// Total compute cycles in this trace.
    pub fn compute_cycles(&self) -> u64 {
        compute_cycles(self.ops.iter().copied())
    }

    /// Total memory transactions (global + shared) in this trace.
    pub fn memory_transactions(&self) -> u64 {
        memory_transactions(self.ops.iter().copied())
    }

    /// Number of `BlockSync` barriers this warp participates in.
    pub fn sync_count(&self) -> usize {
        sync_count(self.ops.iter().copied())
    }
}

/// Payload bits of a packed op word; the kind takes the top two.
const PAYLOAD_BITS: u32 = 30;

/// Payload of a word whose real payload is in the overflow list; also the
/// payload mask.
const ESCAPE: u32 = (1 << PAYLOAD_BITS) - 1;

/// The word of a `BlockSync`, which has no payload.
const SYNC_WORD: u32 = 3 << PAYLOAD_BITS;

/// Packs an op into a word, returning the payload separately when it does
/// not fit.
fn encode(op: WarpOp) -> (u32, Option<u32>) {
    let (kind, payload) = match op {
        WarpOp::Compute(c) => (0, c),
        WarpOp::GlobalAccess { segments } => (1, segments),
        WarpOp::SharedAccess { transactions } => (2, transactions),
        WarpOp::BlockSync => (3, 0),
    };
    let spill = (payload >= ESCAPE).then_some(payload);
    (kind << PAYLOAD_BITS | payload.min(ESCAPE), spill)
}

/// Asserts, in every build, that a block of `ops` ops fits its `u32` warp
/// end offsets; wrapping would move warp boundaries silently.
fn check_op_count(ops: usize) {
    assert!(
        u32::try_from(ops).is_ok(),
        "block trace of {ops} ops overflows its u32 warp offsets"
    );
}

/// The op streams of one block's warps, packed 4 bytes per op (see the
/// [module docs](self)).
///
/// Every **non-empty** warp of a block must contain the same number of
/// `BlockSync` ops — a real kernel deadlocks otherwise, and
/// [`crate::simulate`] panics to surface the bug. Completely empty warps
/// are permitted as padding (they model lanes the kernel masks out before
/// the first barrier).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockTrace {
    /// All warps' ops, concatenated in warp order, one packed word each.
    words: Vec<u32>,
    /// `(index in words, payload)` of every escaped word, in index order.
    overflow: Vec<(u32, u32)>,
    /// `ends[i]` is the exclusive end of warp `i`'s range in `words`
    /// (warp `i` starts where warp `i - 1` ends).
    ends: Vec<u32>,
}

impl BlockTrace {
    /// Packs a block's warps, in order.
    ///
    /// # Panics
    /// Panics if the block holds more than `u32::MAX` ops.
    pub fn new(warps: Vec<WarpTrace>) -> Self {
        let total = warps.iter().map(|w| w.ops.len()).sum();
        // Every index and end offset below is at most `total`.
        check_op_count(total);
        let mut words = Vec::with_capacity(total);
        let mut overflow = Vec::new();
        let mut ends = Vec::with_capacity(warps.len());
        for w in &warps {
            for &op in &w.ops {
                let (word, spill) = encode(op);
                if let Some(payload) = spill {
                    overflow.push((words.len() as u32, payload));
                }
                words.push(word);
            }
            ends.push(words.len() as u32);
        }
        Self {
            words,
            overflow,
            ends,
        }
    }

    /// Number of warps in the block.
    pub fn num_warps(&self) -> usize {
        self.ends.len()
    }

    /// Arena range of warp `i`.
    fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Decodes the op at arena index `idx`.
    fn decode(&self, idx: usize) -> WarpOp {
        let word = self.words[idx];
        let mut payload = word & ESCAPE;
        if payload == ESCAPE {
            payload = self.spilled(idx);
        }
        match word >> PAYLOAD_BITS {
            0 => WarpOp::Compute(payload),
            1 => WarpOp::GlobalAccess { segments: payload },
            2 => WarpOp::SharedAccess {
                transactions: payload,
            },
            _ => WarpOp::BlockSync,
        }
    }

    /// The overflow payload of the escaped op at arena index `idx`. Kept
    /// out of line so the common decode path stays small.
    #[cold]
    #[inline(never)]
    fn spilled(&self, idx: usize) -> u32 {
        let at = self
            .overflow
            .binary_search_by_key(&(idx as u32), |&(i, _)| i)
            .expect("escaped op has an overflow entry");
        self.overflow[at].1
    }

    /// Op `pc` of warp `warp`.
    ///
    /// # Panics
    /// Panics if `pc` is past the warp's last op.
    pub fn op(&self, warp: usize, pc: usize) -> WarpOp {
        let range = self.range(warp);
        assert!(pc < range.len(), "pc {pc} past the end of warp {warp}");
        self.decode(range.start + pc)
    }

    /// The decoded ops of warp `i`.
    pub fn warp(&self, i: usize) -> Ops<'_> {
        Ops {
            trace: self,
            range: self.range(i),
        }
    }

    /// Iterates over all warps' ops.
    pub fn warps(&self) -> impl Iterator<Item = Ops<'_>> + '_ {
        (0..self.num_warps()).map(|i| self.warp(i))
    }

    /// All warps' ops, concatenated in warp order.
    pub fn ops(&self) -> Ops<'_> {
        Ops {
            trace: self,
            range: 0..self.words.len(),
        }
    }

    /// Whether every warp is empty (the block is pure padding).
    pub fn all_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of `BlockSync` ops in warp `i`, counted on the packed words
    /// without decoding them.
    pub(crate) fn warp_syncs(&self, i: usize) -> usize {
        self.words[self.range(i)]
            .iter()
            .filter(|&&w| w == SYNC_WORD)
            .count()
    }

    /// Whether all non-empty warps agree on barrier count (kernel is
    /// deadlock-free). Empty padding warps are ignored.
    pub fn barriers_consistent(&self) -> bool {
        let mut counts = (0..self.num_warps())
            .filter(|&i| !self.range(i).is_empty())
            .map(|i| self.warp_syncs(i));
        match counts.next() {
            None => true,
            Some(first) => counts.all(|c| c == first),
        }
    }
}

/// Decoded ops of one warp, or of a whole block, of a [`BlockTrace`].
#[derive(Clone, Debug)]
pub struct Ops<'a> {
    trace: &'a BlockTrace,
    range: Range<usize>,
}

impl Ops<'_> {
    /// Whether no ops remain.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

impl Iterator for Ops<'_> {
    type Item = WarpOp;

    fn next(&mut self) -> Option<WarpOp> {
        self.range.next().map(|i| self.trace.decode(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Ops<'_> {}

/// A lazily generated sequence of block traces.
///
/// The engine pulls blocks on demand as SM slots free up, in grid order and
/// on the simulating thread, so a kernel with hundreds of thousands of
/// blocks never materializes more than `num_sms × blocks_per_sm` traces at
/// once, and a generator needs no synchronisation. Implementations regenerate
/// each block's ops from the graph — deterministic, so repeated calls with
/// the same index must return the same trace.
///
/// Returning [`Cow`] lets resident sources ([`SliceBlockSource`], caches)
/// lend their blocks without a deep copy, while generators hand over
/// freshly built traces by value.
pub trait BlockSource {
    /// Total number of blocks in the kernel grid.
    fn num_blocks(&self) -> usize;

    /// The trace of block `idx` (`0 <= idx < num_blocks()`).
    fn block(&self, idx: usize) -> Cow<'_, BlockTrace>;
}

/// A [`BlockSource`] over pre-materialized traces; convenient for tests and
/// micro-benchmarks. Blocks are lent to the engine, never cloned.
#[derive(Clone, Debug)]
pub struct SliceBlockSource {
    blocks: Vec<BlockTrace>,
}

impl SliceBlockSource {
    /// Wraps explicit block traces.
    pub fn new(blocks: Vec<BlockTrace>) -> Self {
        Self { blocks }
    }
}

impl BlockSource for SliceBlockSource {
    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn block(&self, idx: usize) -> Cow<'_, BlockTrace> {
        Cow::Borrowed(&self.blocks[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn decoded(t: &BlockTrace) -> Vec<Vec<WarpOp>> {
        t.warps().map(Iterator::collect).collect()
    }

    #[test]
    fn warp_trace_aggregates() {
        let w = WarpTrace::new(vec![
            WarpOp::Compute(3),
            WarpOp::GlobalAccess { segments: 4 },
            WarpOp::BlockSync,
            WarpOp::SharedAccess { transactions: 2 },
            WarpOp::Compute(5),
        ]);
        assert_eq!(w.compute_cycles(), 8);
        assert_eq!(w.memory_transactions(), 6);
        assert_eq!(w.sync_count(), 1);
    }

    #[test]
    fn barrier_consistency() {
        let sync = WarpTrace::new(vec![WarpOp::BlockSync]);
        let nosync = WarpTrace::new(vec![WarpOp::Compute(1)]);
        assert!(BlockTrace::new(vec![sync.clone(), sync.clone()]).barriers_consistent());
        assert!(!BlockTrace::new(vec![sync, nosync]).barriers_consistent());
        assert!(BlockTrace::default().barriers_consistent());
    }

    #[test]
    fn slice_source_round_trips() {
        let b = BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(1)])]);
        let src = SliceBlockSource::new(vec![b.clone(), b.clone()]);
        assert_eq!(src.num_blocks(), 2);
        assert_eq!(*src.block(1), b);
    }

    /// Regression (perf): resident sources lend blocks; `block()` must not
    /// deep-copy the trace.
    #[test]
    fn slice_source_borrows_blocks() {
        let b = BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(1)])]);
        let src = SliceBlockSource::new(vec![b]);
        assert!(
            matches!(src.block(0), Cow::Borrowed(_)),
            "SliceBlockSource must lend resident blocks, not clone them"
        );
    }

    #[test]
    fn arena_accessors_agree_with_warp_views() {
        let warps = vec![
            WarpTrace::new(vec![WarpOp::Compute(5)]),
            WarpTrace::empty(),
            WarpTrace::new(vec![
                WarpOp::SharedAccess { transactions: 3 },
                WarpOp::BlockSync,
            ]),
        ];
        let t = BlockTrace::new(warps);
        assert_eq!(t.num_warps(), 3);
        assert_eq!(t.ops().len(), 3);
        assert!(!t.all_empty());
        let collected: Vec<Ops<'_>> = t.warps().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(compute_cycles(collected[0].clone()), 5);
        assert!(collected[1].is_empty());
        assert_eq!(collected[2].len(), 2);
        assert_eq!(memory_transactions(collected[2].clone()), 3);
        assert_eq!(sync_count(t.ops()), 1);
        assert_eq!(t.op(2, 1), WarpOp::BlockSync);
        assert!(BlockTrace::new(vec![WarpTrace::empty(); 4]).all_empty());
    }

    /// Payloads from 2^30 − 1 up go through the overflow list; `op` and
    /// the iterators read them back wherever they sit.
    #[test]
    fn large_payloads_round_trip() {
        let ops = vec![
            WarpOp::Compute(ESCAPE - 1),
            WarpOp::GlobalAccess { segments: ESCAPE },
            WarpOp::BlockSync,
            WarpOp::SharedAccess {
                transactions: u32::MAX,
            },
            WarpOp::Compute(1 << 30),
        ];
        let t = BlockTrace::new(vec![WarpTrace::new(ops.clone()); 2]);
        assert_eq!(t.overflow.len(), 6, "three escaped ops per warp");
        assert_eq!(decoded(&t), vec![ops.clone(), ops.clone()]);
        for (pc, &op) in ops.iter().enumerate() {
            assert_eq!(t.op(1, pc), op);
        }
    }

    #[test]
    #[should_panic(expected = "past the end of warp 0")]
    fn op_rejects_a_pc_past_its_warp() {
        let t = BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(1)]),
            WarpTrace::new(vec![WarpOp::Compute(2)]),
        ]);
        t.op(0, 1);
    }

    /// `BlockTrace::new` checks its total op count through
    /// `check_op_count` before packing (a real 2^32-op block would take
    /// 32 GiB of input). The check is an `assert!`, so release builds
    /// refuse the block too instead of wrapping its warp offsets.
    #[test]
    #[should_panic(expected = "overflows its u32 warp offsets")]
    fn op_counts_past_u32_are_rejected() {
        check_op_count(u32::MAX as usize);
        check_op_count(u32::MAX as usize + 1);
    }

    fn arb_payload() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(0),
            Just(1),
            Just(ESCAPE - 1),
            Just(ESCAPE),
            Just(1 << 30),
            Just(u32::MAX),
            0..u32::MAX,
        ]
    }

    fn arb_op() -> impl Strategy<Value = WarpOp> {
        (0u32..4, arb_payload()).prop_map(|(kind, payload)| match kind {
            0 => WarpOp::Compute(payload),
            1 => WarpOp::GlobalAccess { segments: payload },
            2 => WarpOp::SharedAccess {
                transactions: payload,
            },
            _ => WarpOp::BlockSync,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Packing is lossless: the block decodes back to exactly the
        /// warps it was built from, empty warps and all, through every
        /// accessor.
        #[test]
        fn packed_block_decodes_to_its_warps(
            warps in prop::collection::vec(
                prop_oneof![Just(Vec::new()), prop::collection::vec(arb_op(), 1..12)],
                0..6,
            )
        ) {
            let t = BlockTrace::new(warps.iter().cloned().map(WarpTrace::new).collect());
            prop_assert_eq!(t.num_warps(), warps.len());
            prop_assert_eq!(&decoded(&t), &warps);
            let flat: Vec<WarpOp> = warps.iter().flatten().copied().collect();
            prop_assert_eq!(t.ops().collect::<Vec<_>>(), flat.clone());
            prop_assert_eq!(t.all_empty(), flat.is_empty());
            for (i, ops) in warps.iter().enumerate() {
                prop_assert_eq!(t.warp(i).len(), ops.len());
                prop_assert_eq!(t.warp_syncs(i), sync_count(ops.iter().copied()));
                for (pc, &op) in ops.iter().enumerate() {
                    prop_assert_eq!(t.op(i, pc), op);
                }
            }
        }
    }
}
