//! The discrete-event execution engine.
//!
//! Time is kept in fixed-point "ticks" (256 ticks = 1 cycle) so event
//! ordering is exact and the simulation is bit-for-bit deterministic.
//!
//! Each SM owns three servers — compute, global memory, shared memory —
//! each a single resource with a `free_at` horizon. A warp executing an op
//! starts at `max(warp_ready, server_free)`, occupies the server for the
//! op's service time, and (for memory) becomes ready again only after an
//! additional latency that the server does *not* stay busy for. That gap is
//! what lets co-resident warps hide each other's latency, which is the
//! whole point of the paper's resource-balance model.
//!
//! Blocks are dispatched from a FIFO grid queue to the first SM slot that
//! frees up, like the hardware's global work distributor.
//!
//! Warp state lives in the `num_sms × blocks_per_sm` slots, like the
//! hardware's fixed warp contexts: a slot overwrites its warp records in
//! place when the next block arrives, and events name a warp by
//! `(slot, lane)`. Engine memory is therefore bounded by residency, not by
//! the grid size.

use crate::config::GpuConfig;
use crate::metrics::KernelMetrics;
use crate::ops::WarpOp;
use crate::trace::{sync_count, BlockSource, BlockTrace};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fixed-point ticks per cycle.
const TICKS_PER_CYCLE: u64 = 256;

fn cycles_to_ticks(c: u64) -> u64 {
    c * TICKS_PER_CYCLE
}

fn ticks_to_cycles_ceil(t: u64) -> u64 {
    t.div_ceil(TICKS_PER_CYCLE)
}

/// Service ticks for `count` units at `rate` units/cycle.
fn service_ticks(count: u64, rate: f64) -> u64 {
    debug_assert!(rate > 0.0);
    ((count as f64) * (TICKS_PER_CYCLE as f64) / rate).ceil() as u64
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WarpState {
    Runnable,
    AtBarrier,
    Done,
}

struct Warp {
    pc: usize,
    state: WarpState,
    /// Tick at which this warp parked at the current barrier.
    barrier_arrival: u64,
}

struct Slot<'a> {
    sm: usize,
    /// Grid index of the resident block.
    block_idx: usize,
    /// Tick the resident block was loaded.
    block_start: u64,
    /// Trace of the currently resident block (`None` = slot idle). Held as
    /// a [`Cow`] so resident sources lend their traces and generators hand
    /// over owned ones — neither is deep-copied on load.
    trace: Option<Cow<'a, BlockTrace>>,
    /// The resident block's warps, indexed by lane. Reused for every block
    /// the slot holds, so it never outgrows the largest of them.
    warps: Vec<Warp>,
    warps_done: usize,
    barrier_arrived: usize,
    barrier_release: u64,
    /// Number of warps that participate in each barrier of this block.
    barrier_participants: usize,
}

#[derive(Default)]
struct Sm {
    compute_free: u64,
    global_free: u64,
    shared_free: u64,
    compute_busy: u64,
    global_busy: u64,
    shared_busy: u64,
}

/// Lifetime of one block on its SM, for timeline analysis (tail blocks,
/// per-SM load) and the chrome-trace export in [`crate::timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEvent {
    /// Grid index of the block.
    pub block: usize,
    /// SM the block ran on.
    pub sm: usize,
    /// Cycle the block became resident.
    pub start_cycles: u64,
    /// Cycle its last warp retired.
    pub end_cycles: u64,
}

/// Mutable simulation state shared by the helper functions.
struct Sim<'a, S: BlockSource + ?Sized> {
    source: &'a S,
    sms: Vec<Sm>,
    slots: Vec<Slot<'a>>,
    /// Runnable warps as `(ready, seq, slot, lane)`. `seq` is unique, so
    /// the order never depends on which slot or lane a warp occupies.
    events: BinaryHeap<Reverse<(u64, u64, usize, usize)>>,
    seq: u64,
    next_block: usize,
    kernel_end: u64,
    metrics: KernelMetrics,
    /// Block lifetime log (only when event collection is requested).
    block_events: Option<Vec<BlockEvent>>,
}

impl<'a, S: BlockSource + ?Sized> Sim<'a, S> {
    fn push_event(&mut self, ready: u64, slot_idx: usize, lane: usize) {
        self.events.push(Reverse((ready, self.seq, slot_idx, lane)));
        self.seq += 1;
    }

    /// Records the resident block's lifetime (if collection is on) before
    /// the slot is reused or retired.
    fn log_block_event(&mut self, slot_idx: usize, end: u64) {
        if self.slots[slot_idx].trace.is_none() {
            return;
        }
        let slot = &self.slots[slot_idx];
        let event = BlockEvent {
            block: slot.block_idx,
            sm: slot.sm,
            start_cycles: ticks_to_cycles_ceil(slot.block_start),
            end_cycles: ticks_to_cycles_ceil(end),
        };
        if let Some(log) = &mut self.block_events {
            log.push(event);
        }
    }

    /// Loads grid blocks into `slot_idx` starting at `now`, skipping (and
    /// instantly completing) empty blocks.
    fn load_block(&mut self, slot_idx: usize, now: u64) {
        self.log_block_event(slot_idx, now);
        while self.next_block < self.source.num_blocks() {
            let trace = self.source.block(self.next_block);
            self.next_block += 1;
            assert!(
                trace.barriers_consistent(),
                "block {} has non-empty warps with differing BlockSync counts \
                 (kernel would deadlock)",
                self.next_block - 1
            );
            if trace.all_empty() {
                self.kernel_end = self.kernel_end.max(now);
                if let Some(log) = &mut self.block_events {
                    log.push(BlockEvent {
                        block: self.next_block - 1,
                        sm: self.slots[slot_idx].sm,
                        start_cycles: ticks_to_cycles_ceil(now),
                        end_cycles: ticks_to_cycles_ceil(now),
                    });
                }
                continue;
            }
            self.metrics.warps += trace.num_warps();
            let participants = trace.warps().filter(|w| sync_count(w) > 0).count();
            let block_idx = self.next_block - 1;
            let slot = &mut self.slots[slot_idx];
            slot.block_idx = block_idx;
            slot.block_start = now;
            slot.warps_done = trace.warps().filter(|w| w.is_empty()).count();
            slot.barrier_arrived = 0;
            slot.barrier_release = 0;
            slot.barrier_participants = participants;
            slot.warps.clear();
            slot.warps.extend(trace.warps().map(|ops| Warp {
                pc: 0,
                state: if ops.is_empty() {
                    WarpState::Done
                } else {
                    WarpState::Runnable
                },
                barrier_arrival: 0,
            }));
            slot.trace = Some(trace);
            for lane in 0..self.slots[slot_idx].warps.len() {
                if self.slots[slot_idx].warps[lane].state == WarpState::Runnable {
                    self.push_event(now, slot_idx, lane);
                }
            }
            return;
        }
        self.slots[slot_idx].trace = None;
    }

    /// After advancing `pc`, requeues the warp at `ready`, or retires it.
    /// Returns whether that completed the block, in which case the slot
    /// already holds the next grid block.
    fn finish_or_requeue(&mut self, slot_idx: usize, lane: usize, ready: u64) -> bool {
        let slot = &mut self.slots[slot_idx];
        let trace = slot.trace.as_ref().expect("resident block");
        if slot.warps[lane].pc < trace.warp(lane).len() {
            self.push_event(ready, slot_idx, lane);
            return false;
        }
        slot.warps[lane].state = WarpState::Done;
        slot.warps_done += 1;
        self.kernel_end = self.kernel_end.max(ready);
        if slot.warps_done < slot.warps.len() {
            return false;
        }
        self.load_block(slot_idx, ready);
        true
    }
}

/// Runs a kernel described by `source` on the configured GPU and returns
/// its metrics.
///
/// # Panics
/// Panics if a block's non-empty warps disagree on barrier count (such a
/// kernel would deadlock on real hardware).
pub fn simulate<S: BlockSource + ?Sized>(config: &GpuConfig, source: &S) -> KernelMetrics {
    run(config, source, false).metrics
}

/// Like [`simulate`], additionally returning the lifetime of every block —
/// the raw material for timeline/tail analysis ([`crate::timeline`]).
pub fn simulate_with_events<S: BlockSource + ?Sized>(
    config: &GpuConfig,
    source: &S,
) -> (KernelMetrics, Vec<BlockEvent>) {
    let sim = run(config, source, true);
    let events = sim.block_events.expect("event collection requested");
    (sim.metrics, events)
}

/// Runs the kernel to completion and returns the final simulation state.
fn run<'a, S: BlockSource + ?Sized>(
    config: &GpuConfig,
    source: &'a S,
    collect_events: bool,
) -> Sim<'a, S> {
    config.validate();
    let num_blocks = source.num_blocks();
    let mut sim = Sim {
        source,
        sms: (0..config.num_sms).map(|_| Sm::default()).collect(),
        slots: (0..config.num_sms * config.blocks_per_sm)
            .map(|i| Slot {
                sm: i % config.num_sms,
                block_idx: 0,
                block_start: 0,
                trace: None,
                warps: Vec::new(),
                warps_done: 0,
                barrier_arrived: 0,
                barrier_release: 0,
                barrier_participants: 0,
            })
            .collect(),
        events: BinaryHeap::new(),
        seq: 0,
        next_block: 0,
        kernel_end: 0,
        metrics: KernelMetrics {
            blocks: num_blocks,
            ..Default::default()
        },
        block_events: if collect_events {
            Some(Vec::new())
        } else {
            None
        },
    };
    if num_blocks == 0 {
        return sim;
    }

    let global_latency = cycles_to_ticks(config.global_latency);
    let shared_latency = cycles_to_ticks(config.shared_latency);

    for slot_idx in 0..sim.slots.len() {
        sim.load_block(slot_idx, 0);
    }

    while let Some(Reverse((now, _, slot_idx, lane))) = sim.events.pop() {
        let slot = &sim.slots[slot_idx];
        let sm_idx = slot.sm;
        let op = slot.trace.as_ref().expect("resident block").warp(lane)[slot.warps[lane].pc];

        match op {
            WarpOp::Compute(c) => {
                let dur = service_ticks(c as u64, config.compute_throughput);
                let sm = &mut sim.sms[sm_idx];
                let start = now.max(sm.compute_free);
                sm.compute_free = start + dur;
                sm.compute_busy += dur;
                sim.metrics.compute_cycles += c as u64;
                sim.slots[slot_idx].warps[lane].pc += 1;
                sim.finish_or_requeue(slot_idx, lane, start + dur);
            }
            WarpOp::GlobalAccess { segments } => {
                let dur = service_ticks(segments as u64, config.global_bw);
                let sm = &mut sim.sms[sm_idx];
                let start = now.max(sm.global_free);
                sm.global_free = start + dur;
                sm.global_busy += dur;
                sim.metrics.global_segments += segments as u64;
                sim.slots[slot_idx].warps[lane].pc += 1;
                sim.finish_or_requeue(slot_idx, lane, start + dur + global_latency);
            }
            WarpOp::SharedAccess { transactions } => {
                let dur = service_ticks(transactions as u64, config.shared_bw);
                let sm = &mut sim.sms[sm_idx];
                let start = now.max(sm.shared_free);
                sm.shared_free = start + dur;
                sm.shared_busy += dur;
                sim.metrics.shared_transactions += transactions as u64;
                sim.slots[slot_idx].warps[lane].pc += 1;
                sim.finish_or_requeue(slot_idx, lane, start + dur + shared_latency);
            }
            WarpOp::BlockSync => {
                sim.metrics.barrier_arrivals += 1;
                let slot = &mut sim.slots[slot_idx];
                slot.warps[lane].state = WarpState::AtBarrier;
                slot.warps[lane].barrier_arrival = now;
                slot.barrier_arrived += 1;
                slot.barrier_release = slot.barrier_release.max(now);
                if slot.barrier_arrived == slot.barrier_participants {
                    let release = slot.barrier_release;
                    slot.barrier_arrived = 0;
                    slot.barrier_release = 0;
                    for lane in 0..slot.warps.len() {
                        let warp = &mut sim.slots[slot_idx].warps[lane];
                        if warp.state == WarpState::AtBarrier {
                            sim.metrics.barrier_wait_cycles +=
                                ticks_to_cycles_ceil(release - warp.barrier_arrival);
                            warp.state = WarpState::Runnable;
                            warp.pc += 1;
                            // Only the last parked warp can complete the
                            // block. The slot then holds the next grid block,
                            // which may have fewer warps and has none parked.
                            if sim.finish_or_requeue(slot_idx, lane, release) {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    // Retire blocks still resident when the grid ran dry.
    for slot_idx in 0..sim.slots.len() {
        let end = sim.kernel_end;
        sim.log_block_event(slot_idx, end);
        sim.slots[slot_idx].trace = None;
    }

    sim.metrics.kernel_cycles = ticks_to_cycles_ceil(sim.kernel_end);
    for sm in &sim.sms {
        sim.metrics.compute_busy_cycles += ticks_to_cycles_ceil(sm.compute_busy);
        sim.metrics.global_busy_cycles += ticks_to_cycles_ceil(sm.global_busy);
        sim.metrics.shared_busy_cycles += ticks_to_cycles_ceil(sm.shared_busy);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SliceBlockSource, WarpTrace};

    fn cfg() -> GpuConfig {
        GpuConfig::tiny()
    }

    fn run(blocks: Vec<BlockTrace>) -> KernelMetrics {
        simulate(&cfg(), &SliceBlockSource::new(blocks))
    }

    #[test]
    fn empty_kernel_is_zero_cycles() {
        let m = run(vec![]);
        assert_eq!(m.kernel_cycles, 0);
        assert_eq!(m.blocks, 0);
    }

    #[test]
    fn single_compute_op_costs_its_cycles() {
        let m = run(vec![BlockTrace::new(vec![WarpTrace::new(vec![
            WarpOp::Compute(100),
        ])])]);
        assert_eq!(m.kernel_cycles, 100);
        assert_eq!(m.compute_cycles, 100);
    }

    #[test]
    fn sequential_compute_in_one_warp_sums() {
        let m = run(vec![BlockTrace::new(vec![WarpTrace::new(vec![
            WarpOp::Compute(30),
            WarpOp::Compute(70),
        ])])]);
        assert_eq!(m.kernel_cycles, 100);
    }

    #[test]
    fn two_warps_contend_for_compute() {
        // One compute pipeline, two warps with 50 cycles each: serialized.
        let m = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(50)]),
            WarpTrace::new(vec![WarpOp::Compute(50)]),
        ])]);
        assert_eq!(m.kernel_cycles, 100);
    }

    #[test]
    fn memory_latency_is_paid_once_when_alone() {
        // 1 segment at bw=1.0 → 1 cycle service + 100 latency.
        let m = run(vec![BlockTrace::new(vec![WarpTrace::new(vec![
            WarpOp::GlobalAccess { segments: 1 },
        ])])]);
        assert_eq!(m.kernel_cycles, 101);
        assert_eq!(m.global_segments, 1);
    }

    #[test]
    fn latency_is_hidden_by_other_warps() {
        // Two warps each issue a 1-segment load. Services serialize
        // (cycles 0-1 and 1-2) but latencies overlap: total 102, not 202.
        let m = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::GlobalAccess { segments: 1 }]),
            WarpTrace::new(vec![WarpOp::GlobalAccess { segments: 1 }]),
        ])]);
        assert_eq!(m.kernel_cycles, 102);
    }

    #[test]
    fn compute_hides_memory_latency() {
        // Warp A: long compute. Warp B: one load. Different servers, so the
        // kernel ends when the slower one ends.
        let m = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(500)]),
            WarpTrace::new(vec![WarpOp::GlobalAccess { segments: 1 }]),
        ])]);
        assert_eq!(m.kernel_cycles, 500);
    }

    #[test]
    fn barrier_waits_for_slowest_warp() {
        // Compute serializes: A 0-10, B 10-210. Barrier releases at 210.
        // Post-barrier computes serialize: 210-220, 220-230.
        let m = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![
                WarpOp::Compute(10),
                WarpOp::BlockSync,
                WarpOp::Compute(10),
            ]),
            WarpTrace::new(vec![
                WarpOp::Compute(200),
                WarpOp::BlockSync,
                WarpOp::Compute(10),
            ]),
        ])]);
        assert_eq!(m.kernel_cycles, 230);
        assert_eq!(m.barrier_arrivals, 2);
        // Warp A parked from t=10 to t=210.
        assert_eq!(m.barrier_wait_cycles, 200);
    }

    #[test]
    fn balanced_warps_wait_less_at_barriers() {
        let balanced = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(100), WarpOp::BlockSync]),
            WarpTrace::new(vec![WarpOp::Compute(100), WarpOp::BlockSync]),
        ])]);
        let skewed = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(10), WarpOp::BlockSync]),
            WarpTrace::new(vec![WarpOp::Compute(190), WarpOp::BlockSync]),
        ])]);
        assert!(balanced.barrier_wait_cycles < skewed.barrier_wait_cycles);
    }

    #[test]
    #[should_panic(expected = "differing BlockSync counts")]
    fn inconsistent_barriers_panic() {
        run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::BlockSync]),
            WarpTrace::new(vec![WarpOp::Compute(1)]),
        ])]);
    }

    #[test]
    fn idle_padding_warps_are_allowed() {
        let m = run(vec![BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(5), WarpOp::BlockSync]),
            WarpTrace::empty(),
        ])]);
        assert_eq!(m.kernel_cycles, 5);
    }

    /// Regression for the barrier-release path: when the released warps'
    /// final op is the barrier itself, `finish_or_requeue` retires the
    /// block and reloads the slot with the next grid block *while the
    /// release loop is still walking the slot's lanes*. The loop must not
    /// release the new block's warps.
    #[test]
    fn barrier_finishing_block_reloads_slot_safely() {
        let a = BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(10), WarpOp::BlockSync]),
            WarpTrace::new(vec![WarpOp::Compute(20), WarpOp::BlockSync]),
        ]);
        let b = BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(5)])]);
        // tiny() has 1 SM × 1 slot: compute serializes 0-10 / 10-30, the
        // barrier releases at 30 finishing block a, block b runs 30-35.
        let m = run(vec![a, b]);
        assert_eq!(m.kernel_cycles, 35);
        assert_eq!(m.blocks, 2);
        assert_eq!(m.barrier_arrivals, 2);
    }

    /// As above, but the block completes on lane 1 of 4 (lanes 2 and 3 are
    /// idle padding) and is replaced by a one-warp block, so lanes the
    /// release loop has not reached yet no longer exist in the slot.
    #[test]
    fn barrier_release_reloads_slot_with_fewer_warps() {
        let a = BlockTrace::new(vec![
            WarpTrace::new(vec![WarpOp::Compute(10), WarpOp::BlockSync]),
            WarpTrace::new(vec![WarpOp::Compute(20), WarpOp::BlockSync]),
            WarpTrace::empty(),
            WarpTrace::empty(),
        ]);
        let b = BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(5)])]);
        // Compute serializes 0-10 / 10-30, the barrier releases at 30 and
        // finishes block a, block b runs 30-35.
        let m = run(vec![a, b]);
        assert_eq!(m.kernel_cycles, 35);
        assert_eq!(m.blocks, 2);
        assert_eq!(m.warps, 5);
        assert_eq!(m.barrier_arrivals, 2);
        assert_eq!(m.barrier_wait_cycles, 20);
    }

    /// Warp state is per resident slot: a grid far larger than one wave
    /// never holds more warp records than the GPU has warp contexts.
    #[test]
    fn warp_storage_is_bounded_by_residency() {
        let mut config = cfg();
        config.num_sms = 2;
        config.blocks_per_sm = 2;
        config.warps_per_block = 8;
        let warp = WarpTrace::new(vec![
            WarpOp::Compute(3),
            WarpOp::GlobalAccess { segments: 1 },
            WarpOp::BlockSync,
            WarpOp::SharedAccess { transactions: 1 },
        ]);
        let block = BlockTrace::new(vec![warp; config.warps_per_block]);
        let source = SliceBlockSource::new(vec![block; 10_000]);
        let sim = super::run(&config, &source, false);
        assert_eq!(sim.metrics.blocks, 10_000);
        assert_eq!(sim.metrics.warps, 80_000);
        // Slot records are cleared and refilled, never shrunk, so their
        // final capacity is the high-water mark of warp storage.
        let high_water: usize = sim.slots.iter().map(|s| s.warps.capacity()).sum();
        let contexts = config.num_sms * config.blocks_per_sm * config.warps_per_block;
        assert!(
            high_water <= contexts,
            "{high_water} warp records for {contexts} warp contexts"
        );
    }

    #[test]
    fn blocks_queue_beyond_residency() {
        // tiny() has 1 SM × 1 slot; three 100-cycle blocks serialize.
        let block = BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(100)])]);
        let m = run(vec![block.clone(), block.clone(), block]);
        assert_eq!(m.kernel_cycles, 300);
        assert_eq!(m.blocks, 3);
    }

    #[test]
    fn blocks_spread_across_sms() {
        let mut config = cfg();
        config.num_sms = 2;
        let block = BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(100)])]);
        let m = simulate(
            &config,
            &SliceBlockSource::new(vec![block.clone(), block.clone()]),
        );
        assert_eq!(m.kernel_cycles, 100, "two SMs run two blocks in parallel");
    }

    #[test]
    fn empty_blocks_complete_instantly() {
        let m = run(vec![
            BlockTrace::new(vec![WarpTrace::empty()]),
            BlockTrace::new(vec![WarpTrace::new(vec![WarpOp::Compute(10)])]),
        ]);
        assert_eq!(m.kernel_cycles, 10);
    }

    #[test]
    fn deterministic_across_runs() {
        let blocks: Vec<BlockTrace> = (0..20)
            .map(|i| {
                BlockTrace::new(vec![
                    WarpTrace::new(vec![
                        WarpOp::Compute(1 + i),
                        WarpOp::GlobalAccess {
                            segments: 1 + i % 7,
                        },
                        WarpOp::BlockSync,
                        WarpOp::Compute(5),
                    ]),
                    WarpTrace::new(vec![
                        WarpOp::GlobalAccess { segments: 3 },
                        WarpOp::BlockSync,
                        WarpOp::SharedAccess { transactions: 2 },
                    ]),
                ])
            })
            .collect();
        let m1 = run(blocks.clone());
        let m2 = run(blocks);
        assert_eq!(m1, m2);
    }

    /// The resource-balance phenomenon itself: when blocks execute one
    /// after another (the interesting regime — more blocks than residency
    /// slots), heterogeneous blocks overlap their compute and memory
    /// servers while homogeneous blocks leave one server idle each.
    #[test]
    fn mixed_blocks_beat_segregated_blocks() {
        let mut config = cfg();
        config.blocks_per_sm = 1;
        config.global_bw = 0.5;
        let mem_warp = WarpTrace::new(vec![WarpOp::GlobalAccess { segments: 32 }; 20]);
        let cmp_warp = WarpTrace::new(vec![WarpOp::Compute(64); 20]);

        let m = || mem_warp.clone();
        let c = || cmp_warp.clone();
        let segregated = SliceBlockSource::new(vec![
            BlockTrace::new(vec![m(), m(), m(), m()]),
            BlockTrace::new(vec![c(), c(), c(), c()]),
        ]);
        let mixed = SliceBlockSource::new(vec![
            BlockTrace::new(vec![m(), m(), c(), c()]),
            BlockTrace::new(vec![m(), m(), c(), c()]),
        ]);

        let t_seg = simulate(&config, &segregated).kernel_cycles;
        let t_mix = simulate(&config, &mixed).kernel_cycles;
        assert!(
            t_mix < t_seg,
            "mixed {t_mix} should beat segregated {t_seg}"
        );
    }

    /// Throughput below 1 unit/cycle stretches service time.
    #[test]
    fn fractional_bandwidth_scales_service() {
        let mut config = cfg();
        config.global_bw = 0.25; // 4 cycles per segment
        let m = simulate(
            &config,
            &SliceBlockSource::new(vec![BlockTrace::new(vec![WarpTrace::new(vec![
                WarpOp::GlobalAccess { segments: 8 },
            ])])]),
        );
        assert_eq!(m.kernel_cycles, 8 * 4 + 100);
    }
}
