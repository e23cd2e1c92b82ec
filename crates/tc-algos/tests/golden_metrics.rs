//! Golden outputs of the simulated GPU kernels.
//!
//! The determinism tests compare the engine only with itself (serial vs
//! pipelined, one thread count vs another), so a rewrite that shifted
//! cycles the same way on every path would still pass them. This file
//! pins absolute values instead: the triangle count and every
//! `KernelMetrics` field of five algorithms on one fixed graph at
//! `titan_xp_like`, plus a digest of Hu's per-block schedule. Bisson and
//! TRUST launch one block per vertex, far more blocks than the 60
//! resident slots, and Hu's grid is also larger than one wave, so slot
//! reuse (including reloads during a barrier release) is covered.
//!
//! Change a constant only in a commit that means to move the simulated
//! numbers, and say so in its message.

use tc_algos::bisson::Bisson;
use tc_algos::hu::HuFineGrained;
use tc_algos::polak::Polak;
use tc_algos::tricore::TriCore;
use tc_algos::trust::Trust;
use tc_algos::{GpuTriangleCounter, RunResult};
use tc_gpusim::{BlockEvent, GpuConfig, KernelMetrics};
use tc_graph::generators::power_law_configuration;
use tc_graph::{orient_by_rank, DirectedGraph};

/// Triangles in the fixture graph.
const TRIANGLES: u64 = 19514;

/// A skewed graph oriented low degree → high degree (ties by id).
fn fixture() -> DirectedGraph {
    let g = power_law_configuration(4000, 2.1, 12.0, 7);
    let rank: Vec<u64> = g
        .vertices()
        .map(|u| ((g.degree(u) as u64) << 32) | u as u64)
        .collect();
    orient_by_rank(&g, &rank)
}

fn assert_pinned(algo: &dyn GpuTriangleCounter, expected: KernelMetrics) {
    let run = algo.count(&fixture(), &GpuConfig::titan_xp_like());
    assert_eq!(
        run,
        RunResult {
            triangles: TRIANGLES,
            metrics: expected,
        },
        "{}",
        algo.name()
    );
}

/// FNV-1a over each event's `(block, sm, start_cycles, end_cycles)`.
fn digest(events: &[BlockEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for word in [e.block as u64, e.sm as u64, e.start_cycles, e.end_cycles] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn polak_is_pinned() {
    assert_pinned(
        &Polak::default(),
        KernelMetrics {
            kernel_cycles: 65256,
            blocks: 85,
            warps: 680,
            compute_cycles: 106420,
            global_segments: 798219,
            shared_transactions: 0,
            barrier_arrivals: 0,
            barrier_wait_cycles: 0,
            compute_busy_cycles: 106420,
            global_busy_cycles: 1596438,
            shared_busy_cycles: 0,
        },
    );
}

#[test]
fn tricore_is_pinned() {
    assert_pinned(
        &TriCore::default(),
        KernelMetrics {
            kernel_cycles: 28009,
            blocks: 677,
            warps: 5416,
            compute_cycles: 267622,
            global_segments: 81003,
            shared_transactions: 44899,
            barrier_arrivals: 0,
            barrier_wait_cycles: 0,
            compute_busy_cycles: 267622,
            global_busy_cycles: 162006,
            shared_busy_cycles: 11235,
        },
    );
}

#[test]
fn bisson_is_pinned() {
    assert_pinned(
        &Bisson::default(),
        KernelMetrics {
            kernel_cycles: 87999,
            blocks: 4000,
            warps: 31728,
            compute_cycles: 142122,
            global_segments: 52880,
            shared_transactions: 110196,
            barrier_arrivals: 63456,
            barrier_wait_cycles: 24706248,
            compute_busy_cycles: 142122,
            global_busy_cycles: 105760,
            shared_busy_cycles: 27561,
        },
    );
}

#[test]
fn hu_is_pinned() {
    assert_pinned(
        &HuFineGrained::default(),
        KernelMetrics {
            kernel_cycles: 20856,
            blocks: 63,
            warps: 504,
            compute_cycles: 98660,
            global_segments: 35275,
            shared_transactions: 36073,
            barrier_arrivals: 4528,
            barrier_wait_cycles: 99136,
            compute_busy_cycles: 98660,
            global_busy_cycles: 70550,
            shared_busy_cycles: 9030,
        },
    );
}

#[test]
fn trust_is_pinned() {
    assert_pinned(
        &Trust::default(),
        KernelMetrics {
            kernel_cycles: 62513,
            blocks: 4000,
            warps: 31728,
            compute_cycles: 61929,
            global_segments: 52880,
            shared_transactions: 40777,
            barrier_arrivals: 31728,
            barrier_wait_cycles: 222226,
            compute_busy_cycles: 61929,
            global_busy_cycles: 105760,
            shared_busy_cycles: 10204,
        },
    );
}

#[test]
fn hu_block_schedule_is_pinned() {
    let (run, events) =
        HuFineGrained::default().count_with_events(&fixture(), &GpuConfig::titan_xp_like());
    assert_eq!(run.triangles, TRIANGLES);
    assert_eq!(events.len(), 63);
    assert_eq!(digest(&events), 0x6af8_d8a4_32ac_0d16);
}
