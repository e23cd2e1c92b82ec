//! Sweep simulated GPU configurations to see how the paper's effects
//! depend on the hardware: SM count scaling, memory bandwidth, and the
//! latency-hiding interplay the resource-balance model exploits.
//!
//! Also demonstrates recalibrating the analytic model (`F_m`, λ) for each
//! configuration — the workflow a user with different hardware follows.
//!
//! ```text
//! cargo run --release --example custom_gpu
//! ```

use gpu_tc::algos::{tricore::TriCore, GpuTriangleCounter};
use gpu_tc::core::model::calibrate;
use gpu_tc::core::{DirectionScheme, OrderingScheme, Preprocessor};
use gpu_tc::datasets::{self, Dataset};
use gpu_tc::gpusim::GpuConfig;

fn main() {
    let graph = datasets::load(Dataset::EmailEnron);
    let algo = TriCore::default();

    println!("SM-count scaling (TriCore on email-Enron, D-direction):");
    let base_prep = Preprocessor::new()
        .direction(DirectionScheme::DegreeBased)
        .ordering(OrderingScheme::Original)
        .run(&graph);
    let mut last = None;
    for sms in [1usize, 2, 4, 8, 16, 30, 60] {
        let mut gpu = GpuConfig::titan_xp_like();
        gpu.num_sms = sms;
        let run = algo.count(base_prep.directed(), &gpu);
        let cycles = run.metrics.kernel_cycles;
        let speedup = last.map(|prev: u64| prev as f64 / cycles as f64);
        println!(
            "  {sms:>2} SMs: {cycles:>9} cycles{}",
            speedup.map_or(String::new(), |s| format!("  ({s:.2}x vs previous)"))
        );
        last = Some(cycles);
    }

    println!("\nMemory-bandwidth sensitivity (global_bw segments/cycle):");
    for bw in [0.125, 0.25, 0.5, 1.0, 2.0] {
        let mut gpu = GpuConfig::titan_xp_like();
        gpu.global_bw = bw;
        let run = algo.count(base_prep.directed(), &gpu);
        println!("  bw {bw:>5}: {:>9} cycles", run.metrics.kernel_cycles);
    }

    println!("\nRecalibrating the intensity model per GPU:");
    for (label, mutate) in [
        (
            "titan-xp-like",
            Box::new(|_: &mut GpuConfig| {}) as Box<dyn Fn(&mut GpuConfig)>,
        ),
        (
            "half bandwidth",
            Box::new(|g: &mut GpuConfig| g.global_bw /= 2.0),
        ),
        (
            "double compute",
            Box::new(|g: &mut GpuConfig| g.compute_throughput *= 2.0),
        ),
    ] {
        let mut gpu = GpuConfig::titan_xp_like();
        mutate(&mut gpu);
        let cal = calibrate(&gpu);
        println!(
            "  {label:<16} lambda = {:>7.3}, BW(4096)/BW(4) = {:.2}",
            cal.params.lambda,
            cal.params.bw_curve.eval(4096) / cal.params.bw_curve.eval(4)
        );
    }
}
