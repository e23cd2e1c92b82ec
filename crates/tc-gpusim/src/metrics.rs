//! Aggregate counters reported by a simulation run.

use crate::Cycles;

/// Metrics of one simulated kernel launch.
///
/// `kernel_cycles` is the headline number (what the paper's tables call
/// "kernel time"); the rest support the analysis experiments — achieved
/// bandwidth for Figure 8, barrier-wait share for the imbalance study,
/// pipeline busy times for the resource-balance study.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelMetrics {
    /// End-to-end simulated kernel duration.
    pub kernel_cycles: Cycles,
    /// Blocks executed.
    pub blocks: usize,
    /// Warps executed (sum over blocks).
    pub warps: usize,
    /// Total compute warp-cycles issued.
    pub compute_cycles: u64,
    /// Total global-memory transactions issued.
    pub global_segments: u64,
    /// Total shared-memory transactions issued.
    pub shared_transactions: u64,
    /// Total block-barrier events (one per warp per barrier).
    pub barrier_arrivals: u64,
    /// Cycles warps spent parked at barriers waiting for the slowest warp —
    /// the direct cost of intra-block workload imbalance.
    pub barrier_wait_cycles: u64,
    /// Cycles the per-SM compute pipelines were busy (summed over SMs).
    pub compute_busy_cycles: u64,
    /// Cycles the per-SM global-memory pipelines were busy (summed over SMs).
    pub global_busy_cycles: u64,
    /// Cycles the per-SM shared-memory pipelines were busy (summed over SMs).
    pub shared_busy_cycles: u64,
}

impl KernelMetrics {
    /// Achieved shared-memory bandwidth in bytes per cycle (4-byte words per
    /// transaction slot are not modelled; each transaction moves up to 128
    /// bytes, we report transaction throughput × 128 B).
    pub fn shared_bandwidth_bytes_per_cycle(&self) -> f64 {
        if self.kernel_cycles == 0 {
            return 0.0;
        }
        self.shared_transactions as f64 * 128.0 / self.kernel_cycles as f64
    }

    /// Achieved global-memory bandwidth in bytes per cycle.
    pub fn global_bandwidth_bytes_per_cycle(&self) -> f64 {
        if self.kernel_cycles == 0 {
            return 0.0;
        }
        self.global_segments as f64 * 128.0 / self.kernel_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_of_empty_run_is_zero() {
        let m = KernelMetrics::default();
        assert_eq!(m.shared_bandwidth_bytes_per_cycle(), 0.0);
        assert_eq!(m.global_bandwidth_bytes_per_cycle(), 0.0);
    }

    #[test]
    fn bandwidth_formula() {
        let m = KernelMetrics {
            kernel_cycles: 1000,
            global_segments: 500,
            shared_transactions: 250,
            ..Default::default()
        };
        assert!((m.global_bandwidth_bytes_per_cycle() - 64.0).abs() < 1e-12);
        assert!((m.shared_bandwidth_bytes_per_cycle() - 32.0).abs() < 1e-12);
    }
}
