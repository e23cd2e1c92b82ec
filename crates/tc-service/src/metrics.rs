//! The service metrics surface: per-endpoint request/error counters,
//! log₂-bucketed latency histograms with quantile estimates, queue
//! gauges, and admission-control counters.
//!
//! Everything is lock-free atomics so the hot path (workers and
//! connection threads) never contends on a metrics mutex; the `stats`
//! op takes a point-in-time snapshot. Quantiles are read from the
//! histogram as the *upper bound* of the bucket containing the target
//! rank — at most 2× off, which is plenty for an overload dashboard
//! (exact quantiles for benchmarking are computed client-side by
//! `serve-bench` from raw per-request latencies).
//!
//! With the shard-per-core engine each shard owns one
//! [`ServiceMetrics`] instance — workers only ever touch their own
//! shard's counters, so there is no cross-core cache-line ping-pong on
//! the hot path. The `stats` op aggregates across shards at read time
//! (histograms merge bucket-wise via [`Histogram::fold_into`] /
//! [`quantile_upper_us_from`]). Connection-level counters that exist
//! before routing decides a shard live in [`RouterMetrics`].

use crate::protocol::Op;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds; the last bucket absorbs the tail
/// (≈ 35 minutes and beyond).
pub const BUCKETS: usize = 32;

/// A lock-free log₂ histogram over microsecond latencies.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, micros: u64) {
        let idx = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile sample,
    /// or 0 when empty.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        let mut acc = [0u64; BUCKETS];
        self.fold_into(&mut acc);
        quantile_upper_us_from(&acc, q)
    }

    /// Adds this histogram's bucket counts into `acc` — the cross-shard
    /// merge the aggregated `stats` surface uses (log₂ buckets are
    /// position-aligned, so merging is element-wise addition).
    pub fn fold_into(&self, acc: &mut [u64; BUCKETS]) {
        for (a, b) in acc.iter_mut().zip(self.buckets.iter()) {
            *a += b.load(Ordering::Relaxed);
        }
    }
}

/// [`Histogram::quantile_upper_us`] over already-merged bucket counts.
pub fn quantile_upper_us_from(buckets: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= target {
            return 1u64 << (i + 1).min(63);
        }
    }
    u64::MAX
}

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests that completed (ok or error) through the worker pool.
    pub requests: AtomicU64,
    /// Of those, how many returned an error response.
    pub errors: AtomicU64,
    /// Enqueue-to-completion latency.
    pub latency: Histogram,
}

/// One shard's metrics: everything a worker or a routed enqueue touches
/// is shard-local, so the hot path never shares a counter cache line
/// with another shard.
#[derive(Debug)]
pub struct ServiceMetrics {
    per_op: Vec<OpMetrics>,
    /// Current bounded-queue depth (this shard's queue).
    pub queue_depth: AtomicUsize,
    /// High-water mark of the queue depth.
    pub queue_peak: AtomicUsize,
    /// Requests rejected because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Requests rejected because the server was draining.
    pub rejected_shutdown: AtomicU64,
    /// Requests dropped unexecuted because their deadline passed in queue.
    pub expired_deadline: AtomicU64,
    /// Jobs each of this shard's workers answered, by worker number.
    pub worker_jobs: Vec<AtomicU64>,
}

/// Counters that exist *before* a request is routed to a shard — they
/// belong to the router / connection layer, not to any shard.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Request lines that failed to parse (no shard was ever chosen).
    pub bad_requests: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
}

impl ServiceMetrics {
    /// Zeroed metrics for a shard with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        Self {
            per_op: (0..Op::ALL.len()).map(|_| OpMetrics::default()).collect(),
            queue_depth: AtomicUsize::new(0),
            queue_peak: AtomicUsize::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            expired_deadline: AtomicU64::new(0),
            worker_jobs: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counters for one op.
    pub fn op(&self, op: Op) -> &OpMetrics {
        &self.per_op[op.index()]
    }

    /// Records a completed request: latency and error status.
    pub fn record_completion(&self, op: Op, latency_us: u64, is_error: bool) {
        let m = self.op(op);
        m.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.record(latency_us);
    }

    /// Bumps the queue-depth gauge on enqueue (maintains the peak).
    pub fn queue_entered(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Drops the queue-depth gauge on dequeue.
    pub fn queue_left(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one job answered by worker `worker`.
    pub fn worker_ran(&self, worker: usize) {
        self.worker_jobs[worker].fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [1, 1, 2, 3, 100, 1000] {
            h.record(us);
        }
        assert_eq!(h.count(), 6);
        // p50 of {1,1,2,3,100,1000}: 3rd sample = 2µs → bucket [2,4) → 4.
        assert_eq!(h.quantile_upper_us(0.5), 4);
        // p99 lands on the max sample's bucket [512,1024) → 1024.
        assert_eq!(h.quantile_upper_us(0.99), 1024);
        assert_eq!(Histogram::default().quantile_upper_us(0.5), 0);
    }

    #[test]
    fn merged_histograms_agree_with_a_single_one() {
        let (a, b, whole) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for us in [1, 1, 2, 3] {
            a.record(us);
            whole.record(us);
        }
        for us in [100, 1000] {
            b.record(us);
            whole.record(us);
        }
        let mut acc = [0u64; BUCKETS];
        a.fold_into(&mut acc);
        b.fold_into(&mut acc);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(quantile_upper_us_from(&acc, q), whole.quantile_upper_us(q));
        }
        assert_eq!(acc.iter().sum::<u64>(), whole.count());
    }

    #[test]
    fn zero_latency_is_recorded() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_upper_us(1.0), 2);
    }

    #[test]
    fn queue_gauge_tracks_peak() {
        let m = ServiceMetrics::new(1);
        m.queue_entered();
        m.queue_entered();
        m.queue_left();
        m.queue_entered();
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 2);
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn completion_recording() {
        let m = ServiceMetrics::new(1);
        m.record_completion(Op::Count, 500, false);
        m.record_completion(Op::Count, 700, true);
        let op = m.op(Op::Count);
        assert_eq!(op.requests.load(Ordering::Relaxed), 2);
        assert_eq!(op.errors.load(Ordering::Relaxed), 1);
        assert_eq!(op.latency.count(), 2);
    }
}
