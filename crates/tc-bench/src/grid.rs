//! Parallel experiment-grid evaluation.
//!
//! Every experiment table is a grid of independent cells — (dataset,
//! direction, ordering, algorithm) combinations whose measurements never
//! feed into each other. [`par_map`] evaluates such a grid across worker
//! threads while keeping the output **deterministic and ordered**: result
//! `i` always corresponds to input `i`, and the simulated metrics inside
//! each cell are bit-for-bit independent of the thread count (the
//! discrete-event engine itself is deterministic; only *wall-clock*
//! readings vary run to run, as they always have).
//!
//! The worker count is [`tc_gpusim::pipeline::configured_threads`], i.e.
//! the `TC_PIPELINE_THREADS` environment variable or all available cores,
//! so `set_thread_override(Some(1))` makes the whole harness serial. A
//! cell generates its block traces on its own thread, inside the
//! simulation, whatever the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tc_gpusim::pipeline::configured_threads;

/// Maps `f` over `items` on the configured number of worker threads,
/// returning results in input order.
///
/// Cells are claimed from a shared queue, so skewed cell costs (one huge
/// dataset among small ones) don't idle workers the way static chunking
/// would. With one configured thread (or one item) this is a plain serial
/// map on the calling thread.
///
/// # Panics
/// Propagates the first panicking cell (the scope re-raises worker
/// panics).
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = configured_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                let value = f(item);
                *results[idx].lock().expect("grid result lock") = Some(value);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("grid result lock")
                .expect("every cell evaluated")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_gpusim::pipeline::set_thread_override;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..64).collect();
        set_thread_override(Some(1));
        let serial = par_map(&items, |&i| i.wrapping_mul(2654435761).rotate_left(7));
        set_thread_override(Some(8));
        let parallel = par_map(&items, |&i| i.wrapping_mul(2654435761).rotate_left(7));
        set_thread_override(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_grid() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn cell_panic_propagates() {
        set_thread_override(Some(4));
        let result = std::panic::catch_unwind(|| {
            par_map(&(0..16).collect::<Vec<_>>(), |&i| {
                assert_ne!(i, 9, "boom");
                i
            })
        });
        set_thread_override(None);
        assert!(result.is_err());
    }
}
