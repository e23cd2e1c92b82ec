//! Thread count of the experiment grid.
//!
//! Trace generation runs on the simulating thread: the engine calls
//! [`crate::BlockSource::block`] as an SM slot frees, and the source
//! builds that block's trace there and then. Parallelism lives where it
//! needs no per-block handoff: across the cells of an experiment grid
//! (`tc-bench`'s `par_map`) and across requests on the server's shard
//! workers. This module sizes the grid.
//!
//! The count is the [`set_thread_override`] value if set, else the
//! `TC_PIPELINE_THREADS` environment variable if set and parseable, else
//! [`std::thread::available_parallelism`]. The override takes precedence
//! so that a benchmark can switch the grid to serial without re-executing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the grid's thread count.
pub const THREADS_ENV: &str = "TC_PIPELINE_THREADS";

/// Process-wide thread override (0 = none). Takes precedence over the
/// environment.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the grid's thread count for this process (`None` restores
/// env/auto selection). `Some(1)` means "run serially".
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The grid's thread count: the [`set_thread_override`] value if set,
/// else `TC_PIPELINE_THREADS` if set and parseable, else
/// [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_wins() {
        // This test mutates process-global state; the override is
        // restored before returning, and no other test in this crate
        // reads it.
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        set_thread_override(None);
        assert!(configured_threads() >= 1);
    }
}
