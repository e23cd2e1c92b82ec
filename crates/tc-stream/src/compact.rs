//! Background compaction: folding the delta overlay into a fresh base
//! CSR on a dedicated worker thread, off the update path.
//!
//! The protocol is a frozen-input handoff. When the overlay crosses the
//! compaction budget, [`DynamicGraph`](crate::DynamicGraph) clones the
//! *inputs* of the rebuild — an `Arc` of the current base (O(1)) and the
//! overlay — and submits them as a [`CompactionJob`]. The worker folds
//! them into a new CSR while the graph keeps absorbing batches,
//! journaling every committed change.
//! At install time the journal is replayed against the new base to
//! rebuild the overlay: the journal is a valid operation sequence whose
//! starting state is exactly the state the job froze, so each entry's
//! base-membership question is answered by the new base alone.
//!
//! The worker is owned by the graph (one worker per dynamic graph);
//! dropping the graph closes the job channel and joins the thread.

use crate::delta::DeltaAdjacency;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use tc_graph::layered::LayeredNeighbors;
use tc_graph::{csr_from_sorted_lists, CsrGraph};

/// The frozen inputs of one background rebuild.
pub(crate) struct CompactionJob {
    pub(crate) epoch: u64,
    pub(crate) base: Arc<CsrGraph>,
    pub(crate) delta: DeltaAdjacency,
}

/// A finished rebuild, ready to install.
pub(crate) struct CompactionDone {
    pub(crate) epoch: u64,
    pub(crate) base: Arc<CsrGraph>,
}

/// Folds `base` + `delta` into a standalone CSR. Identical to
/// [`DynamicGraph::materialize`](crate::DynamicGraph::materialize), but
/// callable on detached inputs (the worker thread owns no graph).
pub(crate) fn fold(base: &CsrGraph, delta: &DeltaAdjacency) -> CsrGraph {
    csr_from_sorted_lists(base.num_vertices(), |u| {
        LayeredNeighbors::new(base.neighbors(u), delta.adds_of(u), delta.dels_of(u))
    })
}

/// Handle to the per-graph compaction worker thread.
#[derive(Debug)]
pub(crate) struct Compactor {
    job_tx: Option<Sender<CompactionJob>>,
    /// Behind a `Mutex` only so that a graph can be shared read-only
    /// between threads (`Receiver` is not `Sync`); it is reached through
    /// `get_mut`, which never locks.
    done_rx: Mutex<Receiver<CompactionDone>>,
    worker: Option<JoinHandle<()>>,
}

impl Compactor {
    pub(crate) fn spawn() -> Self {
        let (job_tx, job_rx) = mpsc::channel::<CompactionJob>();
        let (done_tx, done_rx) = mpsc::channel::<CompactionDone>();
        let worker = std::thread::Builder::new()
            .name("tc-stream-compactor".into())
            .spawn(move || {
                for job in job_rx {
                    let done = CompactionDone {
                        epoch: job.epoch,
                        base: Arc::new(fold(&job.base, &job.delta)),
                    };
                    if done_tx.send(done).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn tc-stream compaction worker");
        Self {
            job_tx: Some(job_tx),
            done_rx: Mutex::new(done_rx),
            worker: Some(worker),
        }
    }

    pub(crate) fn submit(&self, job: CompactionJob) {
        if let Some(tx) = &self.job_tx {
            // A send only fails if the worker panicked; the owner notices
            // via the disconnected done channel and falls back to inline
            // compaction.
            let _ = tx.send(job);
        }
    }

    fn done_rx(&mut self) -> &Receiver<CompactionDone> {
        self.done_rx
            .get_mut()
            .expect("never locked, so never poisoned")
    }

    /// Non-blocking poll for a finished rebuild.
    pub(crate) fn try_recv(&mut self) -> Option<CompactionDone> {
        self.done_rx().try_recv().ok()
    }

    /// Blocks until the next finished rebuild; `None` if the worker died.
    pub(crate) fn recv_blocking(&mut self) -> Option<CompactionDone> {
        self.done_rx().recv().ok()
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        drop(self.job_tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
