//! The store: one durable home per service process, combining the
//! snapshot directory, the WAL, a background snapshot writer, and the
//! tick clock the `stats` surface reports ages in.
//!
//! Threading model:
//!
//! - [`Store::log_batch`] is synchronous (append + fsync) and is called
//!   by the service *inside* the per-dataset stream lock, so per-dataset
//!   WAL order always equals apply order. The WAL has its own mutex;
//!   lock order is stream → WAL, never reversed.
//! - Snapshot writes are asynchronous: callers enqueue jobs and a
//!   single background thread serializes the file I/O, so a multi-MB
//!   entry snapshot never blocks a query. [`Store::flush`] waits for
//!   the queue to drain (shutdown and tests use it).
//! - After every stream snapshot lands, the worker garbage-collects WAL
//!   segments that the snapshot set fully covers.
//!
//! Ages are measured in **ticks** — one tick per logged batch — never
//! wall-clock, per the determinism ADR: two replicas that processed the
//! same batches report the same ages.

use crate::codec::{PrepKey, StreamRecord};
use crate::recovery::{recover, Recovered};
use crate::snapshot::{SnapshotDir, SnapshotStats};
use crate::wal::{Wal, WalStats};
use crate::PersistError;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use tc_core::PreprocessResult;
use tc_datasets::Dataset;
use tc_stream::EdgeOp;

/// WAL segments rotate at this size.
const SEGMENT_BYTES: u64 = 1 << 20;

/// A stream is snapshotted after this many logged batches.
pub const SNAPSHOT_EVERY_BATCHES: u64 = 32;

/// Store configuration.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Root directory (`<dir>/snap` and `<dir>/wal` are created inside).
    pub dir: PathBuf,
}

impl PersistConfig {
    /// A store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }
}

/// Point-in-time persistence figures for the `stats` surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// WAL figures.
    pub wal: WalStats,
    /// Snapshot-directory figures.
    pub snapshots: SnapshotStats,
    /// Stream snapshots written since open.
    pub snapshots_written: u64,
    /// Background snapshot jobs that failed (I/O errors are counted,
    /// never fatal to the serving path).
    pub snapshot_failures: u64,
    /// Logged batches since open (the tick clock).
    pub op_ticks: u64,
    /// Ticks since the last stream snapshot landed (equals `op_ticks`
    /// if none has).
    pub last_snapshot_age_ticks: u64,
}

enum Job {
    WriteEntry {
        key: PrepKey,
        prep: Arc<PreprocessResult>,
        triangles: Option<u64>,
    },
    DeleteEntry(PrepKey),
    DeleteDatasetEntries(Dataset),
    WriteStream(Box<StreamRecord>),
    Shutdown,
}

struct Shared {
    snap: SnapshotDir,
    wal: Mutex<Wal>,
    /// Per-dataset `last_seq` of the latest on-disk stream snapshot —
    /// what WAL GC consults.
    snap_seqs: Mutex<HashMap<Dataset, u64>>,
    queue: Mutex<(VecDeque<Job>, bool)>, // (jobs, worker busy)
    cond: Condvar,
    op_ticks: AtomicU64,
    last_snapshot_tick: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_failures: AtomicU64,
}

impl Shared {
    fn enqueue(&self, job: Job) {
        let mut q = self.queue.lock().expect("persist queue");
        q.0.push_back(job);
        self.cond.notify_all();
    }

    fn run_worker(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("persist queue");
                loop {
                    if let Some(job) = q.0.pop_front() {
                        q.1 = true;
                        break job;
                    }
                    q = self.cond.wait(q).expect("persist queue");
                }
            };
            let shutdown = matches!(job, Job::Shutdown);
            if !shutdown {
                if let Err(_e) = self.process(job) {
                    self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            let mut q = self.queue.lock().expect("persist queue");
            q.1 = false;
            self.cond.notify_all();
            if shutdown {
                return;
            }
        }
    }

    fn process(&self, job: Job) -> Result<(), PersistError> {
        match job {
            Job::WriteEntry {
                key,
                prep,
                triangles,
            } => self.snap.write_entry(&key, &prep, triangles),
            Job::DeleteEntry(key) => self.snap.delete_entry(&key),
            Job::DeleteDatasetEntries(dataset) => {
                self.snap.delete_dataset_entries(dataset).map(|_| ())
            }
            Job::WriteStream(rec) => {
                self.snap.write_stream(&rec)?;
                let covered = {
                    let mut seqs = self.snap_seqs.lock().expect("snap seqs");
                    let e = seqs.entry(rec.dataset).or_insert(rec.last_seq);
                    *e = (*e).max(rec.last_seq);
                    seqs.clone()
                };
                self.wal.lock().expect("wal lock").collect(&covered)?;
                self.snapshots_written.fetch_add(1, Ordering::Relaxed);
                self.last_snapshot_tick
                    .store(self.op_ticks.load(Ordering::Relaxed), Ordering::Relaxed);
                Ok(())
            }
            Job::Shutdown => Ok(()),
        }
    }
}

/// The durable store. Cheap to share behind an [`Arc`]; all methods
/// take `&self`. Dropping the last handle shuts the background writer
/// down after draining its queue.
pub struct Store {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Store {
    /// Opens the store under `cfg.dir`, running full recovery first:
    /// snapshot load (corrupt files skipped and counted), WAL scan
    /// (torn tail truncated), deterministic replay. Returns the store
    /// plus everything the caller should install as live state.
    pub fn open(cfg: PersistConfig) -> Result<(Self, Recovered), PersistError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let snap = SnapshotDir::open(&cfg.dir)?;
        let (mut wal, scan) = Wal::open(&cfg.dir, SEGMENT_BYTES)?;
        let load = snap.load_all()?;

        let recovered = recover(
            load.entries,
            load.streams,
            &scan.records,
            load.corrupt,
            scan.torn_bytes_truncated,
            scan.segments.len(),
        )?;

        // Sequence numbering must resume above everything durable —
        // including snapshots whose covered WAL segments were GC'd.
        let max_snap_seq = recovered.streams.iter().map(|s| s.applied_seq).max();
        if let Some(m) = max_snap_seq {
            wal.ensure_next_seq_above(m);
        }

        // Stale entry snapshots (dataset mutated) come off disk now, so
        // a crash before the next snapshot cannot resurrect them.
        for stale in &recovered.stale_entries {
            snap.delete_entry(&stale.key)?;
        }

        let snap_seqs: HashMap<Dataset, u64> = recovered
            .streams
            .iter()
            .filter(|s| s.applied_seq > 0)
            .map(|s| (s.dataset, s.applied_seq))
            .collect();

        let shared = Arc::new(Shared {
            snap,
            wal: Mutex::new(wal),
            snap_seqs: Mutex::new(snap_seqs),
            queue: Mutex::new((VecDeque::new(), false)),
            cond: Condvar::new(),
            op_ticks: AtomicU64::new(0),
            last_snapshot_tick: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("tc-persist-writer".into())
            .spawn(move || worker_shared.run_worker())
            .expect("spawn persist writer");

        Ok((
            Self {
                shared,
                worker: Some(worker),
            },
            recovered,
        ))
    }

    /// Durably logs one update batch **before** the caller applies it:
    /// returns the assigned sequence number only after fsync. Must be
    /// called while holding the dataset's stream lock so log order
    /// equals apply order.
    pub fn log_batch(&self, dataset: Dataset, ops: &[EdgeOp]) -> Result<u64, PersistError> {
        let seq = self
            .shared
            .wal
            .lock()
            .expect("wal lock")
            .append(dataset, ops)?;
        self.shared.op_ticks.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Enqueues an entry snapshot write (background).
    pub fn save_entry(&self, key: PrepKey, prep: Arc<PreprocessResult>, triangles: Option<u64>) {
        self.shared.enqueue(Job::WriteEntry {
            key,
            prep,
            triangles,
        });
    }

    /// Enqueues deletion of one entry snapshot (background).
    pub fn delete_entry(&self, key: PrepKey) {
        self.shared.enqueue(Job::DeleteEntry(key));
    }

    /// Enqueues deletion of every entry snapshot of `dataset`
    /// (background; the dataset mutated, so they are all stale).
    pub fn delete_dataset_entries(&self, dataset: Dataset) {
        self.shared.enqueue(Job::DeleteDatasetEntries(dataset));
    }

    /// Enqueues a stream snapshot write (background). Once it lands,
    /// WAL segments it fully covers are collected.
    pub fn save_stream(&self, rec: StreamRecord) {
        self.shared.enqueue(Job::WriteStream(Box::new(rec)));
    }

    /// Blocks until every enqueued job has been processed.
    pub fn flush(&self) {
        let mut q = self.shared.queue.lock().expect("persist queue");
        while !q.0.is_empty() || q.1 {
            q = self.shared.cond.wait(q).expect("persist queue");
        }
    }

    /// Point-in-time persistence figures.
    pub fn stats(&self) -> Result<PersistStats, PersistError> {
        let wal = self.shared.wal.lock().expect("wal lock").stats()?;
        let snapshots = self.shared.snap.stats()?;
        let ticks = self.shared.op_ticks.load(Ordering::Relaxed);
        let last = self.shared.last_snapshot_tick.load(Ordering::Relaxed);
        Ok(PersistStats {
            wal,
            snapshots,
            snapshots_written: self.shared.snapshots_written.load(Ordering::Relaxed),
            snapshot_failures: self.shared.snapshot_failures.load(Ordering::Relaxed),
            op_ticks: ticks,
            last_snapshot_age_ticks: ticks.saturating_sub(last),
        })
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.shared.enqueue(Job::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::PrepKey;
    use std::path::PathBuf;
    use tc_core::{DirectionScheme, OrderingScheme, Preprocessor};
    use tc_stream::DynamicGraph;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tc-persist-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &PathBuf) -> PersistConfig {
        PersistConfig::new(dir)
    }

    fn sample_key() -> PrepKey {
        PrepKey {
            dataset: Dataset::EmailEucore,
            direction: DirectionScheme::ADirection,
            ordering: OrderingScheme::AOrder,
            bucket_size: 64,
        }
    }

    #[test]
    fn warm_restart_recovers_entries_and_streams() {
        let dir = tmp("warm");
        let ds = Dataset::EmailEucore;
        let key = PrepKey {
            dataset: Dataset::Gowalla,
            ..sample_key()
        };
        let expected_triangles;
        {
            let (store, recovered) = Store::open(cfg(&dir)).expect("open");
            assert!(recovered.entries.is_empty() && recovered.streams.is_empty());

            // An entry for one dataset, a logged-and-applied stream for
            // another.
            let g = tc_datasets::load(key.dataset);
            let prep = Arc::new(Preprocessor::new().run(&g));
            store.save_entry(key, Arc::clone(&prep), Some(123));

            let mut live = DynamicGraph::new(tc_datasets::load(ds));
            let ops = vec![tc_stream::EdgeOp::Delete(
                tc_datasets::load(ds).edges().next().unwrap().0,
                tc_datasets::load(ds).edges().next().unwrap().1,
            )];
            let seq = store.log_batch(ds, &ops).expect("log");
            live.apply_batch(&ops);
            expected_triangles = live.triangles();
            store.save_stream(StreamRecord {
                dataset: ds,
                last_seq: seq,
                snapshot: live.snapshot(),
            });
            store.flush();
            let stats = store.stats().expect("stats");
            assert_eq!(stats.snapshots_written, 1);
            assert_eq!(stats.op_ticks, 1);
            assert_eq!(stats.last_snapshot_age_ticks, 0);
        }
        // Restart.
        let (store, recovered) = Store::open(cfg(&dir)).expect("reopen");
        assert_eq!(recovered.entries.len(), 1);
        assert_eq!(recovered.entries[0].key, key);
        assert_eq!(recovered.entries[0].triangles, Some(123));
        assert_eq!(recovered.streams.len(), 1);
        assert_eq!(recovered.streams[0].graph.triangles(), expected_triangles);
        assert_eq!(recovered.report.entries_loaded, 1);
        assert_eq!(recovered.report.streams_from_snapshot, 1);
        // Fresh appends continue above everything durable.
        let next = store.log_batch(ds, &[]).expect("log");
        assert!(next > recovered.streams[0].applied_seq);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_without_apply_is_replayed_on_recovery() {
        // The crash window the WAL exists for: a batch fsync'd but the
        // process died before (or during) the in-memory apply.
        let dir = tmp("crashwindow");
        let ds = Dataset::EmailEucore;
        let g = tc_datasets::load(ds);
        let (u, v) = g.edges().next().expect("has edges");

        let mut replica = DynamicGraph::new(g.clone());

        {
            let (store, _) = Store::open(cfg(&dir)).expect("open");
            store
                .log_batch(ds, &[tc_stream::EdgeOp::Delete(u, v)])
                .expect("log");
            // Crash: never applied, never snapshotted.
        }
        replica.apply_batch(&[tc_stream::EdgeOp::Delete(u, v)]);

        let (_store, recovered) = Store::open(cfg(&dir)).expect("recover");
        assert_eq!(recovered.report.streams_from_wal, 1);
        assert_eq!(recovered.report.wal_records_replayed, 1);
        let s = &recovered.streams[0];
        assert_eq!(s.graph.triangles(), replica.triangles());
        assert_eq!(s.graph.counters(), replica.counters());
        assert_eq!(s.graph.materialize(), replica.materialize());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_failures_are_counted_not_fatal() {
        let dir = tmp("failures");
        let (store, _) = Store::open(cfg(&dir)).expect("open");
        // Deleting a never-written entry is fine; a write into a
        // directory we then remove is the failure path.
        store.delete_entry(sample_key());
        store.flush();
        assert_eq!(store.stats().unwrap().snapshot_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
