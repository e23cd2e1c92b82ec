//! The TCP server: acceptor, per-connection reader threads, and a
//! shard-per-core engine — each shard owns a bounded job queue with
//! admission control, its worker threads, and its slice of every piece
//! of mutable state (registry, streams, analytics, subscriptions).
//!
//! ```text
//!             ┌─▶ shard 0: bounded queue ─▶ workers ─▶ registry slice ─┐
//!  conn 0 ──┐ │                                                        │
//!  conn 1 ──┼─┤   hash(dataset) routing on the reader thread           ├─▶ response
//!  conn N ──┘ │                                                        │   channels
//!             └─▶ shard K: bounded queue ─▶ workers ─▶ registry slice ─┘
//! ```
//!
//! Datasets are partitioned across shards by a stable hash of the
//! dataset name ([`crate::registry::shard_of`]); a request for dataset
//! D is enqueued *directly onto shard(D)'s queue by the connection's
//! reader thread*, and from admission to response it acquires only
//! shard(D)-local locks — there is no global job queue and no shared
//! registry mutex on the query path, so throughput scales with cores
//! instead of serializing on one Mutex/Condvar pair (the TRUST-style
//! shared-nothing partitioning the ROADMAP names as the serving north
//! star). Admin ops that must see every shard (`stats`, `snapshot`, bare
//! `evict`…) fan out and join in the [`Engine`].
//!
//! Each shard's queue hands out a dataset's requests in admission order:
//! an `update` or `subscribe` runs alone, after every earlier request for
//! its dataset and before every later one, while the reads between two
//! such writes run side by side on any of the shard's workers. So the
//! registry never sees a read overlap a write of the same dataset, and
//! pipelined requests take effect in the order they were sent. Each job
//! goes to the lowest-numbered free worker of its shard, so a shard with
//! fewer jobs in flight than workers runs them all on its first few
//! workers, and the rest stay parked without touching memory.
//!
//! Each shard's bounded queue is the *admission control* — a full queue
//! answers `overloaded` immediately instead of queueing unbounded
//! latency, and a request that waited past its deadline is answered
//! `deadline_exceeded` without executing. Connections are **pipelined**:
//! a reader thread routes every arriving line to its shard immediately
//! (a client may write many requests before reading any response),
//! while the connection's writer resolves responses in submission order
//! — so requests from one connection run concurrently across shards,
//! yet answers always come back in request order, with subscription
//! push frames interleaved between (never inside) them.
//!
//! # Shutdown
//!
//! `ServerHandle::shutdown()` (or a client `shutdown` op) drains rather
//! than aborts: stop accepting connections, close every shard's queue
//! (new submissions get `shutting_down`), let each shard's workers
//! finish every job already admitted, then unblock connection readers
//! and join every thread. In-flight requests always receive their
//! responses.

use crate::exec::{Engine, ServerInfo, Shard};
use crate::json::Json;
use crate::metrics::{RouterMetrics, ServiceMetrics};
use crate::protocol::{
    error_response, ok_response, parse_request, write_line, ErrorKind, Op, Request, ServiceError,
};
use crate::registry::{shard_of, GraphRegistry};
use crate::subs::SubscriptionRegistry;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tc_core::model::{calibrate, ModelParams};
use tc_datasets::Dataset;
use tc_gpusim::GpuConfig;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Shards the engine is partitioned into (each owns its queue,
    /// workers, registry slice, and subscriptions).
    /// Defaults to `available_parallelism`, clamped ≥ 1; values are
    /// clamped ≥ 1 at spawn.
    pub shards: usize,
    /// Worker threads executing queries, **per shard**.
    pub workers: usize,
    /// Bounded request-queue capacity (admission control), **per
    /// shard**.
    pub queue_capacity: usize,
    /// Default per-query deadline (a request may override with
    /// `deadline_ms`); measured from enqueue to execution start.
    pub default_deadline: Duration,
    /// Registry byte budget for preprocessed variants, for the whole
    /// server — divided evenly across the shards' registries.
    pub registry_budget: usize,
    /// The GPU model `simulate` queries run on.
    pub gpu: GpuConfig,
    /// Durable state directory. `None` (the default) runs fully
    /// in-memory; `Some(dir)` enables entry snapshots, the update WAL,
    /// and startup recovery from whatever `dir` already holds. The
    /// store is opened once and shared by every shard (the on-disk
    /// layout is shard-count-independent, so a server may restart with
    /// a different shard count and recovery still routes every dataset
    /// to its new owner).
    pub persist_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(30),
            registry_budget: 256 << 20,
            gpu: GpuConfig::titan_xp_like(),
            persist_dir: None,
        }
    }
}

/// The identity a worker needs to attach a subscription to the
/// connection that asked for it: a process-unique id plus the
/// connection's ordered output channel (shared with its writer).
#[derive(Clone)]
pub(crate) struct ConnContext {
    /// Process-unique connection id.
    pub(crate) conn_id: u64,
    /// The connection's ordered output queue; push frames enter here as
    /// already-resolved lines.
    pub(crate) out: mpsc::Sender<Pending>,
}

/// One queued request: the parsed envelope plus the channel its
/// response line travels back on.
struct Job {
    request: Request,
    id: Option<Json>,
    enqueued: Instant,
    deadline: Duration,
    respond: mpsc::Sender<String>,
    /// The submitting connection, for ops that bind state to it
    /// (`subscribe`/`unsubscribe`). `None` for in-process execution.
    ctx: Option<ConnContext>,
}

/// Bounded MPMC job queue that hands out each dataset's jobs in
/// admission order, each to the lowest-numbered free worker. `push`
/// never blocks — admission control means rejecting loudly, not waiting
/// quietly.
///
/// A job that [mutates](Request::mutates) its dataset runs alone: after
/// every earlier job of the dataset has finished and before any later
/// one starts. The reads between two writes run at the same time, on any
/// worker, and jobs with no dataset are never held back. A worker takes
/// the first job in admission order that this rule lets start, so jobs
/// of other datasets pass a held one.
///
/// Every job that may start is handed to one worker, which is woken on
/// its own slot: the lowest-numbered free one, or, for the jobs a
/// finishing job unblocks, the finishing worker first. A worker is free
/// from the moment its job has its answer, so a job that arrives while
/// the last one finishes goes back to the same worker. With fewer jobs
/// in flight than workers, the higher-numbered workers stay parked and
/// never touch memory, so their allocator arenas stay empty.
struct JobQueue {
    state: Mutex<QueueState>,
    /// One wake slot per worker, all paired with `state`.
    slots: Vec<Condvar>,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Datasets with jobs running, and what those jobs are.
    running: HashMap<Dataset, Running>,
    /// Each worker's part in the hand-out, by worker number.
    workers: Vec<Worker>,
    /// Jobs that may start but have no woken worker yet, because no
    /// worker was free. Each job that may start is either handed to a
    /// `Woken` worker or counted here, and jobs wait here only while no
    /// worker is free.
    unclaimed: usize,
    closed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Running {
    /// This many reads.
    Reads(usize),
    /// One write.
    Write,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Worker {
    /// Running a job whose answer is not ready, or gone after a panic.
    Busy,
    /// Its job has answered: parked in `pop`, or on its way back there.
    Free,
    /// Handed a job; takes one that may start at its next `pop`.
    Woken,
}

/// Why a push was refused.
enum PushError {
    /// Queue at capacity.
    Full,
    /// Queue closed for shutdown.
    Closed,
}

impl QueueState {
    /// Whether queued job `i` may start now: a read once no write of
    /// its dataset runs or waits ahead of it, a write once nothing of
    /// its dataset runs or waits ahead of it.
    fn may_start(&self, i: usize) -> bool {
        let job = &self.jobs[i].request;
        let Some(dataset) = job.dataset() else {
            return true;
        };
        let mut ahead = self
            .jobs
            .iter()
            .take(i)
            .filter(|j| j.request.dataset() == Some(dataset));
        if job.mutates() {
            !self.running.contains_key(&dataset) && ahead.next().is_none()
        } else {
            self.running.get(&dataset) != Some(&Running::Write)
                && !ahead.any(|j| j.request.mutates())
        }
    }

    /// Removes the first job that may start and records it as running.
    fn take(&mut self) -> Option<Job> {
        let i = (0..self.jobs.len()).find(|&i| self.may_start(i))?;
        let job = self.jobs.remove(i).expect("index in range");
        if let Some(dataset) = job.request.dataset() {
            let running = self.running.entry(dataset).or_insert(Running::Reads(0));
            *running = match *running {
                _ if job.request.mutates() => Running::Write,
                Running::Reads(n) => Running::Reads(n + 1),
                Running::Write => unreachable!("a write runs alone"),
            };
        }
        Some(job)
    }

    /// Records that one job of `dataset` finished; returns how many
    /// queued jobs that lets start.
    fn release(&mut self, dataset: Dataset) -> usize {
        let finished = match self.running.get_mut(&dataset) {
            Some(Running::Reads(n)) if *n > 1 => {
                *n -= 1;
                return 0;
            }
            _ => self.running.remove(&dataset),
        };
        let mut queued = self
            .jobs
            .iter()
            .filter(|j| j.request.dataset() == Some(dataset));
        match queued.next() {
            None => 0,
            Some(j) if j.request.mutates() => 1,
            // Reads queued behind a running read could start already.
            Some(_) if finished != Some(Running::Write) => 0,
            Some(_) => 1 + queued.take_while(|j| !j.request.mutates()).count(),
        }
    }
}

/// A running job's hold on its dataset. Dropping it — when the job
/// finishes, or when its worker unwinds from a panic — lets the
/// dataset's next jobs start, so a failed job cannot wedge its dataset.
struct Claim<'q> {
    queue: &'q JobQueue,
    worker: usize,
    dataset: Option<Dataset>,
}

impl Claim<'_> {
    /// Marks the worker free once its job has its answer, before the
    /// answer is sent: a job pushed from here on may be handed back to
    /// this worker, which takes it when it returns to `pop`.
    fn answered(&self) {
        let mut st = self.queue.state.lock().expect("queue lock");
        st.workers[self.worker] = Worker::Free;
        self.queue.hand_out(&mut st, Some(self.worker));
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let Some(dataset) = self.dataset else {
            return;
        };
        // Every update of the queue state leaves it whole, so a poisoned
        // lock still guards valid data.
        let mut st = self.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        st.unclaimed += st.release(dataset);
        // The finishing worker takes one of the jobs it unblocked itself,
        // if it is still free; the rest go to the lowest-numbered free
        // workers. A worker unwinding from a panic never answered, stays
        // busy and is never handed a job again.
        self.queue.hand_out(&mut st, Some(self.worker));
    }
}

impl JobQueue {
    fn new(capacity: usize, workers: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                running: HashMap::new(),
                workers: vec![Worker::Free; workers],
                unclaimed: 0,
                closed: false,
            }),
            slots: (0..workers).map(|_| Condvar::new()).collect(),
            capacity,
        }
    }

    /// Hands each unclaimed job to a free worker — `first` if it is
    /// free, then the lowest-numbered — and wakes it on its slot.
    /// `first` is the calling worker, which is not parked.
    fn hand_out(&self, st: &mut QueueState, first: Option<usize>) {
        while st.unclaimed > 0 {
            let next = first
                .filter(|&w| st.workers[w] == Worker::Free)
                .or_else(|| st.workers.iter().position(|&w| w == Worker::Free));
            let Some(worker) = next else {
                return;
            };
            st.workers[worker] = Worker::Woken;
            st.unclaimed -= 1;
            if Some(worker) != first {
                self.slots[worker].notify_one();
            }
        }
    }

    /// On rejection the job is dropped (its response channel included —
    /// the submitter has not started waiting yet).
    fn push(&self, job: Job) -> Result<(), PushError> {
        let mut st = self.state.lock().expect("queue lock");
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        st.jobs.push_back(job);
        if st.may_start(st.jobs.len() - 1) {
            st.unclaimed += 1;
            self.hand_out(&mut st, None);
        }
        Ok(())
    }

    /// Blocks until `worker` is handed a job, and returns that job with
    /// the claim that releases its dataset; `None` once the queue is
    /// closed *and* drained — the worker-exit condition that makes
    /// shutdown lossless.
    fn pop(&self, worker: usize) -> Option<(Job, Claim<'_>)> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.workers[worker] == Worker::Woken {
                let job = st
                    .take()
                    .expect("a woken worker has a job that may start waiting for it");
                st.workers[worker] = Worker::Busy;
                if st.closed && st.jobs.is_empty() {
                    // Workers waiting on held jobs can exit now.
                    self.slots.iter().for_each(Condvar::notify_one);
                }
                let dataset = job.request.dataset();
                return Some((
                    job,
                    Claim {
                        queue: self,
                        worker,
                        dataset,
                    },
                ));
            }
            if st.closed && st.jobs.is_empty() {
                return None;
            }
            st = self.slots[worker].wait(st).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.slots.iter().for_each(Condvar::notify_one);
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    engine: Arc<Engine>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The sharded engine (shared with the running threads): per-shard
    /// state plus the router-level counters.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Requests a graceful drain and waits for every thread to exit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Waits for the server to exit on its own (e.g. after a client
    /// issued the `shutdown` op) without initiating a drain here.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Calibrated model parameters for a GPU, memoized process-wide. The
/// sweep is deterministic per configuration and takes about 30 ms in
/// release builds (about 0.5 s in debug), but test suites spawn hundreds
/// of servers in one process, and the memo pays that once per GPU config
/// instead of once per server. The cache stays tiny (one entry per
/// distinct GPU config ever served).
fn calibrated_params(gpu: &GpuConfig) -> ModelParams {
    static CACHE: Mutex<Vec<(GpuConfig, ModelParams)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().expect("calibration cache lock");
    if let Some((_, params)) = cache.iter().find(|(g, _)| g == gpu) {
        return params.clone();
    }
    let params = calibrate(gpu).params;
    cache.push((gpu.clone(), params.clone()));
    params
}

/// Spawns a server with the given configuration; returns once the
/// listener is bound (queries may be issued immediately).
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shard_count = config.shards.max(1);
    let params = calibrated_params(&config.gpu);

    // Recovery happens before the first connection is accepted: by the
    // time `spawn` returns, every shard's registry already holds its
    // datasets' snapshot entries and WAL-replayed streams. The store is
    // opened once (shard-count-independent on-disk layout) and shared.
    let (store, recovered) = match &config.persist_dir {
        Some(dir) => {
            let (store, recovered) = tc_persist::Store::open(tc_persist::PersistConfig::new(dir))
                .map_err(|e| {
                std::io::Error::other(format!("persistence recovery failed: {e}"))
            })?;
            (Some(Arc::new(store)), Some(recovered))
        }
        None => (None, None),
    };

    // Partition the recovered state per owning shard: the shard hash is
    // a pure function of the dataset name, so every recovered stream and
    // entry lands on the shard that will serve it — even if the server
    // restarted with a different shard count.
    let recovery = recovered.as_ref().map(|r| r.report.clone());
    let mut per_shard_recovered: Vec<Option<tc_persist::Recovered>> = match recovered {
        Some(r) => {
            let mut parts: Vec<tc_persist::Recovered> = (0..shard_count)
                .map(|_| tc_persist::Recovered {
                    entries: Vec::new(),
                    stale_entries: Vec::new(),
                    streams: Vec::new(),
                    report: r.report.clone(),
                })
                .collect();
            for stream in r.streams {
                parts[shard_of(stream.dataset, shard_count)]
                    .streams
                    .push(stream);
            }
            for entry in r.entries {
                parts[shard_of(entry.key.dataset, shard_count)]
                    .entries
                    .push(entry);
            }
            parts.into_iter().map(Some).collect()
        }
        None => (0..shard_count).map(|_| None).collect(),
    };

    // Per-shard state: registry slice (budget split evenly, with the
    // remainder spread over the first shards), metrics, and
    // subscription slice. Only the persistence store and the
    // subscription-id counter are shared — neither sits on a query path.
    let sub_ids = Arc::new(AtomicU64::new(0));
    let budget_base = config.registry_budget / shard_count;
    let budget_extra = config.registry_budget % shard_count;
    let mut shards = Vec::with_capacity(shard_count);
    for (shard, recovered_part) in per_shard_recovered.iter_mut().enumerate() {
        let budget = budget_base + usize::from(shard < budget_extra);
        let registry = GraphRegistry::with_persistence(budget, params.clone(), store.clone());
        if let Some(rec) = recovered_part.take() {
            registry.install_recovered(rec);
        }
        shards.push(Shard {
            registry,
            metrics: ServiceMetrics::new(config.workers.max(1)),
            subs: SubscriptionRegistry::with_shared_ids(Arc::clone(&sub_ids)),
        });
    }
    let engine = Arc::new(Engine {
        shards,
        gpu: config.gpu.clone(),
        info: ServerInfo {
            shards: shard_count,
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            default_deadline_ms: config.default_deadline.as_millis() as u64,
        },
        started: Instant::now(),
        recovery,
        router: RouterMetrics::default(),
    });
    let shutdown = Arc::new(AtomicBool::new(false));

    let handle_shutdown = Arc::clone(&shutdown);
    let handle_engine = Arc::clone(&engine);
    let thread = std::thread::Builder::new()
        .name("tc-service-acceptor".into())
        .spawn(move || serve(listener, config, engine, shutdown))?;

    Ok(ServerHandle {
        addr,
        shutdown: handle_shutdown,
        thread: Some(thread),
        engine: handle_engine,
    })
}

/// The acceptor loop plus the drain procedure. Runs on the dedicated
/// server thread; exits only when fully drained.
fn serve(
    listener: TcpListener,
    config: ServerConfig,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
) {
    let default_deadline = config.default_deadline;

    // One bounded queue and one worker pool per shard — a connection
    // reader enqueues directly onto the owning shard's queue, so two
    // requests for datasets on different shards never touch the same
    // lock from admission to response.
    let worker_count = engine.info.workers;
    let queues: Arc<Vec<Arc<JobQueue>>> = Arc::new(
        (0..engine.shards.len())
            .map(|_| Arc::new(JobQueue::new(engine.info.queue_capacity, worker_count)))
            .collect(),
    );
    let mut workers = Vec::new();
    for shard in 0..engine.shards.len() {
        for i in 0..worker_count {
            let queue = Arc::clone(&queues[shard]);
            let engine = Arc::clone(&engine);
            let t = std::thread::Builder::new()
                .name(format!("tc-shard{shard}-worker-{i}"))
                .spawn(move || worker_loop(&queue, &engine, shard, i))
                .expect("spawn worker");
            workers.push(t);
        }
    }

    // Accept loop: non-blocking accept polled alongside the shutdown
    // flag, so a drain request is noticed within a few milliseconds.
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Request/response lines are small; without TCP_NODELAY
                // each response can stall ~40ms in Nagle's buffer waiting
                // for the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                engine.router.connections.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    streams.lock().expect("streams lock").push(clone);
                }
                let queues = Arc::clone(&queues);
                let engine = Arc::clone(&engine);
                let shutdown = Arc::clone(&shutdown);
                let t = std::thread::Builder::new()
                    .name("tc-service-conn".into())
                    .spawn(move || {
                        connection_loop(stream, queues, engine, shutdown, default_deadline)
                    })
                    .expect("spawn connection thread");
                conns.push(t);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }

    // Drain: close every shard's queue (submissions now answer
    // `shutting_down`), let each shard's workers finish everything
    // already admitted, then unblock the connection readers and join
    // them.
    for queue in queues.iter() {
        queue.close();
    }
    for t in workers {
        let _ = t.join();
    }
    // With the workers joined no batch can still be applying, so this
    // final snapshot captures the exact served state; the next startup
    // warm-loads it without replaying the (now fully covered) WAL.
    for shard in &engine.shards {
        if shard.registry.store().is_some() {
            let _ = shard.registry.snapshot_now();
        }
    }
    // Read-side only: blocked readers wake with EOF, while responses the
    // connection threads are still writing go out on the intact write side.
    for stream in streams.lock().expect("streams lock").iter() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for t in conns {
        let _ = t.join();
    }
    drop(listener);
}

/// Worker `worker` of `shard`: pops the jobs its shard's queue hands
/// it, enforces deadlines, executes against shard-local state, records
/// shard-local metrics.
fn worker_loop(queue: &JobQueue, engine: &Engine, shard: usize, worker: usize) {
    let metrics = &engine.shards[shard].metrics;
    while let Some((job, claim)) = queue.pop(worker) {
        metrics.queue_left();
        let op = job.request.op();
        let waited = job.enqueued.elapsed();
        let ctx = job.ctx;
        let line = if waited > job.deadline {
            metrics.expired_deadline.fetch_add(1, Ordering::Relaxed);
            let err = ServiceError::new(
                ErrorKind::DeadlineExceeded,
                format!(
                    "request waited {}ms in queue, past its {}ms deadline",
                    waited.as_millis(),
                    job.deadline.as_millis()
                ),
            );
            metrics.record_completion(op, waited.as_micros() as u64, true);
            error_response(job.id.as_ref(), Some(op), &err)
        } else {
            let result = engine.execute_conn(&job.request, ctx.as_ref());
            let latency_us = job.enqueued.elapsed().as_micros() as u64;
            match result {
                Ok(payload) => {
                    metrics.record_completion(op, latency_us, false);
                    ok_response(job.id.as_ref(), op, payload)
                }
                Err(err) => {
                    metrics.record_completion(op, latency_us, true);
                    error_response(job.id.as_ref(), Some(op), &err)
                }
            }
        };
        metrics.worker_ran(worker);
        claim.answered();
        // A dead connection just means nobody reads the response.
        let _ = job.respond.send(line);
        // The dataset's next jobs start once this one has answered.
        drop(claim);
    }
}

/// One entry in a connection's ordered output queue: a response line
/// owed to the client (in submission order) or an already-rendered push
/// frame from a subscription.
pub(crate) enum Pending {
    /// Resolved at routing time: parse error, admission rejection, or a
    /// shutdown acknowledgement.
    Ready(String),
    /// Admitted to the worker pool; the response arrives on `rx`.
    Waiting {
        rx: mpsc::Receiver<String>,
        id: Option<Json>,
        op: Op,
    },
}

/// Connection threads: a reader that parses and routes every line *as it
/// arrives* — so a client writing several requests back-to-back has all
/// of them in the worker pool at once — and a writer (this thread) that
/// resolves the routed requests in submission order. Responses therefore
/// come back in request order even when the pool executes them out of
/// order, which is the pipelining contract the protocol documents.
fn connection_loop(
    stream: TcpStream,
    queues: Arc<Vec<Arc<JobQueue>>>,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    default_deadline: Duration,
) {
    static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);
    let conn_id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let (tx, rx) = mpsc::channel::<Pending>();
    let ctx = ConnContext {
        conn_id,
        out: tx.clone(),
    };
    let reader_thread = std::thread::Builder::new()
        .name("tc-service-conn-read".into())
        .spawn(move || {
            let reader = BufReader::new(read_half);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let pending =
                    route_line(&line, &queues, &engine, &shutdown, default_deadline, &ctx);
                if tx.send(pending).is_err() {
                    break; // writer died; stop reading
                }
            }
            // Disconnect cleanup: a connection's subscriptions may live on
            // any shard (wherever its watched datasets hash), so the drop
            // fans out. This also drops the registries' clones of `tx`,
            // which (with ours, dropped here) lets the writer drain what
            // is owed and exit.
            for shard in &engine.shards {
                shard.subs.drop_connection(conn_id);
            }
        });
    let Ok(reader_thread) = reader_thread else {
        return;
    };

    for pending in rx {
        let line = match pending {
            Pending::Ready(line) => line,
            Pending::Waiting { rx, id, op } => rx.recv().unwrap_or_else(|_| {
                // Worker dropped the sender without responding — only
                // possible if it panicked mid-execution.
                let err = ServiceError::new(ErrorKind::Failed, "query execution failed");
                error_response(id.as_ref(), Some(op), &err)
            }),
        };
        if write_line(&mut writer, &line).is_err() {
            break;
        }
    }
    let _ = reader_thread.join();
}

/// Parses and routes one request line to the owning shard's queue.
/// Admission (or synchronous rejection) happens here, on the reader
/// thread; the response is produced later, in order, by the
/// connection's writer. One shard's full queue rejects only requests
/// bound for *that* shard — traffic to other shards is admitted
/// untouched.
fn route_line(
    line: &str,
    queues: &[Arc<JobQueue>],
    engine: &Engine,
    shutdown: &AtomicBool,
    default_deadline: Duration,
    ctx: &ConnContext,
) -> Pending {
    let envelope = match parse_request(line) {
        Ok(env) => env,
        Err(err) => {
            engine.router.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Pending::Ready(error_response(None, None, &err));
        }
    };

    // Shutdown is handled here, not by a worker: acknowledge, then flip
    // the flag the acceptor polls. In-flight work still drains.
    if matches!(envelope.request, Request::Shutdown) {
        shutdown.store(true, Ordering::SeqCst);
        return Pending::Ready(ok_response(
            envelope.id.as_ref(),
            Op::Shutdown,
            vec![("draining".into(), Json::Bool(true))],
        ));
    }

    let op = envelope.request.op();
    let shard = engine.route(&envelope.request);
    let metrics = &engine.shards[shard].metrics;
    let queue = &queues[shard];
    let deadline = envelope
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(default_deadline);
    let (tx, rx) = mpsc::channel();
    let job = Job {
        request: envelope.request,
        id: envelope.id.clone(),
        enqueued: Instant::now(),
        deadline,
        respond: tx,
        ctx: Some(ctx.clone()),
    };
    metrics.queue_entered();
    match queue.push(job) {
        Ok(()) => Pending::Waiting {
            rx,
            id: envelope.id,
            op,
        },
        Err(reason) => {
            metrics.queue_left();
            let err = match reason {
                PushError::Full => {
                    metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                    ServiceError::new(
                        ErrorKind::Overloaded,
                        format!(
                            "shard {shard} request queue full ({} pending); retry later",
                            queue.capacity
                        ),
                    )
                }
                PushError::Closed => {
                    metrics.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                    ServiceError::new(ErrorKind::ShuttingDown, "server is draining")
                }
            };
            Pending::Ready(error_response(envelope.id.as_ref(), Some(op), &err))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Worker::{Busy, Free, Woken};

    const READ_A: &str = r#"{"op":"count","dataset":"email-Eucore"}"#;
    const WRITE_A: &str = r#"{"op":"update","dataset":"email-Eucore","edges":[[0,1]]}"#;
    const READ_B: &str = r#"{"op":"count","dataset":"gowalla"}"#;
    const PING: &str = r#"{"op":"ping"}"#;

    fn job(line: &str) -> Job {
        Job {
            request: parse_request(line).expect("valid request").request,
            id: None,
            enqueued: Instant::now(),
            deadline: Duration::from_secs(60),
            respond: mpsc::channel().0,
            ctx: None,
        }
    }

    fn state(lines: &[&str]) -> QueueState {
        QueueState {
            jobs: lines.iter().map(|line| job(line)).collect(),
            running: HashMap::new(),
            workers: Vec::new(),
            unclaimed: 0,
            closed: false,
        }
    }

    /// A four-worker queue holding `lines`.
    fn queue(lines: &[&str]) -> JobQueue {
        let q = JobQueue::new(8, 4);
        for line in lines {
            assert!(q.push(job(line)).is_ok());
        }
        q
    }

    impl QueueState {
        /// The hand-out invariant: every job that may start has its own
        /// woken worker or is counted unclaimed, and jobs stay unclaimed
        /// only while no worker is free.
        fn check_hand_out(&self) {
            let startable = (0..self.jobs.len()).filter(|&i| self.may_start(i)).count();
            let woken = self.workers.iter().filter(|&&w| w == Woken).count();
            assert_eq!(startable, woken + self.unclaimed, "{:?}", self.workers);
            assert!(
                self.unclaimed == 0 || !self.workers.contains(&Free),
                "a job waits unclaimed beside a free worker"
            );
        }
    }

    /// Each worker's state, once the hand-out invariant is checked.
    fn workers(q: &JobQueue) -> Vec<Worker> {
        let st = q.state.lock().expect("queue lock");
        st.check_hand_out();
        st.workers.clone()
    }

    /// Takes the job `worker` was handed; never blocks.
    fn pop_woken(q: &JobQueue, worker: usize) -> (Job, Claim<'_>) {
        assert_eq!(
            workers(q)[worker],
            Woken,
            "worker {worker} was handed nothing"
        );
        q.pop(worker).expect("a woken worker gets its job")
    }

    /// Answers a taken job and drops its claim, as a worker does.
    fn finish((_job, claim): (Job, Claim<'_>)) {
        claim.answered();
    }

    fn op_of(job: Option<Job>) -> Option<Op> {
        job.map(|j| j.request.op())
    }

    const A: Dataset = Dataset::EmailEucore;

    #[test]
    fn reads_of_one_dataset_start_together() {
        let mut st = state(&[READ_A, READ_A, READ_A]);
        for _ in 0..3 {
            assert_eq!(op_of(st.take()), Some(Op::Count));
        }
        assert_eq!(st.running.get(&A), Some(&Running::Reads(3)));
    }

    #[test]
    fn a_write_waits_for_running_reads_and_holds_back_later_reads() {
        let mut st = state(&[READ_A, WRITE_A, READ_A]);
        assert_eq!(op_of(st.take()), Some(Op::Count));
        assert!(st.take().is_none(), "the write waits for the read");
        assert_eq!(st.release(A), 1, "the read's end unblocks the write");
        assert_eq!(op_of(st.take()), Some(Op::Update));
        assert!(st.take().is_none(), "the later read waits for the write");
        assert_eq!(st.release(A), 1);
        assert_eq!(op_of(st.take()), Some(Op::Count));
        assert_eq!(st.release(A), 0);
        assert!(st.running.is_empty());
    }

    #[test]
    fn other_datasets_and_dataset_less_jobs_pass_a_held_dataset() {
        let mut st = state(&[WRITE_A, READ_A, READ_B, PING]);
        assert_eq!(op_of(st.take()), Some(Op::Update));
        let passed = st.take().expect("gowalla is not held");
        assert_eq!(passed.request.dataset(), Some(Dataset::Gowalla));
        assert_eq!(op_of(st.take()), Some(Op::Ping));
        assert!(st.take().is_none());
    }

    #[test]
    fn a_release_counts_only_the_jobs_it_unblocks() {
        let mut st = state(&[WRITE_A, READ_A, READ_A, WRITE_A, READ_A]);
        assert_eq!(op_of(st.take()), Some(Op::Update));
        assert_eq!(st.release(A), 2, "both reads before the next write");
        st.take();
        st.take();
        assert_eq!(st.release(A), 0, "one read still runs");
        assert_eq!(st.release(A), 1, "the second write");
        assert_eq!(op_of(st.take()), Some(Op::Update));
        assert_eq!(st.release(A), 1);
        assert_eq!(op_of(st.take()), Some(Op::Count));
        assert_eq!(st.release(A), 0, "nothing left queued");
    }

    #[test]
    fn a_push_wakes_the_lowest_numbered_free_worker() {
        let q = queue(&[READ_A]);
        assert_eq!(workers(&q), [Woken, Free, Free, Free]);
        q.push(job(READ_B)).unwrap_or_else(|_| panic!("admitted"));
        assert_eq!(workers(&q), [Woken, Woken, Free, Free]);
        let read_a = pop_woken(&q, 0);
        let _read_b = pop_woken(&q, 1);
        assert_eq!(workers(&q), [Busy, Busy, Free, Free]);
        q.push(job(WRITE_A)).unwrap_or_else(|_| panic!("admitted"));
        assert_eq!(
            workers(&q),
            [Busy, Busy, Free, Free],
            "a held job wakes no one"
        );
        finish(read_a);
        assert_eq!(
            workers(&q),
            [Woken, Busy, Free, Free],
            "the write goes back to 0"
        );
        q.push(job(PING)).unwrap_or_else(|_| panic!("admitted"));
        assert_eq!(workers(&q), [Woken, Busy, Woken, Free]);
    }

    #[test]
    fn an_answered_worker_is_chosen_before_a_higher_numbered_parked_one() {
        let q = queue(&[PING, PING]);
        let _first = pop_woken(&q, 0);
        let (second, claim) = pop_woken(&q, 1);
        // Worker 1 has its answer but has not come back to `pop`.
        claim.answered();
        assert_eq!(workers(&q), [Busy, Free, Free, Free]);
        q.push(job(READ_A)).unwrap_or_else(|_| panic!("admitted"));
        assert_eq!(workers(&q), [Busy, Woken, Free, Free]);
        drop((second, claim));
        let (third, _claim) = pop_woken(&q, 1);
        assert_eq!(third.request.op(), Op::Count);
    }

    #[test]
    fn a_release_that_unblocks_two_reads_wakes_exactly_one_other_worker() {
        let q = queue(&[WRITE_A, READ_A, READ_A]);
        assert_eq!(workers(&q), [Woken, Free, Free, Free], "the reads wait");
        let (write, claim) = pop_woken(&q, 0);
        claim.answered();
        assert_eq!(workers(&q), [Free, Free, Free, Free]);
        drop((write, claim));
        // The finishing worker takes one read itself and wakes the
        // lowest-numbered other worker for the second.
        assert_eq!(workers(&q), [Woken, Woken, Free, Free]);
        for worker in [0, 1] {
            let (read, _claim) = pop_woken(&q, worker);
            assert_eq!(read.request.op(), Op::Count);
        }

        // A finishing worker takes the job it unblocks itself, even when
        // a lower-numbered worker is free.
        let q = queue(&[PING, WRITE_A, READ_A]);
        let ping = pop_woken(&q, 0);
        let (write, claim) = pop_woken(&q, 1);
        finish(ping);
        claim.answered();
        drop((write, claim));
        assert_eq!(workers(&q), [Free, Woken, Free, Free]);

        // A finishing worker that a push has already handed a job wakes
        // one other worker per job it unblocks.
        let q = queue(&[WRITE_A, READ_A, READ_A]);
        let (write, claim) = pop_woken(&q, 0);
        claim.answered();
        q.push(job(PING)).unwrap_or_else(|_| panic!("admitted"));
        assert_eq!(workers(&q), [Woken, Free, Free, Free]);
        drop((write, claim));
        assert_eq!(workers(&q), [Woken, Woken, Woken, Free]);
    }

    #[test]
    fn a_dropped_claim_releases_its_dataset() {
        let q = queue(&[WRITE_A, READ_A]);
        let write = pop_woken(&q, 0);
        assert_eq!(workers(&q), [Busy, Free, Free, Free], "the read waits");
        finish(write);
        let (read, _claim) = pop_woken(&q, 0);
        assert_eq!(read.request.op(), Op::Count);
    }

    #[test]
    fn a_panicking_job_releases_its_dataset() {
        let q = queue(&[WRITE_A, READ_A]);
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let _claimed = pop_woken(&q, 0);
                panic!("the job fails while it holds its dataset");
            })
            .join()
        });
        assert!(worker.is_err());
        // Worker 0 is gone, so the read goes to the next worker.
        assert_eq!(workers(&q), [Busy, Woken, Free, Free]);
        let (read, _claim) = pop_woken(&q, 1);
        assert_eq!(read.request.op(), Op::Count);
    }

    #[test]
    fn a_closed_queue_still_drains_held_jobs() {
        let q = queue(&[WRITE_A, READ_A]);
        let write = pop_woken(&q, 0);
        q.close();
        assert!(matches!(q.push(job(READ_B)), Err(PushError::Closed)));
        assert_eq!(workers(&q), [Busy, Free, Free, Free], "the read is held");
        finish(write);
        let read = pop_woken(&q, 0);
        assert_eq!(read.0.request.op(), Op::Count);
        finish(read);
        for worker in 0..4 {
            assert!(q.pop(worker).is_none(), "closed and drained");
        }
    }

    /// Runs `f` on its own thread and fails if it has not finished within
    /// `limit`, so a lost wake-up fails the test instead of hanging it.
    fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("still blocked after {limit:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the run panicked"),
        }
    }

    #[test]
    fn close_wakes_every_parked_worker() {
        within(Duration::from_secs(30), || {
            let q = JobQueue::new(8, 4);
            let parked = std::sync::Barrier::new(5);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|worker| {
                        let (q, parked) = (&q, &parked);
                        s.spawn(move || {
                            parked.wait();
                            q.pop(worker).is_none()
                        })
                    })
                    .collect();
                parked.wait();
                // Whether a worker has parked yet or not, `close` must
                // reach it; waiting here only makes the parked case the
                // likely one.
                std::thread::sleep(Duration::from_millis(20));
                q.close();
                for h in handles {
                    assert!(h.join().expect("worker"), "a drained queue yields None");
                }
            });
        });
    }

    fn xorshift(x: &mut u32) -> u32 {
        *x ^= *x << 13;
        *x ^= *x >> 17;
        *x ^= *x << 5;
        *x
    }

    /// What the stress run's workers saw, by admission number.
    #[derive(Default)]
    struct Record {
        /// Each admitted job's dataset and whether it writes.
        admitted: Vec<(Option<Dataset>, bool)>,
        runs: Vec<u32>,
        finished: Vec<bool>,
        /// Per dataset: reads running, and whether a write runs.
        active: HashMap<Dataset, (usize, bool)>,
    }

    impl Record {
        fn start(&mut self, n: usize) {
            self.runs[n] += 1;
            let (Some(dataset), writes) = self.admitted[n] else {
                return;
            };
            let active = self.active.entry(dataset).or_default();
            assert!(!active.1, "job {n} overlaps a write of its dataset");
            if writes {
                assert_eq!(active.0, 0, "write {n} overlaps a read");
                active.1 = true;
            } else {
                active.0 += 1;
            }
            for (m, &(d, w)) in self.admitted.iter().enumerate() {
                if d != Some(dataset) || m == n {
                    continue;
                }
                if m < n && (w || writes) {
                    assert!(self.finished[m], "job {n} started before {m} finished");
                }
                if m > n && writes {
                    assert_eq!(self.runs[m], 0, "job {m} started before write {n}");
                }
            }
        }

        fn finish(&mut self, n: usize) {
            self.finished[n] = true;
            if let (Some(dataset), writes) = self.admitted[n] {
                let active = self.active.get_mut(&dataset).expect("started");
                if writes {
                    active.1 = false;
                } else {
                    active.0 -= 1;
                }
            }
        }
    }

    /// Four workers and three pushers run a random mix of reads, writes
    /// and dataset-less jobs over three datasets through a small queue.
    #[test]
    fn a_stress_run_hands_out_every_job_once_in_dataset_order() {
        const WORKERS: usize = 4;
        const PUSHERS: usize = 3;
        const PER_PUSHER: usize = 1000;
        within(Duration::from_secs(120), || {
            let q = JobQueue::new(6, WORKERS);
            let record = Mutex::new(Record::default());
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..WORKERS)
                    .map(|worker| {
                        let (q, record) = (&q, &record);
                        s.spawn(move || {
                            let mut rng = 0x9E37_79B9 ^ worker as u32;
                            while let Some((job, claim)) = q.pop(worker) {
                                q.state.lock().expect("queue lock").check_hand_out();
                                let n = job.id.as_ref().and_then(Json::as_u64).expect("id");
                                record.lock().expect("record").start(n as usize);
                                // A quarter of the jobs sleep up to 0.2 ms.
                                let r = xorshift(&mut rng);
                                if r & 3 == 0 {
                                    let us = u64::from(r % 200);
                                    std::thread::sleep(Duration::from_micros(us));
                                }
                                record.lock().expect("record").finish(n as usize);
                                claim.answered();
                            }
                        })
                    })
                    .collect();
                let datasets = ["email-Eucore", "gowalla", "email-Enron"];
                let pushers: Vec<_> = (0..PUSHERS)
                    .map(|pusher| {
                        let (q, record) = (&q, &record);
                        s.spawn(move || {
                            let mut rng = 0x2545_F491 ^ (7919 * (pusher as u32 + 1));
                            for _ in 0..PER_PUSHER {
                                let r = xorshift(&mut rng);
                                let dataset = datasets[r as usize % datasets.len()];
                                let line = match r / 8 % 10 {
                                    0..=4 => format!(r#"{{"op":"count","dataset":"{dataset}"}}"#),
                                    5..=7 => format!(
                                        r#"{{"op":"update","dataset":"{dataset}","edges":[[0,1]]}}"#
                                    ),
                                    _ => PING.to_string(),
                                };
                                loop {
                                    // Numbering under the record's lock makes
                                    // the numbers the admission order.
                                    let mut rec = record.lock().expect("record");
                                    let n = rec.admitted.len();
                                    let mut next = job(&line);
                                    next.id = Some(Json::Int(n as i64));
                                    let entry = (next.request.dataset(), next.request.mutates());
                                    match q.push(next) {
                                        Ok(()) => {
                                            rec.admitted.push(entry);
                                            rec.runs.push(0);
                                            rec.finished.push(false);
                                            break;
                                        }
                                        Err(PushError::Full) => {
                                            drop(rec);
                                            std::thread::yield_now();
                                        }
                                        Err(PushError::Closed) => unreachable!("open"),
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                for p in pushers {
                    p.join().expect("pusher");
                }
                q.close();
                for w in workers {
                    w.join().expect("worker");
                }
            });
            let record = record.into_inner().expect("record");
            assert_eq!(record.admitted.len(), PUSHERS * PER_PUSHER);
            assert!(
                record.runs.iter().all(|&r| r == 1),
                "every job runs exactly once"
            );
            let st = q.state.lock().expect("queue lock");
            assert!(st.jobs.is_empty() && st.running.is_empty());
            assert_eq!(st.workers, [Free; WORKERS]);
        });
    }
}
