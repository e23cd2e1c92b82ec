//! The TCP server: acceptor, per-connection reader threads, and a
//! shard-per-core engine — each shard owns a bounded job queue with
//! admission control, its worker threads, and its slice of every piece
//! of mutable state (registry, streams, analytics, subscriptions,
//! scratch pool).
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
//! shard(D)-local locks — there is no global job queue, no shared
//! registry mutex, and no shared scratch pool on the query path, so
//! throughput scales with cores instead of serializing on one
//! Mutex/Condvar pair (the TRUST-style shared-nothing partitioning the
//! ROADMAP names as the serving north star). Admin ops that must see
//! every shard (`stats`, `snapshot`, bare `evict`…) fan out and join in
//! the [`Engine`].
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

use crate::exec::{Engine, Executor, ServerInfo};
use crate::json::Json;
use crate::metrics::{RouterMetrics, ServiceMetrics};
use crate::protocol::{
    error_response, ok_response, parse_request, ErrorKind, Op, Request, ServiceError,
};
use crate::registry::{shard_of, GraphRegistry};
use crate::subs::SubscriptionRegistry;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tc_core::model::{calibrate, ModelParams};
use tc_gpusim::GpuConfig;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Shards the engine is partitioned into (each owns its queue,
    /// workers, registry slice, subscriptions, and scratch pool).
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
    /// Auto-snapshot a stream after this many logged update batches
    /// (only meaningful with `persist_dir`).
    pub snapshot_every_batches: u64,
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
            snapshot_every_batches: 32,
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

/// Bounded MPMC job queue. `push` never blocks — admission control means
/// rejecting loudly, not waiting quietly.
struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Why a push was refused.
enum PushError {
    /// Queue at capacity.
    Full,
    /// Queue closed for shutdown.
    Closed,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
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
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained — the worker-exit condition that makes shutdown lossless.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.available.wait(st).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
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
    /// executors plus the router-level counters.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// How many shards the engine was partitioned into.
    pub fn shards(&self) -> usize {
        self.engine.shards.len()
    }

    /// Shard `i`'s metrics (shared with that shard's workers).
    pub fn shard_metrics(&self, shard: usize) -> &Arc<ServiceMetrics> {
        &self.engine.shards[shard].metrics
    }

    /// Shard `i`'s registry slice (shared with that shard's workers).
    pub fn shard_registry(&self, shard: usize) -> &Arc<GraphRegistry> {
        &self.engine.shards[shard].registry
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
            let mut pcfg = tc_persist::PersistConfig::new(dir);
            pcfg.snapshot_every_batches = config.snapshot_every_batches;
            let (store, recovered) = tc_persist::Store::open(pcfg)
                .map_err(|e| std::io::Error::other(format!("persistence recovery failed: {e}")))?;
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

    // Per-shard executors: registry slice (budget split evenly, with the
    // remainder spread over the first shards), scratch pool, metrics,
    // and subscription slice. Only the persistence store and the
    // subscription-id counter are shared — neither sits on a query path.
    let sub_ids = Arc::new(AtomicU64::new(0));
    let budget_base = config.registry_budget / shard_count;
    let budget_extra = config.registry_budget % shard_count;
    let mut shards = Vec::with_capacity(shard_count);
    for (shard, recovered_part) in per_shard_recovered.iter_mut().enumerate() {
        let budget = budget_base + usize::from(shard < budget_extra);
        let registry = Arc::new(GraphRegistry::with_persistence(
            budget,
            params.clone(),
            store.clone(),
        ));
        if let Some(rec) = recovered_part.take() {
            registry.install_recovered(rec);
        }
        shards.push(Arc::new(Executor {
            shard,
            gpu: config.gpu.clone(),
            registry,
            metrics: Arc::new(ServiceMetrics::default()),
            scratch: Arc::new(tc_algos::engine::ScratchPool::new()),
            subs: Arc::new(SubscriptionRegistry::with_shared_ids(Arc::clone(&sub_ids))),
        }));
    }
    let engine = Arc::new(Engine {
        shards,
        info: ServerInfo {
            shards: shard_count,
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            default_deadline_ms: config.default_deadline.as_millis() as u64,
        },
        started: Instant::now(),
        recovery,
        router: Arc::new(RouterMetrics::default()),
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
    let queues: Arc<Vec<Arc<JobQueue>>> = Arc::new(
        (0..engine.shards.len())
            .map(|_| Arc::new(JobQueue::new(config.queue_capacity.max(1))))
            .collect(),
    );
    let mut workers = Vec::new();
    for shard in 0..engine.shards.len() {
        for i in 0..config.workers.max(1) {
            let queue = Arc::clone(&queues[shard]);
            let engine = Arc::clone(&engine);
            let t = std::thread::Builder::new()
                .name(format!("tc-shard{shard}-worker-{i}"))
                .spawn(move || worker_loop(&queue, &engine, shard))
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
    for executor in &engine.shards {
        if executor.registry.store().is_some() {
            let _ = executor.registry.snapshot_now();
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

/// Worker: pops jobs from its shard's queue, enforces deadlines,
/// executes against shard-local state, records shard-local metrics.
fn worker_loop(queue: &JobQueue, engine: &Engine, shard: usize) {
    let metrics = &engine.shards[shard].metrics;
    while let Some(job) = queue.pop() {
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
            let result = engine.execute_conn(shard, &job.request, ctx.as_ref());
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
        // A dead connection just means nobody reads the response.
        let _ = job.respond.send(line);
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
            for executor in &engine.shards {
                executor.subs.drop_connection(conn_id);
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
        if writer
            .write_all(line.as_bytes())
            .and_then(|_| writer.write_all(b"\n"))
            .is_err()
        {
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
