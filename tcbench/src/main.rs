//! `tcbench`: the workspace's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path tcbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One workload runs per process, so the memory high-water mark belongs
//! to it. A `tc-service` server runs in-process and is driven only over
//! its TCP wire protocol by two load threads. The run prints an
//! environment header, every metric as `name value unit`, and as its
//! last line one JSON object; it exits non-zero if any answer was wrong.
//! `--trace 1` replays the same seeded inputs and reports per-layer
//! metrics (latency and throughput among them) instead of end-to-end
//! ones. README.md describes the workloads and metrics.

mod check;
mod layers;
mod loadgen;
mod script;
mod stats;

use check::{Refs, Tally};
use loadgen::{Conn, Record};
use script::{Mix, Op, Req, Workload, PAPER};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tc_graph::CsrGraph;
use tc_service::json::{self, Json};
use tc_service::{ServerConfig, ServerHandle, ServiceClient};

const USAGE: &str = "usage: tcbench --workload <read-hot|write-mixed|prep-churn|repro-grid> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// How a workload offers its requests.
enum Load {
    /// Poisson arrivals at this many requests per second for
    /// [`OPEN_SHARE`] of the run, then a capacity phase.
    Open(f64),
    /// A fixed amount of closed-loop work: this many requests per second
    /// of `--seconds` at the seed commit's speed, so a faster or slower
    /// host changes the run's length, not what it measures (the memory
    /// high-water mark included).
    Closed(f64),
}

/// How a workload loads the server and cuts its measurements.
struct Plan {
    load: Load,
    /// Requests each connection keeps in flight in closed loop.
    window: usize,
    /// The quantile reported as `tail_ms`.
    tail_q: f64,
    /// Consecutive windows the measured requests are cut into: each
    /// latency metric is the median of its per-window values, so a
    /// burst of host noise inside one window cannot move it.
    windows: usize,
}

/// The frozen plan of each workload. The open-loop rates are a fifth of
/// the capacity the seed commit measured on a 2-vCPU x86-64 VM (read-hot
/// ≈ 4700 req/s, write-mixed ≈ 1070 req/s): the protocol answers in order
/// per connection, and at higher rates the waits behind slow requests
/// (clustering; counts that re-preprocess after an update) approach half
/// the requests, where p50 jumps between runs.
/// Every tail quantile leaves at least ten samples beyond it per window.
fn plan(w: Workload) -> Plan {
    match w {
        Workload::ReadHot => Plan {
            load: Load::Open(800.0),
            window: 8,
            tail_q: 0.99,
            windows: 5,
        },
        Workload::WriteMixed => Plan {
            load: Load::Open(200.0),
            window: 8,
            tail_q: 0.99,
            windows: 2,
        },
        // Every request is a multi-millisecond miss, so each client waits
        // for its answer before asking again (one in flight per
        // connection) instead of queueing behind its own requests.
        Workload::PrepChurn => Plan {
            load: Load::Closed(85.0),
            window: 1,
            tail_q: 0.95,
            windows: 5,
        },
        // One cell at a time, as the paper's pipeline runs them, in whole
        // passes of 24 cells (about 6.5 s each).
        Workload::ReproGrid => Plan {
            load: Load::Closed(24.0 / 6.5),
            window: 1,
            tail_q: 0.75,
            windows: 1,
        },
    }
}

/// Share of `--seconds` an open-loop workload spends at its fixed rate;
/// the rest measures capacity (`throughput`).
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// Windows a throughput phase is cut into (median of per-window rates).
const RATE_WINDOWS: u32 = 10;
/// Separate-process set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// prep-churn's registry budget: about a tenth of the bytes its 72
/// variants take at the seed commit (≈256 MB), so about 70 % of requests
/// miss. (A fifth gives a hit rate of about one half, which puts p50 on
/// the edge between a hit and a miss.)
const CHURN_BUDGET: usize = 24 << 20;
/// Where runs keep scratch state (removed at exit) and traced spans.
const WORK_DIR: &str = ".tcbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up one server, print `ready`, exit (`setup_s`).
    setup_probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 1.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_probe,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        if let Err(e) = setup_probe(&args) {
            eprintln!("tcbench setup probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(report) => {
            let correct = report.tally.failed == 0;
            report.print();
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("tcbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What a run prints.
#[derive(Default)]
struct Report {
    header: Vec<(String, String)>,
    /// Every measured number, printed as `name value unit`.
    lines: Vec<(String, f64, &'static str)>,
    /// The names that go into the final JSON object.
    reported: Vec<String>,
    tally: Tally,
}

impl Report {
    fn env(&mut self, key: &str, value: impl ToString) {
        self.header.push((key.into(), value.to_string()));
    }

    /// A number printed for the reader only.
    fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push((name.into(), value, unit));
    }

    /// A number that is also one of the benchmark's declared metrics.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.tally.gate(false, || format!("{name} is not a number"));
        }
        self.info(name, value, unit);
        self.reported.push(name.into());
    }

    fn print(&self) {
        let env: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("env {}", env.join(" "));
        for problem in &self.tally.problems {
            println!("problem {problem}");
        }
        for (name, value, unit) in &self.lines {
            println!("{name} {value} {unit}");
        }
        let metrics = self
            .lines
            .iter()
            .filter(|(name, ..)| self.reported.contains(name))
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.clone(),
                    json::obj(vec![
                        ("value", Json::Float(value)),
                        ("unit", json::s(*unit)),
                    ]),
                )
            })
            .collect();
        let out = json::obj(vec![
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", json::u(self.tally.attempted.max(1))),
            ("failed", json::u(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", out.to_string_compact());
    }
}

/// A scratch directory under [`WORK_DIR`], removed when dropped (with
/// [`WORK_DIR`] itself once nothing else is left in it).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> std::io::Result<TempDir> {
        let dir = Path::new(WORK_DIR).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// The server as deployed for `w`: defaults except the deployment
/// settings (address, durable directory, registry budget).
fn server_config(w: Workload, persist_dir: Option<PathBuf>) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        persist_dir,
        registry_budget: match w {
            Workload::PrepChurn => CHURN_BUDGET,
            // Every repro-grid cell pays its own preprocessing.
            Workload::ReproGrid => 0,
            _ => defaults.registry_budget,
        },
        ..defaults
    }
}

fn ok_payload(line: &str, response: &str) -> std::io::Result<Json> {
    json::parse(response)
        .ok()
        .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
        .ok_or_else(|| std::io::Error::other(format!("{line} -> {response}")))
}

const STATS: &str = r#"{"op":"stats"}"#;

/// The end-to-end metrics, in the order `BENCHMARK.json` declares them.
/// Latency and throughput are measured in every run too, but move with
/// the host's speed by more than any allowed bound, so they are declared
/// with the per-layer metrics (reported by `--trace 1`).
pub const END_TO_END: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Spawns the server for `w` and brings it to the state the measured
/// phase starts from: every dataset generated and its paper variant
/// counted (plus one recommend each on read-hot). Returns the counts.
fn set_up(w: Workload, persist: Option<PathBuf>) -> std::io::Result<(ServerHandle, Vec<u64>)> {
    let server = tc_service::spawn(server_config(w, persist))?;
    let mut client = ServiceClient::connect(server.addr())?;
    let mut counts = Vec::new();
    for &d in w.datasets() {
        let v = client.request_ok(&Req::new(d, Op::Count(PAPER)).line)?;
        counts.push(v.get("triangles").and_then(Json::as_u64).unwrap_or(0));
        if w == Workload::ReadHot {
            client.request_ok(&Req::new(d, Op::Recommend(0)).line)?;
        }
    }
    Ok((server, counts))
}

/// Write-mixed's push subscriptions, held by `conn`: per dataset, one
/// that fires whenever the count crosses its starting value and one
/// whenever vertex 0's clustering coefficient moves.
fn subscribe(conn: &mut Conn, w: Workload, counts: &[u64]) -> std::io::Result<()> {
    for (&d, &count) in w.datasets().iter().zip(counts) {
        for predicate in [
            format!(r#"{{"kind":"count-cross","threshold":{count}}}"#),
            r#"{"kind":"clustering-delta","vertex":0,"epsilon":0.0001}"#.to_string(),
        ] {
            let line = format!(
                r#"{{"op":"subscribe","dataset":"{}","predicate":{predicate}}}"#,
                d.name()
            );
            let response = conn.call(&line)?;
            ok_payload(&line, &response)?;
        }
    }
    Ok(())
}

/// The child side of `setup_s`: a fresh process sets up a server, says
/// `ready`, and exits.
fn setup_probe(args: &Args) -> std::io::Result<()> {
    let w = args.workload;
    let tmp = TempDir::new(&format!("{}-setup", w.name()))?;
    let persist = (w == Workload::WriteMixed).then(|| tmp.0.join("live"));
    let (server, counts) = set_up(w, persist)?;
    if w == Workload::WriteMixed {
        subscribe(
            &mut Conn::connect(server.addr(), Instant::now())?,
            w,
            &counts,
        )?;
    }
    println!("ready");
    std::io::stdout().flush()?;
    server.shutdown();
    Ok(())
}

/// `setup_s`: the median, over [`SETUP_REPS`] launches, of the wall time
/// from starting a fresh process to its server being ready. A fresh
/// process pays everything a real start pays, model calibration too.
fn measure_setup(args: &Args) -> std::io::Result<f64> {
    let exe = std::env::current_exe()?;
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--setup-probe"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let elapsed = start.elapsed();
        let status = child.wait()?;
        read?;
        if line.trim() != "ready" || !status.success() {
            return Err(std::io::Error::other(format!(
                "set-up probe failed ({status})"
            )));
        }
        times.push(elapsed.as_secs_f64());
    }
    Ok(stats::median(times))
}

/// The records of one measured phase, both connections together,
/// ordered by due time.
struct Phase {
    records: Vec<Record>,
    unanswered: usize,
}

impl Phase {
    fn collect(conns: &mut [Conn; 2]) -> Phase {
        let mut records = Vec::new();
        let mut unanswered = 0;
        for conn in conns.iter_mut() {
            records.append(&mut conn.done);
            unanswered += conn.take_unanswered().len();
        }
        records.sort_by_key(|r| r.due);
        Phase {
            records,
            unanswered,
        }
    }

    fn latencies_ms(&self, keep: impl Fn(&Req) -> bool) -> Vec<f64> {
        stats::sorted(
            self.records
                .iter()
                .filter(|r| keep(&r.req))
                .filter_map(Record::latency_ms),
        )
    }
}

/// Runs `work` on both connections at once, one thread each, with
/// offsets counted from a common start.
fn on_both<S: Send>(
    conns: &mut [Conn; 2],
    state: [S; 2],
    work: impl Fn(&mut Conn, S) -> std::io::Result<()> + Sync,
) -> std::io::Result<()> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let work = &work;
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(state)
            .map(|(conn, st)| {
                conn.rebase(start);
                s.spawn(move || work(conn, st))
            })
            .collect();
        threads
            .into_iter()
            .try_for_each(|t| t.join().expect("load thread panicked"))
    })
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The open-loop phase: Poisson arrivals at the workload's fixed rate.
fn open_phase(
    args: &Args,
    rate: f64,
    conns: &mut [Conn; 2],
    mixes: &mut [Mix<'_>; 2],
) -> std::io::Result<Phase> {
    let horizon = secs(args.seconds * OPEN_SHARE);
    let [m0, m1] = mixes;
    let plans = [
        script::schedule(m0, args.seed, 0, rate, horizon),
        script::schedule(m1, args.seed, 1, rate, horizon),
    ];
    on_both(conns, plans, |conn, plan| conn.open_loop(plan))?;
    Ok(Phase::collect(conns))
}

/// A closed-loop phase: each connection keeps `window` requests in
/// flight, continuing its stream, until `until` or until it has sent
/// `budget` requests.
fn closed_phase(
    until: Duration,
    budget: usize,
    window: usize,
    conns: &mut [Conn; 2],
    mixes: &mut [Mix<'_>; 2],
) -> std::io::Result<Phase> {
    let [m0, m1] = mixes;
    on_both(conns, [m0, m1], |conn, mix| {
        let mut left = budget;
        conn.closed_loop(window, until, || {
            left = left.checked_sub(1)?;
            Some(mix.next_req())
        })
    })?;
    Ok(Phase::collect(conns))
}

/// The repro grid: `passes` whole passes over the 24 cells, one cell in
/// flight, in grid order. Returns the phase and each
/// pass's edges per second.
fn grid_phase(
    passes: usize,
    refs: &Refs<'_>,
    conn: &mut Conn,
    mix: &mut Mix<'_>,
) -> std::io::Result<(Phase, Vec<f64>)> {
    let cells = script::grid_cells().len();
    conn.rebase(Instant::now());
    let mut rates = Vec::new();
    for _ in 0..passes {
        let pass_start = Instant::now();
        let pass: Vec<Req> = (0..cells).map(|_| mix.next_req()).collect();
        let edges: usize = pass
            .iter()
            .map(|r| refs.graphs[refs.index(r.dataset)].num_edges())
            .sum();
        let mut pass = pass.into_iter();
        conn.closed_loop(1, Duration::MAX, || pass.next())?;
        rates.push(edges as f64 / pass_start.elapsed().as_secs_f64());
    }
    let phase = Phase {
        records: std::mem::take(&mut conn.done),
        unanswered: conn.take_unanswered().len(),
    };
    Ok((phase, rates))
}

/// Completions per second over `[0, until)` (default: up to the last
/// completion), the median over [`RATE_WINDOWS`] windows.
fn rate(phase: &Phase, until: Option<Duration>) -> f64 {
    let done: Vec<Duration> = phase.records.iter().filter_map(|r| r.done).collect();
    let until = until.or_else(|| done.iter().max().copied());
    stats::windowed_rate(&done, until.unwrap_or(Duration::from_secs(1)), RATE_WINDOWS)
}

/// Latency of the measured requests, cut into the plan's windows by due
/// time: the median over windows of each window's p50 and tail, plus
/// whole-phase lines per request kind for the reader.
fn latency_lines(report: &mut Report, plan: &Plan, phase: &Phase, reported: bool) {
    let latencies: Vec<f64> = phase
        .records
        .iter()
        .filter_map(Record::latency_ms)
        .collect();
    let (p50, tail) = (
        stats::windowed_quantile(&latencies, plan.windows, 0.5),
        stats::windowed_quantile(&latencies, plan.windows, plan.tail_q),
    );
    if reported {
        report.metric("p50_ms", p50, "ms");
        report.metric("tail_ms", tail, "ms");
    } else {
        report.info("p50_ms", p50, "ms");
        report.info("tail_ms", tail, "ms");
    }
    report.info("requests", latencies.len() as f64, "count");
    for kind in ["count", "recommend", "clustering", "update", "simulate"] {
        let lat = phase.latencies_ms(|r| r.op.name() == kind);
        if !lat.is_empty() {
            report.info(&format!("{kind}_p50_ms"), stats::quantile(&lat, 0.5), "ms");
            report.info(&format!("{kind}_p99_ms"), stats::quantile(&lat, 0.99), "ms");
        }
    }
    let late = stats::lateness_ms(phase.records.iter().map(|r| (r.due, r.sent)));
    report.info("late_p99_ms", stats::quantile(&late, 0.99), "ms");
}

/// Write-mixed's end gates: every push frame the server sent arrived,
/// and the final counts equal a replay of every acknowledged batch.
fn write_gates(
    report: &mut Report,
    conns: &mut [Conn; 2],
    admin: &mut ServiceClient,
    expected: &[u64],
) -> std::io::Result<()> {
    // A ping on the subscriber's connection is answered after every
    // frame queued before it, and every batch was acknowledged by now.
    conns[1].call(r#"{"op":"ping"}"#)?;
    let sent = admin
        .request_ok(r#"{"op":"analytics-stats"}"#)?
        .get("notifications_sent")
        .and_then(Json::as_u64);
    let received = conns[1].pushes;
    report.tally.gate(sent == Some(received), || {
        format!("push frames: sent {sent:?}, received {received}")
    });
    report.info("push_frames", received as f64, "count");
    final_counts_gate(report, admin, "before restart", expected)
}

fn final_counts_gate(
    report: &mut Report,
    client: &mut ServiceClient,
    when: &str,
    expected: &[u64],
) -> std::io::Result<()> {
    for (&d, &want) in Workload::WriteMixed.datasets().iter().zip(expected) {
        let got = client
            .request_ok(&Req::new(d, Op::Count(PAPER)).line)?
            .get("triangles")
            .and_then(Json::as_u64);
        report.tally.gate(got == Some(want), || {
            format!(
                "{} final count {when}: {got:?}, replay says {want}",
                d.name()
            )
        });
    }
    Ok(())
}

/// Copies a durable directory as a crash would leave it after the last
/// acknowledgement: every finished file, no half-written `.tmp` ones.
fn copy_durable(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if entry.file_type()?.is_dir() {
            copy_durable(&src, &dst)?;
        } else if src.extension().is_none_or(|e| e != "tmp") {
            std::fs::copy(&src, &dst)?;
        }
    }
    Ok(())
}

/// `recovery_s`: a server started on the copied directory, up to its
/// first correct count of every dataset.
fn restart_gate(report: &mut Report, copy: PathBuf, expected: &[u64]) -> std::io::Result<()> {
    let start = Instant::now();
    let server = tc_service::spawn(server_config(Workload::WriteMixed, Some(copy)))?;
    let mut client = ServiceClient::connect(server.addr())?;
    final_counts_gate(report, &mut client, "after restart", expected)?;
    report.info("recovery_s", start.elapsed().as_secs_f64(), "s");
    drop(client);
    server.shutdown();
    Ok(())
}

/// `VmHWM`: the process's resident-memory high-water mark so far, in
/// MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the paths and bytes of every file under `crates/`: names
/// the code under test where no git metadata is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else {
                    files.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "none".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn environment(report: &mut Report, args: &Args) {
    let w = args.workload;
    let cfg = server_config(w, None);
    report.env("workload", w.name());
    report.env("seed", args.seed);
    report.env("seconds", args.seconds);
    report.env("trace", u8::from(args.trace));
    report.env("src", source_digest());
    report.env(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.env("avx2", cfg!(target_arch = "x86_64") && avx2());
    report.env("shards", cfg.shards);
    report.env("workers", cfg.workers);
    report.env("queue", cfg.queue_capacity);
    report.env("registry_budget", cfg.registry_budget);
    report.env("persist", w == Workload::WriteMixed);
    report.env("setup_reps", SETUP_REPS);
    let p = plan(w);
    report.env("tail_q", p.tail_q);
    report.env("windows", p.windows);
    match p.load {
        Load::Open(rps) => {
            report.env("offered_rps", rps);
            report.env("open_s", args.seconds * OPEN_SHARE);
            report.env("capacity_s", args.seconds * (1.0 - OPEN_SHARE));
            report.env("capacity_in_flight_per_conn", p.window);
        }
        Load::Closed(rps) if w == Workload::ReproGrid => {
            report.env("passes", grid_passes(args.seconds, rps));
            report.env("cells_per_pass", script::grid_cells().len());
        }
        Load::Closed(rps) => {
            report.env("requests", closed_work(args.seconds, rps));
            report.env("in_flight_per_conn", p.window);
        }
    }
}

/// Requests a closed-loop run of `seconds` sends at `rps`.
fn closed_work(seconds: f64, rps: f64) -> usize {
    (seconds * rps).round() as usize
}

/// Whole grid passes a run of `seconds` makes at `rps` cells per second.
fn grid_passes(seconds: f64, rps: f64) -> usize {
    (closed_work(seconds, rps) / script::grid_cells().len()).max(1)
}

#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

fn run(args: &Args) -> std::io::Result<Report> {
    let w = args.workload;
    let mut report = Report::default();
    environment(&mut report, args);
    let graphs: Vec<CsrGraph> = w.datasets().iter().map(|&d| tc_datasets::load(d)).collect();
    let refs = Refs {
        workload: w,
        graphs: &graphs,
        triangles: graphs.iter().map(tc_algos::cpu::node_iterator).collect(),
    };
    if !args.trace {
        let setup = measure_setup(args)?;
        report.metric("setup_s", setup, "s");
    }

    let tmp = TempDir::new(w.name())?;
    let live = (w == Workload::WriteMixed).then(|| tmp.0.join("live"));
    let start = Instant::now();
    let (server, counts) = set_up(w, live.clone())?;
    let addr: SocketAddr = server.addr();
    let mut conns = [Conn::connect(addr, start)?, Conn::connect(addr, start)?];
    if w == Workload::WriteMixed {
        subscribe(&mut conns[1], w, &counts)?;
    }
    report.info("run_setup_s", start.elapsed().as_secs_f64(), "s");

    let mut admin = ServiceClient::connect(addr)?;
    let before = admin.request_ok(STATS)?;
    let mut mixes = [
        Mix::new(w, args.seed, 0, &graphs),
        Mix::new(w, args.seed, 1, &graphs),
    ];
    let p = plan(w);
    // Closed-loop workloads get their throughput from the measured phase
    // itself; open-loop ones from the capacity phase below.
    let (measured, throughput) = match p.load {
        Load::Open(rps) => (open_phase(args, rps, &mut conns, &mut mixes)?, None),
        Load::Closed(rps) if w == Workload::ReproGrid => {
            let passes = grid_passes(args.seconds, rps);
            let (phase, pass_rates) = grid_phase(passes, &refs, &mut conns[0], &mut mixes[0])?;
            (phase, Some(stats::median(pass_rates)))
        }
        Load::Closed(rps) => {
            let budget = closed_work(args.seconds, rps).div_ceil(2);
            let phase = closed_phase(Duration::MAX, budget, p.window, &mut conns, &mut mixes)?;
            let throughput = rate(&phase, None);
            (phase, Some(throughput))
        }
    };
    let after = admin.request_ok(STATS)?;
    if !args.trace {
        report.info("hit_rate", layers::hit_rate(&before, &after), "ratio");
    }
    // Read before the capacity phase, whose record count (and so the
    // client's own memory) grows with the server's speed.
    let rss = peak_rss_mb();
    let capacity = match throughput {
        None => {
            let until = secs(args.seconds * (1.0 - OPEN_SHARE));
            let phase = closed_phase(until, usize::MAX, p.window, &mut conns, &mut mixes)?;
            Some((phase, until))
        }
        Some(_) => None,
    };

    let answered: Vec<&Record> = measured
        .records
        .iter()
        .chain(capacity.iter().flat_map(|(p, _)| &p.records))
        .collect();
    let unanswered = measured.unanswered + capacity.as_ref().map_or(0, |(p, _)| p.unanswered);
    check::check_records(&mut report.tally, &refs, &answered, unanswered);
    for conn in &conns {
        report.tally.gate(conn.strays() == 0, || {
            format!("{} stray response lines", conn.strays())
        });
    }

    latency_lines(&mut report, &p, &measured, args.trace);
    let throughput = match &capacity {
        Some((phase, until)) => rate(phase, Some(*until)),
        None => throughput.unwrap_or(0.0),
    };
    if args.trace {
        report.metric("throughput", throughput, "1/s");
    } else {
        report.info("throughput", throughput, "1/s");
    }

    let expected = if w == Workload::WriteMixed {
        let finals = check::replay_final_counts(&refs, &answered);
        write_gates(&mut report, &mut conns, &mut admin, &finals)?;
        finals
    } else {
        Vec::new()
    };
    if args.trace {
        let ctx = layers::Ctx {
            seed: args.seed,
            refs: &refs,
            server: &server,
            records: &measured.records,
            before: &before,
            after: &after,
            dir: &tmp.0,
        };
        let spans = layers::report(&mut report, &ctx)?;
        let path = Path::new(WORK_DIR).join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        std::fs::write(&path, spans.to_tsv())?;
        report.env("spans", path.display());
    }
    drop(conns);
    drop(admin);
    if let Some(live) = live {
        // The copy is what a crash right after the last ack leaves.
        let copy = tmp.0.join("restart");
        copy_durable(&live, &copy)?;
        server.shutdown();
        restart_gate(&mut report, copy, &expected)?;
    } else {
        server.shutdown();
    }
    if args.trace {
        report.info("peak_rss_mb", rss, "MB");
    } else {
        report.metric("peak_rss_mb", rss, "MB");
    }
    // The JSON must carry exactly the metrics BENCHMARK.json declares.
    let declared: BTreeSet<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.into_iter().collect()
    };
    let reported: BTreeSet<&str> = report.reported.iter().map(String::as_str).collect();
    if reported != declared {
        return Err(std::io::Error::other(format!(
            "reported {reported:?}, declared {declared:?}"
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        match v.get(section) {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(|r| {
                    r.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect(),
            _ => panic!("no {section}"),
        }
    }

    #[test]
    fn declared_metrics_match_the_code() {
        assert_eq!(names("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("per_layer"), per_layer);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn flags_parse_and_bad_values_are_refused() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload prep-churn --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PrepChurn, 9, 12.0, true)
        );
        assert!(!a.setup_probe);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload read-hot --seed x --seconds 1 --trace 0",
            "--workload read-hot --seed 1 --seconds 0 --trace 0",
            "--workload read-hot --seed 1 --seconds 1 --trace 2",
            "--workload read-hot --seed 1 --seconds 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
