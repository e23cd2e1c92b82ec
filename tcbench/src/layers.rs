//! The traced run's per-layer metrics. Server counters come from `stats`
//! taken around the measured phase. Everything else is an in-process
//! probe that times, as spans, each public library call the workload's
//! requests reach, on the workload's own datasets and requests; a layer
//! the workload never reaches (the write path on read-only traffic, the
//! simulator off the grid) is probed on its hottest dataset.

use crate::check::Refs;
use crate::loadgen::Record;
use crate::script::{self, Variant, Workload, PAPER, RECOMMEND_K};
use crate::stats::{self, Spans};
use crate::Report;
use rand::Rng;
use std::path::Path;
use std::time::{Duration, Instant};
use tc_algos::engine::{Kernel, Scratch};
use tc_algos::GpuTriangleCounter;
use tc_algos::{bisson::Bisson, hu::HuFineGrained, polak::Polak, tricore::TriCore};
use tc_analytics::AnalyticsState;
use tc_core::Preprocessor;
use tc_datasets::Dataset;
use tc_gpusim::GpuConfig;
use tc_persist::{PersistConfig, Store};
use tc_service::json::Json;
use tc_service::{protocol, ServerHandle, ServiceClient};
use tc_stream::DynamicGraph;

/// The per-layer metrics and their units, in the order `BENCHMARK.json`
/// declares them. The first three are what the load generator saw over
/// the wire; `main` reports them.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "1/s"),
    ("server.overhead_us", "us"),
    ("server.queue_peak", "count"),
    ("server.rejected", "count"),
    ("server.shard_skew", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("exec.p50_us", "us"),
    ("registry.hit_rate", "ratio"),
    ("registry.evictions", "count"),
    ("registry.invalidations", "count"),
    ("registry.bytes", "bytes"),
    ("datasets.load_ms", "ms"),
    ("calibrate_ms", "ms"),
    ("prep.direction_ms", "ms"),
    ("prep.ordering_ms", "ms"),
    ("prep.rebuild_ms", "ms"),
    ("prep.edges_per_s", "edges/s"),
    ("kernel.count_edges_per_s", "edges/s"),
    ("apps.recommend_us", "us"),
    ("apps.clustering_ms", "ms"),
    ("stream.apply_us", "us"),
    ("stream.materialize_ms", "ms"),
    ("analytics.build_ms", "ms"),
    ("analytics.apply_us", "us"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_op", "bytes"),
    ("recovery.open_ms", "ms"),
    ("sim.polak_ms", "ms"),
    ("sim.tricore_ms", "ms"),
    ("sim.bisson_ms", "ms"),
    ("sim.hu_ms", "ms"),
    ("sim.serial_over_parallel", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
];

/// The exec replay re-runs at most this many measured requests, for at
/// most this long (a prep-churn miss or a grid cell takes milliseconds
/// to seconds).
const EXEC_REPLAY: (usize, Duration) = (300, Duration::from_secs(2));
/// Pings timed over the wire and in-process for `server.overhead_us`.
const PINGS: usize = 200;
/// Update batches the write-path probe applies.
const PROBE_BATCHES: usize = 64;
/// Recommend calls the apps probe makes.
const PROBE_RECOMMENDS: usize = 200;
const PING: &str = r#"{"op":"ping"}"#;

/// What the probe needs from the run.
pub struct Ctx<'a> {
    /// The run seed.
    pub seed: u64,
    /// The workload's datasets and reference counts.
    pub refs: &'a Refs<'a>,
    /// The live server.
    pub server: &'a ServerHandle,
    /// The measured phase's requests.
    pub records: &'a [Record],
    /// `stats` before the measured phase.
    pub before: &'a Json,
    /// `stats` after it.
    pub after: &'a Json,
    /// Scratch space for the probe's write-ahead log.
    pub dir: &'a Path,
}

fn at(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Json::as_u64)
        .map_or(0.0, |x| x as f64)
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Median self-time of spans `layer.name`, scaled from seconds.
fn p50(spans: &Spans, layer: &str, name: &str, scale: f64) -> f64 {
    stats::quantile(&spans.self_times(layer, name), 0.5) * scale
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// Reports every per-layer metric and returns the spans behind them.
pub fn report(report: &mut Report, ctx: &Ctx<'_>) -> std::io::Result<Spans> {
    let mut spans = Spans::new();
    server_counters(report, ctx);
    for (i, r) in ctx.records.iter().enumerate() {
        if let Some(done) = r.done {
            spans.push(i as u64, "client", r.req.op.name(), r.due, done, None);
        }
    }
    let late = stats::lateness_ms(ctx.records.iter().map(|r| (r.due, r.sent)));
    report.metric("loadgen.late_p99_ms", stats::quantile(&late, 0.99), "ms");
    service_probe(report, &mut spans, ctx)?;
    library_probe(report, &mut spans, ctx)?;
    Ok(spans)
}

/// Registry hits over lookups between two `stats` snapshots (0 for no
/// lookups).
pub fn hit_rate(before: &Json, after: &Json) -> f64 {
    let delta = |key| at(after, &["cache", key]) - at(before, &["cache", key]);
    let (hits, misses) = (delta("hits"), delta("misses"));
    hits / (hits + misses).max(1.0)
}

/// Counters from `stats` around the measured phase.
fn server_counters(report: &mut Report, ctx: &Ctx<'_>) {
    let (b, a) = (ctx.before, ctx.after);
    let delta = |path: &[&str]| at(a, path) - at(b, path);
    report.metric("server.queue_peak", at(a, &["queue", "peak"]), "count");
    report.metric(
        "server.rejected",
        delta(&["queue", "rejected_overload"]),
        "count",
    );
    let per_shard = |v: &Json| -> Vec<f64> {
        match v.get("shards") {
            Some(Json::Arr(rows)) => rows.iter().map(|r| at(r, &["requests"])).collect(),
            _ => Vec::new(),
        }
    };
    let load: Vec<f64> = per_shard(a)
        .iter()
        .zip(per_shard(b))
        .map(|(x, y)| x - y)
        .collect();
    let mean = load.iter().sum::<f64>() / load.len().max(1) as f64;
    let skew = if mean > 0.0 {
        load.iter().copied().fold(0.0, f64::max) / mean
    } else {
        0.0
    };
    report.metric("server.shard_skew", skew, "ratio");
    report.metric("registry.hit_rate", hit_rate(b, a), "ratio");
    report.metric(
        "registry.evictions",
        delta(&["cache", "evictions"]),
        "count",
    );
    report.metric(
        "registry.invalidations",
        delta(&["cache", "invalidations"]),
        "count",
    );
    report.metric("registry.bytes", at(a, &["cache", "bytes"]), "bytes");
}

/// The service's own layers: parse every measured line, re-execute a
/// prefix of them on the engine, serialize the results, and compare a
/// ping's wire round trip with its in-process execution.
fn service_probe(report: &mut Report, spans: &mut Spans, ctx: &Ctx<'_>) -> std::io::Result<()> {
    let mut envelopes = Vec::new();
    for (i, r) in ctx.records.iter().enumerate() {
        let (env, _) = spans.time(i as u64, "service.protocol", "parse_request", None, || {
            protocol::parse_request(&r.req.line)
        });
        envelopes.push(env.map_err(|e| io_err(e.message))?);
    }
    report.metric(
        "protocol.parse_us",
        p50(spans, "service.protocol", "parse_request", US),
        "us",
    );

    let engine = ctx.server.engine();
    let deadline = Instant::now() + EXEC_REPLAY.1;
    for (i, env) in envelopes.iter().take(EXEC_REPLAY.0).enumerate() {
        if Instant::now() > deadline {
            break;
        }
        let (payload, _) = spans.time(i as u64, "service.exec", "execute", None, || {
            engine.execute(&env.request)
        });
        let payload = payload.map_err(|e| io_err(e.message))?;
        spans.time(i as u64, "service.protocol", "ok_response", None, || {
            protocol::ok_response(env.id.as_ref(), env.request.op(), payload)
        });
    }
    report.metric(
        "exec.p50_us",
        p50(spans, "service.exec", "execute", US),
        "us",
    );
    report.metric(
        "protocol.serialize_us",
        p50(spans, "service.protocol", "ok_response", US),
        "us",
    );

    let mut client = ServiceClient::connect(ctx.server.addr())?;
    let ping = protocol::parse_request(PING)
        .map_err(|e| io_err(e.message))?
        .request;
    for i in 0..PINGS as u64 {
        spans
            .time(i, "wire", "ping", None, || client.request_raw(PING))
            .0?;
        spans
            .time(i, "service.exec", "ping", None, || engine.execute(&ping))
            .0
            .map_err(|e| io_err(e.message))?;
    }
    let overhead = p50(spans, "wire", "ping", US) - p50(spans, "service.exec", "ping", US);
    report.metric("server.overhead_us", overhead, "us");
    Ok(())
}

/// The library layers under the service, called directly.
fn library_probe(report: &mut Report, spans: &mut Spans, ctx: &Ctx<'_>) -> std::io::Result<()> {
    let refs = ctx.refs;
    let w = refs.workload;
    let datasets = w.datasets();
    let gpu = GpuConfig::titan_xp_like();
    let mut scratch = Scratch::new();

    let (calibration, _) = spans.time(0, "core.model", "calibrate", None, || {
        tc_core::model::calibrate(&gpu)
    });
    report.metric(
        "calibrate_ms",
        p50(spans, "core.model", "calibrate", MS),
        "ms",
    );
    for (i, &d) in datasets.iter().enumerate() {
        spans.time(i as u64, "datasets", "load", None, || tc_datasets::load(d));
    }
    report.metric("datasets.load_ms", p50(spans, "datasets", "load", MS), "ms");

    // Preprocessing and CPU counting over the variants the workload asks
    // for, with the stage timings as child spans of each run.
    let variants: Vec<(Dataset, Variant)> = match w {
        Workload::PrepChurn => script::churn_variants(),
        Workload::ReproGrid => script::grid_cells()
            .into_iter()
            .map(|(d, v, _)| (d, v))
            .collect(),
        _ => datasets.iter().map(|&d| (d, PAPER)).collect(),
    };
    let (mut edges, mut prep_s, mut count_s) = (0.0, 0.0, 0.0);
    for (i, &(d, v)) in variants.iter().enumerate() {
        let (i, idx) = (i as u64, refs.index(d));
        let g = &refs.graphs[idx];
        let (prep, run) = spans.time(i, "core.pipeline", "run", None, || {
            Preprocessor::new()
                .direction(v.direction)
                .ordering(v.ordering)
                .params(calibration.params.clone())
                .run(g)
        });
        let (start, end) = (spans.get(run).start, spans.get(run).end);
        let t = prep.timings;
        spans.push(
            i,
            "core.pipeline",
            "direction",
            start,
            start + t.direction,
            Some(run),
        );
        let rebuild_at = end.saturating_sub(t.rebuild);
        let ordering_at = rebuild_at.saturating_sub(t.ordering);
        spans.push(
            i,
            "core.pipeline",
            "ordering",
            ordering_at,
            rebuild_at,
            Some(run),
        );
        spans.push(i, "core.pipeline", "rebuild", rebuild_at, end, Some(run));
        let (triangles, count) = spans.time(i, "algos.engine", "directed_count", None, || {
            tc_algos::cpu::directed_count_with(prep.directed(), Kernel::Adaptive, &mut scratch)
        });
        report.tally.gate(triangles == refs.triangles[idx], || {
            format!("probe count of {} {v:?}: {triangles}", d.name())
        });
        edges += g.num_edges() as f64;
        prep_s += (end - start).as_secs_f64();
        let c = spans.get(count);
        count_s += (c.end - c.start).as_secs_f64();
    }
    for (stage, name) in [
        ("direction", "prep.direction_ms"),
        ("ordering", "prep.ordering_ms"),
        ("rebuild", "prep.rebuild_ms"),
    ] {
        report.metric(name, p50(spans, "core.pipeline", stage, MS), "ms");
    }
    report.metric("prep.edges_per_s", edges / prep_s, "edges/s");
    report.metric("kernel.count_edges_per_s", edges / count_s, "edges/s");

    // Applications: the measured recommends (seeded ones if the workload
    // sends none) and one clustering pass per dataset.
    let mut sources: Vec<(usize, u32)> = ctx
        .records
        .iter()
        .filter_map(|r| match r.req.op {
            script::Op::Recommend(s) => Some((refs.index(r.req.dataset), s)),
            _ => None,
        })
        .take(PROBE_RECOMMENDS)
        .collect();
    if sources.is_empty() {
        let mut rng = script::rng(ctx.seed, 48);
        sources = (0..PROBE_RECOMMENDS)
            .map(|i| {
                let idx = i % datasets.len();
                (
                    idx,
                    rng.gen_range(0..refs.graphs[idx].num_vertices() as u32),
                )
            })
            .collect();
    }
    for (i, &(idx, source)) in sources.iter().enumerate() {
        spans.time(i as u64, "apps", "recommend_for", None, || {
            tc_apps::recommend_for_with(&refs.graphs[idx], source, RECOMMEND_K, &mut scratch)
        });
    }
    report.metric(
        "apps.recommend_us",
        p50(spans, "apps", "recommend_for", US),
        "us",
    );
    for (i, g) in refs.graphs.iter().enumerate() {
        spans.time(i as u64, "apps", "clustering_coefficients", None, || {
            tc_apps::clustering_coefficients_with(g, &mut scratch)
        });
    }
    report.metric(
        "apps.clustering_ms",
        p50(spans, "apps", "clustering_coefficients", MS),
        "ms",
    );

    write_path_probe(report, spans, ctx, &mut scratch)?;
    simulator_probe(report, spans, ctx, &calibration.params, &gpu);
    Ok(())
}

/// Stream, analytics and WAL on the hottest dataset: write-mixed-shaped
/// batches logged durably, applied, folded into analytics, and finally
/// recovered from the log.
fn write_path_probe(
    report: &mut Report,
    spans: &mut Spans,
    ctx: &Ctx<'_>,
    scratch: &mut Scratch,
) -> std::io::Result<()> {
    let refs = ctx.refs;
    let (d, g) = (refs.workload.datasets()[0], &refs.graphs[0]);
    let batches = script::update_batches(g, ctx.seed, PROBE_BATCHES);
    let mut stream = DynamicGraph::with_initial_count(g.clone(), refs.triangles[0]);
    let (mut state, _) = spans.time(0, "analytics", "build", None, || {
        AnalyticsState::build(g, scratch)
    });
    let wal_dir = ctx.dir.join("probe-wal");
    let (store, _) = Store::open(PersistConfig::new(&wal_dir)).map_err(io_err)?;
    for (i, batch) in batches.iter().enumerate() {
        let i = i as u64;
        spans
            .time(i, "persist", "log_batch", None, || {
                store.log_batch(d, batch)
            })
            .0
            .map_err(io_err)?;
        let ((_, changes), _) = spans.time(i, "stream", "apply_batch_recorded", None, || {
            stream.apply_batch_recorded(batch)
        });
        spans.time(i, "analytics", "apply_changes", None, || {
            state.apply_changes(&changes)
        });
        if (i + 1).is_multiple_of(16) {
            spans.time(i, "stream", "materialize", None, || stream.materialize());
        }
    }
    report
        .tally
        .gate(state.triangles() == stream.triangles(), || {
            format!(
                "probe analytics {} vs stream {}",
                state.triangles(),
                stream.triangles()
            )
        });
    let wal_bytes = store.stats().map_err(io_err)?.wal.bytes as f64;
    drop(store);
    let (reopened, _) = spans.time(0, "persist", "open", None, || {
        Store::open(PersistConfig::new(&wal_dir))
    });
    let (_, recovered) = reopened.map_err(io_err)?;
    let replayed = recovered.streams.iter().find(|s| s.dataset == d);
    report.tally.gate(
        replayed.is_some_and(|s| s.graph.triangles() == stream.triangles()),
        || format!("probe WAL replay of {} disagrees with the stream", d.name()),
    );

    report.metric(
        "stream.apply_us",
        p50(spans, "stream", "apply_batch_recorded", US),
        "us",
    );
    report.metric(
        "stream.materialize_ms",
        p50(spans, "stream", "materialize", MS),
        "ms",
    );
    report.metric(
        "analytics.build_ms",
        p50(spans, "analytics", "build", MS),
        "ms",
    );
    report.metric(
        "analytics.apply_us",
        p50(spans, "analytics", "apply_changes", US),
        "us",
    );
    report.metric(
        "wal.append_us",
        p50(spans, "persist", "log_batch", US),
        "us",
    );
    let ops = (PROBE_BATCHES * script::UPDATE_OPS) as f64;
    report.metric("wal.bytes_per_op", wal_bytes / ops, "bytes");
    report.metric("recovery.open_ms", p50(spans, "persist", "open", MS), "ms");
    Ok(())
}

/// The four grid kernels on every dataset's paper variant, and one of
/// them with trace generation forced serial.
fn simulator_probe(
    report: &mut Report,
    spans: &mut Spans,
    ctx: &Ctx<'_>,
    params: &tc_core::ModelParams,
    gpu: &GpuConfig,
) {
    let refs = ctx.refs;
    let kernels: [(&dyn GpuTriangleCounter, &str); 4] = [
        (&Polak::default(), "sim.polak_ms"),
        (&TriCore::default(), "sim.tricore_ms"),
        (&Bisson::default(), "sim.bisson_ms"),
        (&HuFineGrained::default(), "sim.hu_ms"),
    ];
    let preps: Vec<_> = refs
        .graphs
        .iter()
        .map(|g| Preprocessor::new().params(params.clone()).run(g))
        .collect();
    for (i, prep) in preps.iter().enumerate() {
        for (kernel, _) in kernels {
            let (run, _) = spans.time(i as u64, "gpusim", kernel.name(), None, || {
                kernel.count(prep.directed(), gpu)
            });
            report.tally.gate(run.triangles == refs.triangles[i], || {
                format!(
                    "{} on {}: {}",
                    kernel.name(),
                    refs.workload.datasets()[i].name(),
                    run.triangles
                )
            });
        }
    }
    for (kernel, metric) in kernels {
        report.metric(metric, p50(spans, "gpusim", kernel.name(), MS), "ms");
    }
    let hu = HuFineGrained::default();
    tc_gpusim::pipeline::set_thread_override(Some(1));
    spans.time(0, "gpusim", "hu_serial", None, || {
        hu.count(preps[0].directed(), gpu)
    });
    tc_gpusim::pipeline::set_thread_override(None);
    spans.time(0, "gpusim", "hu_parallel", None, || {
        hu.count(preps[0].directed(), gpu)
    });
    let ratio = p50(spans, "gpusim", "hu_serial", 1.0) / p50(spans, "gpusim", "hu_parallel", 1.0);
    report.metric("sim.serial_over_parallel", ratio, "ratio");
}
