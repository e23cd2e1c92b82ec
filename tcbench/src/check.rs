//! Correctness gates. Every response is checked against a reference
//! computed outside the server; every failure, refusal or missing
//! answer counts against the run.

use crate::loadgen::Record;
use crate::script::{Op, Workload, RECOMMEND_K};
use std::collections::{HashMap, HashSet};
use tc_algos::engine::Scratch;
use tc_datasets::Dataset;
use tc_graph::CsrGraph;
use tc_service::json::{self, Json};

/// Checks attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests and gates checked.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one check.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }
}

/// What the checks know about a workload's datasets.
pub struct Refs<'g> {
    /// The workload.
    pub workload: Workload,
    /// Its datasets, in [`Workload::datasets`] order.
    pub graphs: &'g [CsrGraph],
    /// Triangle counts by `cpu::node_iterator`, same order.
    pub triangles: Vec<u64>,
}

impl Refs<'_> {
    /// Index of `dataset` in the workload.
    pub fn index(&self, dataset: Dataset) -> usize {
        self.workload
            .datasets()
            .iter()
            .position(|&d| d == dataset)
            .expect("request for a dataset outside the workload")
    }
}

fn field_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

/// The kernel-metric fields of a `simulate` response, which must repeat
/// exactly whenever the same cell runs again.
fn metrics_digest(v: &Json) -> String {
    [
        "triangles",
        "kernel_cycles",
        "blocks",
        "warps",
        "global_segments",
        "shared_transactions",
        "barrier_wait_cycles",
    ]
    .iter()
    .map(|k| format!("{k}={:?}", field_u64(v, k)))
    .collect::<Vec<_>>()
    .join(",")
}

/// Checks every answered and unanswered record of a run. Write-mixed
/// counts race the updates, so a count there must equal the dataset's
/// count after *some* applied batch (or before the first).
pub fn check_records(tally: &mut Tally, refs: &Refs<'_>, records: &[&Record], unanswered: usize) {
    for _ in 0..unanswered {
        tally.gate(false, || "request never answered".into());
    }
    let parsed: Vec<Option<Json>> = records
        .iter()
        .map(|r| json::parse(&r.response).ok())
        .collect();
    let mut reachable: Vec<HashSet<u64>> =
        refs.triangles.iter().map(|&t| HashSet::from([t])).collect();
    for (rec, v) in records.iter().zip(&parsed) {
        if let (Op::Update(_), Some(v)) = (&rec.req.op, v) {
            if let Some(t) = field_u64(v, "triangles") {
                reachable[refs.index(rec.req.dataset)].insert(t);
            }
        }
    }
    let mut scratch = Scratch::new();
    let mut recommended: HashMap<(usize, u32), Vec<(u64, u64)>> = HashMap::new();
    let mut clustered: HashMap<usize, (f64, f64)> = HashMap::new();
    let mut digests: HashMap<&str, String> = HashMap::new();
    for (rec, v) in records.iter().zip(&parsed) {
        let line = &rec.req.line;
        let Some(v) = v
            .as_ref()
            .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
        else {
            tally.gate(false, || format!("{line} -> {}", rec.response));
            continue;
        };
        let i = refs.index(rec.req.dataset);
        let g = &refs.graphs[i];
        let static_graph = refs.workload != Workload::WriteMixed;
        let ok = match &rec.req.op {
            Op::Count(_) if static_graph => field_u64(v, "triangles") == Some(refs.triangles[i]),
            Op::Count(_) => field_u64(v, "triangles").is_some_and(|t| reachable[i].contains(&t)),
            Op::Recommend(source) if static_graph => {
                let expect = recommended.entry((i, *source)).or_insert_with(|| {
                    tc_apps::recommend_for_with(g, *source, RECOMMEND_K, &mut scratch)
                        .iter()
                        .map(|r| (u64::from(r.candidate), u64::from(r.common_neighbors)))
                        .collect()
                });
                let got: Option<Vec<(u64, u64)>> = match v.get("candidates") {
                    Some(Json::Arr(rows)) => rows
                        .iter()
                        .map(|r| {
                            Some((
                                field_u64(r, "candidate")?,
                                field_u64(r, "common_neighbors")?,
                            ))
                        })
                        .collect(),
                    _ => None,
                };
                got.as_ref() == Some(expect)
            }
            Op::Clustering if static_graph => {
                let expect = *clustered.entry(i).or_insert_with(|| {
                    let local = tc_apps::clustering_coefficients_with(g, &mut scratch);
                    let mean = if local.is_empty() {
                        0.0
                    } else {
                        local.iter().sum::<f64>() / local.len() as f64
                    };
                    (
                        tc_apps::global_clustering_coefficient_with(g, &mut scratch),
                        mean,
                    )
                });
                let got = (
                    v.get("global_coefficient").and_then(Json::as_f64),
                    v.get("mean_local_coefficient").and_then(Json::as_f64),
                );
                got == (Some(expect.0), Some(expect.1))
            }
            // Against a changing graph only the shape is checkable; the
            // final state is gated separately.
            Op::Recommend(_) => matches!(v.get("candidates"), Some(Json::Arr(_))),
            Op::Clustering => v.get("global_coefficient").is_some(),
            Op::Update(ops) => {
                let inserts = ops.iter().filter(|op| op.is_insert()).count() as u64;
                // Every op targets an edge untouched so far this run, so
                // each one must change the graph.
                [
                    ("inserted", inserts),
                    ("deleted", ops.len() as u64 - inserts),
                    ("noops", 0),
                    ("rejected", 0),
                    ("superseded", 0),
                ]
                .iter()
                .all(|&(k, want)| field_u64(v, k) == Some(want))
            }
            Op::Simulate(..) => {
                let digest = metrics_digest(v);
                let first = digests
                    .entry(line.as_str())
                    .or_insert_with(|| digest.clone());
                field_u64(v, "triangles") == Some(refs.triangles[i]) && *first == digest
            }
        };
        tally.gate(ok, || format!("{line} -> {}", rec.response));
    }
}

/// Applies every acknowledged batch to a replica of each dataset and
/// returns the final triangle counts, in workload order. Batches touch
/// disjoint edges, so their order does not matter.
pub fn replay_final_counts(refs: &Refs<'_>, records: &[&Record]) -> Vec<u64> {
    let mut replicas: Vec<tc_stream::DynamicGraph> = refs
        .graphs
        .iter()
        .zip(&refs.triangles)
        .map(|(g, &t)| tc_stream::DynamicGraph::with_initial_count(g.clone(), t))
        .collect();
    for rec in records {
        if let Op::Update(ops) = &rec.req.op {
            replicas[refs.index(rec.req.dataset)].apply_batch(ops);
        }
    }
    replicas
        .iter()
        .map(|r| tc_algos::cpu::node_iterator(&r.materialize()))
        .collect()
}
