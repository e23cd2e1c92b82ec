//! Streaming benchmark: incremental triangle maintenance vs full
//! recompute, per update batch.
//!
//! For each dataset and batch size, a deterministic stream of edge
//! operations (half inserts of absent edges, half deletes of present
//! ones) is applied two ways:
//!
//! - **incremental** — [`tc_stream::DynamicGraph::apply_batch`], which
//!   pays one merge-intersection per changed edge;
//! - **recompute** — rebuild the CSR from the updated edge list and run
//!   the CPU forward counter from scratch, the cost a static pipeline
//!   pays to answer the same "what is the count now?" question.
//!
//! Edge-set bookkeeping (sampling the batch, maintaining the shadow
//! edge list) happens outside both timed regions, and both sides apply
//! the *same* operations, with the counts cross-checked after every
//! batch. `experiments -- stream-bench` renders the table and writes
//! `BENCH_stream.json` (acceptance target: ≥10× for batches up to 1%
//! of `|E|`).

use crate::fmt::Table;
use crate::measure::{self, Samples};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use tc_analytics::AnalyticsState;
use tc_datasets::Dataset;
use tc_graph::GraphBuilder;
use tc_service::json::{obj, s, u, Json};
use tc_stream::{DynamicGraph, EdgeOp};

/// Batches timed per (dataset, batch size) configuration.
const REPS: usize = 6;

/// Batches timed per dataset in the analytics read-latency pass. Each
/// rep pays three full recomputes (two k-truss decompositions and a
/// per-vertex count), so this stays smaller than [`REPS`].
const ANALYTICS_REPS: usize = 3;

/// One (dataset, batch size) measurement.
#[derive(Clone, Copy, Debug)]
pub struct StreamBenchRow {
    /// Operations per batch.
    pub batch_size: usize,
    /// Batches timed.
    pub batches: usize,
    /// Mean incremental apply time per batch (µs).
    pub inc_mean_us: f64,
    /// Mean rebuild-and-recount time per batch (µs).
    pub full_mean_us: f64,
}

impl StreamBenchRow {
    /// Recompute / incremental time ratio — the streaming win.
    pub fn speedup(&self) -> f64 {
        measure::ratio(self.full_mean_us, self.inc_mean_us)
    }
}

/// All batch sizes for one dataset.
#[derive(Clone, Debug)]
pub struct StreamBenchReport {
    /// Dataset wire name.
    pub dataset: String,
    /// Edges in the starting graph.
    pub edges: usize,
    /// Triangles before any update.
    pub triangles_start: u64,
    /// Triangles after the last batch of the last configuration.
    pub triangles_end: u64,
    /// One row per batch size.
    pub rows: Vec<StreamBenchRow>,
}

/// One dataset's analytics read-latency measurement at 1%-of-`|E|`
/// batches. After every applied batch, `clustering` is answered twice,
/// from the incrementally maintained [`AnalyticsState`] (per-vertex
/// counts already known) and by a full recompute on the same
/// materialised graph. `ktruss` is answered as a server answers it on a
/// stream, by decomposing the materialised graph, and again untimed on
/// a CSR rebuilt from the bench's own edge list. Both pairs are
/// bit-compared.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticsReadRow {
    /// Operations per batch (1% of the starting `|E|`).
    pub batch_size: usize,
    /// Batches timed.
    pub batches: usize,
    /// Mean time to maintain the analytics state per batch (µs):
    /// recorded apply + change replay.
    pub maintain_mean_us: f64,
    /// Mean k-truss decomposition of the materialised graph (µs):
    /// support pass + peel.
    pub ktruss_full_mean_us: f64,
    /// Mean global-clustering read from maintained counts (µs).
    pub clustering_inc_mean_us: f64,
    /// Mean full global-clustering recompute (µs): per-vertex counting
    /// pass + fold.
    pub clustering_full_mean_us: f64,
}

impl AnalyticsReadRow {
    /// Full-recompute / incremental clustering read-latency ratio.
    pub fn clustering_speedup(&self) -> f64 {
        measure::ratio(self.clustering_full_mean_us, self.clustering_inc_mean_us)
    }
}

/// The analytics pass for one dataset.
#[derive(Clone, Debug)]
pub struct AnalyticsReadReport {
    /// Dataset wire name.
    pub dataset: String,
    /// Edges in the starting graph.
    pub edges: usize,
    /// The single 1%-of-`|E|` row.
    pub row: AnalyticsReadRow,
}

/// The benchmarked datasets. Both run batch sizes up to 1% of `|E|`, so
/// the acceptance criterion (≥10× on ≥2 datasets) reads straight off
/// the report.
pub fn default_suite() -> Vec<Dataset> {
    vec![Dataset::EmailEnron, Dataset::Gowalla]
}

/// Draws one batch: alternating inserts of currently-absent edges and
/// deletes of currently-present ones, so the graph neither drains nor
/// densifies over the run. Untimed bookkeeping.
fn draw_batch(
    rng: &mut StdRng,
    n: u32,
    edges: &mut Vec<(u32, u32)>,
    present: &mut HashSet<(u32, u32)>,
    batch_size: usize,
) -> Vec<EdgeOp> {
    let mut ops = Vec::with_capacity(batch_size);
    for i in 0..batch_size {
        if i % 2 == 0 {
            // Insert an absent edge.
            loop {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if present.insert(key) {
                    edges.push(key);
                    ops.push(EdgeOp::Insert(u, v));
                    break;
                }
            }
        } else if !edges.is_empty() {
            // Delete a present edge.
            let idx = rng.gen_range(0..edges.len());
            let key = edges.swap_remove(idx);
            present.remove(&key);
            ops.push(EdgeOp::Delete(key.0, key.1));
        }
    }
    ops
}

/// Runs one dataset through every batch size: 1, 16, 128, and 1% of
/// `|E|` (the acceptance ceiling; smaller sizes show the per-update
/// cost floor).
fn run_dataset(dataset: Dataset) -> StreamBenchReport {
    let base = tc_datasets::load(dataset);
    let one_percent = (base.num_edges() / 100).max(1);
    let mut batch_sizes = vec![1usize, 16, 128];
    batch_sizes.retain(|&s| s < one_percent);
    batch_sizes.push(one_percent);
    let n = base.num_vertices() as u32;
    let mut g = DynamicGraph::new(base.clone());
    let triangles_start = g.triangles();

    // Shadow edge list for batch sampling and the recompute side.
    let mut edges: Vec<(u32, u32)> = base.edges().collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ dataset.name().len() as u64);

    let mut rows = Vec::with_capacity(batch_sizes.len());
    for &batch_size in &batch_sizes {
        let (mut inc, mut full) = (Samples::default(), Samples::default());
        for _ in 0..REPS {
            let ops = draw_batch(&mut rng, n, &mut edges, &mut present, batch_size);
            let result = inc.time(|| g.apply_batch(&ops));
            // The rebuilt graph is dropped outside the timed region.
            let (_rebuilt, full_count) = full.time(|| {
                let rebuilt = GraphBuilder::from_edges(n as usize, &edges).build();
                let count = tc_algos::cpu::forward(&rebuilt);
                (rebuilt, count)
            });
            assert_eq!(
                result.triangles,
                full_count,
                "incremental and recomputed counts diverged on {} (batch size {batch_size})",
                dataset.name()
            );
        }
        rows.push(StreamBenchRow {
            batch_size,
            batches: REPS,
            inc_mean_us: inc.mean_us(),
            full_mean_us: full.mean_us(),
        });
    }

    StreamBenchReport {
        dataset: dataset.name().to_string(),
        edges: base.num_edges(),
        triangles_start,
        triangles_end: g.triangles(),
        rows,
    }
}

/// The suite of a run: `small` trims to EmailEucore (the CI smoke run).
fn suite(small: bool) -> Vec<Dataset> {
    if small {
        vec![Dataset::EmailEucore]
    } else {
        default_suite()
    }
}

/// Runs the incremental-vs-recompute pass.
pub fn run(small: bool) -> Vec<StreamBenchReport> {
    suite(small).into_iter().map(run_dataset).collect()
}

/// Runs one dataset through the analytics read-latency pass at the
/// 1%-of-`|E|` batch size.
fn run_analytics_dataset(dataset: Dataset) -> AnalyticsReadReport {
    let base = tc_datasets::load(dataset);
    let batch_size = (base.num_edges() / 100).max(1);
    let n = base.num_vertices() as u32;
    let mut edges: Vec<(u32, u32)> = base.edges().collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(0xA11C ^ dataset.name().len() as u64);
    let mut scratch = tc_algos::engine::Scratch::new();

    let mut g = DynamicGraph::new(base.clone());
    // Cold build is the cost the incremental path pays once, outside
    // the per-batch read loop.
    let mut st = AnalyticsState::build(&base, &mut scratch);

    let [mut maintain, mut kt_full, mut cc_inc, mut cc_full]: [Samples; 4] = Default::default();
    for _ in 0..ANALYTICS_REPS {
        let ops = draw_batch(&mut rng, n, &mut edges, &mut present, batch_size);
        // The change records are dropped outside the timed region.
        let _changes = maintain.time(|| {
            let (_, changes) = g.apply_batch_recorded(&ops);
            st.apply_changes(&changes);
            changes
        });

        // Every timed read answers on the same materialised graph; the
        // materialisation itself is shared, untimed substrate, and so is
        // the CSR rebuilt from the shadow edge list.
        let m = g.materialize();
        let truss = kt_full.time(|| tc_apps::ktruss_decomposition_with(&m, &mut scratch));
        let clustering = cc_inc.time(|| tc_apps::global_from_counts(&m, st.local_counts()));
        let clustering_full =
            cc_full.time(|| tc_apps::global_clustering_coefficient_with(&m, &mut scratch));
        let rebuilt = GraphBuilder::from_edges(n as usize, &edges).build();
        assert_eq!(
            truss,
            tc_apps::ktruss_decomposition_with(&rebuilt, &mut scratch),
            "streamed and recomputed k-truss diverged on {}",
            dataset.name()
        );
        assert_eq!(
            clustering.to_bits(),
            clustering_full.to_bits(),
            "incremental and recomputed clustering diverged on {}",
            dataset.name()
        );
    }

    AnalyticsReadReport {
        dataset: dataset.name().to_string(),
        edges: base.num_edges(),
        row: AnalyticsReadRow {
            batch_size,
            batches: ANALYTICS_REPS,
            maintain_mean_us: maintain.mean_us(),
            ktruss_full_mean_us: kt_full.mean_us(),
            clustering_inc_mean_us: cc_inc.mean_us(),
            clustering_full_mean_us: cc_full.mean_us(),
        },
    }
}

/// Runs the analytics read-latency pass.
pub fn run_analytics(small: bool) -> Vec<AnalyticsReadReport> {
    suite(small)
        .into_iter()
        .map(run_analytics_dataset)
        .collect()
}

/// Renders the comparison as a text table.
pub fn render(reports: &[StreamBenchReport]) -> String {
    let mut t = Table::new([
        "dataset",
        "|E|",
        "batch",
        "incremental µs",
        "recompute µs",
        "speedup",
    ]);
    for report in reports {
        for row in &report.rows {
            t.row([
                report.dataset.clone(),
                report.edges.to_string(),
                row.batch_size.to_string(),
                format!("{:.1}", row.inc_mean_us),
                format!("{:.1}", row.full_mean_us),
                format!("{:.1}x", row.speedup()),
            ]);
        }
    }
    format!(
        "Streaming updates: incremental maintenance vs full recompute (mean of {REPS} batches)\n{}",
        t.render()
    )
}

/// Renders the analytics read-latency pass as a text table.
pub fn render_analytics(reports: &[AnalyticsReadReport]) -> String {
    let mut t = Table::new([
        "dataset",
        "|E|",
        "batch",
        "maintain µs",
        "ktruss full µs",
        "clustering inc µs",
        "clustering full µs",
        "clustering speedup",
    ]);
    for report in reports {
        let row = &report.row;
        t.row([
            report.dataset.clone(),
            report.edges.to_string(),
            row.batch_size.to_string(),
            format!("{:.1}", row.maintain_mean_us),
            format!("{:.1}", row.ktruss_full_mean_us),
            format!("{:.1}", row.clustering_inc_mean_us),
            format!("{:.1}", row.clustering_full_mean_us),
            format!("{:.1}x", row.clustering_speedup()),
        ]);
    }
    format!(
        "Analytics reads after 1%-of-|E| batches: maintained state vs full recompute \
         (mean of {ANALYTICS_REPS} batches, results bit-compared)\n{}",
        t.render()
    )
}

/// The `BENCH_stream.json` record of both passes.
pub fn to_json(reports: &[StreamBenchReport], analytics: &[AnalyticsReadReport]) -> Json {
    let datasets = reports.iter().map(|r| {
        let rows = r.rows.iter().map(|row| {
            obj(vec![
                ("batch_size", u(row.batch_size as u64)),
                ("batches", u(row.batches as u64)),
                ("inc_mean_us", Json::Float(row.inc_mean_us)),
                ("full_mean_us", Json::Float(row.full_mean_us)),
                ("speedup", Json::Float(row.speedup())),
            ])
        });
        obj(vec![
            ("dataset", s(&r.dataset)),
            ("edges", u(r.edges as u64)),
            ("triangles_start", u(r.triangles_start)),
            ("triangles_end", u(r.triangles_end)),
            ("rows", Json::Arr(rows.collect())),
        ])
    });
    let analytics = analytics.iter().map(|r| {
        let row = &r.row;
        obj(vec![
            ("dataset", s(&r.dataset)),
            ("edges", u(r.edges as u64)),
            ("batch_size", u(row.batch_size as u64)),
            ("batches", u(row.batches as u64)),
            ("maintain_mean_us", Json::Float(row.maintain_mean_us)),
            ("ktruss_full_mean_us", Json::Float(row.ktruss_full_mean_us)),
            (
                "clustering_inc_mean_us",
                Json::Float(row.clustering_inc_mean_us),
            ),
            (
                "clustering_full_mean_us",
                Json::Float(row.clustering_full_mean_us),
            ),
            ("clustering_speedup", Json::Float(row.clustering_speedup())),
        ])
    });
    let mut bench = measure::header("stream-incremental-vs-recompute");
    bench.push(("datasets", Json::Arr(datasets.collect())));
    bench.push(("analytics", Json::Arr(analytics.collect())));
    obj(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(inc: f64, full: f64) -> StreamBenchRow {
        StreamBenchRow {
            batch_size: 16,
            batches: REPS,
            inc_mean_us: inc,
            full_mean_us: full,
        }
    }

    #[test]
    fn speedup_is_full_over_incremental() {
        assert_eq!(row(10.0, 250.0).speedup(), 25.0);
        assert_eq!(row(0.0, 250.0).speedup(), 0.0);
        let analytics = AnalyticsReadRow {
            batch_size: 779,
            batches: ANALYTICS_REPS,
            maintain_mean_us: 100.0,
            ktruss_full_mean_us: 200.0,
            clustering_inc_mean_us: 2.0,
            clustering_full_mean_us: 80.0,
        };
        assert_eq!(analytics.clustering_speedup(), 40.0);
    }

    #[test]
    fn analytics_pass_reads_match_recomputes_on_a_small_graph() {
        let reports = run_analytics(true);
        assert_eq!(reports.len(), 1);
        let row = &reports[0].row;
        assert_eq!(row.batches, ANALYTICS_REPS);
        assert!(row.batch_size >= 1);
        // The run itself bit-compares results; here we only sanity-check
        // that every timed region actually ran.
        assert!(row.ktruss_full_mean_us > 0.0);
        assert!(row.clustering_full_mean_us > 0.0);
    }

    #[test]
    fn draw_batch_keeps_shadow_state_consistent() {
        let base = tc_graph::generators::erdos_renyi(64, 128, 7);
        let mut edges: Vec<(u32, u32)> = base.edges().collect();
        let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let before = edges.len();
        let ops = draw_batch(&mut rng, 64, &mut edges, &mut present, 10);
        assert_eq!(ops.len(), 10);
        assert_eq!(edges.len(), present.len());
        // 5 inserts, 5 deletes: net size unchanged.
        assert_eq!(edges.len(), before);
        // Applying the ops to a dynamic graph reproduces the shadow set.
        let mut g = DynamicGraph::new(base);
        let r = g.apply_batch(&ops);
        assert_eq!((r.rejected, r.noops), (0, 0), "drawn ops are all live");
        assert_eq!(g.num_edges(), edges.len());
    }
}
