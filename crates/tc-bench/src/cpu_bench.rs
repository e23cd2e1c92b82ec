//! CPU kernel sweep: the engine against its seed-era baselines, per
//! dataset and vertex ordering, timed on the oriented counting loop.
//!
//! For each dataset and each ordering of the preprocessing pipeline,
//! the directed triangle count runs under the two seed baselines —
//! `merge`, the two-pointer merge the engine keeps as its reference,
//! and the per-vertex `HashSet` `hashed` counter — and under
//! `adaptive`, the engine's size-ratio crossover with its gallop,
//! block-merge and pinned-probe tiers. Preprocessing happens outside
//! every timed region; each kernel keeps one warm [`Scratch`] across
//! its repetitions, so the timings isolate pure intersection strategy.
//! Every count is asserted against `node_iterator`.
//!
//! `experiments -- cpu-bench` renders the table and writes
//! `BENCH_cpu.json`, recording which SIMD tier ran (build with
//! `--features tc-algos/simd` for the AVX2 tier). The acceptance
//! target: adaptive ≥ 1.5× the best seed baseline on a real dataset,
//! and never > 10% slower than it anywhere.

use crate::fmt::Table;
use crate::measure;
use tc_algos::cpu;
use tc_algos::engine::{Kernel, Scratch};
use tc_core::{DirectionScheme, OrderingScheme, Preprocessor};
use tc_datasets::Dataset;
use tc_service::json::{obj, s, u, Json};

/// Timed repetitions per (dataset, ordering, kernel) cell, after one
/// untimed warm-up run.
const REPS: usize = 5;

/// The kernel column order: the seed baselines, then the engine.
pub const KERNELS: [&str; 3] = ["merge", "hashed", "adaptive"];

/// The orderings swept (direction is fixed to the paper's A-direction).
pub fn orderings() -> Vec<OrderingScheme> {
    vec![
        OrderingScheme::Original,
        OrderingScheme::DegreeOrder,
        OrderingScheme::AOrder,
    ]
}

/// One (ordering, kernel) measurement on one dataset.
#[derive(Clone, Debug)]
pub struct CpuBenchRow {
    /// Ordering wire name ("Origin", "D-order", "A-order").
    pub ordering: String,
    /// Kernel name (one of [`KERNELS`]).
    pub kernel: String,
    /// Mean counting time per run (µs) over `REPS` repetitions.
    pub mean_us: f64,
    /// Ratio of the seed merge kernel's time (same dataset and
    /// ordering) to this kernel's time; 1.0 for merge itself.
    pub speedup_vs_merge: f64,
}

/// All rows of one dataset, plus the acceptance-criteria digest.
#[derive(Clone, Debug)]
pub struct CpuBenchReport {
    /// Dataset wire name.
    pub dataset: String,
    /// Vertices.
    pub nodes: usize,
    /// Undirected edges.
    pub edges: usize,
    /// Exact triangle count (identical under every kernel — asserted).
    pub triangles: u64,
    /// One row per (ordering, kernel).
    pub rows: Vec<CpuBenchRow>,
    /// Max over orderings of `best_seed_time / adaptive_time`.
    pub best_adaptive_speedup: f64,
    /// Min over orderings of `best_seed_time / adaptive_time` — the
    /// no-regression guard (must stay above ~0.9).
    pub worst_adaptive_ratio: f64,
}

/// The full benchmark suite (the real-graph stand-ins of the acceptance
/// criteria).
pub fn default_suite() -> Vec<Dataset> {
    vec![Dataset::EmailEnron, Dataset::Gowalla]
}

fn time_counting(directed: &tc_graph::DirectedGraph, kernel_name: &str) -> (f64, u64) {
    let mut scratch = Scratch::new();
    // One untimed warm-up (and the count check), then the timed reps.
    let (triangles, samples) = measure::repeat(1, REPS, || match kernel_name {
        "merge" => cpu::directed_count_with(directed, Kernel::Merge, &mut scratch),
        "hashed" => cpu::hashed_count(directed),
        "adaptive" => cpu::directed_count_with(directed, Kernel::Adaptive, &mut scratch),
        other => unreachable!("unknown kernel {other}"),
    });
    (samples.mean_us(), triangles)
}

fn run_dataset(dataset: Dataset) -> CpuBenchReport {
    let g = tc_datasets::load(dataset);
    // Independent ground truth on graphs small enough for the O(Σ d²)
    // reference; the big datasets are covered by cross-kernel agreement
    // (and the differential suites pin every kernel to node_iterator on
    // generated graphs).
    let ground_truth =
        (g.num_vertices() <= 100_000 && g.num_edges() <= 150_000).then(|| cpu::node_iterator(&g));
    let mut triangles = None;
    let mut rows = Vec::new();
    // Per ordering: the best seed baseline's time over adaptive's.
    let mut adaptive_ratios = Vec::new();
    for ordering in orderings() {
        // Preprocess once per ordering, outside every timed region.
        let prep = Preprocessor::new()
            .direction(DirectionScheme::ADirection)
            .ordering(ordering)
            .run(&g);
        let means = KERNELS.map(|kernel| {
            let (mean_us, count) = time_counting(prep.directed(), kernel);
            let expect = *triangles.get_or_insert(ground_truth.unwrap_or(count));
            assert_eq!(
                count,
                expect,
                "{kernel} under {} disagrees on {} (node_iterator: {ground_truth:?})",
                ordering.name(),
                dataset.name()
            );
            mean_us
        });
        let [merge_us, hashed_us, adaptive_us] = means; // in KERNELS order
        for (kernel, mean_us) in KERNELS.into_iter().zip(means) {
            rows.push(CpuBenchRow {
                ordering: ordering.name().to_string(),
                kernel: kernel.to_string(),
                mean_us,
                speedup_vs_merge: measure::ratio(merge_us, mean_us),
            });
        }
        adaptive_ratios.push(measure::ratio(merge_us.min(hashed_us), adaptive_us));
    }

    CpuBenchReport {
        dataset: dataset.name().to_string(),
        nodes: g.num_vertices(),
        edges: g.num_edges(),
        triangles: triangles.unwrap_or(0),
        rows,
        best_adaptive_speedup: adaptive_ratios.iter().copied().fold(0.0, f64::max),
        worst_adaptive_ratio: adaptive_ratios.into_iter().reduce(f64::min).unwrap_or(0.0),
    }
}

/// Runs the benchmark. `small` trims to EmailEucore (the CI smoke run).
pub fn run(small: bool) -> Vec<CpuBenchReport> {
    let suite = if small {
        vec![Dataset::EmailEucore]
    } else {
        default_suite()
    };
    suite.into_iter().map(run_dataset).collect()
}

/// Renders the sweep as a text table.
pub fn render(reports: &[CpuBenchReport]) -> String {
    let mut t = Table::new(["dataset", "ordering", "kernel", "mean µs", "vs merge"]);
    for report in reports {
        for row in &report.rows {
            t.row([
                report.dataset.clone(),
                row.ordering.clone(),
                row.kernel.clone(),
                format!("{:.1}", row.mean_us),
                format!("{:.2}x", row.speedup_vs_merge),
            ]);
        }
    }
    let mut out = format!(
        "CPU intersection-kernel sweep (directed counting loop, mean of {REPS} runs, \
         simd tier: {})\n{}",
        tc_algos::simd::active_tier(),
        t.render()
    );
    for report in reports {
        out.push_str(&format!(
            "{}: adaptive vs best seed baseline — best {:.2}x, worst {:.2}x\n",
            report.dataset, report.best_adaptive_speedup, report.worst_adaptive_ratio
        ));
    }
    out
}

/// The `BENCH_cpu.json` record of a sweep.
pub fn to_json(reports: &[CpuBenchReport]) -> Json {
    let datasets = reports.iter().map(|r| {
        let rows = r.rows.iter().map(|row| {
            obj(vec![
                ("ordering", s(&row.ordering)),
                ("kernel", s(&row.kernel)),
                ("mean_us", Json::Float(row.mean_us)),
                ("speedup_vs_merge", Json::Float(row.speedup_vs_merge)),
            ])
        });
        obj(vec![
            ("dataset", s(&r.dataset)),
            ("nodes", u(r.nodes as u64)),
            ("edges", u(r.edges as u64)),
            ("triangles", u(r.triangles)),
            (
                "best_adaptive_speedup",
                Json::Float(r.best_adaptive_speedup),
            ),
            ("worst_adaptive_ratio", Json::Float(r.worst_adaptive_ratio)),
            ("rows", Json::Arr(rows.collect())),
        ])
    });
    let mut bench = measure::header("cpu-kernel-sweep");
    bench.push(("reps", u(REPS as u64)));
    bench.push(("datasets", Json::Arr(datasets.collect())));
    obj(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_consistent() {
        let reports = run(true);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.rows.len(), orderings().len() * KERNELS.len());
        // Every kernel in every ordering found the same count (asserted
        // inside run); the digest fields must be populated.
        assert!(r.best_adaptive_speedup >= r.worst_adaptive_ratio);
        assert!(r.worst_adaptive_ratio > 0.0);
        // The merge rows pin speedup 1.0 by construction.
        for row in r.rows.iter().filter(|row| row.kernel == "merge") {
            assert!((row.speedup_vs_merge - 1.0).abs() < 1e-9);
        }
    }
}
