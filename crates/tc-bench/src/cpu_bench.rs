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
use std::time::Instant;
use tc_algos::cpu;
use tc_algos::engine::{Kernel, Scratch};
use tc_core::{DirectionScheme, OrderingScheme, Preprocessor};
use tc_datasets::Dataset;

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
    let run = |scratch: &mut Scratch| match kernel_name {
        "merge" => cpu::directed_count_with(directed, Kernel::Merge, scratch),
        "hashed" => cpu::hashed_count(directed),
        "adaptive" => cpu::directed_count_with(directed, Kernel::Adaptive, scratch),
        other => unreachable!("unknown kernel {other}"),
    };
    let triangles = run(&mut scratch); // warm-up (and the count check)
    let mut total_us = 0f64;
    for _ in 0..REPS {
        let t = Instant::now();
        let got = run(&mut scratch);
        total_us += t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(got, triangles, "kernel must be deterministic");
    }
    (total_us / REPS as f64, triangles)
}

fn run_dataset(dataset: Dataset) -> CpuBenchReport {
    let g = tc_datasets::load(dataset);
    let mut rows = Vec::new();
    let mut triangles = None;
    let mut best_adaptive_speedup = f64::MIN;
    let mut worst_adaptive_ratio = f64::MAX;
    // Independent ground truth on graphs small enough for the O(Σ d²)
    // reference; the big datasets are covered by cross-kernel agreement
    // (and the differential suites pin every kernel to node_iterator on
    // generated graphs).
    let ground_truth =
        (g.num_vertices() <= 100_000 && g.num_edges() <= 150_000).then(|| cpu::node_iterator(&g));

    for ordering in orderings() {
        // Preprocess once per ordering, outside every timed region.
        let prep = Preprocessor::new()
            .direction(DirectionScheme::ADirection)
            .ordering(ordering)
            .run(&g);
        let directed = prep.directed();

        let mut merge_us = 0f64;
        let mut best_seed_us = f64::MAX;
        let mut adaptive_us = 0f64;
        for kernel in KERNELS {
            let (mean_us, count) = time_counting(directed, kernel);
            let expect = *triangles.get_or_insert(count);
            assert_eq!(
                count,
                expect,
                "{} under {} disagrees on {}",
                kernel,
                ordering.name(),
                dataset.name()
            );
            if let Some(truth) = ground_truth {
                assert_eq!(
                    count,
                    truth,
                    "{} under {} disagrees with node_iterator on {}",
                    kernel,
                    ordering.name(),
                    dataset.name()
                );
            }
            if kernel == "merge" {
                merge_us = mean_us;
            }
            if kernel == "merge" || kernel == "hashed" {
                best_seed_us = best_seed_us.min(mean_us);
            }
            if kernel == "adaptive" {
                adaptive_us = mean_us;
            }
            rows.push(CpuBenchRow {
                ordering: ordering.name().to_string(),
                kernel: kernel.to_string(),
                mean_us,
                speedup_vs_merge: 0.0, // filled below once merge is known
            });
        }
        for row in rows.iter_mut().rev().take(KERNELS.len()) {
            row.speedup_vs_merge = if merge_us > 0.0 && row.mean_us > 0.0 {
                merge_us / row.mean_us
            } else {
                0.0
            };
        }
        if adaptive_us > 0.0 && best_seed_us < f64::MAX {
            let ratio = best_seed_us / adaptive_us;
            best_adaptive_speedup = best_adaptive_speedup.max(ratio);
            worst_adaptive_ratio = worst_adaptive_ratio.min(ratio);
        }
    }

    CpuBenchReport {
        dataset: dataset.name().to_string(),
        nodes: g.num_vertices(),
        edges: g.num_edges(),
        triangles: triangles.unwrap_or(0),
        rows,
        best_adaptive_speedup: if best_adaptive_speedup == f64::MIN {
            0.0
        } else {
            best_adaptive_speedup
        },
        worst_adaptive_ratio: if worst_adaptive_ratio == f64::MAX {
            0.0
        } else {
            worst_adaptive_ratio
        },
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

/// Machine-readable form (hand-rolled JSON; the workspace has no serde).
pub fn to_json(reports: &[CpuBenchReport]) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "{{\n  \"benchmark\": \"cpu-kernel-sweep\",\n  \"cores\": {cores},\n  \"reps\": {REPS},\n  \
         \"simd_tier\": \"{}\",\n  \"datasets\": [\n",
        tc_algos::simd::active_tier()
    );
    for (i, r) in reports.iter().enumerate() {
        let rows: Vec<String> = r
            .rows
            .iter()
            .map(|row| {
                format!(
                    "      {{\"ordering\": \"{}\", \"kernel\": \"{}\", \"mean_us\": {:.2}, \
                     \"speedup_vs_merge\": {:.3}}}",
                    row.ordering, row.kernel, row.mean_us, row.speedup_vs_merge
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"nodes\": {}, \"edges\": {}, \"triangles\": {}, \
             \"best_adaptive_speedup\": {:.3}, \"worst_adaptive_ratio\": {:.3}, \"rows\": [\n{}\n    ]}}{}\n",
            r.dataset,
            r.nodes,
            r.edges,
            r.triangles,
            r.best_adaptive_speedup,
            r.worst_adaptive_ratio,
            rows.join(",\n"),
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
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

    #[test]
    fn json_shape_is_valid() {
        let reports = vec![CpuBenchReport {
            dataset: "email-Enron".into(),
            nodes: 12_000,
            edges: 77_954,
            triangles: 42,
            rows: vec![CpuBenchRow {
                ordering: "A-order".into(),
                kernel: "adaptive".into(),
                mean_us: 1234.5,
                speedup_vs_merge: 2.0,
            }],
            best_adaptive_speedup: 2.0,
            worst_adaptive_ratio: 1.5,
        }];
        let json = to_json(&reports);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"speedup_vs_merge\": 2.000"));
        assert!(json.contains("\"best_adaptive_speedup\": 2.000"));
        assert_eq!(json.matches("\"kernel\"").count(), 1);
    }
}
