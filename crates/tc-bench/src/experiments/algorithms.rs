//! Cross-algorithm overview (context for the paper's introduction, which
//! cites 9–260× GPU-over-serial-CPU speedups): all six GPU algorithms'
//! simulated kernel times side by side, plus the CPU baselines' wall
//! times on the same host, on one preprocessing configuration.
//!
//! The two time columns are *not* directly comparable (simulated GPU
//! cycles vs this machine's wall clock); the intra-column orderings are
//! the meaningful output.

use crate::fmt::{ms, Table};
use crate::grid::par_map;
use crate::measure::Samples;
use crate::runner::ExperimentEnv;
use tc_algos::cpu;
use tc_core::{DirectionScheme, OrderingScheme};
use tc_datasets::Dataset;

/// GPU rows: `(algorithm, dataset, kernel ms, triangles)`.
///
/// The (dataset × algorithm) grid runs in parallel; all algorithms of a
/// dataset share one cached preprocessing.
pub fn run_gpu(env: &ExperimentEnv, datasets: &[Dataset]) -> Vec<(String, String, f64, u64)> {
    let algos = tc_algos::all_gpu_algorithms();
    let cells: Vec<(Dataset, usize)> = datasets
        .iter()
        .flat_map(|&d| (0..algos.len()).map(move |a| (d, a)))
        .collect();
    par_map(&cells, |&(d, a)| {
        let prep = env.preprocessed(
            d,
            DirectionScheme::DegreeBased,
            OrderingScheme::Original,
            64,
        );
        let algo = &algos[a];
        let run = algo.count(prep.directed(), env.gpu());
        (
            algo.name().to_string(),
            d.name().to_string(),
            run.kernel_ms(env.gpu()),
            run.triangles,
        )
    })
}

/// CPU rows: `(baseline, dataset, wall ms, triangles)`.
///
/// Deliberately serial: these rows *are* wall-clock measurements of this
/// host, and running them under a loaded grid would distort them.
pub fn run_cpu(env: &ExperimentEnv, datasets: &[Dataset]) -> Vec<(String, String, f64, u64)> {
    let mut rows = Vec::new();
    for &d in datasets {
        let g = env.graph(d);
        let directed = DirectionScheme::DegreeBased.orient(&g);
        let timed = |name: &str, f: &dyn Fn() -> u64| {
            let mut wall = Samples::default();
            let tri = wall.time(f);
            (
                name.to_string(),
                d.name().to_string(),
                wall.mean_us() / 1e3,
                tri,
            )
        };
        rows.push(timed("edge-iterator", &|| cpu::edge_iterator(&g)));
        rows.push(timed("forward", &|| cpu::forward(&g)));
        rows.push(timed("directed merge", &|| cpu::directed_count(&directed)));
        rows.push(timed("hashed", &|| cpu::hashed_count(&directed)));
        rows.push(timed("parallel x8", &|| cpu::parallel_count(&directed, 8)));
    }
    rows
}

/// Renders both tables.
pub fn render(env: &ExperimentEnv, datasets: &[Dataset]) -> String {
    let mut out = String::from(
        "Algorithm overview (D-direction + original order)\n\nSimulated GPU kernels:\n",
    );
    let mut t = Table::new(["algorithm", "dataset", "kernel ms", "triangles"]);
    for (a, d, k, tri) in run_gpu(env, datasets) {
        t.row([a, d, ms(k), tri.to_string()]);
    }
    out.push_str(&t.render());

    out.push_str("\nCPU baselines (wall-clock on this host):\n");
    let mut t = Table::new(["baseline", "dataset", "wall ms", "triangles"]);
    for (a, d, k, tri) in run_cpu(env, datasets) {
        t.row([a, d, ms(k), tri.to_string()]);
    }
    out.push_str(&t.render());
    out
}
