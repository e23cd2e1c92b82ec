//! Figures 12 and 13: the edge-directing evaluation.
//!
//! For each dataset and each directing scheme (ID-based, D-direction,
//! A-direction) the paper stacks preprocessing time on kernel time and
//! draws the A-vs-D speedup as a line. Figure 12 hosts Hu's algorithm
//! (9.4–42.4% kernel speedup in the paper), Figure 13 Bisson's
//! (2.6–54.9%).

use crate::fmt::{ms, pct, Table};
use crate::grid::par_map;
use crate::runner::{measure_cached, ExperimentEnv, RunMeasurement};
use tc_algos::GpuTriangleCounter;
use tc_core::{DirectionScheme, OrderingScheme};
use tc_datasets::Dataset;

/// One dataset's measurements across the three schemes.
#[derive(Clone, Debug)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// ID-based run.
    pub id_based: RunMeasurement,
    /// D-direction run.
    pub d_direction: RunMeasurement,
    /// A-direction run.
    pub a_direction: RunMeasurement,
}

impl Row {
    /// Kernel-time speedup of A-direction over D-direction.
    pub fn kernel_speedup(&self) -> f64 {
        1.0 - self.a_direction.kernel_ms / self.d_direction.kernel_ms
    }

    /// Total-time (kernel + directing) speedup of A over D.
    pub fn total_speedup(&self) -> f64 {
        1.0 - self.a_direction.total_with_direction_ms()
            / self.d_direction.total_with_direction_ms()
    }
}

/// Figure 12's dataset list.
pub fn fig12_suite() -> Vec<Dataset> {
    use Dataset::*;
    vec![
        EmailEnron,
        EmailEuall,
        Gowalla,
        CitPatent,
        ComLj,
        WikiTopcats,
        KronLogn18,
        KronLogn21,
    ]
}

/// Figure 13's dataset list (Bisson's block-per-vertex kernel is costly on
/// huge vertex counts, so the paper uses fewer datasets).
pub fn fig13_suite() -> Vec<Dataset> {
    use Dataset::*;
    vec![
        EmailEnron,
        EmailEuall,
        Gowalla,
        CitPatent,
        WikiTopcats,
        KronLogn18,
    ]
}

/// Runs the directing comparison for one algorithm, evaluating the
/// (dataset × scheme) grid in parallel.
pub fn run_on(
    env: &ExperimentEnv,
    datasets: &[Dataset],
    algo: &dyn GpuTriangleCounter,
) -> Vec<Row> {
    const SCHEMES: [DirectionScheme; 3] = [
        DirectionScheme::IdBased,
        DirectionScheme::DegreeBased,
        DirectionScheme::ADirection,
    ];
    let cells: Vec<(Dataset, DirectionScheme)> = datasets
        .iter()
        .flat_map(|&d| SCHEMES.iter().map(move |&s| (d, s)))
        .collect();
    let runs = par_map(&cells, |&(d, scheme)| {
        measure_cached(env, d, scheme, OrderingScheme::Original, 64, algo)
    });
    datasets
        .iter()
        .zip(runs.chunks(SCHEMES.len()))
        .map(|(&d, r)| Row {
            dataset: d.name(),
            id_based: r[0].clone(),
            d_direction: r[1].clone(),
            a_direction: r[2].clone(),
        })
        .collect()
}

/// Renders either figure.
pub fn render(figure: &str, algo_name: &str, rows: &[Row]) -> String {
    let mut t = Table::new([
        "dataset",
        "ID kern",
        "ID prep",
        "D kern",
        "D prep",
        "A kern",
        "A prep",
        "A/D kernel",
        "A/D total",
    ]);
    for r in rows {
        t.row([
            r.dataset.to_string(),
            ms(r.id_based.kernel_ms),
            ms(r.id_based.direction_ms),
            ms(r.d_direction.kernel_ms),
            ms(r.d_direction.direction_ms),
            ms(r.a_direction.kernel_ms),
            ms(r.a_direction.direction_ms),
            pct(r.kernel_speedup()),
            pct(r.total_speedup()),
        ]);
    }
    format!(
        "{figure}: edge-directing schemes on {algo_name} (ms; speedup = A-direction vs D-direction)\n{}",
        t.render()
    )
}
