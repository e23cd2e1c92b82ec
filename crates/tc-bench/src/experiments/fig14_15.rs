//! Figures 14 and 15: the remaining reordering hosts.
//!
//! Figure 14 runs A-order against Original and D-order on Gunrock
//! (6.0–82.4% total-time improvement in the paper). Figure 15 swaps Fox's
//! default logarithmic radix binning for the balanced *edge* ordering
//! (2–26.2% in the paper) — the reorder unit there is the edge, not the
//! vertex.

use crate::fmt::{ms, pct, Table};
use crate::grid::par_map;
use crate::measure::Samples;
use crate::runner::{measure_cached, ExperimentEnv};
use tc_algos::fox::Fox;
use tc_algos::gunrock::Gunrock;
use tc_algos::GpuTriangleCounter;
use tc_core::ordering::a_order_edges;
use tc_core::{DirectionScheme, OrderingScheme};
use tc_datasets::Dataset;

/// One Figure 14 row.
#[derive(Clone, Debug)]
pub struct GunrockRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Original ordering kernel time.
    pub original: f64,
    /// D-order kernel time.
    pub d_order: f64,
    /// A-order kernel time.
    pub a_order: f64,
    /// A-order reordering wall time.
    pub a_order_prep: f64,
}

/// One Figure 15 row.
#[derive(Clone, Debug)]
pub struct FoxRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Fox's default radix-binned edge order.
    pub binned: f64,
    /// Balanced (A-order over edges) kernel time.
    pub balanced: f64,
    /// Edge-reordering wall time.
    pub balanced_prep: f64,
}

/// Shared dataset suite for both figures.
pub fn default_suite() -> Vec<Dataset> {
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

/// Figure 14: vertex orderings on Gunrock, over the parallel
/// (dataset × ordering) grid.
pub fn run_fig14(env: &ExperimentEnv, datasets: &[Dataset]) -> Vec<GunrockRow> {
    const SCHEMES: [OrderingScheme; 3] = [
        OrderingScheme::Original,
        OrderingScheme::DegreeOrder,
        OrderingScheme::AOrder,
    ];
    let algo = Gunrock::binary_search();
    let cells: Vec<(Dataset, OrderingScheme)> = datasets
        .iter()
        .flat_map(|&d| SCHEMES.iter().map(move |&s| (d, s)))
        .collect();
    let runs = par_map(&cells, |&(d, scheme)| {
        measure_cached(env, d, DirectionScheme::DegreeBased, scheme, 64, &algo)
    });
    datasets
        .iter()
        .zip(runs.chunks(SCHEMES.len()))
        .map(|(&d, r)| GunrockRow {
            dataset: d.name(),
            original: r[0].kernel_ms,
            d_order: r[1].kernel_ms,
            a_order: r[2].kernel_ms,
            a_order_prep: r[2].ordering_ms,
        })
        .collect()
}

/// Figure 15: edge orderings on Fox's algorithm, one parallel grid cell
/// per dataset (both edge orders inside a cell share its oriented graph).
pub fn run_fig15(env: &ExperimentEnv, datasets: &[Dataset]) -> Vec<FoxRow> {
    par_map(datasets, |&d| {
        let g = env.graph(d);
        let directed = DirectionScheme::DegreeBased.orient(&g);
        let binned = Fox::default().count(&directed, env.gpu());

        // One block consumes warps_per_block × edges_per_warp edges.
        let edges_per_block = env.gpu().warps_per_block * Fox::default().edges_per_warp;
        let mut prep = Samples::default();
        let order = prep.time(|| a_order_edges(&directed, env.params(), edges_per_block));
        let balanced = Fox::with_edge_order(order).count(&directed, env.gpu());
        assert_eq!(binned.triangles, balanced.triangles, "{}", d.name());

        FoxRow {
            dataset: d.name(),
            binned: env.gpu().cycles_to_ms(binned.metrics.kernel_cycles),
            balanced: env.gpu().cycles_to_ms(balanced.metrics.kernel_cycles),
            balanced_prep: prep.mean_us() / 1e3,
        }
    })
}

/// Renders Figure 14.
pub fn render_fig14(rows: &[GunrockRow]) -> String {
    let mut t = Table::new([
        "dataset", "Origin", "D-order", "A-order", "A prep", "speedup",
    ]);
    for r in rows {
        t.row([
            r.dataset.to_string(),
            ms(r.original),
            ms(r.d_order),
            ms(r.a_order),
            ms(r.a_order_prep),
            pct(1.0 - (r.a_order + r.a_order_prep) / r.original),
        ]);
    }
    format!(
        "Figure 14: vertex orderings on Gunrock (kernel ms; speedup = A-order total vs Origin)\n{}",
        t.render()
    )
}

/// Renders Figure 15.
pub fn render_fig15(rows: &[FoxRow]) -> String {
    let mut t = Table::new(["dataset", "Fox binned", "balanced", "prep", "speedup"]);
    for r in rows {
        t.row([
            r.dataset.to_string(),
            ms(r.binned),
            ms(r.balanced),
            ms(r.balanced_prep),
            pct(1.0 - (r.balanced + r.balanced_prep) / r.binned),
        ]);
    }
    format!(
        "Figure 15: edge reordering on Fox's algorithm (kernel ms; speedup = balanced total vs binned)\n{}",
        t.render()
    )
}
