//! Criterion benchmarks for the preprocessing stages themselves — the
//! wall-clock side of the paper's "total time" accounting.
//!
//! Covers the three directing schemes (A-direction must stay within a
//! small constant of D-direction to be "lightweight"), the A-direction
//! ablation (exact peel vs the pseudocode's threshold doubling), all seven
//! ordering schemes (showing why DFS/BFS-R/SlashBurn/GRO lose on total
//! time), and the model calibration pass.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tc_core::model::ModelParams;
use tc_core::ordering::{OrderingContext, OrderingScheme};
use tc_core::DirectionScheme;
use tc_datasets::Dataset;

fn bench_direction(c: &mut Criterion) {
    let g = tc_datasets::load(Dataset::Gowalla);
    let mut group = c.benchmark_group("direction");
    group.sample_size(10);
    for scheme in [
        DirectionScheme::IdBased,
        DirectionScheme::DegreeBased,
        DirectionScheme::ADirection,
        DirectionScheme::ADirectionPhased,
    ] {
        group.bench_function(BenchmarkId::from_parameter(scheme.name()), |b| {
            b.iter(|| std::hint::black_box(scheme.rank(&g)));
        });
    }
    group.finish();
}

fn bench_ordering(c: &mut Criterion) {
    let g = tc_datasets::load(Dataset::EmailEnron);
    let params = ModelParams::default_analytic();
    let directed = DirectionScheme::DegreeBased.orient(&g);
    let out_degrees = directed.out_degrees();
    let ctx = OrderingContext {
        out_degrees: &out_degrees,
        params: &params,
        bucket_size: 64,
    };
    let mut group = c.benchmark_group("ordering");
    group.sample_size(10);
    for scheme in OrderingScheme::all() {
        group.bench_function(BenchmarkId::from_parameter(scheme.name()), |b| {
            b.iter(|| std::hint::black_box(scheme.permutation(&g, &ctx)));
        });
    }
    group.finish();
}

fn bench_calibration(c: &mut Criterion) {
    let gpu = tc_gpusim::GpuConfig::titan_xp_like();
    let mut group = c.benchmark_group("calibration");
    group.sample_size(10);
    group.bench_function("profile+fit (standard lengths)", |b| {
        b.iter(|| std::hint::black_box(tc_core::model::calibrate(&gpu)));
    });
    group.finish();
}

criterion_group!(benches, bench_direction, bench_ordering, bench_calibration);
criterion_main!(benches);
