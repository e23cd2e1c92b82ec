//! Experiment harness: one module per table/figure of the paper's
//! evaluation (Section 6), shared runner utilities, plain-text table
//! rendering, and the `cpu-bench`, `stream-bench` and `serve-bench`
//! measurements behind the committed `BENCH_*.json` files. Every
//! wall-clock timing and every BENCH file goes through [`measure`].
//!
//! Regenerate any experiment with
//! `cargo run --release -p tc-bench --bin experiments -- <id>`, where
//! `<id>` is `table2`, `table3`, `table5`, `table6`, `fig7` … `fig16`, or
//! `all`. Results print as aligned text tables; `EXPERIMENTS.md` records a
//! reference run against the paper's numbers.

pub mod cpu_bench;
pub mod experiments;
pub mod fmt;
pub mod grid;
pub mod measure;
pub mod runner;
pub mod serve_bench;
pub mod stream_bench;

pub use runner::{ExperimentEnv, RunMeasurement};
