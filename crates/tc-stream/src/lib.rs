//! # tc-stream — dynamic graphs with incremental triangle maintenance
//!
//! The paper amortises preprocessing over a *static* graph and
//! `tc-service` amortises it across *queries*; this crate closes the
//! remaining gap — a **live edge stream**. A [`DynamicGraph`] keeps the
//! exact triangle count fresh under arbitrary interleavings of edge
//! inserts and deletes, at per-update cost proportional to the two
//! endpoints' degrees instead of a full recount (`BENCH_stream.json`
//! quantifies the gap: ≥10× per batch for batches up to 1% of `|E|`).
//!
//! Three ideas, mirroring the rest of the workspace:
//!
//! 1. **Changed rows over an immutable base** — the graph is an
//!    immutable [`tc_graph::CsrGraph`] snapshot plus an overlay holding
//!    the whole current row of every vertex changed since it, so every
//!    neighbourhood is a sorted slice, as in a CSR, and the CSR the
//!    paper's kernels rely on never mutates in place. The overlay's
//!    format is private to this crate.
//! 2. **Per-update intersection deltas** — inserting or deleting
//!    `{u, v}` changes the triangle count by exactly `|N(u) ∩ N(v)|`,
//!    the adaptive engine's intersection of the two rows; batches are
//!    deduplicated (last-wins per edge) and applied in ascending edge
//!    order, making the outcome a pure function of (state, batch).
//! 3. **Threshold compaction** — once a batch leaves the overlay over a
//!    budget ([`CompactionPolicy`]), the same batch folds it into a
//!    fresh base CSR, so reads through the overlay stay cheap and the
//!    base/overlay split depends on the batches alone. Preprocessed
//!    variants of a streamed graph are the consumer's business:
//!    `tc-service` drops them on every update and re-runs the paper's
//!    preprocessing on the materialised graph when a query asks for one.
//!
//! Batches can also be applied *recorded*
//! ([`DynamicGraph::apply_batch_recorded`]), yielding one [`EdgeChange`]
//! per committed change with the wedge set it closed or opened — the
//! change hook `tc-analytics` rides to maintain per-vertex local
//! triangle counts incrementally.
//!
//! ```
//! use tc_stream::{DynamicGraph, EdgeOp};
//! use tc_graph::GraphBuilder;
//!
//! let base = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).build();
//! let mut g = DynamicGraph::new(base);
//! let r = g.apply_batch(&[EdgeOp::Insert(0, 2), EdgeOp::Insert(1, 3)]);
//! assert_eq!(r.triangles, 2); // 0-1-2 and 1-2-3 both closed
//! let r = g.apply_batch(&[EdgeOp::Delete(1, 2)]);
//! assert_eq!(r.triangles_delta, -2);
//! assert_eq!(g.triangles(), 0);
//! ```
//!
//! The differential test suite (`tests/stream_differential.rs`) drives
//! random insert/delete batches over generated graphs and checks the
//! maintained count against a fresh CPU recount of the materialized
//! graph after every batch, at one and many threads.

mod delta;
pub mod graph;

pub use graph::{
    BatchResult, CompactionPolicy, DynamicGraph, EdgeChange, EdgeOp, StreamCounters, StreamSnapshot,
};
