//! # tc-analytics — incremental analytics on the delta layer
//!
//! `tc-stream` keeps the *global* triangle count exact under edge
//! streams; this crate extends the same incremental discipline to the
//! per-edge and per-vertex quantities the paper's motivating
//! applications consume (Section 1: k-truss, clustering coefficients,
//! link recommendation). An [`AnalyticsState`] maintains
//!
//! - **per-edge support** `|N(u) ∩ N(v)|` for every present edge, and
//! - **per-vertex local triangle counts**,
//!
//! exactly, by replaying the [`tc_stream::EdgeChange`] records emitted
//! by [`DynamicGraph::apply_batch_recorded`](tc_stream::DynamicGraph::apply_batch_recorded):
//! each committed change carries the wedge set it closed or opened, so
//! maintenance is `O(triangles touched)` bookkeeping with no graph
//! access at all. Downstream reads then skip their dominant cost:
//!
//! - **k-truss** becomes the peel alone
//!   ([`tc_apps::ktruss_from_supports`]) — the support pass is already
//!   maintained;
//! - **clustering coefficients** become pure arithmetic
//!   ([`tc_apps::coefficients_from_counts`]) over the maintained counts;
//! - **recommendation** needs no maintained state: it reads the stream's
//!   neighbour lists and degrees in place ([`tc_graph::Adjacency`]).
//!
//! Both read paths are bit-identical to fresh recomputes on the
//! materialised graph — the peel is deterministic in edge order and the
//! coefficient arithmetic sees identical integer inputs — which the
//! differential suite (`tests/analytics_differential.rs`) pins after
//! every random batch.
//!
//! The second half of the crate is the *subscription model*:
//! [`Predicate`]s ("support of `(u,v)` dropped below `k`", "clustering
//! of `v` moved by > ε", "count crossed `T`") are observed before and
//! after every applied batch and produce [`Notification`]s on exactly
//! the batches that trip them. `tc-service` attaches these to
//! connections as push subscriptions.
//!
//! ```
//! use tc_analytics::AnalyticsState;
//! use tc_algos::engine::Scratch;
//! use tc_graph::GraphBuilder;
//! use tc_stream::{DynamicGraph, EdgeOp};
//!
//! let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2)]).build();
//! let mut scratch = Scratch::new();
//! let mut state = AnalyticsState::build(&g, &mut scratch);
//! let mut dg = DynamicGraph::new(g);
//!
//! let (_, changes) = dg.apply_batch_recorded(&[EdgeOp::Insert(1, 3), EdgeOp::Insert(2, 3)]);
//! state.apply_changes(&changes);
//! assert_eq!(state.triangles(), 2);
//! assert_eq!(state.support(1, 2), Some(2)); // in 0-1-2 and 1-2-3
//! assert_eq!(state.local_count(3), 1);
//! ```

pub mod predicate;
pub mod state;

pub use predicate::{Notification, Observed, Predicate};
pub use state::AnalyticsState;
