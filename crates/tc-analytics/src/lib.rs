//! # tc-analytics — incremental analytics on the delta layer
//!
//! `tc-stream` keeps the *global* triangle count exact under edge
//! streams; this crate extends the same incremental discipline to the
//! per-vertex quantities behind the clustering coefficients, one of the
//! paper's motivating applications (Section 1). An [`AnalyticsState`]
//! maintains every vertex's **local triangle count** exactly, by
//! replaying the [`tc_stream::EdgeChange`] records emitted by
//! [`DynamicGraph::apply_batch_recorded`](tc_stream::DynamicGraph::apply_batch_recorded):
//! each committed change carries the wedge set it closed or opened, so
//! maintenance is `O(triangles touched)` bookkeeping with no graph
//! access at all. Reads on a stream then need:
//!
//! - **clustering coefficients**: pure arithmetic
//!   ([`tc_apps::coefficients_from_counts`]) over the maintained counts
//!   and the stream's degrees;
//! - **recommendation**: no maintained state; it reads the stream's
//!   neighbour lists and degrees in place ([`tc_graph::Adjacency`]);
//! - **edge support** `|N(u) ∩ N(v)|`: one intersection of the two
//!   rows when a [`Predicate::SupportBelow`] is observed. No per-edge
//!   state is kept, and k-truss recomputes its supports on the
//!   materialised graph, as it does on a static one.
//!
//! The clustering read path is bit-identical to a fresh recompute on the
//! materialised graph (the coefficient arithmetic sees identical integer
//! inputs), which the differential suite
//! (`tests/analytics_differential.rs`) pins after every random batch.
//!
//! The second half of the crate is the *subscription model*:
//! [`Predicate`]s ("support of `(u,v)` dropped below `k`", "clustering
//! of `v` moved by > ε", "count crossed `T`") are observed before and
//! after every applied batch and produce [`Notification`]s on exactly
//! the batches that trip them. `tc-service` attaches these to
//! connections as push subscriptions.
//!
//! ```
//! use tc_analytics::{AnalyticsState, Observed, Predicate};
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
//! assert_eq!(state.local_count(3), 1);
//! assert_eq!(state.local_counts(), &[1, 2, 2, 1]);
//!
//! // Edge 1-2 sits in 0-1-2 and 1-2-3.
//! let watch = Predicate::SupportBelow { u: 1, v: 2, k: 3 };
//! assert_eq!(watch.observe(&state, &dg), Observed::Support(Some(2)));
//! ```

pub mod predicate;
pub mod state;

pub use predicate::{Notification, Observed, Predicate};
pub use state::AnalyticsState;
