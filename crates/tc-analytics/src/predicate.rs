//! Subscription predicates and the notifications they produce.
//!
//! A predicate is evaluated around every applied batch: the server
//! snapshots the observed value *before* the batch (under the same lock
//! the apply holds), applies the batch, observes again, and fires a
//! [`Notification`] iff the transition trips the predicate. Evaluation
//! is therefore exact and race-free with respect to the batch — a
//! predicate can never miss a crossing or see a torn intermediate
//! state, and two replicas applying the same batches fire identical
//! notification sequences.

use crate::state::AnalyticsState;
use tc_algos::engine;
use tc_graph::{Adjacency, VertexId};
use tc_stream::DynamicGraph;

/// A condition on the analytics state, checked after every applied
/// batch on the subscribed dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Predicate {
    /// Fires when the support of edge `{u, v}` transitions from
    /// "present with support ≥ k" to "absent or support < k". Edge
    /// deletion counts as dropping below any `k` — the k-truss
    /// invariant the subscriber is watching is gone either way.
    SupportBelow {
        /// Smaller endpoint (canonical `u < v`).
        u: VertexId,
        /// Larger endpoint.
        v: VertexId,
        /// The threshold: fire when support falls below this.
        k: u32,
    },
    /// Fires when the local clustering coefficient of `vertex` moves by
    /// strictly more than `epsilon` (either direction) across a batch.
    ClusteringDelta {
        /// The watched vertex.
        vertex: VertexId,
        /// Minimum absolute coefficient change that fires.
        epsilon: f64,
    },
    /// Fires when the global triangle count crosses `threshold` in
    /// either direction (`before < T ≤ after` or `after < T ≤ before`).
    CountCross {
        /// The watched count level.
        threshold: u64,
    },
}

/// The value a predicate watches, captured at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Observed {
    /// Support of the watched edge; `None` while the edge is absent.
    Support(Option<u32>),
    /// Local clustering coefficient of the watched vertex.
    Clustering(f64),
    /// Global triangle count.
    Count(u64),
}

/// A fired predicate, with the before/after evidence.
#[derive(Clone, Debug, PartialEq)]
pub enum Notification {
    /// [`Predicate::SupportBelow`] tripped.
    SupportBelow {
        /// Smaller endpoint of the watched edge.
        u: VertexId,
        /// Larger endpoint of the watched edge.
        v: VertexId,
        /// The subscribed threshold.
        k: u32,
        /// Support after the batch (0 when the edge is gone).
        support: u32,
        /// Whether the edge still exists after the batch.
        exists: bool,
    },
    /// [`Predicate::ClusteringDelta`] tripped.
    ClusteringDelta {
        /// The watched vertex.
        vertex: VertexId,
        /// The subscribed sensitivity.
        epsilon: f64,
        /// Coefficient before the batch.
        before: f64,
        /// Coefficient after the batch.
        after: f64,
    },
    /// [`Predicate::CountCross`] tripped.
    CountCross {
        /// The subscribed level.
        threshold: u64,
        /// Count before the batch.
        before: u64,
        /// Count after the batch.
        after: u64,
    },
}

impl Predicate {
    /// Captures the value this predicate watches from the maintained
    /// state and the live graph: an edge's support is the common
    /// neighbours of its endpoints' rows, and a clustering coefficient
    /// takes the vertex's degree from its row.
    pub fn observe(&self, state: &AnalyticsState, g: &DynamicGraph) -> Observed {
        match *self {
            Predicate::SupportBelow { u, v, .. } => {
                let present = (u.max(v) as usize) < g.num_vertices() && g.has_edge(u, v);
                Observed::Support(
                    present.then(|| engine::intersect_count(g.neighbors(u), g.neighbors(v)) as u32),
                )
            }
            // The arithmetic every clustering answer folds, so an
            // observed value is bit-identical to a fresh recompute.
            Predicate::ClusteringDelta { vertex, .. } => Observed::Clustering(
                tc_apps::local_coefficient(state.local_count(vertex), g.degree(vertex)),
            ),
            Predicate::CountCross { .. } => Observed::Count(state.triangles()),
        }
    }

    /// Checks the before→after transition; `Some` iff the predicate
    /// fired. `before` must have been produced by
    /// [`observe`](Predicate::observe) on the same predicate.
    pub fn evaluate(&self, before: Observed, after: Observed) -> Option<Notification> {
        match (*self, before, after) {
            (Predicate::SupportBelow { u, v, k }, Observed::Support(b), Observed::Support(a)) => {
                let below = |s: Option<u32>| s.is_none_or(|s| s < k);
                if !below(b) && below(a) {
                    Some(Notification::SupportBelow {
                        u,
                        v,
                        k,
                        support: a.unwrap_or(0),
                        exists: a.is_some(),
                    })
                } else {
                    None
                }
            }
            (
                Predicate::ClusteringDelta { vertex, epsilon },
                Observed::Clustering(b),
                Observed::Clustering(a),
            ) => {
                if (a - b).abs() > epsilon {
                    Some(Notification::ClusteringDelta {
                        vertex,
                        epsilon,
                        before: b,
                        after: a,
                    })
                } else {
                    None
                }
            }
            (Predicate::CountCross { threshold }, Observed::Count(b), Observed::Count(a)) => {
                if (b >= threshold) != (a >= threshold) {
                    Some(Notification::CountCross {
                        threshold,
                        before: b,
                        after: a,
                    })
                } else {
                    None
                }
            }
            _ => {
                debug_assert!(false, "observed values from a different predicate");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_algos::engine::Scratch;
    use tc_graph::GraphBuilder;
    use tc_stream::EdgeOp;

    fn setup() -> (DynamicGraph, AnalyticsState) {
        // Triangle {0,1,2} plus pendant 2-3.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).build();
        let mut scratch = Scratch::new();
        let st = AnalyticsState::build(&g, &mut scratch);
        (DynamicGraph::new(g), st)
    }

    fn step(
        g: &mut DynamicGraph,
        st: &mut AnalyticsState,
        p: Predicate,
        ops: &[EdgeOp],
    ) -> Option<Notification> {
        let before = p.observe(st, g);
        let (_, changes) = g.apply_batch_recorded(ops);
        st.apply_changes(&changes);
        let after = p.observe(st, g);
        p.evaluate(before, after)
    }

    #[test]
    fn support_below_fires_on_drop_and_deletion() {
        let (mut g, mut st) = setup();
        let p = Predicate::SupportBelow { u: 0, v: 1, k: 1 };
        // Support of (0,1) is 1; deleting (1,2) drops it to 0.
        let n = step(&mut g, &mut st, p, &[EdgeOp::Delete(1, 2)]);
        assert_eq!(
            n,
            Some(Notification::SupportBelow {
                u: 0,
                v: 1,
                k: 1,
                support: 0,
                exists: true
            })
        );
        // Already below: no refire on an unrelated batch.
        assert_eq!(step(&mut g, &mut st, p, &[EdgeOp::Insert(0, 3)]), None);

        // Fresh setup: deleting the watched edge itself fires too.
        let (mut g, mut st) = setup();
        let n = step(&mut g, &mut st, p, &[EdgeOp::Delete(0, 1)]);
        assert_eq!(
            n,
            Some(Notification::SupportBelow {
                u: 0,
                v: 1,
                k: 1,
                support: 0,
                exists: false
            })
        );
    }

    #[test]
    fn clustering_delta_fires_on_big_moves_only() {
        let (mut g, mut st) = setup();
        let p = Predicate::ClusteringDelta {
            vertex: 2,
            epsilon: 0.2,
        };
        // C(2) = 2·1/(3·2) = 1/3; deleting (0,1) drops it to 0.
        let n = step(&mut g, &mut st, p, &[EdgeOp::Delete(0, 1)]);
        match n {
            Some(Notification::ClusteringDelta { before, after, .. }) => {
                assert!((before - 1.0 / 3.0).abs() < 1e-12);
                assert_eq!(after, 0.0);
            }
            other => panic!("expected clustering notification, got {other:?}"),
        }
        // Deleting (0,2) leaves C(2) at 0 (no triangles either side):
        // below-epsilon moves stay silent.
        assert_eq!(step(&mut g, &mut st, p, &[EdgeOp::Delete(0, 2)]), None);
    }

    #[test]
    fn count_cross_fires_both_directions() {
        let (mut g, mut st) = setup();
        let p = Predicate::CountCross { threshold: 2 };
        // 1 triangle; inserting (1,3) and (0,3) adds 0-1-3, 1-2-3, 0-2-3.
        let n = step(
            &mut g,
            &mut st,
            p,
            &[EdgeOp::Insert(1, 3), EdgeOp::Insert(0, 3)],
        );
        assert_eq!(
            n,
            Some(Notification::CountCross {
                threshold: 2,
                before: 1,
                after: 4
            })
        );
        // Dropping back under the threshold fires downward.
        let n = step(
            &mut g,
            &mut st,
            p,
            &[EdgeOp::Delete(2, 3), EdgeOp::Delete(0, 3)],
        );
        assert_eq!(
            n,
            Some(Notification::CountCross {
                threshold: 2,
                before: 4,
                after: 1
            })
        );
        // Staying on one side is silent.
        assert_eq!(step(&mut g, &mut st, p, &[EdgeOp::Delete(1, 3)]), None);
    }
}
