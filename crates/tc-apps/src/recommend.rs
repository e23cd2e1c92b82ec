//! Triangle-based link recommendation (Tsourakakis et al.; the paper's
//! reference \[29\]).
//!
//! Recommends new edges for a vertex by scoring non-neighbours on the
//! triangles the new edge would close: common-neighbour count, Jaccard
//! similarity, and Adamic–Adar weighting (common neighbours discounted by
//! their degree).

use tc_algos::engine::{with_thread_scratch, Scratch};
use tc_graph::{CsrGraph, VertexId};

/// A scored candidate link.
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendScore {
    /// Candidate endpoint.
    pub candidate: VertexId,
    /// Triangles the edge `(source, candidate)` would close.
    pub common_neighbors: u32,
    /// Jaccard similarity of the neighbourhoods.
    pub jaccard: f64,
    /// Adamic–Adar score: `Σ_{w ∈ N(u) ∩ N(v)} 1 / ln d(w)`.
    pub adamic_adar: f64,
}

/// Scores every two-hop candidate for `source` and returns the top `k`
/// by common-neighbour count (ties: higher Adamic–Adar, then lower id).
///
/// Only vertices at distance exactly two are candidates — a link
/// recommendation that closes no triangle carries no signal.
pub fn recommend_for(g: &CsrGraph, source: VertexId, k: usize) -> Vec<RecommendScore> {
    with_thread_scratch(|scratch| recommend_for_with(g, source, k, scratch))
}

/// [`recommend_for`] with the wedges staged in a caller-owned scratch.
///
/// Walks each wedge `source – w – c` once: every `(c, w)` with `w` a
/// neighbour of `source` and `c` a neighbour of `w` outside
/// `{source} ∪ N(source)` is collected, the pairs are sorted, and each
/// run of equal `c` is one candidate whose common neighbours are the
/// run's `w`s in ascending order.
pub fn recommend_for_with(
    g: &CsrGraph,
    source: VertexId,
    k: usize,
    scratch: &mut Scratch,
) -> Vec<RecommendScore> {
    let nbrs = g.neighbors(source);
    let wedges = scratch.pairs();
    for &w in nbrs {
        wedges.extend(
            g.neighbors(w)
                .iter()
                .filter(|&&c| c != source && !g.has_edge(source, c))
                .map(|&c| (c, w)),
        );
    }
    wedges.sort_unstable();

    let mut scored: Vec<RecommendScore> = wedges
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let c = run[0].0;
            let common = run.len() as u32;
            let union = nbrs.len() + g.degree(c) - common as usize;
            let adamic_adar = run
                .iter()
                .map(|&(_, w)| {
                    let d = g.degree(w) as f64;
                    if d > 1.0 {
                        1.0 / d.ln()
                    } else {
                        0.0
                    }
                })
                .sum();
            RecommendScore {
                candidate: c,
                common_neighbors: common,
                jaccard: if union > 0 {
                    common as f64 / union as f64
                } else {
                    0.0
                },
                adamic_adar,
            }
        })
        .collect();

    scored.sort_by(|a, b| {
        b.common_neighbors
            .cmp(&a.common_neighbors)
            .then(b.adamic_adar.total_cmp(&a.adamic_adar))
            .then(a.candidate.cmp(&b.candidate))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_algos::intersect::merge_collect;
    use tc_datasets::Dataset;
    use tc_graph::GraphBuilder;

    /// The merge-per-candidate scorer, kept as a reference: every two-hop
    /// candidate's list is merged against the source's whole list, and
    /// the common neighbours are summed in ascending order.
    fn reference_scores(g: &CsrGraph, source: VertexId) -> Vec<RecommendScore> {
        let nbrs = g.neighbors(source);
        let mut candidates: Vec<VertexId> = nbrs
            .iter()
            .flat_map(|&v| g.neighbors(v).iter().copied())
            .filter(|&w| w != source && !g.has_edge(source, w))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut shared = Vec::new();
        let mut scored: Vec<RecommendScore> = candidates
            .into_iter()
            .map(|c| {
                shared.clear();
                merge_collect(nbrs, g.neighbors(c), &mut shared);
                let common = shared.len() as u32;
                let union = nbrs.len() + g.degree(c) - common as usize;
                let adamic_adar = shared
                    .iter()
                    .map(|&w| {
                        let d = g.degree(w) as f64;
                        if d > 1.0 {
                            1.0 / d.ln()
                        } else {
                            0.0
                        }
                    })
                    .sum();
                RecommendScore {
                    candidate: c,
                    common_neighbors: common,
                    jaccard: if union > 0 {
                        common as f64 / union as f64
                    } else {
                        0.0
                    },
                    adamic_adar,
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.common_neighbors
                .cmp(&a.common_neighbors)
                .then(b.adamic_adar.total_cmp(&a.adamic_adar))
                .then(a.candidate.cmp(&b.candidate))
        });
        scored
    }

    /// Every field of every candidate equals the reference's, floats bit
    /// for bit, on the sources `0, stride, 2 * stride, …`.
    fn assert_matches_reference(name: &str, g: &CsrGraph, stride: usize) {
        let bits = |r: &RecommendScore| {
            (
                r.candidate,
                r.common_neighbors,
                r.jaccard.to_bits(),
                r.adamic_adar.to_bits(),
            )
        };
        for source in (0..g.num_vertices() as VertexId).step_by(stride) {
            let got: Vec<_> = recommend_for(g, source, usize::MAX)
                .iter()
                .map(bits)
                .collect();
            let want: Vec<_> = reference_scores(g, source).iter().map(bits).collect();
            assert_eq!(got, want, "{name}, source {source}");
        }
    }

    #[test]
    fn matches_the_merge_reference_bit_for_bit() {
        for (dataset, stride) in [
            (Dataset::EmailEucore, 1),
            (Dataset::EmailEnron, 97),
            (Dataset::CitPatent, 401),
            (Dataset::RoadCentral, 977),
        ] {
            assert_matches_reference(dataset.name(), &tc_datasets::load(dataset), stride);
        }
        let spokes: Vec<(VertexId, VertexId)> = (1..200).map(|v| (0, v)).collect();
        let star = GraphBuilder::from_edges(200, &spokes).build();
        assert_matches_reference("star", &star, 1);
    }

    /// Two triangles sharing edge (1, 2), plus a far vertex:
    /// 0-1, 0-2, 1-2, 1-3, 2-3 — and 4 connected only to 3.
    fn diamond_plus_tail() -> CsrGraph {
        GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]).build()
    }

    #[test]
    fn recommends_the_diamond_closure() {
        let g = diamond_plus_tail();
        // 0's two-hop candidates: 3 (via 1 and 2 → 2 common neighbours).
        let recs = recommend_for(&g, 0, 5);
        assert_eq!(recs[0].candidate, 3);
        assert_eq!(recs[0].common_neighbors, 2);
        assert!(recs[0].jaccard > 0.0);
        assert!(recs[0].adamic_adar > 0.0);
    }

    #[test]
    fn never_recommends_existing_neighbors_or_self() {
        let g = diamond_plus_tail();
        for v in g.vertices() {
            for r in recommend_for(&g, v, 10) {
                assert_ne!(r.candidate, v);
                assert!(!g.has_edge(v, r.candidate));
            }
        }
    }

    #[test]
    fn isolated_vertex_gets_no_recommendations() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert!(recommend_for(&g, 3, 5).is_empty());
    }

    #[test]
    fn k_truncates_the_list() {
        // Star of triangles: 0 connected to 1..6, ring among leaves gives
        // many two-hop candidates for leaf 1.
        let g = GraphBuilder::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (2, 3),
                (4, 5),
            ],
        )
        .build();
        let recs = recommend_for(&g, 1, 2);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn scores_are_ordered() {
        let g = tc_graph::generators::power_law_configuration(300, 2.2, 8.0, 4);
        let hub = g
            .vertices()
            .max_by_key(|&v| g.degree(v))
            .expect("non-empty");
        let recs = recommend_for(&g, hub, 10);
        for w in recs.windows(2) {
            assert!(w[0].common_neighbors >= w[1].common_neighbors);
        }
    }
}
