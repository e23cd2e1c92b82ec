//! GRO-style greedy compactness ordering (Han, Zou & Yu, SIGMOD'18).
//!
//! GRO reorders vertices to maximize a *compactness score* that rewards
//! giving a vertex an id adjacent to its neighbours'. We implement the
//! canonical greedy realization: repeatedly place the unplaced vertex with
//! the most already-placed neighbours (ties: higher degree, then lower
//! id), seeding each new component from the highest-degree unplaced
//! vertex.

use std::cmp::Reverse;
use tc_graph::{CsrGraph, Permutation, VertexId};

/// Computes the GRO permutation.
pub fn gro_permutation(g: &CsrGraph) -> Permutation {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut frontier = Frontier::new(g);
    // Seeds: vertices by degree descending for component restarts.
    let mut seeds: Vec<VertexId> = (0..n as u32).collect();
    seeds.sort_by_key(|&v| (Reverse(g.degree(v)), v));
    let mut seed_pos = 0usize;

    while order.len() < n {
        let v = match frontier.pop() {
            Some(v) => v,
            None => {
                // New component: highest-degree unplaced seed.
                while placed[seeds[seed_pos] as usize] {
                    seed_pos += 1;
                }
                seeds[seed_pos]
            }
        };
        placed[v as usize] = true;
        order.push(v);
        for &nbr in g.neighbors(v) {
            if !placed[nbr as usize] {
                frontier.bump(nbr);
            }
        }
    }
    Permutation::from_order(&order)
}

/// Marks a vertex that is not in the frontier heap.
const ABSENT: u32 = u32::MAX;

/// The unplaced vertices with at least one placed neighbour, in an
/// indexed binary max-heap keyed by (placed-neighbour count, degree,
/// lower id first). Each vertex sits in the heap at most once and its
/// slot is tracked, so a score bump sifts it up in place and the heap
/// never holds more than n ids.
struct Frontier<'g> {
    g: &'g CsrGraph,
    /// Placed-neighbour count per vertex.
    score: Vec<u32>,
    heap: Vec<VertexId>,
    /// Each vertex's index in `heap`, or [`ABSENT`].
    slot: Vec<u32>,
}

impl<'g> Frontier<'g> {
    fn new(g: &'g CsrGraph) -> Self {
        let n = g.num_vertices();
        Self {
            g,
            score: vec![0; n],
            heap: Vec::new(),
            slot: vec![ABSENT; n],
        }
    }

    fn key(&self, v: VertexId) -> (u32, usize, Reverse<VertexId>) {
        (self.score[v as usize], self.g.degree(v), Reverse(v))
    }

    /// Records one more placed neighbour of the unplaced vertex `v`.
    fn bump(&mut self, v: VertexId) {
        self.score[v as usize] += 1;
        let i = match self.slot[v as usize] {
            ABSENT => {
                self.heap.push(v);
                self.heap.len() - 1
            }
            i => i as usize,
        };
        self.sift_up(i);
    }

    /// Removes and returns the vertex with the largest key.
    fn pop(&mut self) -> Option<VertexId> {
        let top = *self.heap.first()?;
        self.slot[top as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn place(&mut self, i: usize, v: VertexId) {
        self.heap[i] = v;
        self.slot[v as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        let key = self.key(v);
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if self.key(p) >= key {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        let key = self.key(v);
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.key(self.heap[right]) > self.key(self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if self.key(c) <= key {
                break;
            }
            self.place(i, c);
            i = child;
        }
        self.place(i, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;
    use tc_graph::generators::{erdos_renyi, power_law_configuration, road_lattice};
    use tc_graph::GraphBuilder;

    /// The lazy-deletion greedy GRO: every score bump pushes a fresh
    /// `(placed-neighbour count, degree, Reverse(id))` entry and pops skip
    /// stale ones. It is the reference `gro_permutation` must match.
    fn lazy_heap_gro(g: &CsrGraph) -> Permutation {
        let n = g.num_vertices();
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut placed_nbrs = vec![0u32; n];
        let mut heap: BinaryHeap<(u32, usize, Reverse<VertexId>)> = BinaryHeap::new();
        let mut seeds: Vec<VertexId> = (0..n as u32).collect();
        seeds.sort_by_key(|&v| (Reverse(g.degree(v)), v));
        let mut seed_pos = 0usize;
        while order.len() < n {
            let next = loop {
                match heap.pop() {
                    Some((score, _, Reverse(v))) => {
                        if placed[v as usize] || placed_nbrs[v as usize] != score {
                            continue;
                        }
                        break Some(v);
                    }
                    None => break None,
                }
            };
            let v = match next {
                Some(v) => v,
                None => {
                    while placed[seeds[seed_pos] as usize] {
                        seed_pos += 1;
                    }
                    seeds[seed_pos]
                }
            };
            placed[v as usize] = true;
            order.push(v);
            for &nbr in g.neighbors(v) {
                if !placed[nbr as usize] {
                    placed_nbrs[nbr as usize] += 1;
                    heap.push((placed_nbrs[nbr as usize], g.degree(nbr), Reverse(nbr)));
                }
            }
        }
        Permutation::from_order(&order)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_lazy_heap_reference_on_random_graphs(
            n in 2usize..120,
            m in 0usize..400,
            seed in 0u64..100_000,
        ) {
            let g = erdos_renyi(n, m, seed);
            prop_assert_eq!(gro_permutation(&g), lazy_heap_gro(&g));
            let g = power_law_configuration(n, 2.1, 4.0, seed);
            prop_assert_eq!(gro_permutation(&g), lazy_heap_gro(&g));
        }
    }

    #[test]
    fn matches_lazy_heap_reference_on_tie_heavy_shapes() {
        let star: Vec<(u32, u32)> = (1..30).map(|v| (0, v)).collect();
        let k8: Vec<(u32, u32)> = (0..8)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
            .collect();
        // Triangles, a 4-clique, two paths and isolated vertices: every
        // component but the first starts from the seed list.
        let components = [
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (7, 8),
            (7, 9),
            (7, 10),
            (8, 9),
            (8, 10),
            (9, 10),
            (12, 13),
            (13, 14),
            (15, 16),
            (16, 17),
            (15, 17),
            (20, 21),
        ];
        for (name, g) in [
            ("star", GraphBuilder::from_edges(30, &star).build()),
            ("k8", GraphBuilder::from_edges(8, &k8).build()),
            ("grid", road_lattice(9, 11, 0.0, 0.0, 0)),
            (
                "components",
                GraphBuilder::from_edges(24, &components).build(),
            ),
        ] {
            assert_eq!(gro_permutation(&g), lazy_heap_gro(&g), "{name}");
        }
    }

    #[test]
    fn produces_valid_permutation() {
        let g = power_law_configuration(250, 2.2, 6.0, 8);
        let p = gro_permutation(&g);
        assert_eq!(p.len(), 250);
    }

    #[test]
    fn triangle_is_placed_contiguously() {
        // Triangle + pendant path: greedy stays in the triangle.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).build();
        let p = gro_permutation(&g);
        let ids = [p.map(0), p.map(1), p.map(2)];
        let max = *ids.iter().max().expect("three");
        let min = *ids.iter().min().expect("three");
        assert!(max - min == 2, "triangle must get consecutive ids: {ids:?}");
    }

    #[test]
    fn improves_edge_locality_over_random_labels() {
        let g = power_law_configuration(500, 2.1, 8.0, 12);
        let p = gro_permutation(&g);
        let gap = |perm: &Permutation| -> f64 {
            let total: u64 = g
                .edges()
                .map(|(u, v)| (perm.map(u) as i64 - perm.map(v) as i64).unsigned_abs())
                .sum();
            total as f64 / g.num_edges().max(1) as f64
        };
        assert!(
            gap(&p) < gap(&Permutation::identity(g.num_vertices())),
            "GRO must tighten edge id gaps"
        );
    }

    #[test]
    fn empty_graph() {
        assert_eq!(gro_permutation(&CsrGraph::empty(0)).len(), 0);
    }
}
