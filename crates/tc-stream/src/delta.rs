//! The delta layer: the whole current row of every vertex whose
//! neighbour list differs from the base CSR, so every read of the
//! current graph is one sorted slice.
//!
//! Invariants (enforced here, relied on by [`crate::DynamicGraph`]):
//!
//! - a vertex has a row iff its current neighbour list differs from its
//!   base row, and the row is that whole list, sorted strictly
//!   ascending. A row is copied from the base on its first change;
//! - each row counts its entries that differ from the base (neighbours
//!   added plus base neighbours deleted) and is dropped when that count
//!   returns to 0. Re-inserting a deleted base edge or deleting an
//!   inserted one therefore *cancels* the change, and the layer measures
//!   the true divergence from the base, which is what the compaction
//!   budget must bound;
//! - the rows are symmetric: `v` is in `u`'s current list iff `u` is in
//!   `v`'s.

use std::collections::HashMap;
use tc_graph::{CsrGraph, VertexId};

/// One changed vertex's current neighbour list.
#[derive(Clone, Debug)]
struct Row {
    /// The whole current list, sorted.
    list: Vec<VertexId>,
    /// Entries in which `list` differs from the base row.
    diverged: usize,
}

/// The current rows of the vertices changed since the base CSR.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeltaAdjacency {
    rows: HashMap<VertexId, Row>,
    /// Undirected edges in which the current graph differs from the base.
    diverged_edges: usize,
}

impl DeltaAdjacency {
    /// An empty overlay.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The current sorted neighbour list of `u`, or `None` if it equals
    /// `u`'s base row.
    pub(crate) fn row(&self, u: VertexId) -> Option<&[VertexId]> {
        self.rows.get(&u).map(|r| r.list.as_slice())
    }

    /// Undirected edges diverging from the base (added plus deleted):
    /// the quantity the compaction budget bounds.
    pub(crate) fn len(&self) -> usize {
        self.diverged_edges
    }

    /// Flips the edge `{u, v}` of the current graph over `base`: inserts
    /// it if absent, deletes it if present.
    pub(crate) fn toggle(&mut self, base: &CsrGraph, u: VertexId, v: VertexId) {
        let in_base = base.has_edge(u, v);
        let diverges = self.flip(base, u, v, in_base);
        self.flip(base, v, u, in_base);
        if diverges {
            self.diverged_edges += 1;
        } else {
            self.diverged_edges -= 1;
        }
    }

    /// Flips `v` in `u`'s row, copying the row from `base` on its first
    /// change and dropping it once it equals the base row again. Returns
    /// whether the entry now differs from the base.
    fn flip(&mut self, base: &CsrGraph, u: VertexId, v: VertexId, in_base: bool) -> bool {
        let row = self.rows.entry(u).or_insert_with(|| {
            let base_row = base.neighbors(u);
            let mut list = Vec::with_capacity(base_row.len() + 1);
            list.extend_from_slice(base_row);
            Row { list, diverged: 0 }
        });
        let present = match row.list.binary_search(&v) {
            Ok(pos) => {
                row.list.remove(pos);
                false
            }
            Err(pos) => {
                row.list.insert(pos, v);
                true
            }
        };
        let diverges = present != in_base;
        if diverges {
            row.diverged += 1;
        } else {
            row.diverged -= 1;
            if row.diverged == 0 {
                self.rows.remove(&u);
            }
        }
        diverges
    }

    /// The overlay as the edges added to and deleted from `base`, each a
    /// sorted list of `(u, v)` pairs with `u < v`: the canonical
    /// serialized form (snapshot files store each undirected edge once
    /// and re-symmetrize on restore). Each row is diffed against its base
    /// row, vertices in ascending order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn diff(
        &self,
        base: &CsrGraph,
    ) -> (Vec<(VertexId, VertexId)>, Vec<(VertexId, VertexId)>) {
        let mut rows: Vec<(VertexId, &[VertexId])> = self
            .rows
            .iter()
            .map(|(&u, r)| (u, r.list.as_slice()))
            .collect();
        rows.sort_unstable_by_key(|&(u, _)| u);
        let (mut adds, mut dels) = (Vec::new(), Vec::new());
        let above = |list: &[VertexId], u| list.partition_point(|&v| v <= u);
        for (u, now) in rows {
            let was = base.neighbors(u);
            let (mut i, mut j) = (above(now, u), above(was, u));
            while i < now.len() || j < was.len() {
                match (now.get(i), was.get(j)) {
                    (Some(a), Some(b)) if a == b => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&a), b) if b.is_none_or(|&b| a < b) => {
                        adds.push((u, a));
                        i += 1;
                    }
                    (_, Some(&b)) => {
                        dels.push((u, b));
                        j += 1;
                    }
                    (_, None) => unreachable!("the arms above cover a live `now` entry"),
                }
            }
        }
        (adds, dels)
    }

    /// Drops every row (after a compaction folded them into a fresh
    /// base).
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.diverged_edges = 0;
    }

    /// Approximate resident bytes of the rows: a function of the current
    /// graph and base alone, so a restored stream reports what the live
    /// one does.
    pub(crate) fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(VertexId, Row)>();
        self.rows
            .values()
            .map(|r| entry + r.list.len() * std::mem::size_of::<VertexId>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::GraphBuilder;

    /// The path 0-1-2-3 plus the isolated vertex 4.
    fn path() -> CsrGraph {
        GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn symmetric_insert_and_cancel() {
        let base = path();
        let mut d = DeltaAdjacency::new();
        d.toggle(&base, 3, 1);
        assert_eq!(d.row(1), Some(&[0, 2, 3][..]), "the base row plus 3");
        assert_eq!(d.row(3), Some(&[1, 2][..]));
        assert_eq!(d.row(0), None, "an untouched vertex has no row");
        assert_eq!(d.len(), 1);
        assert_eq!(d.diff(&base), (vec![(1, 3)], vec![]));

        // Deleting the pending insert cancels it and drops both rows.
        d.toggle(&base, 1, 3);
        assert_eq!(d.len(), 0);
        assert_eq!((d.row(1), d.row(3)), (None, None));
        assert_eq!(d.approx_bytes(), 0);
    }

    #[test]
    fn base_delete_and_reinsert_cancel() {
        let base = path();
        let mut d = DeltaAdjacency::new();
        d.toggle(&base, 2, 1);
        assert_eq!(d.row(1), Some(&[0][..]), "the base row minus 2");
        assert_eq!(d.row(2), Some(&[3][..]));
        assert_eq!(d.len(), 1);
        assert_eq!(d.diff(&base), (vec![], vec![(1, 2)]));

        // Re-inserting the deleted base edge cancels the delete.
        d.toggle(&base, 1, 2);
        assert_eq!(d.len(), 0);
        assert_eq!((d.row(1), d.row(2)), (None, None));
    }

    #[test]
    fn a_row_stays_while_another_entry_differs() {
        let base = path();
        let mut d = DeltaAdjacency::new();
        d.toggle(&base, 1, 4); // insert
        d.toggle(&base, 1, 2); // delete a base edge
        assert_eq!(d.row(1), Some(&[0, 4][..]));
        assert_eq!(d.len(), 2);

        // Cancelling the insert leaves the delete, so 1 keeps its row
        // and 4 loses its own.
        d.toggle(&base, 4, 1);
        assert_eq!(d.row(1), Some(&[0][..]));
        assert_eq!(d.row(4), None);
        assert_eq!(d.len(), 1);

        // Cancelling the delete drops the row.
        d.toggle(&base, 2, 1);
        assert_eq!(d.len(), 0);
        assert_eq!(d.row(1), None);
    }

    #[test]
    fn lists_stay_sorted() {
        let base = GraphBuilder::from_edges(10, &[(0, 5)]).build();
        let mut d = DeltaAdjacency::new();
        for v in [9, 3, 7, 1] {
            d.toggle(&base, 0, v);
        }
        assert_eq!(d.row(0), Some(&[1, 3, 5, 7, 9][..]));
        assert_eq!(d.len(), 4);
        assert_eq!(
            d.diff(&base),
            (vec![(0, 1), (0, 3), (0, 7), (0, 9)], vec![])
        );
    }

    #[test]
    fn diff_lists_each_changed_edge_once_in_order() {
        let base = GraphBuilder::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]).build();
        let mut d = DeltaAdjacency::new();
        for (u, v) in [(4, 5), (5, 0), (2, 0), (3, 1), (2, 4), (1, 0)] {
            d.toggle(&base, u, v);
        }
        assert_eq!(
            d.diff(&base),
            (vec![(0, 5), (1, 3), (2, 4)], vec![(0, 1), (0, 2), (4, 5)])
        );
        assert_eq!(d.len(), 6);
    }
}
