//! Validated vertex relabellings.

use crate::{CsrGraph, VertexId};

/// A bijective relabelling of vertices: `new_id = perm[old_id]`.
///
/// Every vertex-reordering scheme in `tc-core` produces a `Permutation`,
/// which preprocessing applies while it builds the oriented graph
/// ([`crate::orient_relabelled`]); [`Permutation::apply`] relabels a whole
/// [`CsrGraph`]. Construction validates bijectivity, so downstream code
/// can rely on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    old_to_new: Vec<VertexId>,
}

impl Permutation {
    /// Wraps an `old → new` mapping, validating that it is a bijection on
    /// `0..len`.
    pub fn new(old_to_new: Vec<VertexId>) -> Result<Self, String> {
        let n = old_to_new.len();
        let mut seen = vec![false; n];
        for (old, &new) in old_to_new.iter().enumerate() {
            let Some(slot) = seen.get_mut(new as usize) else {
                return Err(format!("vertex {old} maps to out-of-range id {new}"));
            };
            if *slot {
                return Err(format!("two vertices map to id {new}"));
            }
            *slot = true;
        }
        Ok(Self { old_to_new })
    }

    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            old_to_new: (0..n as VertexId).collect(),
        }
    }

    /// Builds the permutation that places vertices in the order given by
    /// `order` (i.e. `order[k]` receives new id `k`).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: &[VertexId]) -> Self {
        let mut old_to_new = vec![VertexId::MAX; order.len()];
        for (new_id, &old_id) in order.iter().enumerate() {
            assert!(
                (old_id as usize) < order.len() && old_to_new[old_id as usize] == VertexId::MAX,
                "order is not a permutation (duplicate or out-of-range id {old_id})"
            );
            old_to_new[old_id as usize] = new_id as VertexId;
        }
        Self { old_to_new }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Whether this permutation covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.old_to_new.is_empty()
    }

    /// Approximate resident size of the mapping in bytes (cache
    /// byte-budget accounting).
    pub fn approx_bytes(&self) -> usize {
        self.old_to_new.len() * std::mem::size_of::<VertexId>()
    }

    /// New id of an old vertex.
    #[inline]
    pub fn map(&self, old: VertexId) -> VertexId {
        self.old_to_new[old as usize]
    }

    /// The inverse mapping (`new → old`).
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0 as VertexId; self.len()];
        for (old, &new) in self.old_to_new.iter().enumerate() {
            inv[new as usize] = old as VertexId;
        }
        Self { old_to_new: inv }
    }

    /// Raw `old → new` array.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.old_to_new
    }

    /// Relabels a graph: vertex `u` becomes `perm.map(u)`.
    pub fn apply(&self, g: &CsrGraph) -> CsrGraph {
        assert_eq!(self.len(), g.num_vertices(), "permutation size mismatch");
        let n = g.num_vertices();
        let inv = self.inverse();

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for new_u in 0..n as VertexId {
            acc += g.degree(inv.map(new_u));
            offsets.push(acc);
        }

        let mut neighbors = Vec::with_capacity(acc);
        for new_u in 0..n as VertexId {
            let old_u = inv.map(new_u);
            let start = neighbors.len();
            neighbors.extend(g.neighbors(old_u).iter().map(|&v| self.map(v)));
            neighbors[start..].sort_unstable();
        }
        CsrGraph::from_parts(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn identity_is_noop() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3), (1, 2)]).build();
        let p = Permutation::identity(4);
        assert_eq!(p.apply(&g), g);
    }

    #[test]
    fn rejects_non_bijection() {
        assert!(Permutation::new(vec![0, 0, 1]).is_err());
        assert!(Permutation::new(vec![0, 3]).is_err());
        assert!(Permutation::new(vec![1, 0, 2]).is_ok());
    }

    #[test]
    fn from_order_round_trips() {
        let order = vec![2, 0, 1];
        let p = Permutation::from_order(&order);
        assert_eq!(p.map(2), 0);
        assert_eq!(p.map(0), 1);
        assert_eq!(p.map(1), 2);
        assert_eq!(p.inverse().as_slice(), &order[..]);
    }

    #[test]
    fn apply_preserves_structure() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).build();
        let p = Permutation::new(vec![3, 1, 0, 2]).expect("bijection");
        let h = p.apply(&g);
        assert_eq!(h.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(h.has_edge(p.map(u), p.map(v)));
        }
        // Degree multiset preserved.
        let mut dg: Vec<_> = g.vertices().map(|u| g.degree(u)).collect();
        let mut dh: Vec<_> = h.vertices().map(|u| h.degree(u)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
        assert!(h.validate().is_ok());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::new(vec![4, 2, 0, 1, 3]).expect("bijection");
        let inv = p.inverse();
        for u in 0..5 {
            assert_eq!(inv.map(p.map(u)), u);
        }
    }
}
