//! Graph substrate for the GPU triangle-counting reproduction.
//!
//! This crate provides everything the higher layers need to represent and
//! manipulate graphs:
//!
//! - [`CsrGraph`]: an undirected simple graph in compressed sparse row form
//!   with sorted adjacency lists — the canonical in-memory representation
//!   used by every triangle-counting algorithm in the workspace.
//! - [`Adjacency`]: read access through sorted neighbour slices, served
//!   by a [`CsrGraph`] and by `tc-stream`'s dynamic graph.
//! - [`DirectedGraph`]: an *oriented* graph produced by an edge-directing
//!   scheme; out-neighbour lists are sorted so binary search works directly.
//! - [`GraphBuilder`]: ingestion from raw edge lists with deduplication and
//!   self-loop removal.
//! - [`Permutation`]: validated vertex relabellings used by the reordering
//!   schemes.
//! - [`generators`]: seeded synthetic graph generators (R-MAT/Kronecker,
//!   power-law configuration model, Erdős–Rényi, road-like lattices,
//!   preferential attachment, Watts–Strogatz).
//! - [`io`]: plain-text edge-list reading and writing.
//! - [`stats`]: degree statistics used by the paper's analytic models.
//!
//! All generators take explicit seeds and are fully deterministic, so every
//! experiment in the workspace is reproducible bit-for-bit.

pub mod adjacency;
pub mod binary_io;
pub mod builder;
pub mod csr;
pub mod directed;
pub mod generators;
pub mod io;
pub mod orientation;
pub mod permutation;
pub mod stats;

pub use adjacency::Adjacency;
pub use builder::{csr_from_sorted_lists, GraphBuilder};
pub use csr::CsrGraph;
pub use directed::DirectedGraph;
pub use orientation::{degree_rank, orient_by_rank, orient_relabelled};
pub use permutation::Permutation;

/// Vertex identifier. Graphs in this workspace are bounded by `u32` vertex
/// counts (the paper's largest graph has 201M vertices, our scaled stand-ins
/// far fewer), which halves adjacency memory versus `usize` on 64-bit hosts.
pub type VertexId = u32;
