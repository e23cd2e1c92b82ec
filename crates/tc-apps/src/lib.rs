//! Applications built on triangle counting.
//!
//! The paper motivates triangle counting as the foundation of several
//! graph-mining workloads (Section 1): *k-truss* decomposition,
//! *clustering coefficients*, and triangle-based *link recommendation*.
//! This crate implements all three on top of the workspace's substrate, so
//! the repository demonstrates the downstream value of the counting
//! pipeline, not just the counting itself.
//!
//! All three start from the same primitives — per-edge triangle
//! *support* ([`support::supports_in_edge_order_with`]) and per-vertex
//! triangle counts ([`support::triangles_per_vertex`]). Both come
//! exactly from one pass over the graph's (degree, id) orientation, the
//! edge-directing idea the paper is about: each triangle is found once
//! and credited to its three edges and three corners.

pub mod clustering;
pub mod ktruss;
pub mod recommend;
pub mod support;

pub use clustering::{
    clustering_coefficients, clustering_coefficients_with, coefficients_from_counts,
    global_clustering_coefficient, global_clustering_coefficient_with, global_from_counts,
    local_coefficient,
};
pub use ktruss::{ktruss_decomposition, ktruss_decomposition_with, ktruss_from_supports};
pub use recommend::{recommend_for, recommend_for_with, RecommendScore};
pub use support::{supports_in_edge_order_with, triangles_per_vertex, triangles_per_vertex_with};
