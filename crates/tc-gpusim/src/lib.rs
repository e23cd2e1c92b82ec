//! Deterministic discrete-event GPU timing simulator.
//!
//! The paper evaluates on an NVIDIA Titan Xp; this workspace has no GPU, so
//! timing comes from this simulator instead. It models exactly the
//! architectural mechanisms the paper's two analytic models rest on:
//!
//! 1. **Intra-block BSP** — [`WarpOp::BlockSync`] is a barrier across a
//!    block's warps, so a superstep costs as much as its slowest warp. This
//!    is the mechanism behind the paper's *workload imbalance* model
//!    (Section 3.1) and the reason edge directing matters.
//! 2. **Compute/memory resource split** — each SM owns a compute server and
//!    memory servers (global and shared) with independent throughput, plus
//!    memory latency that other warps can hide. Binary search over a long
//!    list coalesces poorly ([`coalesce`]) and saturates the memory server;
//!    short lists are compute-bound. Mixing the two inside one SM overlaps
//!    the servers — the paper's *resource balance* model (Section 3.2) and
//!    the reason vertex ordering matters.
//!
//! Algorithms in `tc-algos` describe their CUDA kernels as warp-level op
//! streams ([`BlockSource`]); [`simulate`] runs them and reports cycles and
//! detailed [`KernelMetrics`]. The engine uses no wall-clock and no
//! randomness: identical traces give identical cycle counts on every run.

pub mod coalesce;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod occupancy;
pub mod ops;
pub mod pipeline;
pub mod profiler;
pub mod search;
pub mod timeline;
pub mod trace;

pub use config::GpuConfig;
pub use engine::{simulate, simulate_with_events, BlockEvent};
pub use metrics::KernelMetrics;
pub use ops::WarpOp;
pub use trace::{BlockSource, BlockTrace, SliceBlockSource, WarpTrace};

/// Simulated cycle count.
pub type Cycles = u64;

/// Element type of the adjacency arrays the kernels search. Kept local so
/// this crate stays independent of `tc-graph` (the simulator knows nothing
/// about graphs, only about op streams).
pub type VertexId32 = u32;
