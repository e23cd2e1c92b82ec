//! # tc-persist — durability for the triangle-counting service
//!
//! Everything upstream of this crate is in-memory: the `tc-service`
//! registry re-pays every A-direction/A-order preprocessing pass on
//! restart (the dominant setup cost in the source paper), and every
//! edge streamed through `tc-stream` is lost with the process. This
//! crate closes both gaps with two classic mechanisms, specialized to
//! the workspace's deterministic core:
//!
//! - **Snapshots** ([`snapshot`]) persist preprocessed registry entries
//!   and stream state as single checksummed frames
//!   (`tc_graph::binary_io`: magic, version, tag, length, CRC32),
//!   written atomically via temp-file + rename. A warm restart *reads*
//!   a variant instead of recomputing it.
//! - **A write-ahead log** ([`wal`]) makes update batches durable
//!   before they are applied: append + `fdatasync`, fixed-size segment
//!   rotation, torn-tail truncation on recovery, and snapshot-driven
//!   segment garbage collection.
//!
//! Recovery ([`recovery`]) composes them: load snapshots (skipping and
//! counting corrupt files), restore streams, then replay the WAL in
//! sequence order through the very same
//! [`tc_stream::DynamicGraph::apply_batch`] the live path uses. Because
//! batch application is a pure function of (state, batch) — last-wins
//! dedup, ascending apply order, no wall-clock anywhere in a decision —
//! the recovered state is **bit-for-bit** the pre-crash state, and the
//! crash-recovery e2e suite proves it against an unkilled replica.
//!
//! The [`store::Store`] is the service-facing facade: synchronous
//! [`store::Store::log_batch`] (called under the per-dataset stream
//! lock, so log order equals apply order), a background writer thread
//! for snapshot I/O, and a tick clock (one tick per logged batch) so
//! every reported age is deterministic, never wall-clock.

pub mod codec;
pub mod recovery;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::{EntryRecord, PrepKey, StreamRecord, WalRecord};
pub use recovery::{Recovered, RecoveredStream, RecoveryReport};
pub use snapshot::SnapshotStats;
pub use store::{PersistConfig, PersistStats, Store, SNAPSHOT_EVERY_BATCHES};
pub use wal::WalStats;

use tc_graph::binary_io::BinError;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Frame-layer failure (bad magic, checksum mismatch, torn frame).
    Bin(BinError),
    /// Structurally invalid or inconsistent durable state.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Bin(e) => write!(f, "persistence format error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<BinError> for PersistError {
    fn from(e: BinError) -> Self {
        match e {
            BinError::Io(io) => PersistError::Io(io),
            other => PersistError::Bin(other),
        }
    }
}

impl From<String> for PersistError {
    fn from(msg: String) -> Self {
        PersistError::Corrupt(msg)
    }
}
