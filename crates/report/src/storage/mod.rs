//! Durable storage for the Upgrade Report Repository.
//!
//! Mirage's vendor-side URR must survive vendor restarts and crashes
//! without losing the fleet's deposit history. This module provides:
//!
//! - a pluggable [`UrrStore`] backend trait with two implementations —
//!   [`MemoryStore`] (tests, benchmarks) and [`FsStore`] (a directory
//!   of WAL segments and snapshot generations);
//! - a hand-rolled wire codec (`wire`) and checksummed frame format
//!   (`frame`) shared by the journal and the serving protocol in
//!   [`crate::serve`];
//! - one record format (`wal`): a frame journals a deposit batch as
//!   intern-table deltas plus dense-id records. A snapshot generation
//!   is a run of the same frames — the log compacted from sequence 0 —
//!   not a second layout;
//! - [`DurableUrr`], the journaled repository: it appends a frame
//!   before applying each batch, rotates segments, writes periodic
//!   generations, and [`DurableUrr::recover`]s after a crash by
//!   replaying the newest generation that applies cleanly and then the
//!   WAL tail, through one loop — tolerating truncated, torn, and
//!   corrupt trailing records.

pub(crate) mod frame;
pub(crate) mod wal;
pub(crate) mod wire;

mod durable;
mod fs;
mod memory;

pub use durable::{DurableConfig, DurableUrr, RecoveryReport};
pub use fs::FsStore;
pub use memory::{MemoryStore, DEFAULT_SEGMENT_BYTES};
pub use wire::WireError;

use std::fmt;

/// An error from a storage backend.
///
/// The in-memory backend is infallible; the filesystem backend surfaces
/// I/O failures here, tagged with the operation that failed.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation against the backing medium failed.
    Io {
        /// The store operation that failed (e.g. `"append wal frame"`).
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, source: std::io::Error) -> Self {
        StoreError::Io { op, source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "storage i/o failed: {op}: {source}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

/// A durable backend for the URR: an append-only WAL of framed batches
/// plus a small set of snapshot generations (opaque to the backend; a
/// run of the same frames).
///
/// Implementations must be safe to share across threads; [`DurableUrr`]
/// serialises writes through its journal lock but may read (`snapshots`,
/// `wal_segments`) concurrently during recovery tooling.
pub trait UrrStore: Send + Sync + fmt::Debug {
    /// Appends one encoded frame to the active WAL segment, rotating to
    /// a fresh segment first if the active one would exceed the
    /// configured size. Returns `true` when a rotation happened.
    fn append_frame(&self, frame: &[u8]) -> Result<bool, StoreError>;

    /// All WAL segments in append order (the last is the active one).
    fn wal_segments(&self) -> Result<Vec<Vec<u8>>, StoreError>;

    /// Durably records a new snapshot generation, pruning generations
    /// older than the previous one (the fallback if the newest is torn).
    fn write_snapshot(&self, snapshot: &[u8]) -> Result<(), StoreError>;

    /// Retained snapshot generations, newest first.
    fn snapshots(&self) -> Result<Vec<Vec<u8>>, StoreError>;

    /// Discards all WAL segments (called after a snapshot makes them
    /// redundant).
    fn truncate_wal(&self) -> Result<(), StoreError>;
}
