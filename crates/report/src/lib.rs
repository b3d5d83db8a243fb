//! Structured problem reporting (paper §3.4).
//!
//! After user-machine testing determines the success or failure of an
//! upgrade, the result is deposited in an **Upgrade Report Repository
//! (URR)** the vendor can query. Each [`Report`] carries:
//!
//! 1. information about the cluster of deployment,
//! 2. a succinct success/failure result (the failure *signature*), and
//! 3. a [`ReportImage`] allowing the vendor to reproduce the problem —
//!    in the paper, the entire upgraded virtual-machine state plus the
//!    recorded inputs and outputs used during replay; here, a digest of
//!    the sandbox state and the replayed I/O.
//!
//! The URR deduplicates by failure signature, which addresses the survey
//! finding that vendors drown in repetitive, unstructured reports: a
//! vendor querying [`Urr::failure_groups`] sees each distinct problem
//! once, with the affected machine/cluster population attached.
//!
//! # Architecture
//!
//! The repository is a *sharded, interned, incrementally-indexed*
//! subsystem designed to stay on during million-machine simulation
//! sweeps:
//!
//! * **Lock-striped shards.** Failure reports are routed to
//!   `next_pow2(threads)` shards by an FNV-1a hash of the failure
//!   signature, so every report for one signature lands in one shard
//!   and per-signature aggregation never crosses shard boundaries.
//! * **Dense interning.** Machine names, failure signatures, and
//!   `(package, version)` releases are interned to `u32` ids
//!   ([`MachineRef`], [`SigId`], [`ReleaseId`]) once at the boundary;
//!   the hot ingest path ([`Urr::deposit_interned_batch`]) moves only
//!   `Copy` records.
//! * **Word-packed sets.** Per-signature machine/cluster membership is
//!   deduplicated with packed bitsets plus `(seq, id)` order vectors,
//!   replacing the per-report `Vec<String>` accumulation of the
//!   original prototype.
//! * **Incremental inverted index.** Group, cluster, and release
//!   tallies are updated on ingest, so vendor queries (top-k failure
//!   groups, per-cluster failure rates, signature drill-downs,
//!   time-windowed first-seen scans) merge pre-aggregated state instead
//!   of re-scanning every report.
//!
//! The original string-keyed prototype is retained verbatim as
//! [`reference::Urr`]; a seeded property test proves both planes
//! produce identical [`UrrStats`] / [`FailureGroup`] results over
//! random report streams.
//!
//! The repository is thread-safe and serialisable via the workspace's
//! dependency-free JSON module ([`mirage_telemetry::json`]) because in
//! deployment it would be transferred or co-located with the vendor.
//!
//! # Durability and serving
//!
//! Two companion layers make the URR a deployable vendor service:
//!
//! * [`storage`] — a pluggable [`UrrStore`] backend ([`MemoryStore`],
//!   [`FsStore`]) behind [`DurableUrr`]: every deposit batch is
//!   journaled to a checksummed write-ahead log before it is applied,
//!   the log is periodically compacted into a snapshot generation (the
//!   same frames, from sequence 0), and [`DurableUrr::recover`]
//!   replays both through one loop to rebuild the exact live state
//!   after a crash — tolerating truncated, torn, and corrupt WAL tails.
//! * [`serve`] — [`Urr::snapshot`] freezes the query surfaces into an
//!   immutable [`UrrSnapshot`] that any number of reader threads can
//!   query lock-free while ingest continues, and
//!   [`UrrRequest`]/[`UrrResponse`] give those queries a framed wire
//!   protocol with hostile-input rejection ([`WireError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod codec;
pub mod image;
pub mod reference;
pub mod report;
pub mod serve;
pub mod storage;
pub mod urr;

pub use codec::JsonError;
pub use image::ReportImage;
pub use report::{Report, ReportOutcome};
pub use serve::{UrrRequest, UrrResponse, UrrSnapshot};
pub use storage::{
    DurableConfig, DurableUrr, FsStore, MemoryStore, RecoveryReport, StoreError, UrrStore,
    WireError,
};
pub use urr::{
    ClusterFailureRate, FailureGroup, InternedOutcome, InternedReport, MachineRef, ReleaseId,
    ReleaseSummary, SigId, Urr, UrrStats,
};
