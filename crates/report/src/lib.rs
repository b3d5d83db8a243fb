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
//! The repository is an *interned, incrementally-indexed* subsystem
//! designed to stay on during million-machine simulation sweeps:
//!
//! * **One writer, one lock.** Records and indexes sit behind one
//!   `Mutex`; a deposit claims its sequence numbers in the acquisition
//!   that stores its records, so the archive is in sequence order.
//! * **Dense interning.** Machine names, failure signatures, and
//!   `(package, version)` releases are interned to `u32` ids
//!   ([`MachineRef`], [`SigId`], [`ReleaseId`]) once at the boundary;
//!   the hot ingest path ([`Urr::deposit_interned_batch`]) moves only
//!   `Copy` records.
//! * **Word-packed sets.** Per-signature machine/cluster membership is
//!   deduplicated with packed bitsets plus first-report order lists,
//!   replacing the per-report `Vec<String>` accumulation of the
//!   original prototype.
//! * **Incremental inverted index.** Group, cluster, and release
//!   tallies are updated on ingest, so vendor queries (top-k failure
//!   groups, per-cluster failure rates, signature drill-downs,
//!   time-windowed first-seen scans) merge pre-aggregated state instead
//!   of re-scanning every report.
//!
//! A seeded property test holds the [`urr::UrrStats`] / [`urr::FailureGroup`]
//! results on random report streams to the answers the original
//! string-keyed prototype gave, recorded in
//! `tests/reference_queries.txt`.
//!
//! The repository is thread-safe. Its one persistent form is the
//! journal below; [`Urr::to_json`] dumps it for equality checks through
//! the workspace's dependency-free JSON module
//! ([`mirage_telemetry::json`]).
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
//!   protocol with hostile-input rejection ([`storage::WireError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod image;
pub mod report;
pub mod serve;
pub mod storage;
pub mod urr;

pub use image::ReportImage;
pub use report::{Report, ReportOutcome};
pub use serve::{UrrRequest, UrrResponse, UrrSnapshot};
pub use storage::{DurableConfig, DurableUrr, FsStore, MemoryStore, UrrStore};
pub use urr::{InternedOutcome, InternedReport, MachineRef, ReleaseId, SigId, Urr};
