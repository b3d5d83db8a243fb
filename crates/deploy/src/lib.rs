//! Staged deployment protocols (paper §3.2.1–§3.2.2, §4.3).
//!
//! Mirage provides three deployment abstractions — **clusters of
//! deployment**, **representatives**, and a **vendor↔cluster distance** —
//! on which vendors build protocols optimising different objectives:
//! upgrade overhead (machines that test a faulty upgrade), upgrade
//! latency, report deduplication, or front-loaded debugging.
//!
//! Protocols are implemented here as *pure, clock-free state machines*
//! ([`Protocol`]): a driver (the discrete-event simulator in `mirage-sim`,
//! or the end-to-end orchestrator in `mirage-core`) feeds them test
//! reports and release announcements and executes the notification
//! commands they emit. This keeps protocol logic identical between
//! simulation and "real" deployment, and makes every protocol trivially
//! testable.
//!
//! The paper's four protocols are four configurations of one engine,
//! [`Staging`]: a phase-1 *front* tests in parallel, then *waves* (here
//! clusters, reps first) open one at a time in an *order*, each on the
//! report that meets the threshold. [`ProtocolChoice::build`] is the
//! table:
//!
//! | choice        | front               | order               |
//! |---------------|---------------------|---------------------|
//! | NoStaging     | every machine       | none                |
//! | Balanced      | none                | ascending distance  |
//! | RandomStaging | none                | seeded shuffle      |
//! | FrontLoading  | all representatives | descending distance |
//!
//! * **NoStaging** — one giant cluster, everyone a representative;
//!   fastest, maximum overhead. For simple and urgent upgrades
//!   (security patches).
//! * **Balanced** — the clusters most similar to the vendor first. Low
//!   overhead, good latency.
//! * **RandomStaging** — Balanced's staging over a shuffled order;
//!   isolates the benefit of staging from that of intelligent ordering.
//! * **FrontLoading** — every representative tests in parallel until no
//!   problems remain, then non-representatives deploy cluster by
//!   cluster, the most vendor-dissimilar first, front-loading the
//!   vendor's debugging effort.
//!
//! [`Staging::cohorts`] is the rollout strategies' row: cohorts as waves
//! without representatives, each opened on a decision tick. The stall
//! budget that waives machines which will never report is no row's: the
//! driver passes it with every tick ([`Protocol::on_tick`]).

//! ## The interned data plane
//!
//! Protocol state, commands, and reports are keyed by dense interned
//! ids ([`MachineId`], [`ProblemId`]) rather than machine names: a
//! report is a 12-byte `Copy` value and handling it costs a few array
//! indexings. Names exist only at the boundaries (plan construction,
//! rendering) via the plan's [`MachineTable`]. The original
//! string-keyed protocols are retained under [`mod@reference`] so
//! equivalence tests and benchmarks can compare against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod dispatch;
pub mod ids;
pub mod plan;
pub mod protocol;
pub mod protocols;
pub mod reference;

pub use dispatch::{seeded_shuffle, ProtocolChoice};
pub use ids::{MachineId, MachineSet, MachineTable, ProblemId, ProblemSet, ProblemTable};
pub use plan::{DeployCluster, DeployPlan};
pub use protocol::{
    Command, Protocol, Release, SimTime, TestOutcome, TestReport, DEFAULT_TICK_INTERVAL,
    PRIOR_RELEASE,
};
pub use protocols::{ceil_threshold, Staging};
