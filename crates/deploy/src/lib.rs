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
//! Every protocol and rollout strategy is a row of one table,
//! [`RolloutPlan::choose`], run by one engine, [`Staging`], which is
//! built from a [`RolloutPlan`] alone: a phase-1 *front* tests in
//! parallel, then *waves* (runs of machines, representatives first)
//! open one at a time in an *order*. The paper's protocols are the
//! `Staged` rows, picked by [`ProtocolChoice`]: each cluster is a wave,
//! opened by the report that meets the threshold. The cohort rows open
//! theirs on a decision tick.
//!
//! | row           | front           | waves, in order                 | for                          |
//! |---------------|-----------------|---------------------------------|------------------------------|
//! | NoStaging     | every machine   | none                            | urgent upgrades: fastest     |
//! | Balanced      | none            | clusters, ascending distance    | low overhead, good latency   |
//! | RandomStaging | none            | clusters, seeded shuffle        | staging without the ordering |
//! | FrontLoading  | representatives | clusters, descending distance   | front-loaded debugging       |
//! | Canary        | none            | the first `percentage`, the rest| a baked probe cohort         |
//! | Rolling       | none            | `batch_size` machines at a time | bounded batches              |
//! | BlueGreen     | none            | representatives, then the rest  | one probe per cluster        |
//!
//! The stall budget that waives machines which will never report is no
//! row's: the driver passes it with every tick ([`Protocol::on_tick`]).
//! [`RolloutPlan::exposure_limit`] is what the engine notifies before
//! any report.

//! ## The interned data plane
//!
//! Protocol state, commands, and reports are keyed by dense interned
//! ids ([`MachineId`], [`ProblemId`]) rather than machine names: a
//! report is a 12-byte `Copy` value and handling it costs a few array
//! indexings. Names exist only at the boundaries (plan construction,
//! rendering) via the plan's [`MachineTable`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod dispatch;
pub mod ids;
pub mod plan;
pub mod protocol;
pub mod protocols;

pub use dispatch::{seeded_shuffle, ProtocolChoice};
pub use ids::{MachineId, MachineSet, MachineTable, ProblemId, ProblemSet, ProblemTable};
pub use plan::{DeployCluster, DeployPlan, RolloutPlan, RolloutStrategy};
pub use protocol::{
    Command, Protocol, Release, SimTime, TestOutcome, TestReport, DEFAULT_TICK_INTERVAL,
    PRIOR_RELEASE,
};
pub use protocols::{ceil_threshold, Staging};
