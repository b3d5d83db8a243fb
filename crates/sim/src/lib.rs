//! Discrete-event simulation of staged deployment (paper §4.3.1).
//!
//! The paper evaluates its deployment protocols with an event-driven
//! simulator whose inputs are the number and sizes of clusters, the
//! clustering quality, representatives per cluster, problem placement,
//! and the times to download, test, and fix an upgrade. This crate is
//! that simulator: a calendar (bucket) event queue ([`engine`]) drives
//! the *real* protocol implementations from `mirage-deploy` against a
//! [`scenario`](ScenarioBuilder), while [`metrics`] collects per-machine
//! pass times, per-cluster latency CDFs, and the upgrade overhead (number
//! of machines that tested a faulty upgrade).
//!
//! The data plane is fully interned: events are small `Copy` values
//! over dense [`mirage_deploy::MachineId`]/[`mirage_deploy::ProblemId`]
//! ids, and the inner loop is allocation free. The one-event-at-a-time
//! loop is kept under [`runner::sequential`] as the oracle of the
//! driver-equivalence tests; the string-keyed driver this plane
//! replaced is kept only as its recorded answers on seeded cases
//! (`tests/reference_runs.txt`).
//!
//! The vendor model matches the paper's: each distinct problem takes
//! `fix_time` to debug; fixes are worked on one at a time in report
//! order; each completed fix ships as a new release which failed machines
//! re-test. It is written once, in the crate-private `vendor` module,
//! and fed by one driver that walks the calendar queue a whole
//! timestamp at a time: bucket order is the order a one-event loop
//! would pop, so the driver is bit-identical to that loop for every
//! protocol, and absorbs each run of passes in one
//! [`mirage_deploy::Protocol::absorb_passes`] call.
//!
//! There is one way to start a run: [`Simulation`], a builder over the
//! scenario ([`with_telemetry`](Simulation::with_telemetry),
//! [`arena`](Simulation::arena)). A rollout is the same call over the
//! controller [`Scenario::rollout_controller`] builds.
//! ([`run_parallel_in`] and [`run_rollout_with_telemetry`] are that
//! builder under two names the campaign benchmark still calls.)
//!
//! A scenario built with [`ScenarioBuilder::with_urr`] additionally
//! deposits every vendor-received outcome into a shared
//! [`mirage_report::Urr`] through the buffered, fully interned
//! `urr_sink` bridge, so a simulation run leaves behind a queryable
//! Upgrade Report Repository (paper §3.4 meets §4.3).
//!
//! A run keeps one copy of the fleet's names however many machines it
//! has: the scenario's plan, the protocol or rollout controller built
//! from a clone of it, and a fresh repository (which adopts the plan's
//! machine table rather than interning it) all read the same shared
//! table, so what a run costs is events and deposits, not names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod engine;
pub mod faults;
pub mod metrics;
pub mod parallel;
pub mod rollout;
pub mod runner;
pub mod scenario;
mod urr_sink;
mod vendor;

pub use engine::SimTime;
pub use faults::FaultSpec;
pub use metrics::{latency_cdf, SimMetrics};
pub use parallel::run_parallel_in;
pub use rollout::run_rollout_with_telemetry;
pub use runner::{SimArena, Simulation};
pub use scenario::{Scenario, ScenarioBuilder};
