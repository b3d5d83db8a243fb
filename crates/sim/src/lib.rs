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
//! ids, and the inner loop is allocation free. The pre-interning
//! string-keyed driver is retained under [`runner::reference`] for
//! equivalence tests and benchmarks.
//!
//! The vendor model matches the paper's: each distinct problem takes
//! `fix_time` to debug; fixes are worked on one at a time in report
//! order; each completed fix ships as a new release which failed machines
//! re-test. It is written once, in the crate-private `vendor` module,
//! and run by two drivers that differ only in how they order events:
//! the sequential loop pops one queue, the sharded [`parallel`] driver
//! merges per-shard queues and is bit-identical to it at any worker
//! count, for every protocol.
//!
//! There is one way to start a run: [`Simulation`], a builder over the
//! scenario ([`with_telemetry`](Simulation::with_telemetry),
//! [`workers`](Simulation::workers), [`arena`](Simulation::arena))
//! whose [`run`](Simulation::run) picks the driver from the worker
//! count alone — one worker is the sequential oracle. A rollout is the
//! same call over the controller [`Scenario::rollout_controller`]
//! builds. ([`run_parallel_in`] and [`run_rollout_with_telemetry`] are
//! that builder under two names the campaign benchmark still calls.)
//!
//! A scenario built with [`ScenarioBuilder::with_urr`] additionally
//! deposits every vendor-received outcome into a shared
//! [`mirage_report::Urr`] through the buffered, fully interned
//! [`urr_sink`] bridge, so a simulation run leaves behind a queryable
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
pub mod urr_sink;
mod vendor;

pub use engine::{Event, EventQueue, SimTime};
pub use faults::{FaultPlan, FaultRng, FaultSpec, RngLanes};
pub use metrics::{latency_cdf, ClusterLatency, SimMetrics};
pub use parallel::{run_parallel_in, SimArena, MAX_WORKERS};
pub use rollout::run_rollout_with_telemetry;
pub use runner::Simulation;
pub use scenario::{Scenario, ScenarioBuilder, Timings};
pub use urr_sink::UrrSink;
