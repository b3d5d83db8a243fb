//! Fleet-wide observability for the Mirage reproduction.
//!
//! Mirage's value proposition (SOSP '07) is that the *vendor can watch*
//! a staged deployment: which clusters are testing, which
//! representatives failed, how fast the upgrade wave propagates. This
//! crate is the measurement layer that makes our campaigns and
//! simulations observable instead of black boxes. It is deliberately
//! **std-only** — no external dependencies — so it builds even when the
//! crate registry is unreachable, and it is safe to thread through every
//! hot path.
//!
//! Three pillars:
//!
//! 1. **Metrics registry** ([`Registry`]): atomic counters, gauges with
//!    high-water marks, and fixed-bucket histograms with p50/p90/p99
//!    summaries.
//! 2. **Hierarchical spans** ([`Telemetry::span`]): RAII guards that
//!    time phases (QT clustering iterations, heuristic identification,
//!    protocol command dispatch, campaign rounds) and aggregate the
//!    durations per span *path* (`campaign/deploy/round`).
//! 3. **Campaign journal** ([`Journal`]): the one event vocabulary — a
//!    bounded (optionally spilling) timeline of dense-id
//!    [`JournalEvent`]s (notify, test, report, wave advance, retry,
//!    waiver, fault, URR deposit, rollout decision) with exact per-kind
//!    counts in the [`Snapshot`]. Simulated campaigns stamp it with the
//!    simulation clock and live ones with the drive's decision ticks;
//!    either way it folds into per-wave health frames by
//!    [`health::rollup`] and exports as a Perfetto-loadable Chrome
//!    `trace_event` document by [`trace_export::chrome_trace`].
//!
//! Everything funnels through the cheap [`Recorder`] trait. The default
//! [`Telemetry::noop`] handle short-circuits before doing any work, so
//! uninstrumented callers pay a single branch. Instrumentation is
//! *deterministic-neutral*: recorders only observe, they never feed back
//! into simulation or campaign state, so an instrumented run produces
//! bit-identical results to an uninstrumented one.
//!
//! Two modules are shared plumbing rather than telemetry, kept here
//! because this is the one std-only crate every layer already depends
//! on: [`json`], the workspace's document codec, and [`names`], the
//! name ↔ dense-id table under every interner.
//!
//! # Examples
//!
//! ```
//! use mirage_telemetry::{JournalEvent, Registry, Telemetry};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new(1024));
//! let telemetry = Telemetry::from_registry(Arc::clone(&registry));
//! {
//!     let _span = telemetry.span("campaign");
//!     telemetry.counter("machines_notified", 3);
//!     telemetry.journal_time(25);
//!     telemetry.journal(JournalEvent::WaveAdvance { wave: 1, cluster: 4 });
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["machines_notified"], 3);
//! assert_eq!(snap.spans["campaign"].count, 1);
//! assert_eq!(snap.journal_counts["wave_advance"], 1);
//! assert_eq!(registry.journal().entries()[0].time, 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod health;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod trace_export;

pub use health::{HealthStatus, WatchdogConfig, WaveHealth};
pub use journal::{FaultKind, Journal, JournalEntry, JournalEvent, RolloutStep, NO_PROBLEM};
pub use metrics::HistogramSummary;
pub use recorder::{Capabilities, Recorder, Telemetry};
pub use registry::{Registry, Snapshot};
pub use span::Span;
pub use trace_export::TraceConfig;

/// The name the campaign benchmark's recorder imports for the argument
/// of [`Recorder::record_event`]; it goes when the benchmark is next
/// changed.
pub type FlightEvent = JournalEvent;
