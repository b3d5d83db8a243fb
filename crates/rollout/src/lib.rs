//! Strategy-driven rollout control with URR-closed-loop rollback.
//!
//! The deployment protocols in `mirage-deploy` answer *how to stage a
//! release across clusters*; this crate answers the question one layer
//! up: *how aggressively to widen a release across the fleet, and when
//! to abort it*. It supplies three pieces:
//!
//! 1. **A strategy vocabulary** ([`RolloutStrategy`]): `Staged` (the
//!    paper's distance-ordered cluster waves), `Canary` (a small
//!    fixed-percentage cohort plus a bake timer), `Rolling`
//!    (fixed-size machine batches), and `BlueGreen` (representatives
//!    first, everyone else second). [`RolloutPlan`] turns a strategy
//!    plus a [`mirage_deploy::DeployPlan`] into ordered machine
//!    *cohorts* — the pure planning half of what used to be a
//!    monolithic deploy loop.
//! 2. **A closed-loop controller** ([`RolloutController`]): a
//!    [`mirage_deploy::Protocol`] implementation that widens cohort by
//!    cohort and, on every driver tick, consults an [`UrrGuard`] —
//!    live per-cluster failure rates and the largest failure group's
//!    size in the Upgrade Report Repository — to decide Widen / Hold /
//!    RollBack. A rollback re-notifies every enrolled machine with
//!    [`mirage_deploy::PRIOR_RELEASE`] through the same hardened
//!    notify/retry path as forward deployment and is recorded as a
//!    [`RollbackInfo`].
//! 3. **A clock-free campaign driver** ([`drive()`]): the generic
//!    command-pump half of the old end-to-end deploy loop, pluggable
//!    over any [`WaveExecutor`] (the live fleet, a test double).
//!
//! Health is a monotone lattice ([`RolloutStatus`] /
//! [`RolloutStatusReason`]): independent per-cluster assessments are
//! `RolloutHealth::combine`d so the overall verdict can only get
//! worse as evidence accumulates within a tick, never flap with
//! iteration order.
//!
//! # Example
//!
//! ```
//! use mirage_deploy::DeployPlan;
//! use mirage_rollout::{RolloutPlan, RolloutStrategy};
//!
//! let deploy = DeployPlan::from_named([
//!     (["a", "b", "c", "d"], 1, 1.0),
//!     (["e", "f", "g", "h"], 1, 2.0),
//! ]);
//! let plan = RolloutPlan::new(
//!     deploy,
//!     RolloutStrategy::Canary { percentage: 25.0, bake_time: 50 },
//! );
//! assert_eq!(plan.cohorts.len(), 2);
//! assert_eq!(plan.exposure_limit(), 2); // ceil(25% of 8)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod controller;
pub mod drive;
pub mod guard;
pub mod plan;
pub mod status;

pub use controller::{RollbackInfo, RolloutController, RolloutOutcome};
pub use drive::{drive, WaveExecutor, WaveOutcome};
pub use guard::{GuardSettings, UrrGuard};
pub use plan::{RolloutPlan, RolloutStrategy};
pub use status::{RolloutStatus, RolloutStatusReason};
