//! The integrated Mirage framework (paper §3).
//!
//! This crate ties the subsystems together into the structured upgrade
//! development cycle of Figure 4: **deployment** (vendor) →
//! **user-machine testing** (user) → **reporting** (repository) → back to
//! the vendor's debugging.
//!
//! * A [`Vendor`] owns the reference machine, the parser registry (Mirage
//!   plus vendor-supplied parsers), the heuristic rules, the package
//!   repository, and clustering policy (diameter, importance filter).
//! * A [`UserAgent`] runs on each user machine: it collects traces,
//!   identifies environmental resources with the heuristic, fingerprints
//!   them, computes the diff against the vendor's reference list, tests
//!   upgrades in the sandbox, and reports outcomes.
//! * A [`Campaign`] executes a full strategy-driven deployment over a
//!   fleet in *logical* time, driving the same protocol state machines
//!   the discrete-event simulator uses, with real validation and real
//!   reports deposited in a real URR. Planning
//!   ([`Campaign::rollout_plan`]) and driving ([`Campaign::drive`]) are
//!   split: planning clusters the fleet into a strategy-shaped
//!   [`RolloutPlan`]; driving pumps a `mirage-rollout` controller over
//!   the live agents, so `Canary`/`Rolling`/`BlueGreen` rollouts — and,
//!   with [`Campaign::with_guard`], URR-closed-loop automated rollback —
//!   work on real fleets exactly as they do in simulation. The vendor
//!   side debugs failures using the deduplicated failure groups and
//!   ships corrected releases until the fleet converges.
//!
//! Fleet-wide fingerprinting ([`fleet_inputs`]) runs once per distinct
//! environment, not once per machine, and fans out across OS threads
//! with `mirage_cluster::par::fan_out` — the user-side comparison work is
//! "efficient and distributed" in the paper, and embarrassingly parallel
//! here.
//!
//! # Examples
//!
//! A complete campaign over a two-machine fleet:
//!
//! ```
//! use mirage_core::{Campaign, ProtocolChoice, RolloutStrategy, UserAgent, Vendor};
//! use mirage_env::{
//!     ApplicationSpec, File, MachineBuilder, Package, Repository, RunInput,
//!     Upgrade, Version, VersionReq,
//! };
//!
//! let mut repo = Repository::new();
//! repo.publish(
//!     Package::new("app", Version::new(1, 0, 0))
//!         .with_file(File::executable("/usr/bin/app", "app", 1)),
//! );
//! let spec = || ApplicationSpec::new("app", "app", "/usr/bin/app");
//! let reference = MachineBuilder::new("ref")
//!     .install(&repo, "app", VersionReq::Any)
//!     .app(spec())
//!     .build();
//! let vendor = Vendor::new(reference, repo);
//!
//! let mut agents = Vec::new();
//! for i in 0..2 {
//!     let mut agent = UserAgent::new(
//!         MachineBuilder::new(format!("u{i}"))
//!             .install(&vendor.repo, "app", VersionReq::Any)
//!             .app(spec())
//!             .build(),
//!     );
//!     agent.collect("app", RunInput::new("workload"));
//!     agents.push(agent);
//! }
//!
//! let mut campaign = Campaign::new(vendor, agents);
//! let classification = campaign
//!     .vendor
//!     .classify_reference("app", &[RunInput::new("workload")]);
//! let reference_fp = campaign.vendor.reference_fingerprint(&classification);
//! let (_clustering, plan) = campaign.rollout_plan(
//!     "app",
//!     &reference_fp,
//!     1,
//!     RolloutStrategy::Staged { waves: 1 },
//! );
//!
//! let upgrade = Upgrade::new(
//!     Package::new("app", Version::new(2, 0, 0))
//!         .with_file(File::executable("/usr/bin/app", "app", 2)),
//!     vec![],
//! );
//! let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
//! assert!(result.converged(2));
//! assert!(result.rollback.is_none());
//! assert_eq!(campaign.urr.stats().failures, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod agent;
pub mod campaign;
mod fleet;
pub mod vendor;

pub use agent::UserAgent;
pub use campaign::{choice_for_urgency, Campaign, CampaignResult};
pub use fleet::fleet_inputs;
pub use mirage_deploy::ProtocolChoice;
pub use mirage_rollout::{GuardSettings, RolloutPlan, RolloutStrategy};
pub use vendor::{classify_machine, fingerprint_machine, Vendor};
