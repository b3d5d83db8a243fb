//! User-machine upgrade testing (paper §3.3).
//!
//! Mirage tests an upgrade *on the user's machine, against the user's own
//! workload* before integrating it:
//!
//! 1. the trace-collection subsystem records each application's runs —
//!    inputs (arguments, environment, network receives) and outputs
//!    (file writes, network sends) — as [`RecordedRun`]s;
//! 2. when an upgrade arrives, the dependence subsystem determines the
//!    affected applications;
//! 3. the upgrade is applied inside a [`Sandbox`] — an isolated machine
//!    booted from a copy-on-write snapshot of the live filesystem (the
//!    paper uses a modified User-Mode Linux booting from the host
//!    filesystem with CoW);
//! 4. each affected application is re-run on its recorded inputs in the
//!    sandbox; network output is suppressed-but-recorded; outputs are
//!    compared against the recorded ones, tolerating reordering of input
//!    operations;
//! 5. the result is a [`ValidationReport`]: per-application pass,
//!    integration failure, crash, or output mismatch. On mismatch a
//!    configurable [`AcceptancePolicy`] models the human decision the
//!    paper leaves to the user; discarding the sandbox *is* the rollback.
//!
//! Legitimately I/O-changing upgrades (new features) are handled by
//! [`refresh_runs`]: a representative that accepts the new behaviour
//! produces fresh reference traces in the sandbox which other cluster
//! members can validate against without human involvement (§3.5).
//!
//! # Examples
//!
//! ```
//! use mirage_env::{
//!     ApplicationSpec, File, MachineBuilder, Package, Repository, RunInput,
//!     Upgrade, Version, VersionReq,
//! };
//! use mirage_testing::{RecordedRun, Validator};
//! use mirage_trace::RunId;
//!
//! // A machine running v1 of an application, with one recorded run.
//! let mut repo = Repository::new();
//! repo.publish(
//!     Package::new("app", Version::new(1, 0, 0))
//!         .with_file(File::executable("/usr/bin/app", "app", 1)),
//! );
//! let machine = MachineBuilder::new("m")
//!     .install(&repo, "app", VersionReq::Any)
//!     .app(ApplicationSpec::new("app", "app", "/usr/bin/app"))
//!     .build();
//! let input = RunInput::new("workload");
//! let trace = machine.run_app("app", &input, RunId(0));
//! let runs = vec![RecordedRun::new(input, trace)];
//!
//! // Validate the v2 upgrade in a sandbox: apply, replay, compare.
//! let upgrade = Upgrade::new(
//!     Package::new("app", Version::new(2, 0, 0))
//!         .with_file(File::executable("/usr/bin/app", "app", 2)),
//!     vec![], // no injected problems: a clean upgrade
//! );
//! let report = Validator::new().validate(&machine, &repo, &upgrade, &runs);
//! assert!(report.passed());
//! // The live machine was never touched: discarding the sandbox was the
//! // rollback that never needed to happen.
//! assert_eq!(machine.pkgs.installed_version("app"), Some(Version::new(1, 0, 0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod compare;
#[cfg(test)]
mod proptests;
pub mod record;
pub mod sandbox;
pub mod validate;

pub use record::RecordedRun;
pub use sandbox::Sandbox;
pub use validate::{refresh_runs, AcceptancePolicy, FailureKind, ValidationReport, Validator};
