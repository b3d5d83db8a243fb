//! Simulated machine environments for Mirage.
//!
//! The paper evaluates Mirage on real Linux machines with real packages
//! (MySQL, PHP, Apache, Firefox). This crate is the substitute substrate:
//! a deterministic, in-memory model of everything Mirage observes about a
//! machine —
//!
//! * a **filesystem** of typed files with structured, renderable contents
//!   and copy-on-write snapshots (the [`fs`], [`content`], and [`mod@file`] modules);
//! * a **package system** with versions, dependencies, and transitive
//!   upgrade resolution ([`pkg`]), so that broken-dependency problems
//!   arise the same way they do in the field;
//! * **applications** described by behaviour specs and executed by an
//!   interpreter that emits syscall-level traces ([`app`]);
//! * **machines** and fleets assembling all of the above ([`machine`]);
//! * **upgrades with injected problems** — environment predicates that
//!   decide, per machine, whether an upgrade misbehaves and how
//!   ([`problems`]).
//!
//! Everything is deterministic: the same machine and inputs always produce
//! the same trace, which is what lets the validation subsystem compare
//! pre- and post-upgrade behaviour byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod app;
pub mod content;
pub mod file;
pub mod fs;
pub mod machine;
pub mod pkg;
pub mod problems;

pub use app::{AppLogic, ApplicationSpec, LateTrigger, RunInput};
pub use content::{FileContent, IniDoc, IniLine, PrefsDoc};
pub use file::File;
pub use fs::FileSystem;
pub use machine::{Machine, MachineBuilder};
pub use pkg::{Package, PackageManager, PkgError, Repository, Version, VersionReq};
pub use problems::{
    EnvPredicate, ProblemEffect, ProblemId, ProblemSpec, Upgrade, UpgradeId, Urgency,
};
