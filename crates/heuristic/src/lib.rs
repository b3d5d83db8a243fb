//! Environmental-resource identification (paper §3.2.3).
//!
//! Before clustering, Mirage must decide which of the files an application
//! touches are *environmental resources* (libraries, configuration,
//! executables — things whose differences could change upgrade behaviour)
//! and which are mere data. This crate implements the paper's four-part
//! heuristic over collected traces:
//!
//! 1. every file accessed within the **longest common prefix** of the
//!    per-trace access sequences (the single-threaded initialisation
//!    phase);
//! 2. every file opened **read-only in all traces** and present in every
//!    trace;
//! 3. every file of certain **vendor-specified types** (such as shared
//!    libraries) accessed in any single trace;
//! 4. every file named in the application's **package manifest**;
//!
//! minus the default system-wide excludes (`/tmp`, `/var`), adjusted by
//! the vendor's include/exclude **rules** (a glob-based API). Environment
//! variables read through `getenv` are always environmental resources.
//!
//! The [`eval`] module scores a classification against ground truth,
//! producing the rows of the paper's Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod config;
pub mod eval;
pub mod identify;
pub mod rules;

pub use config::HeuristicConfig;
pub use eval::{evaluate, EvalResult};
pub use identify::{identify, Classification};
pub use rules::{expand_templates, Rule, RuleSet, RuleTemplate};
