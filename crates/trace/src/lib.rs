//! Syscall-level trace model for Mirage.
//!
//! The paper instruments process creation, read, write, file-descriptor and
//! socket system calls (plus `getenv()` in libc) to build a log of all
//! external resources an application touches. This crate defines that log:
//! the [`SyscallEvent`] vocabulary and the [`Trace`] container produced by
//! one application run.
//!
//! The crate is substrate-agnostic: in this reproduction the events are
//! emitted by the simulated-application interpreter in `mirage-env`, but the
//! downstream consumers (the environmental-resource heuristic in
//! `mirage-heuristic` and the replay validator in `mirage-testing`) only ever
//! see the types defined here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod event;
pub mod trace;

pub use event::{OpenMode, SyscallEvent};
pub use trace::{RunId, Trace};
