//! The protocol abstraction: clock-free deployment state machines.
//!
//! Everything on this interface moves dense interned ids
//! ([`MachineId`], [`ProblemId`]) rather than names: reports and
//! commands are small `Copy`-friendly values, and the fixed-problem set
//! announced with each release is a flat [`ProblemSet`] bitset. Names
//! are resolved at the boundaries via the plan's
//! [`MachineTable`](crate::MachineTable). The previous string-keyed
//! interface survives in [`crate::reference`] for equivalence testing.

use std::fmt;

use crate::ids::{MachineId, ProblemId, ProblemSet};

/// Simulated (or wall-clock) time in abstract ticks.
///
/// Mirrored from the simulator so the vendor-side protocol hardening
/// ([`Protocol::on_tick`]) can reason about elapsed time without
/// depending on `mirage-sim`; the two crates agree this is a plain
/// `u64` tick count.
pub type SimTime = u64;

/// Period of the decision clock that drives tick-driven protocols: the
/// simulator's default fault plan and the live campaign pump both tick
/// at this interval.
pub const DEFAULT_TICK_INTERVAL: SimTime = 25;

/// A release of an upgrade. Release 0 is the original; the driver bumps
/// the number each time the vendor ships a corrected version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Release(pub u32);

/// Sentinel release meaning "re-install whatever was running before
/// this campaign" — the rollback wire. A rollout controller that
/// decides to abort emits an ordinary [`Command::Notify`] carrying this
/// release, so reverts travel the same hardened notify/retry/backoff
/// path as forward deployments. Drivers treat a test of
/// `PRIOR_RELEASE` as always passing (the prior release was the
/// known-good state) and record it as a revert rather than an
/// integration.
pub const PRIOR_RELEASE: Release = Release(u32::MAX);

impl fmt::Display for Release {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The outcome of one machine testing one release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestOutcome {
    /// The upgrade integrated and behaved identically.
    Pass,
    /// Testing failed; the failure signature identifies the problem.
    Fail {
        /// Interned problem identifier (the failure signature sent to
        /// the URR, interned through a `ProblemTable`).
        problem: ProblemId,
    },
}

impl TestOutcome {
    /// Returns `true` for a pass.
    pub fn passed(&self) -> bool {
        matches!(self, TestOutcome::Pass)
    }
}

/// A test report delivered to the vendor's protocol engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestReport {
    /// Reporting machine.
    pub machine: MachineId,
    /// Release that was tested.
    pub release: Release,
    /// Outcome.
    pub outcome: TestOutcome,
}

/// A command emitted by a protocol for the driver to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Notify these machines that `release` is available; each will
    /// download, test, and report.
    Notify {
        /// Machines to notify, in protocol-determined order.
        machines: Vec<MachineId>,
        /// Release to test.
        release: Release,
    },
    /// Deployment finished: every machine passed.
    Complete,
}

/// A deployment protocol as a pure state machine.
///
/// The driver contract:
///
/// 1. call [`Protocol::start`] once and execute the commands;
/// 2. deliver every test report via [`Protocol::on_report`];
/// 3. when the vendor ships a corrected release, announce it via
///    [`Protocol::on_release`] (the driver owns fix scheduling);
/// 4. keep executing returned commands until [`Command::Complete`].
///
/// Protocols never block and never consult a clock, which is what lets
/// the same implementations run under simulated time and in live
/// deployments.
pub trait Protocol {
    /// Protocol name for reporting.
    fn name(&self) -> &'static str;

    /// Begins deployment of release 0.
    fn start(&mut self) -> Vec<Command>;

    /// Handles a test report.
    fn on_report(&mut self, report: &TestReport) -> Vec<Command>;

    /// Absorbs a maximal prefix of consecutive *passing* test reports
    /// in one call, returning how many were absorbed.
    ///
    /// Contract: absorbing `k` reports must be exactly equivalent to
    /// `k` successive [`Protocol::on_report`] calls (each with
    /// [`TestOutcome::Pass`]) every one of which would have returned no
    /// commands and recorded no telemetry. Implementations stop at the
    /// first report that would emit a command, advance a wave, back out
    /// a waiver, or complete the deployment — the caller routes that
    /// report (and everything after it) through `on_report` as usual.
    ///
    /// This is the one batch contract a driver may lean on, and the
    /// sharded simulation driver does, on both of its replay paths:
    /// pass-report storms (the overwhelmingly common case in a healthy
    /// fleet) collapse into a tight counter loop instead of a
    /// per-report dispatch. The reports must be handed over in the
    /// order `on_report` would have seen them. The default absorbs
    /// nothing, which is always correct.
    fn absorb_passes(&mut self, _reports: &[(MachineId, Release)]) -> usize {
        0
    }

    /// Handles the vendor shipping a corrected release.
    ///
    /// `fixed` is the *cumulative* set of problems the release fixes;
    /// protocols use it to re-notify exactly the failed machines whose
    /// reported problem is now addressed (re-testing a machine whose
    /// problem is still open would only inflate the upgrade overhead).
    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command>;

    /// Periodic timer callback from the driver: the simulator ticks when
    /// its fault plan sets a stall budget or the protocol
    /// [wants ticks](Protocol::wants_ticks); the live pump only in the
    /// second case.
    ///
    /// `stall_budget` is the driver's, not the protocol's: the simulator
    /// passes its fault plan's `rep_timeout`, the live pump `None`. With
    /// a budget, a protocol that has made no forward progress for that
    /// long waives the machines blocking it — they crashed mid-stage or
    /// left the fleet and will *never* report — and advances. `None`
    /// never waives. The default does nothing, preserving the clock-free
    /// contract for reliable channels.
    fn on_tick(&mut self, _now: SimTime, _stall_budget: Option<SimTime>) -> Vec<Command> {
        Vec::new()
    }

    /// Number of machines waived by timeout-based stage advancement
    /// (the `deploy.rep_timeouts` counter). Zero for protocols that
    /// never tick.
    fn rep_timeouts(&self) -> u64 {
        0
    }

    /// Returns `true` when the protocol needs [`Protocol::on_tick`]
    /// callbacks even on a reliable channel (no fault plan). Rollouts
    /// use ticks as their decision clock — tick-gated cohorts, bake
    /// timers and URR guard evaluation run on ticks — so drivers arm the
    /// periodic timer whenever this returns `true`. The default is
    /// `false`, which keeps the paper's protocols clock-free and the
    /// driver's reliable-channel fast path bit-identical to the
    /// pre-rollout simulator.
    fn wants_ticks(&self) -> bool {
        false
    }

    /// Returns `true` once every machine has passed (or, under an
    /// active fault plan, has been waived by timeout).
    fn done(&self) -> bool;
}

/// Per-machine deployment status tracked by protocol implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum MachineStatus {
    /// Not yet told about the upgrade.
    #[default]
    Idle,
    /// Notified; a report is pending.
    Testing,
    /// Failed the most recent release it tested.
    Failed,
    /// Passed (the upgrade is integrated).
    Passed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        assert!(TestOutcome::Pass.passed());
        assert!(!TestOutcome::Fail {
            problem: ProblemId(0)
        }
        .passed());
    }

    #[test]
    fn release_display_and_order() {
        assert_eq!(Release(3).to_string(), "r3");
        assert!(Release(1) < Release(2));
        assert_eq!(Release::default(), Release(0));
    }

    #[test]
    fn reports_are_copy() {
        // The simulator relies on reports/outcomes being tiny Copy values.
        fn assert_copy<T: Copy>() {}
        assert_copy::<TestReport>();
        assert_copy::<TestOutcome>();
        assert_copy::<MachineId>();
        assert_copy::<ProblemId>();
    }
}
