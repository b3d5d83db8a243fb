//! The closed-loop rollout controller.
//!
//! [`RolloutController`] is a [`Protocol`]: it plugs into every
//! existing driver (the simulator's two, the live campaign pump)
//! unchanged, because widening, holding, and rolling back are all
//! expressed through the same `Notify`/`Complete` command vocabulary
//! the staging protocols already speak. Nothing on the wire changed —
//! a rollback is an ordinary notification carrying [`PRIOR_RELEASE`],
//! so it rides the hardened retry/backoff/churn path for free.
//!
//! Every strategy runs on one wire engine, [`Staging`]; the plan's
//! [`RolloutStrategy`] picks the row:
//!
//! - **Staged** is the [`ProtocolChoice`] row (Balanced by default):
//!   cluster waves, representatives first, each opened by the report
//!   that meets the threshold. Without a guard the controller is a
//!   transparent pass-through — bit-identical to running the staging
//!   protocol directly (a property test in `mirage-sim` proves it).
//!   With a guard it adds abort authority on top of the paper's staging.
//! - **Canary / Rolling / BlueGreen** hand the plan's cohorts to the
//!   engine as waves with no representative prefix ([`Staging::cohorts`]),
//!   each opened on a decision tick once the frontier cohort meets the
//!   pass threshold, its bake time (canaries) has passed, and the guard
//!   allows a widen.
//!
//! Either way the engine supplies stall waivers, stale-release
//! filtering and batch pass absorption; the controller adds the guard's
//! hysteresis, the enrolment record, the revert wave and the
//! [`RolloutOutcome`].
//!
//! Guard decisions happen **only on ticks** ([`Protocol::on_tick`]) —
//! the controller's decision clock. Each tick the attached [`UrrGuard`]
//! (if any) assesses live repository health; hysteresis counters turn
//! raw verdicts into Widen / Hold / RollBack so a failure rate
//! flapping around the threshold can neither abort the rollout nor
//! let it widen.

use mirage_deploy::{
    Command, MachineId, MachineSet, ProblemSet, Protocol, ProtocolChoice, Release, SimTime,
    Staging, TestReport, PRIOR_RELEASE,
};
use mirage_telemetry::journal::RolloutStep;
use mirage_telemetry::{JournalEvent, Telemetry};

use crate::guard::UrrGuard;
use crate::plan::{RolloutPlan, RolloutStrategy};
use crate::status::{RolloutHealth, RolloutStatus, RolloutStatusReason};

/// Record of an executed rollback, attached to campaign results and
/// bench artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollbackInfo {
    /// The release the fleet was reverted *from* (latest forward
    /// release at abort time).
    pub from_release: Release,
    /// The release machines were told to reinstall ([`PRIOR_RELEASE`]).
    pub prior_release: Release,
    /// Frontier cohort index when the guard tripped.
    pub at_cohort: usize,
    /// Machines that had been notified of the bad release (each one
    /// receives the revert notification).
    pub exposed_machines: usize,
    /// The guard verdict that triggered the abort.
    pub reason: RolloutStatusReason,
    /// Simulated time of the abort decision.
    pub at_time: SimTime,
}

/// Summary of a finished (or in-flight) rollout, read off the
/// controller after a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutOutcome {
    /// The strategy that shaped the rollout.
    pub strategy: RolloutStrategy,
    /// Final status (lattice top seen).
    pub status: RolloutStatus,
    /// Most severe reason behind the status.
    pub reason: RolloutStatusReason,
    /// Widen decisions taken (cohorts notified beyond the first).
    pub cohorts_widened: usize,
    /// Machines notified of a forward release.
    pub enrolled: usize,
    /// Machines confirmed reverted to the prior release.
    pub reverted: usize,
    /// The rollback, if the guard aborted the rollout.
    pub rollback: Option<RollbackInfo>,
}

/// A strategy-driven rollout state machine with optional URR-guarded
/// abort authority. See the module docs for the operating model.
#[derive(Debug, Clone)]
pub struct RolloutController {
    strategy: RolloutStrategy,
    staging: Staging,
    guard: Option<UrrGuard>,
    telemetry: Telemetry,
    /// Machines notified of any forward release, in first-notification
    /// order (the revert wave re-notifies exactly these).
    enrolled: MachineSet,
    enrolled_order: Vec<MachineId>,
    /// Machines confirmed back on the prior release.
    reverted: MachineSet,
    /// Highest forward release announced so far.
    latest_release: Release,
    /// Hysteresis counters over guard verdicts.
    healthy_streak: u32,
    unhealthy_streak: u32,
    /// Worst guard verdict observed (monotone).
    worst: RolloutHealth,
    rollback: Option<RollbackInfo>,
}

impl RolloutController {
    /// Builds a controller over `plan`. `choice` selects the staging
    /// protocol the `Staged` strategy runs (other strategies run their
    /// cohorts and ignore it); `threshold` is the fraction of a cohort
    /// (or staging wave) that must pass before widening.
    pub fn new(plan: RolloutPlan, choice: ProtocolChoice, threshold: f64) -> Self {
        let RolloutPlan {
            deploy,
            strategy,
            cohorts,
        } = plan;
        let staging = match strategy {
            RolloutStrategy::Staged { .. } => choice.build(deploy, threshold),
            RolloutStrategy::Canary { bake_time, .. } => {
                Staging::cohorts("Canary", deploy, cohorts, threshold, bake_time)
            }
            RolloutStrategy::Rolling { .. } => {
                Staging::cohorts("Rolling", deploy, cohorts, threshold, 0)
            }
            RolloutStrategy::BlueGreen => {
                Staging::cohorts("BlueGreen", deploy, cohorts, threshold, 0)
            }
        };
        RolloutController {
            strategy,
            staging,
            guard: None,
            telemetry: Telemetry::noop(),
            enrolled: MachineSet::new(),
            enrolled_order: Vec::new(),
            reverted: MachineSet::new(),
            latest_release: Release(0),
            healthy_streak: 0,
            unhealthy_streak: 0,
            worst: RolloutHealth::clean(),
            rollback: None,
        }
    }

    /// Attaches a URR guard, arming the closed loop (and the decision
    /// clock: a guarded controller requests driver ticks).
    pub fn with_guard(mut self, guard: UrrGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Attaches a telemetry handle (decision counters, journal
    /// events, rollout state gauge). The engine underneath records into
    /// the same handle, so wave counters and journal entries land exactly
    /// as they would running the staging protocol directly.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.staging = self.staging.with_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The rollback record, if the guard aborted the rollout.
    pub fn rollback(&self) -> Option<&RollbackInfo> {
        self.rollback.as_ref()
    }

    /// Snapshot of the rollout's outcome.
    pub fn outcome(&self) -> RolloutOutcome {
        let (status, reason) = if let Some(info) = &self.rollback {
            (RolloutStatus::Failed, info.reason.max(self.worst.reason))
        } else if self.done() {
            (RolloutStatus::Clean, RolloutStatusReason::Clean)
        } else {
            (
                RolloutStatus::InProgress.combine(self.worst.status),
                self.worst.reason.max(RolloutStatusReason::Widening),
            )
        };
        RolloutOutcome {
            strategy: self.strategy,
            status,
            reason,
            cohorts_widened: self.staging.widens(),
            enrolled: self.enrolled.len(),
            reverted: self.reverted.len(),
            rollback: self.rollback,
        }
    }

    /// Records every machine a forward `Notify` enrols, and the end of
    /// the rollout; hands the engine's commands back.
    fn observe(&mut self, commands: Vec<Command>) -> Vec<Command> {
        for command in &commands {
            match command {
                Command::Notify { machines, .. } => {
                    for &m in machines {
                        if self.enrolled.insert(m) {
                            self.enrolled_order.push(m);
                        }
                    }
                }
                Command::Complete => self.telemetry.gauge("rollout.state", 0),
            }
        }
        commands
    }

    /// Executes the abort: journal + counters, then one revert wave
    /// over every enrolled machine.
    fn roll_back(&mut self, now: SimTime, reason: RolloutStatusReason) -> Vec<Command> {
        let at_cohort = self.staging.widens();
        let machines: Vec<MachineId> = self
            .enrolled_order
            .iter()
            .copied()
            .filter(|&m| !self.reverted.contains(m))
            .collect();
        self.rollback = Some(RollbackInfo {
            from_release: self.latest_release,
            prior_release: PRIOR_RELEASE,
            at_cohort,
            exposed_machines: self.enrolled.len(),
            reason,
            at_time: now,
        });
        self.telemetry.counter("deploy.rollbacks", 1);
        self.telemetry.gauge("rollout.state", 2);
        self.telemetry.journal_timed(&[(
            now,
            JournalEvent::Rollout {
                step: RolloutStep::RollBack,
                cohort: at_cohort as u32,
                machines: machines.len() as u32,
            },
        )]);
        if machines.is_empty() {
            return vec![Command::Complete];
        }
        vec![Command::Notify {
            machines,
            release: PRIOR_RELEASE,
        }]
    }

    /// The guard's hysteresis step: updates streaks from one verdict
    /// and reports whether the rollback trigger fired.
    fn guard_step(&mut self) -> Option<RolloutStatusReason> {
        let guard = self.guard.as_ref()?;
        let settings = guard.settings;
        let verdict = guard.assess();
        self.worst = self.worst.combine(verdict);
        if verdict.failed() {
            self.unhealthy_streak += 1;
            self.healthy_streak = 0;
            if self.unhealthy_streak >= settings.unhealthy_ticks {
                return Some(verdict.reason);
            }
        } else {
            self.healthy_streak += 1;
            self.unhealthy_streak = 0;
        }
        None
    }
}

impl Protocol for RolloutController {
    fn name(&self) -> &'static str {
        self.staging.name()
    }

    fn start(&mut self) -> Vec<Command> {
        self.telemetry.gauge("rollout.state", 1);
        let commands = self.staging.start();
        self.observe(commands)
    }

    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        if self.rollback.is_none() {
            let commands = self.staging.on_report(report);
            return self.observe(commands);
        }
        // After the abort only revert confirmations matter;
        // forward-release stragglers are ignored.
        let confirmed = report.release == PRIOR_RELEASE
            && self.enrolled.contains(report.machine)
            && self.reverted.insert(report.machine);
        if confirmed && self.reverted.len() == self.enrolled.len() {
            return vec![Command::Complete];
        }
        Vec::new()
    }

    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        if self.rollback.is_some() {
            return 0;
        }
        self.staging.absorb_passes(reports)
    }

    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        if self.rollback.is_some() {
            // The abort already happened; a late fix changes nothing.
            return Vec::new();
        }
        self.latest_release = self.latest_release.max(release);
        let commands = self.staging.on_release(release, fixed);
        self.observe(commands)
    }

    fn on_tick(&mut self, now: SimTime, stall_budget: Option<SimTime>) -> Vec<Command> {
        if self.rollback.is_some() || self.done() {
            return Vec::new();
        }
        if let Some(reason) = self.guard_step() {
            return self.roll_back(now, reason);
        }
        // The guard (if any) permits widening after enough clean ticks.
        let allowed = self
            .guard
            .as_ref()
            .is_none_or(|guard| self.healthy_streak >= guard.settings.healthy_ticks);
        let commands = self.staging.tick(now, stall_budget, allowed);
        self.observe(commands)
    }

    fn rep_timeouts(&self) -> u64 {
        self.staging.rep_timeouts()
    }

    fn wants_ticks(&self) -> bool {
        // Cohort widening and guard evaluation both run on the
        // decision clock; an unguarded staged row stays clock-free
        // (bit-identical to the bare staging protocol).
        self.guard.is_some() || self.staging.wants_ticks()
    }

    fn done(&self) -> bool {
        if self.rollback.is_some() {
            return self.reverted.len() == self.enrolled.len();
        }
        self.staging.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardSettings;
    use mirage_deploy::{DeployPlan, ProblemId, TestOutcome};
    use mirage_report::{Report, ReportImage, Urr};
    use std::sync::Arc;

    fn deploy() -> DeployPlan {
        DeployPlan::from_named([
            (["a0", "a1", "a2", "a3"], 1, 1.0),
            (["b0", "b1", "b2", "b3"], 1, 2.0),
        ])
    }

    fn pass(machine: MachineId) -> TestReport {
        TestReport {
            machine,
            release: Release(0),
            outcome: TestOutcome::Pass,
        }
    }

    fn controller(strategy: RolloutStrategy) -> RolloutController {
        RolloutController::new(
            RolloutPlan::new(deploy(), strategy),
            ProtocolChoice::Balanced,
            1.0,
        )
    }

    #[test]
    fn cohort_engine_widens_on_ticks_and_completes() {
        let mut c = controller(RolloutStrategy::Rolling { batch_size: 4 });
        assert!(c.wants_ticks());
        let commands = c.start();
        let Command::Notify { machines, release } = &commands[0] else {
            panic!("expected notify");
        };
        assert_eq!((machines.len(), *release), (4, Release(0)));
        // Frontier not ready: ticks hold.
        assert!(c.on_tick(25, None).is_empty());
        for m in 0..4 {
            assert!(c.on_report(&pass(MachineId(m))).is_empty());
        }
        // Ready frontier widens on the next tick.
        let commands = c.on_tick(50, None);
        assert!(matches!(&commands[0], Command::Notify { machines, .. } if machines.len() == 4));
        assert!(!c.done());
        for m in 4..7 {
            assert!(c.on_report(&pass(MachineId(m))).is_empty());
        }
        let commands = c.on_report(&pass(MachineId(7)));
        assert_eq!(commands, vec![Command::Complete]);
        assert!(c.done());
        let outcome = c.outcome();
        assert_eq!(outcome.status, RolloutStatus::Clean);
        assert_eq!(outcome.cohorts_widened, 1);
        assert_eq!(outcome.enrolled, 8);
        assert!(outcome.rollback.is_none());
    }

    #[test]
    fn canary_waits_for_bake_time() {
        let mut c = controller(RolloutStrategy::Canary {
            percentage: 25.0,
            bake_time: 100,
        });
        let _ = c.start(); // canary cohort: 2 machines
        for m in 0..2 {
            c.on_report(&pass(MachineId(m)));
        }
        // Ready at tick 25, but the bake window runs to 125.
        assert!(c.on_tick(25, None).is_empty());
        assert!(c.on_tick(75, None).is_empty());
        let commands = c.on_tick(125, None);
        assert!(matches!(&commands[0], Command::Notify { machines, .. } if machines.len() == 6));
    }

    #[test]
    fn duplicate_pass_reports_do_not_double_count() {
        let mut c = controller(RolloutStrategy::Rolling { batch_size: 4 });
        let _ = c.start();
        // Three distinct passes and a duplicate: counted twice, the
        // duplicate would fill the 4-machine frontier and widen.
        for m in [0, 0, 1, 2] {
            assert!(c.on_report(&pass(MachineId(m))).is_empty());
        }
        assert!(c.on_tick(25, None).is_empty(), "3 of 4 passed: hold");
        assert_eq!(c.outcome().cohorts_widened, 0);
        assert!(c.on_report(&pass(MachineId(3))).is_empty());
        let commands = c.on_tick(50, None);
        assert!(matches!(&commands[0], Command::Notify { machines, .. } if machines.len() == 4));
        assert_eq!(c.outcome().cohorts_widened, 1);
        // Duplicates of the second batch do not complete it early.
        for m in [4, 4, 5, 6] {
            assert!(c.on_report(&pass(MachineId(m))).is_empty());
        }
        assert!(!c.done());
        assert_eq!(c.on_report(&pass(MachineId(7))), vec![Command::Complete]);
        assert_eq!(c.outcome().status, RolloutStatus::Clean);
    }

    #[test]
    fn fix_renotifies_only_failed_machines_whose_problem_is_fixed() {
        let mut c = controller(RolloutStrategy::Rolling { batch_size: 8 });
        let _ = c.start();
        let p0 = ProblemId(0);
        let p1 = ProblemId(1);
        c.on_report(&TestReport {
            machine: MachineId(0),
            release: Release(0),
            outcome: TestOutcome::Fail { problem: p0 },
        });
        c.on_report(&TestReport {
            machine: MachineId(1),
            release: Release(0),
            outcome: TestOutcome::Fail { problem: p1 },
        });
        let mut fixed = ProblemSet::new();
        fixed.insert(p0);
        let commands = c.on_release(Release(1), &fixed);
        assert_eq!(
            commands,
            vec![Command::Notify {
                machines: vec![MachineId(0)],
                release: Release(1),
            }]
        );
        // The re-notified machine passes against the new release.
        let commands = c.on_report(&TestReport {
            machine: MachineId(0),
            release: Release(1),
            outcome: TestOutcome::Pass,
        });
        assert!(commands.is_empty());
    }

    #[test]
    fn guard_trips_rollback_with_hysteresis_and_revert_completes() {
        let urr = Arc::new(Urr::new());
        let guard = UrrGuard::new(
            Arc::clone(&urr),
            GuardSettings {
                max_cluster_failure_rate: 0.3,
                min_reports: 2,
                unhealthy_ticks: 2,
                healthy_ticks: 1,
                ..GuardSettings::default()
            },
        );
        let mut c = controller(RolloutStrategy::Canary {
            percentage: 50.0,
            bake_time: 0,
        })
        .with_guard(guard);
        let _ = c.start(); // canary: machines 0..4
        for i in 0..4 {
            urr.deposit(Report::failure(
                format!("a{i}"),
                0,
                "upgrade",
                "r0",
                "crash",
                "detail",
                ReportImage::new("digest", vec![], vec![], vec![]),
            ));
        }
        // First unhealthy tick: hold (hysteresis), no rollback yet.
        assert!(c.on_tick(25, None).is_empty());
        assert!(c.rollback().is_none());
        // Second consecutive unhealthy tick trips the abort.
        let commands = c.on_tick(50, None);
        let Command::Notify { machines, release } = &commands[0] else {
            panic!("expected revert notify");
        };
        assert_eq!(*release, PRIOR_RELEASE);
        assert_eq!(machines.len(), 4, "only the canary cohort was exposed");
        let info = *c.rollback().expect("rollback recorded");
        assert_eq!(info.exposed_machines, 4);
        assert_eq!(info.reason, RolloutStatusReason::FailureRateExceeded);
        assert_eq!(info.at_time, 50);
        assert!(!c.done());
        // A late fix is ignored after the abort.
        let mut fixed = ProblemSet::new();
        fixed.insert(ProblemId(0));
        assert!(c.on_release(Release(1), &fixed).is_empty());
        // Revert confirmations drain to completion.
        for m in 0..3 {
            assert!(c
                .on_report(&TestReport {
                    machine: MachineId(m),
                    release: PRIOR_RELEASE,
                    outcome: TestOutcome::Pass,
                })
                .is_empty());
        }
        let commands = c.on_report(&TestReport {
            machine: MachineId(3),
            release: PRIOR_RELEASE,
            outcome: TestOutcome::Pass,
        });
        assert_eq!(commands, vec![Command::Complete]);
        assert!(c.done());
        let outcome = c.outcome();
        assert_eq!(outcome.status, RolloutStatus::Failed);
        assert_eq!(outcome.reverted, 4);
    }

    #[test]
    fn guard_holds_a_ready_frontier_until_enough_clean_ticks() {
        let urr = Arc::new(Urr::new());
        let guard = UrrGuard::new(
            Arc::clone(&urr),
            GuardSettings {
                healthy_ticks: 2,
                ..GuardSettings::default()
            },
        );
        let mut c = controller(RolloutStrategy::Rolling { batch_size: 4 }).with_guard(guard);
        let _ = c.start();
        for m in 0..4 {
            c.on_report(&pass(MachineId(m)));
        }
        // The frontier is ready, but one clean tick is not two.
        assert!(c.on_tick(25, None).is_empty());
        let commands = c.on_tick(50, None);
        assert!(matches!(&commands[0], Command::Notify { machines, .. } if machines.len() == 4));
        assert_eq!(c.outcome().cohorts_widened, 1);
    }

    #[test]
    fn flapping_health_neither_aborts_nor_oscillates() {
        let urr = Arc::new(Urr::new());
        let guard = UrrGuard::new(
            Arc::clone(&urr),
            GuardSettings {
                max_cluster_failure_rate: 0.4,
                min_reports: 2,
                unhealthy_ticks: 2,
                healthy_ticks: 1,
                ..GuardSettings::default()
            },
        );
        let mut c = controller(RolloutStrategy::Rolling { batch_size: 4 }).with_guard(guard);
        let _ = c.start();
        let image = || ReportImage::new("digest", vec![], vec![], vec![]);
        // 1 failure / 2 reports: rate 0.5 > 0.4 → unhealthy tick.
        urr.deposit(Report::success("a0", 0, "upgrade", "r0"));
        urr.deposit(Report::failure(
            "a1",
            0,
            "upgrade",
            "r0",
            "crash",
            "d",
            image(),
        ));
        assert!(c.on_tick(25, None).is_empty());
        // Two more successes: rate 0.25 < 0.4 → healthy tick resets the
        // unhealthy streak before it can reach the trigger.
        urr.deposit(Report::success("a2", 0, "upgrade", "r0"));
        urr.deposit(Report::success("a3", 0, "upgrade", "r0"));
        assert!(c.on_tick(50, None).is_empty());
        // Rate climbs back over threshold: streak restarts at one.
        urr.deposit(Report::failure(
            "b0",
            0,
            "upgrade",
            "r0",
            "crash",
            "d",
            image(),
        ));
        urr.deposit(Report::failure(
            "b1",
            0,
            "upgrade",
            "r0",
            "crash",
            "d",
            image(),
        ));
        assert!(c.on_tick(75, None).is_empty());
        assert!(c.rollback().is_none(), "hysteresis held through the flap");
        // And back down again: still no abort, and the worst verdict is
        // remembered for the outcome without tripping.
        urr.deposit(Report::success("b2", 0, "upgrade", "r0"));
        urr.deposit(Report::success("b3", 0, "upgrade", "r0"));
        urr.deposit(Report::success("c0", 0, "upgrade", "r0"));
        assert!(c.on_tick(100, None).is_empty());
        assert!(c.rollback().is_none());
        assert_eq!(
            c.outcome().reason,
            RolloutStatusReason::FailureRateExceeded,
            "worst observed verdict is reported, not the final one"
        );
    }

    #[test]
    fn staged_mode_delegates_and_tracks_enrollment() {
        let mut c = controller(RolloutStrategy::Staged { waves: 2 });
        assert!(!c.wants_ticks(), "unguarded staged stays clock-free");
        let mut inner = ProtocolChoice::Balanced.build(deploy(), 1.0);
        let direct = inner.start();
        let delegated = c.start();
        assert_eq!(direct, delegated, "wire behaviour is verbatim");
        // The Balanced protocol notifies cluster 0's rep first; the
        // controller enrolled exactly that machine.
        assert_eq!(c.outcome().enrolled, 1);
        let report = pass(MachineId(0));
        assert_eq!(inner.on_report(&report), c.on_report(&report));
        assert_eq!(inner.done(), c.done());
    }

    #[test]
    fn staged_mode_with_guard_rolls_back_everything_enrolled() {
        let urr = Arc::new(Urr::new());
        let guard = UrrGuard::new(
            Arc::clone(&urr),
            GuardSettings {
                max_cluster_failure_rate: 0.3,
                min_reports: 1,
                unhealthy_ticks: 1,
                healthy_ticks: 1,
                ..GuardSettings::default()
            },
        );
        let mut c = controller(RolloutStrategy::Staged { waves: 2 }).with_guard(guard);
        assert!(c.wants_ticks(), "guarded staged needs the decision clock");
        let _ = c.start();
        c.on_report(&pass(MachineId(0))); // rep passes, stage advances
        urr.deposit(Report::failure(
            "a1",
            0,
            "upgrade",
            "r0",
            "crash",
            "detail",
            ReportImage::new("digest", vec![], vec![], vec![]),
        ));
        let commands = c.on_tick(25, None);
        let Command::Notify { machines, release } = &commands[0] else {
            panic!("expected revert notify");
        };
        assert_eq!(*release, PRIOR_RELEASE);
        // Everyone enrolled (rep + its cluster) gets the revert, even
        // machines that already passed the bad release.
        assert_eq!(machines.len(), c.outcome().enrolled);
        assert!(machines.contains(&MachineId(0)));
    }

    #[test]
    fn empty_plan_completes_immediately() {
        let plan = RolloutPlan::new(
            DeployPlan::default(),
            RolloutStrategy::Rolling { batch_size: 4 },
        );
        let mut c = RolloutController::new(plan, ProtocolChoice::Balanced, 1.0);
        assert_eq!(c.start(), vec![Command::Complete]);
        assert!(c.done());
    }
}
