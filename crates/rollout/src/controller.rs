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
//! Two operating modes, chosen by the plan's [`RolloutStrategy`]:
//!
//! - **Staged** delegates the wire behaviour verbatim to the
//!   [`Staging`] engine built from a [`ProtocolChoice`] (Balanced by
//!   default), stall budget included. Without a guard the controller is
//!   a transparent pass-through — bit-identical to running the staging
//!   protocol directly (a property test in `mirage-sim` proves it).
//!   With a guard it adds abort authority on top of the paper's staging.
//! - **Canary / Rolling / BlueGreen** run the controller's own cohort
//!   engine: notify cohort 0, watch reports, and widen one cohort per
//!   decision tick once the frontier cohort clears the pass threshold
//!   (and, for canaries, its bake timer).
//!
//! Decisions happen **only on ticks** ([`Protocol::on_tick`]) — the
//! controller's decision clock. Each tick the attached [`UrrGuard`]
//! (if any) assesses live repository health; hysteresis counters turn
//! raw verdicts into Widen / Hold / RollBack so a failure rate
//! flapping around the threshold can neither abort the rollout nor
//! let it widen.

use mirage_deploy::protocol::MachineStatus;
use mirage_deploy::{
    Command, MachineId, MachineSet, ProblemId, ProblemSet, Protocol, ProtocolChoice, Release,
    SimTime, Staging, TestOutcome, TestReport, PRIOR_RELEASE,
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

/// Cohort-engine state (Canary / Rolling / BlueGreen modes).
#[derive(Debug, Clone)]
struct CohortEngine {
    /// Per-machine deployment status, indexed by dense machine id.
    status: Vec<MachineStatus>,
    /// Cohort index per machine (dense; every machine is in exactly
    /// one cohort). Keeps pass accounting O(1) per report.
    cohort_of: Vec<u32>,
    /// Last reported problem per machine (for fix re-notification).
    failed_problem: Vec<Option<ProblemId>>,
    /// Passing machines per cohort.
    passes: Vec<usize>,
    /// Next cohort to notify (0 = not started).
    next_cohort: usize,
    /// Machines enrolled and passed so far (completion check).
    total_passed: usize,
    /// When the frontier cohort first cleared the pass threshold
    /// (feeds the canary bake timer). Reset on each widen.
    ready_since: Option<SimTime>,
}

/// Which wire engine is running underneath the controller.
#[derive(Debug, Clone)]
enum Mode {
    /// Transparent delegation to the staged engine.
    Staged(Box<Staging>),
    /// The controller's own cohort engine.
    Cohort(CohortEngine),
}

/// A strategy-driven rollout state machine with optional URR-guarded
/// abort authority. See the module docs for the operating model.
#[derive(Debug, Clone)]
pub struct RolloutController {
    plan: RolloutPlan,
    threshold: f64,
    mode: Mode,
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
    completed: bool,
}

impl RolloutController {
    /// Builds a controller over `plan`. `choice` selects the staging
    /// protocol the `Staged` strategy delegates to (other strategies
    /// run the cohort engine and ignore it); `threshold` is the
    /// fraction of a cohort (or staging stage) that must pass before
    /// widening.
    pub fn new(plan: RolloutPlan, choice: ProtocolChoice, threshold: f64) -> Self {
        let n = plan.deploy.machine_count();
        let mode = match plan.strategy {
            RolloutStrategy::Staged { .. } => {
                Mode::Staged(Box::new(choice.build(plan.deploy.clone(), threshold)))
            }
            _ => Mode::Cohort(CohortEngine {
                status: vec![MachineStatus::Idle; n],
                cohort_of: {
                    let mut cohort_of = vec![0u32; n];
                    for cohort in &plan.cohorts {
                        for m in &cohort.machines {
                            cohort_of[m.index()] = cohort.index as u32;
                        }
                    }
                    cohort_of
                },
                failed_problem: vec![None; n],
                passes: vec![0; plan.cohorts.len()],
                next_cohort: 0,
                total_passed: 0,
                ready_since: None,
            }),
        };
        RolloutController {
            plan,
            threshold,
            mode,
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
            completed: false,
        }
    }

    /// Attaches a URR guard, arming the closed loop (and the decision
    /// clock: a guarded controller requests driver ticks).
    pub fn with_guard(mut self, guard: UrrGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Attaches a telemetry handle (decision counters, journal
    /// events, rollout state gauge). A `Staged` delegation forwards
    /// the handle to the inner staging protocol, so wave counters and
    /// flight events land exactly as they would running it directly.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.mode = match self.mode {
            Mode::Staged(inner) => {
                Mode::Staged(Box::new((*inner).with_telemetry(telemetry.clone())))
            }
            cohort => cohort,
        };
        self.telemetry = telemetry;
        self
    }

    /// The rollout plan this controller drives.
    pub fn plan(&self) -> &RolloutPlan {
        &self.plan
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
        let cohorts_widened = match &self.mode {
            Mode::Staged(_) => 0,
            Mode::Cohort(engine) => engine.next_cohort.saturating_sub(1),
        };
        RolloutOutcome {
            strategy: self.plan.strategy,
            status,
            reason,
            cohorts_widened,
            enrolled: self.enrolled.len(),
            reverted: self.reverted.len(),
            rollback: self.rollback,
        }
    }

    /// Records every machine a forward `Notify` touches; pass-through
    /// observation on the staged delegation path.
    fn observe(&mut self, commands: &[Command]) {
        for command in commands {
            if let Command::Notify { machines, release } = command {
                if *release == PRIOR_RELEASE {
                    continue;
                }
                self.latest_release = self.latest_release.max(*release);
                for &m in machines {
                    if self.enrolled.insert(m) {
                        self.enrolled_order.push(m);
                    }
                }
            }
        }
    }

    /// Notifies cohort `index` of the latest forward release.
    fn notify_cohort(&mut self, index: usize) -> Command {
        let machines = self.plan.cohorts[index].machines.clone();
        let release = self.latest_release;
        let command = Command::Notify { machines, release };
        self.observe(std::slice::from_ref(&command));
        if let Mode::Cohort(engine) = &mut self.mode {
            for &m in &self.plan.cohorts[index].machines {
                engine.status[m.index()] = MachineStatus::Testing;
            }
            engine.next_cohort = index + 1;
            engine.ready_since = None;
        }
        command
    }

    /// Whether the frontier (most recently notified) cohort has
    /// cleared the pass threshold.
    fn frontier_ready(&self) -> bool {
        let Mode::Cohort(engine) = &self.mode else {
            return false;
        };
        if engine.next_cohort == 0 {
            return false;
        }
        let frontier = engine.next_cohort - 1;
        let size = self.plan.cohorts[frontier].len();
        (engine.passes[frontier] as f64) + 1e-9 >= self.threshold * size as f64
    }

    /// Executes the abort: journal + counters, then one revert wave
    /// over every enrolled machine.
    fn roll_back(&mut self, now: SimTime, reason: RolloutStatusReason) -> Vec<Command> {
        let at_cohort = match &self.mode {
            Mode::Staged(_) => 0,
            Mode::Cohort(engine) => engine.next_cohort.saturating_sub(1),
        };
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
            self.completed = true;
            return vec![Command::Complete];
        }
        vec![Command::Notify {
            machines,
            release: PRIOR_RELEASE,
        }]
    }

    /// Handles a report after a rollback: only revert confirmations
    /// matter; forward-release stragglers are ignored.
    fn on_report_rolled_back(&mut self, report: &TestReport) -> Vec<Command> {
        if report.release == PRIOR_RELEASE && self.enrolled.contains(report.machine) {
            self.reverted.insert(report.machine);
            if self.reverted.len() == self.enrolled.len() && !self.completed {
                self.completed = true;
                return vec![Command::Complete];
            }
        }
        Vec::new()
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

    /// Whether the guard (if any) currently permits widening.
    fn guard_allows_widen(&self) -> bool {
        match &self.guard {
            None => true,
            Some(guard) => self.healthy_streak >= guard.settings.healthy_ticks,
        }
    }
}

impl Protocol for RolloutController {
    fn name(&self) -> &'static str {
        match &self.mode {
            Mode::Staged(inner) => inner.name(),
            Mode::Cohort(_) => match self.plan.strategy {
                RolloutStrategy::Canary { .. } => "Canary",
                RolloutStrategy::Rolling { .. } => "Rolling",
                RolloutStrategy::BlueGreen => "BlueGreen",
                RolloutStrategy::Staged { .. } => "Staged",
            },
        }
    }

    fn start(&mut self) -> Vec<Command> {
        self.telemetry.gauge("rollout.state", 1);
        match &mut self.mode {
            Mode::Staged(inner) => {
                let commands = inner.start();
                self.observe(&commands);
                commands
            }
            Mode::Cohort(_) => {
                if self.plan.cohorts.is_empty() {
                    self.completed = true;
                    return vec![Command::Complete];
                }
                vec![self.notify_cohort(0)]
            }
        }
    }

    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        if self.rollback.is_some() {
            return self.on_report_rolled_back(report);
        }
        match &mut self.mode {
            Mode::Staged(inner) => {
                let commands = inner.on_report(report);
                self.observe(&commands);
                commands
            }
            Mode::Cohort(engine) => {
                let m = report.machine.index();
                match report.outcome {
                    TestOutcome::Pass => {
                        // Duplicate deliveries and stale-release passes
                        // must not double-count.
                        if engine.status[m] != MachineStatus::Passed {
                            engine.status[m] = MachineStatus::Passed;
                            engine.total_passed += 1;
                            engine.passes[engine.cohort_of[m] as usize] += 1;
                        }
                    }
                    TestOutcome::Fail { problem } => {
                        if engine.status[m] != MachineStatus::Passed {
                            engine.status[m] = MachineStatus::Failed;
                            engine.failed_problem[m] = Some(problem);
                        }
                    }
                }
                if engine.next_cohort >= self.plan.cohorts.len()
                    && engine.total_passed == self.enrolled.len()
                    && !self.completed
                {
                    self.completed = true;
                    self.telemetry.gauge("rollout.state", 0);
                    return vec![Command::Complete];
                }
                Vec::new()
            }
        }
    }

    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        match &mut self.mode {
            // Transparent on the staged path (pure observation cannot
            // be affected by silently absorbed passes).
            Mode::Staged(inner) if self.rollback.is_none() => inner.absorb_passes(reports),
            _ => 0,
        }
    }

    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        if self.rollback.is_some() {
            // The abort already happened; a late fix changes nothing.
            return Vec::new();
        }
        match &mut self.mode {
            Mode::Staged(inner) => {
                let commands = inner.on_release(release, fixed);
                self.observe(&commands);
                commands
            }
            Mode::Cohort(engine) => {
                self.latest_release = self.latest_release.max(release);
                let mut machines = Vec::new();
                for (m, status) in engine.status.iter_mut().enumerate() {
                    if *status == MachineStatus::Failed
                        && engine.failed_problem[m].is_some_and(|p| fixed.contains(p))
                    {
                        *status = MachineStatus::Testing;
                        machines.push(MachineId(m as u32));
                    }
                }
                if machines.is_empty() {
                    Vec::new()
                } else {
                    vec![Command::Notify { machines, release }]
                }
            }
        }
    }

    fn on_tick(&mut self, now: SimTime, stall_budget: Option<SimTime>) -> Vec<Command> {
        if self.rollback.is_some() || self.completed {
            return Vec::new();
        }
        if let Some(reason) = self.guard_step() {
            return self.roll_back(now, reason);
        }
        match &mut self.mode {
            Mode::Staged(inner) => {
                let commands = inner.on_tick(now, stall_budget);
                self.observe(&commands);
                commands
            }
            Mode::Cohort(_) => {
                if !self.frontier_ready() {
                    return Vec::new();
                }
                let Mode::Cohort(engine) = &mut self.mode else {
                    unreachable!();
                };
                if engine.next_cohort >= self.plan.cohorts.len() {
                    return Vec::new();
                }
                if engine.ready_since.is_none() {
                    engine.ready_since = Some(now);
                }
                let baked = match self.plan.strategy {
                    RolloutStrategy::Canary { bake_time, .. } => engine
                        .ready_since
                        .is_some_and(|since| now >= since.saturating_add(bake_time)),
                    _ => true,
                };
                let next = engine.next_cohort;
                if baked && self.guard_allows_widen() {
                    self.telemetry.counter("rollout.widens", 1);
                    self.telemetry.journal_timed(&[(
                        now,
                        JournalEvent::Rollout {
                            step: RolloutStep::Widen,
                            cohort: next as u32,
                            machines: self.plan.cohorts[next].len() as u32,
                        },
                    )]);
                    vec![self.notify_cohort(next)]
                } else {
                    self.telemetry.counter("rollout.holds", 1);
                    Vec::new()
                }
            }
        }
    }

    fn rep_timeouts(&self) -> u64 {
        match &self.mode {
            Mode::Staged(inner) => inner.rep_timeouts(),
            Mode::Cohort(_) => 0,
        }
    }

    fn wants_ticks(&self) -> bool {
        // Cohort widening and guard evaluation both run on the
        // decision clock; an unguarded staged delegation stays
        // clock-free (bit-identical to the bare staging protocol).
        self.guard.is_some() || matches!(self.mode, Mode::Cohort(_))
    }

    fn done(&self) -> bool {
        if self.rollback.is_some() {
            return self.reverted.len() == self.enrolled.len();
        }
        match &self.mode {
            Mode::Staged(inner) => inner.done(),
            Mode::Cohort(engine) => {
                engine.next_cohort >= self.plan.cohorts.len()
                    && engine.total_passed == self.enrolled.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardSettings;
    use mirage_deploy::DeployPlan;
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
        c.on_report(&pass(MachineId(0)));
        c.on_report(&pass(MachineId(0)));
        let Mode::Cohort(engine) = &c.mode else {
            panic!()
        };
        assert_eq!(engine.total_passed, 1);
        assert_eq!(engine.passes[0], 1);
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
