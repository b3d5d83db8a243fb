//! The vendor side of the simulation, written once.
//!
//! The paper's simulator (§4.3.1) has one vendor model: reports arrive,
//! each distinct problem is debugged one at a time in report order, each
//! fix ships as a new release that the failed machines re-test. Under a
//! fault plan the same vendor also re-notifies silent machines, rides
//! out lost, duplicated and delayed messages, and ticks the protocol's
//! stall clock. [`VendorSide`] is that model: every piece of state a
//! vendor decision reads or writes, and every handler that takes one.
//!
//! What it does *not* know is how events are ordered. A driver hands it
//! a [`Schedule`] and feeds it events in simulation order: the
//! sequential loop in [`crate::runner`] pops one calendar queue; the
//! sharded driver in [`crate::parallel`] merges per-shard queues by
//! `(time, seq)`. Both run the handlers below and decide a test by the
//! one [`test_outcome`], so a vendor-side behaviour is written, and can
//! drift, in one place only.

use std::collections::VecDeque;
use std::sync::Arc;

use mirage_deploy::{
    Command, MachineId, ProblemId, ProblemSet, Protocol, Release, TestOutcome, TestReport,
    PRIOR_RELEASE,
};
use mirage_telemetry::journal::{FaultKind, JournalEvent, NO_PROBLEM};
use mirage_telemetry::{FlightEvent, Telemetry};

use crate::engine::{Event, SimTime};
use crate::faults::{FaultPlan, FaultRng};
use crate::metrics::SimMetrics;
use crate::scenario::Scenario;
use crate::urr_sink::UrrSink;

/// Safety valve against pathological loss rates (e.g. `loss == 1.0`):
/// after this many re-notification attempts the vendor gives up on a
/// machine even when [`crate::FaultPlan::max_retries`] is unset. At any
/// realistic loss rate the chance of hitting this cap is negligible.
const RETRY_SAFETY_CAP: u32 = 10_000;

/// Journal emissions buffered before one batched flush. Bounds the
/// buffer at ~128 KiB while amortising the recorder's lock to a few
/// dozen acquisitions per run.
const JOURNAL_FLUSH_LEN: usize = 4_096;

/// Where the vendor side puts future events. The only thing the two
/// drivers implement differently.
pub(crate) trait Schedule {
    /// Schedules `machine` to finish testing `release` at `time`.
    fn test(&mut self, time: SimTime, machine: MachineId, release: u32);
    /// Schedules a vendor-side event (anything but `TestDone`).
    fn vendor(&mut self, time: SimTime, event: Event);
    /// Events scheduled and not yet handed back to the vendor side.
    fn pending(&self) -> usize;
}

/// One message's trip through the unreliable channel: how many copies
/// arrive (0 = lost, 2 = duplicated) and how late each one is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transmission {
    deliveries: u8,
    delays: [SimTime; 2],
}

impl Transmission {
    /// Draws one transmission from `rng` in the fixed order loss,
    /// duplication, then one delay per delivery. A machine's reports
    /// draw from its own lane, so its schedule depends only on its own
    /// report history, whether drawn when the test completes or ahead
    /// of the replay by the shard that owns the lane.
    pub(crate) fn draw(rng: &mut FaultRng, faults: &FaultPlan) -> Self {
        let mut tx = Transmission {
            deliveries: 0,
            delays: [0; 2],
        };
        if !rng.chance(faults.loss) {
            tx.deliveries = if rng.chance(faults.duplication) { 2 } else { 1 };
            for delay in &mut tx.delays[..tx.deliveries as usize] {
                *delay = rng.below_inclusive(faults.max_delay);
            }
        }
        tx
    }

    fn delays(&self) -> &[SimTime] {
        &self.delays[..self.deliveries as usize]
    }
}

/// Per-run buffers a driver lends the vendor side, so an arena can keep
/// their allocations across runs. All three stay empty when the run
/// needs none of them (no journal, no fault plan).
#[derive(Debug, Default)]
pub(crate) struct Lent {
    /// `(sim time, event)` journal emissions awaiting a batched flush:
    /// journaling costs a `Vec::push` per event instead of a recorder
    /// critical section.
    journal_buf: Vec<(SimTime, JournalEvent)>,
    /// Per-machine outstanding notification: `(release, attempt)` the
    /// vendor is awaiting a report for. Drives timed re-notification.
    awaiting: Vec<Option<(u32, u32)>>,
    /// Dense per-machine churn windows `(leave, rejoin)` (rejoin ==
    /// `SimTime::MAX` = crashed).
    churn: Vec<Option<(SimTime, SimTime)>>,
}

/// The vendor and everything it decides, over a driver's [`Schedule`].
#[derive(Debug)]
pub(crate) struct VendorSide<'s, Q: Schedule> {
    pub(crate) scenario: &'s Scenario,
    pub(crate) sched: Q,
    pub(crate) now: SimTime,
    /// Cumulative fixed-problem sets, indexed by release number.
    /// Append-only: a scheduled test's release never changes meaning.
    pub(crate) fixed_by_release: Vec<ProblemSet>,
    fix_queue: VecDeque<ProblemId>,
    fixing: Option<ProblemId>,
    known_problems: ProblemSet,
    /// High-water mark of [`Schedule::pending`]; the gauge is published
    /// only when this rises (and once at run end), not per event —
    /// per-event publication was measurable overhead at 10⁶ machines
    /// while recording nothing new.
    queue_high_water: usize,
    pub(crate) metrics: SimMetrics,
    pub(crate) telemetry: Telemetry,
    /// Cached `telemetry.journals()` so the per-event journal check is
    /// one local load (set in [`VendorSide::start`]).
    journaling: bool,
    /// Whether the scenario carries a non-trivial fault plan. When
    /// `false` every fault-path structure stays empty and reports land
    /// synchronously — bit-identical to the pre-fault simulator.
    pub(crate) faults_active: bool,
    /// Seeded fault RNG for vendor→machine transmissions (one global
    /// stream — the vendor is a single sequential actor).
    rng_down: FaultRng,
    pub(crate) lent: Lent,
    /// Ticks issued so far (bounded by the plan's `max_ticks`).
    ticks_issued: u64,
    /// Report-repository bridge, present only when the scenario was
    /// built [`crate::ScenarioBuilder::with_urr`].
    urr_sink: Option<UrrSink>,
}

impl<'s, Q: Schedule> VendorSide<'s, Q> {
    pub(crate) fn new(
        scenario: &'s Scenario,
        sched: Q,
        telemetry: Telemetry,
        mut lent: Lent,
    ) -> Self {
        let faults_active = !scenario.faults.is_none();
        let n = scenario.machine_count();
        lent.journal_buf.clear();
        lent.awaiting.clear();
        lent.churn.clear();
        if faults_active {
            lent.awaiting.resize(n, None);
            lent.churn.resize(n, None);
            for &(m, leave, rejoin) in &scenario.faults.churn {
                lent.churn[m.index()] = Some((leave, rejoin));
            }
        }
        VendorSide {
            scenario,
            sched,
            now: 0,
            fixed_by_release: vec![ProblemSet::new()],
            fix_queue: VecDeque::new(),
            fixing: None,
            known_problems: ProblemSet::new(),
            queue_high_water: 0,
            metrics: SimMetrics {
                machine_pass_time: vec![None; n],
                ..SimMetrics::default()
            },
            telemetry,
            journaling: false,
            faults_active,
            rng_down: FaultRng::new(scenario.faults.seed),
            lent,
            ticks_issued: 0,
            urr_sink: scenario
                .urr
                .as_ref()
                .map(|urr| UrrSink::new(scenario, Arc::clone(urr))),
        }
    }

    /// Journals one event stamped with the current sim time, buffered
    /// locally. Flushed in [`JOURNAL_FLUSH_LEN`] chunks and at run end,
    /// so the journal receives events slightly after (but timed exactly
    /// as) they happened — exporters re-sort by `(time, seq)`.
    #[inline]
    pub(crate) fn jot(&mut self, event: JournalEvent) {
        if self.journaling {
            self.lent.journal_buf.push((self.now, event));
            if self.lent.journal_buf.len() >= JOURNAL_FLUSH_LEN {
                self.flush_journal();
            }
        }
    }

    fn flush_journal(&mut self) {
        if !self.lent.journal_buf.is_empty() {
            self.telemetry.journal_timed(&self.lent.journal_buf);
            self.lent.journal_buf.clear();
        }
    }

    /// Publishes the queue depth gauge only when the depth sets a new
    /// high-water mark. The gauge's recorded high-water is identical to
    /// publishing on every event; only the redundant publications go.
    fn note_queue_depth(&mut self) {
        let depth = self.sched.pending();
        if depth > self.queue_high_water {
            self.queue_high_water = depth;
            self.telemetry.gauge("sim.queue_depth", depth as i64);
        }
    }

    fn latest_release(&self) -> Release {
        Release((self.fixed_by_release.len() - 1) as u32)
    }

    /// Moves the clock. Many events share one sim timestamp; the
    /// journal clock is published only when it actually moves.
    pub(crate) fn advance(&mut self, time: SimTime) {
        if time != self.now {
            self.now = time;
            self.telemetry.journal_time(time);
        }
    }

    /// Starts the campaign: the protocol's opening commands, and its
    /// stall-detection / rollout decision clock if it has one.
    /// `FaultPlan::none()` still carries the default tick interval, so
    /// tick-driven rollout controllers get their clock even on the
    /// reliable channel.
    pub(crate) fn start(&mut self, protocol: &mut dyn Protocol) {
        self.journaling = self.telemetry.journals();
        let commands = protocol.start();
        self.exec(commands);
        if (self.faults_active && self.scenario.faults.rep_timeout.is_some())
            || protocol.wants_ticks()
        {
            self.sched
                .vendor(self.scenario.faults.tick_interval, Event::Tick);
            self.ticks_issued = 1;
        }
        self.note_queue_depth();
    }

    /// Ends the run once the schedule has drained: buffered repository
    /// deposits and journal events go out, and the final (empty) depth
    /// is published so the gauge's last value matches per-event
    /// publication.
    pub(crate) fn finish(&mut self, protocol: &dyn Protocol) -> SimMetrics {
        if let Some(sink) = &mut self.urr_sink {
            sink.flush();
        }
        self.flush_journal();
        self.telemetry
            .gauge("sim.queue_depth", self.sched.pending() as i64);
        self.metrics.rep_timeouts = protocol.rep_timeouts();
        std::mem::take(&mut self.metrics)
    }

    fn exec(&mut self, commands: Vec<Command>) {
        for cmd in commands {
            match cmd {
                Command::Notify { machines, release } => {
                    self.telemetry
                        .counter("sim.machines_notified", machines.len() as u64);
                    let cycle = self.scenario.timings.machine_cycle();
                    for m in machines {
                        self.telemetry
                            .event_with(|| FlightEvent::MachineNotifiedId {
                                machine: m.index() as u32,
                                release: release.0,
                            });
                        self.jot(JournalEvent::Notify {
                            machine: m.index() as u32,
                            release: release.0,
                        });
                        if self.faults_active {
                            self.fault_notify(m, release.0, 0);
                        } else {
                            // A machine offline at notification time
                            // acts on it when it comes back (the
                            // paper's late arrivals).
                            self.metrics.total_tests += 1;
                            let start = self.scenario.offline_until[m.index()].max(self.now);
                            self.sched.test(start + cycle, m, release.0);
                        }
                    }
                }
                Command::Complete => {
                    if self.metrics.completion_time.is_none() {
                        self.metrics.completion_time = Some(self.now);
                    }
                }
            }
        }
    }

    /// Earliest time `machine` can act on a delivery arriving at `t`,
    /// accounting for its offline horizon and churn window. `None`
    /// means the machine has crashed and will never act.
    fn available_from(&self, machine: MachineId, t: SimTime) -> Option<SimTime> {
        let start = t.max(self.scenario.offline_until[machine.index()]);
        match self.lent.churn[machine.index()] {
            Some((leave, rejoin)) if start >= leave && start < rejoin => {
                (rejoin != SimTime::MAX).then_some(rejoin)
            }
            _ => Some(start),
        }
    }

    /// Sends notification number `attempt` to one machine through the
    /// unreliable channel and arms the vendor's re-notification timer
    /// for it (exponential backoff).
    fn fault_notify(&mut self, machine: MachineId, release: u32, attempt: u32) {
        self.lent.awaiting[machine.index()] = Some((release, attempt));
        self.send_notification(machine, release);
        self.sched.vendor(
            self.now + self.scenario.faults.retry_delay(attempt),
            Event::RetryCheck {
                machine,
                release,
                attempt,
            },
        );
    }

    /// Accounts for what the channel did to one message.
    fn note_transmission(&mut self, machine: MachineId, tx: Transmission) {
        let fault = match tx.deliveries {
            0 => {
                self.metrics.msgs_dropped += 1;
                self.telemetry.counter("sim.msgs_dropped", 1);
                FaultKind::Loss
            }
            1 => return,
            _ => {
                self.metrics.msgs_duplicated += 1;
                self.telemetry.counter("sim.msgs_duplicated", 1);
                FaultKind::Duplication
            }
        };
        self.jot(JournalEvent::Fault {
            fault,
            machine: machine.index() as u32,
        });
    }

    /// One vendor→machine transmission: may be lost, duplicated, and
    /// delayed. Each delivery that reaches a live machine schedules a
    /// test run.
    fn send_notification(&mut self, machine: MachineId, release: u32) {
        let tx = Transmission::draw(&mut self.rng_down, &self.scenario.faults);
        self.note_transmission(machine, tx);
        for &delay in tx.delays() {
            // A delivery into a crash window is gone for good; churn is
            // not channel loss, so it is not counted as dropped.
            if let Some(start) = self.available_from(machine, self.now + delay) {
                self.metrics.total_tests += 1;
                self.sched.test(
                    start + self.scenario.timings.machine_cycle(),
                    machine,
                    release,
                );
            }
        }
    }

    /// One machine→vendor transmission of a test report (the vendor
    /// itself is always up).
    fn send_report(
        &mut self,
        machine: MachineId,
        release: u32,
        outcome: TestOutcome,
        tx: Transmission,
    ) {
        self.note_transmission(machine, tx);
        for &delay in tx.delays() {
            self.sched.vendor(
                self.now + delay,
                Event::ReportDelivery {
                    machine,
                    release,
                    outcome,
                },
            );
        }
    }

    /// Records a passing test: upgrade passes feed the pass-time CDF;
    /// confirmations of the rollback sentinel land in the revert-time
    /// vector instead (a reverted machine did not integrate the
    /// upgrade, so it must not count as converged).
    pub(crate) fn note_pass(&mut self, machine: MachineId, release: u32) {
        if release == PRIOR_RELEASE.0 {
            if self.metrics.machine_revert_time.is_empty() {
                self.metrics.machine_revert_time = vec![None; self.metrics.machine_pass_time.len()];
            }
            if self.metrics.machine_revert_time[machine.index()].is_none() {
                self.metrics.machine_revert_time[machine.index()] = Some(self.now);
                self.telemetry.counter("sim.machines_reverted", 1);
            }
        } else {
            if self.metrics.machine_pass_time[machine.index()].is_none() {
                self.metrics.machine_pass_time[machine.index()] = Some(self.now);
            }
            self.telemetry.counter("sim.tests_passed", 1);
        }
    }

    /// A machine finished testing `release` with the given
    /// [`test_outcome`]. The machine-local effects (pass
    /// time, overhead, escapes) happen here. With `uplink: None` the
    /// channel is reliable and the report lands at the vendor
    /// synchronously; otherwise problem *discovery* and the protocol
    /// callback wait for an [`Event::ReportDelivery`] to arrive.
    #[inline]
    pub(crate) fn test_done(
        &mut self,
        protocol: &mut dyn Protocol,
        machine: MachineId,
        release: u32,
        (passed, escaped): (bool, bool),
        uplink: Option<Transmission>,
    ) {
        self.telemetry.counter("sim.events_processed", 1);
        if escaped {
            self.metrics.escaped_problems += 1;
            self.telemetry.counter("sim.escaped_problems", 1);
        }
        let outcome = if passed {
            self.note_pass(machine, release);
            self.telemetry.event_with(|| FlightEvent::TestPassedId {
                machine: machine.index() as u32,
                release,
            });
            TestOutcome::Pass
        } else {
            self.metrics.failed_tests += 1;
            self.telemetry.counter("sim.tests_failed", 1);
            let problem = self
                .scenario
                .problem_of(machine)
                .expect("failed machine must carry a problem");
            self.telemetry.event_with(|| FlightEvent::TestFailedId {
                machine: machine.index() as u32,
                release,
                problem: problem.index() as u16,
            });
            TestOutcome::Fail { problem }
        };
        self.jot(JournalEvent::Test {
            machine: machine.index() as u32,
            release,
            problem: problem_code(outcome),
        });
        match uplink {
            None => self.report_received(protocol, machine, release, outcome),
            Some(tx) => self.send_report(machine, release, outcome, tx),
        }
        self.note_queue_depth();
    }

    /// A report reaches the vendor. Duplicates and stale releases are
    /// harmless: discovery is idempotent here and the hardened
    /// protocols drop replays in `on_report`.
    #[inline]
    fn report_received(
        &mut self,
        protocol: &mut dyn Protocol,
        machine: MachineId,
        release: u32,
        outcome: TestOutcome,
    ) {
        self.jot(JournalEvent::Report {
            machine: machine.index() as u32,
            release,
            passed: matches!(outcome, TestOutcome::Pass),
        });
        // Deposit it (duplicated deliveries deposit again — the
        // repository deduplicates by signature when grouping).
        self.sink_report(machine, release, outcome);
        if let TestOutcome::Fail { problem } = outcome {
            if self.known_problems.insert(problem) {
                self.metrics.problems_discovered.push(problem);
                self.telemetry.counter("sim.problems_discovered", 1);
                self.telemetry
                    .event_with(|| FlightEvent::ProblemDiscoveredId {
                        problem: problem.index() as u16,
                    });
                self.fix_queue.push_back(problem);
                self.start_next_fix();
            }
        }
        let commands = protocol.on_report(&TestReport {
            machine,
            release: Release(release),
            outcome,
        });
        self.exec(commands);
        // Guard against stranding: if the machine failed a stale release
        // whose problem a *newer* release already fixes, re-announce the
        // latest release so the protocol re-notifies its failed machines.
        if let TestOutcome::Fail { problem } = outcome {
            let latest = self.latest_release();
            if latest.0 > release && self.fixed_by_release[latest.0 as usize].contains(problem) {
                // The protocol only reads the cumulative set, so it is
                // borrowed, not cloned.
                let commands =
                    protocol.on_release(latest, &self.fixed_by_release[latest.0 as usize]);
                self.exec(commands);
            }
        }
    }

    /// Deposits one vendor-received outcome into the attached report
    /// repository, if any. Strictly observational: no simulation state
    /// is read back from the repository.
    #[inline]
    pub(crate) fn sink_report(&mut self, machine: MachineId, release: u32, outcome: TestOutcome) {
        if self.urr_sink.is_none() {
            return;
        }
        self.jot(JournalEvent::UrrDeposit {
            machine: machine.index() as u32,
            release,
            problem: problem_code(outcome),
        });
        if let Some(sink) = &mut self.urr_sink {
            let problem = match outcome {
                TestOutcome::Pass => None,
                TestOutcome::Fail { problem } => Some(problem),
            };
            sink.record(machine, release, problem);
        }
    }

    fn start_next_fix(&mut self) {
        if self.fixing.is_none() {
            if let Some(problem) = self.fix_queue.pop_front() {
                self.sched.vendor(
                    self.now + self.scenario.timings.fix,
                    Event::FixDone { problem },
                );
                self.fixing = Some(problem);
            }
        }
    }

    /// Handles one vendor-side event popped off the schedule. `TestDone`
    /// is not one: the driver works out its outcome (and, under faults,
    /// its up-link draws) and calls [`VendorSide::test_done`].
    pub(crate) fn vendor_event(&mut self, protocol: &mut dyn Protocol, event: Event) {
        self.telemetry.counter("sim.events_processed", 1);
        match event {
            Event::TestDone { .. } => unreachable!("TestDone goes through test_done"),
            Event::FixDone { problem } => self.fix_done(protocol, problem),
            Event::ReportDelivery {
                machine,
                release,
                outcome,
            } => {
                if let Some((awaited, _)) = self.lent.awaiting[machine.index()] {
                    if release >= awaited {
                        self.lent.awaiting[machine.index()] = None;
                    }
                }
                self.report_received(protocol, machine, release, outcome);
            }
            Event::RetryCheck {
                machine,
                release,
                attempt,
            } => self.retry_check(machine, release, attempt),
            Event::Tick => self.tick(protocol),
        }
        self.note_queue_depth();
    }

    fn fix_done(&mut self, protocol: &mut dyn Protocol, problem: ProblemId) {
        debug_assert_eq!(self.fixing, Some(problem));
        self.fixing = None;
        let mut fixed = self.fixed_by_release.last().cloned().unwrap_or_default();
        fixed.insert(problem);
        self.fixed_by_release.push(fixed);
        self.metrics.releases_shipped += 1;
        self.telemetry.counter("sim.releases_shipped", 1);
        self.start_next_fix();
        let release = self.latest_release();
        self.telemetry
            .event(FlightEvent::ReleaseShipped { release: release.0 });
        let commands = protocol.on_release(release, &self.fixed_by_release[release.0 as usize]);
        self.exec(commands);
    }

    /// The vendor's re-notification timer fires: if the machine still
    /// has not reported for this (release, attempt), resend through the
    /// lossy channel.
    fn retry_check(&mut self, machine: MachineId, release: u32, attempt: u32) {
        if self.lent.awaiting[machine.index()] != Some((release, attempt)) {
            return; // Report arrived, or a newer notification superseded this one.
        }
        let cap = self
            .scenario
            .faults
            .max_retries
            .unwrap_or(RETRY_SAFETY_CAP)
            .min(RETRY_SAFETY_CAP);
        // A machine crashed for good gets no more retries either:
        // timeout-based stage advancement (rep_timeout) is what unblocks
        // the protocol.
        if attempt >= cap || self.available_from(machine, self.now).is_none() {
            self.lent.awaiting[machine.index()] = None;
            return;
        }
        self.metrics.retries_sent += 1;
        self.telemetry.counter("deploy.retries_sent", 1);
        self.jot(JournalEvent::Retry {
            machine: machine.index() as u32,
            release,
            attempt,
        });
        self.fault_notify(machine, release, attempt + 1);
    }

    fn tick(&mut self, protocol: &mut dyn Protocol) {
        // Tick-driven controllers assess live repository health: make
        // every report received so far visible before the decision.
        if let Some(sink) = &mut self.urr_sink {
            sink.flush();
        }
        let commands = protocol.on_tick(self.now);
        self.exec(commands);
        if !protocol.done() && self.ticks_issued < self.scenario.faults.max_ticks {
            self.sched
                .vendor(self.now + self.scenario.faults.tick_interval, Event::Tick);
            self.ticks_issued += 1;
        }
    }
}

/// Whether `machine` passes `release`, and whether that pass is a
/// failure that escaped detection: `(passed, escaped)`. The one
/// statement of the rule: the sequential driver calls it as it pops a
/// test, the sharded driver ahead of the replay (Phase A and the
/// placement pass). `fixed_by_release` is append-only, so a scheduled
/// test's outcome is the same whenever it is worked out.
#[inline]
pub(crate) fn test_outcome(
    scenario: &Scenario,
    fixed_by_release: &[ProblemSet],
    machine: MachineId,
    release: u32,
) -> (bool, bool) {
    let sound = match scenario.problem_of(machine) {
        None => true,
        // The rollback sentinel: reverting to the prior (pre-upgrade)
        // release always succeeds — the fleet ran it before the
        // campaign started. It is not an index into the history.
        Some(problem) => {
            release == PRIOR_RELEASE.0 || fixed_by_release[release as usize].contains(problem)
        }
    };
    // Imperfect user-machine testing: the problem escapes into
    // production. The machine integrates the faulty release.
    let escaped = !sound && scenario.missed_detection.contains(machine);
    (sound || escaped, escaped)
}

/// The journal's dense code for an outcome's problem.
fn problem_code(outcome: TestOutcome) -> u16 {
    match outcome {
        TestOutcome::Pass => NO_PROBLEM,
        TestOutcome::Fail { problem } => problem.index() as u16,
    }
}
