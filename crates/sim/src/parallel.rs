//! Sharded time-bucket parallel simulation driver.
//!
//! The sequential [`Simulation`] processes one event at a time off a
//! single calendar queue. This driver shards the [`MachineId`] space
//! across `workers` shards (`machine.index() % workers`) and splits
//! every time bucket into two phases:
//!
//! - **Phase A (shard-local, parallelizable):** each shard drains its
//!   own calendar queue's bucket of `TestDone` records and computes the
//!   *pure* part of each: pass/escape outcome (reads only the
//!   append-only `fixed_by_release` history, which same-time events
//!   cannot change for already-scheduled releases) and, under a fault
//!   plan, the machine's up-link fault draws from its own strided RNG
//!   lane (per-machine streams, so draw order depends only on that
//!   machine's event order — never on cross-shard interleaving). When
//!   the process has more than one core and the bucket is large, shards
//!   run under [`std::thread::scope`]; otherwise inline. Either way the
//!   records produced are identical.
//! - **Phase B (coordinator, sequential):** shard records and
//!   coordinator events (fixes, report deliveries, retries, ticks) are
//!   merged by the *global schedule sequence number* every event was
//!   stamped with, and their vendor-side effects (protocol callbacks,
//!   discovery, metrics, telemetry, URR deposits) are replayed in
//!   exactly the order the sequential driver would have produced.
//!   Within a merged bucket, maximal runs of passing reliable-channel
//!   records collapse through [`Protocol::absorb_passes`], and a bucket
//!   that is *all* passes with no observers attached (no flight events,
//!   no journal, no URR, no faults) skips the merge entirely via the
//!   order-free [`Protocol::absorb_pass_batch`].
//!
//! Because sequence numbers are assigned at scheduling time by a single
//! monotone counter and the sequential queue is FIFO within a
//! timestamp, "merge by sequence number" reproduces the sequential
//! processing order exactly — the two drivers are bit-identical in
//! [`SimMetrics`], journal contents, flight events, and counter/gauge
//! totals at any worker count (counter *increments* may batch on the
//! fast path; their sums are identical).
//!
//! [`SimArena`] owns every queue and scratch buffer so sweep drivers
//! re-running many configurations reuse allocations across runs.

use std::collections::VecDeque;
use std::sync::Arc;

use mirage_deploy::{
    Command, MachineId, MachineSet, ProblemId, ProblemSet, Protocol, Release, TestOutcome,
    TestReport,
};
use mirage_telemetry::journal::{FaultKind, JournalEvent, NO_PROBLEM};
use mirage_telemetry::{FlightEvent, Telemetry};

use crate::engine::{Event, EventQueue, SimTime};
use crate::faults::{FaultPlan, FaultRng, RngLanes};
use crate::metrics::SimMetrics;
use crate::runner::{Simulation, JOURNAL_FLUSH_LEN, RETRY_SAFETY_CAP};
use crate::scenario::Scenario;
use crate::urr_sink::UrrSink;

/// Hard ceiling on the shard count. Shards beyond the fleet size add
/// pure overhead, and determinism does not require more.
pub const MAX_WORKERS: usize = 64;

/// Minimum bucket size (records) before Phase A fans out onto OS
/// threads; smaller buckets compute inline — thread launch would cost
/// more than the work.
const PAR_COMPUTE_MIN: usize = 4_096;

/// A `TestDone` event in a shard's calendar queue, stamped with the
/// global schedule sequence number that fixes its replay position.
#[derive(Debug, Clone, Copy)]
struct ShardTest {
    seq: u64,
    machine: MachineId,
    release: u32,
}

/// A shard-computed test record: the outcome plus (under faults) the
/// machine's precomputed up-link fault draws, ready for ordered replay.
#[derive(Debug, Clone, Copy)]
struct TestRec {
    seq: u64,
    machine: MachineId,
    release: u32,
    passed: bool,
    escaped: bool,
    lost: bool,
    duplicated: bool,
    deliveries: u8,
    delays: [SimTime; 2],
}

/// One machine shard: its calendar queue, drain scratch, and (under
/// faults) the strided per-machine RNG lanes it owns.
#[derive(Debug)]
struct Shard {
    queue: EventQueue<ShardTest>,
    raw: Vec<ShardTest>,
    lanes: RngLanes,
}

/// Reusable state for [`run_parallel_in`]: every queue and scratch
/// buffer the parallel driver needs, kept allocated across runs so
/// sweep grids pay allocation cost once.
#[derive(Debug, Default)]
pub struct SimArena {
    shards: Vec<Shard>,
    rec_bufs: Vec<Vec<TestRec>>,
    coord: EventQueue<(u64, Event)>,
    coord_buf: Vec<(u64, Event)>,
    /// Master time index: one notification per scheduled event, tagged
    /// with the owning shard (or the coordinator sentinel `workers`).
    /// Because it sees *every* schedule, its cursor is exactly the
    /// global simulation time — shard queues are then only drained when
    /// this queue proves they hold events at the current bucket, which
    /// keeps every shard cursor at (not beyond) global time and makes
    /// replay-time scheduling always legal.
    due: EventQueue<u8>,
    due_buf: Vec<u8>,
    due_flags: Vec<bool>,
    /// Last future time each queue was notified for: consecutive
    /// schedules onto the same queue at the same (still-pending) time
    /// need only one master-index entry.
    due_mark: Vec<SimTime>,
    escape_buf: Vec<u64>,
    fail_buf: Vec<ShardTest>,
    pairs: Vec<(MachineId, Release)>,
    run_buf: Vec<TestRec>,
    heads: Vec<usize>,
    journal_buf: Vec<(SimTime, JournalEvent)>,
    awaiting: Vec<Option<(u32, u32)>>,
    churn: Vec<Option<(SimTime, SimTime)>>,
}

impl SimArena {
    /// Creates an empty arena. Buffers grow on first use and are
    /// retained across runs.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Resets the arena for a fresh run over `scenario` at `workers`
    /// shards, reusing every allocation whose shape still fits.
    fn prepare(&mut self, scenario: &Scenario, workers: usize) {
        let n = scenario.machine_count();
        let faults_active = !scenario.faults.is_none();
        // Lanes are strided so shard `s` owns exactly the machines with
        // `index % workers == s`, and local lane `i` maps back to the
        // same global lane id (`i * workers + s == machine index`) the
        // sequential driver uses — per-machine streams are identical.
        let lanes_per_shard = if faults_active {
            n.div_ceil(workers)
        } else {
            0
        };
        if self.shards.len() != workers {
            self.shards.clear();
            self.rec_bufs.clear();
            for s in 0..workers {
                self.shards.push(Shard {
                    queue: EventQueue::new(),
                    raw: Vec::new(),
                    lanes: RngLanes::strided(
                        scenario.faults.seed,
                        lanes_per_shard,
                        workers as u64,
                        s as u64,
                    ),
                });
                self.rec_bufs.push(Vec::new());
            }
        } else {
            for (s, shard) in self.shards.iter_mut().enumerate() {
                shard.queue.reset();
                shard.raw.clear();
                shard.lanes.reset(
                    scenario.faults.seed,
                    lanes_per_shard,
                    workers as u64,
                    s as u64,
                );
            }
            for buf in &mut self.rec_bufs {
                buf.clear();
            }
        }
        self.coord.reset();
        self.coord_buf.clear();
        self.due.reset();
        self.due_buf.clear();
        self.due_flags.clear();
        self.due_flags.resize(workers + 1, false);
        self.due_mark.clear();
        self.due_mark.resize(workers + 1, SimTime::MAX);
        self.escape_buf.clear();
        self.fail_buf.clear();
        self.pairs.clear();
        self.run_buf.clear();
        self.heads.clear();
        self.heads.resize(workers, 0);
        self.journal_buf.clear();
        self.awaiting.clear();
        self.churn.clear();
        if faults_active {
            self.awaiting.resize(n, None);
            self.churn.resize(n, None);
            for &(m, leave, rejoin) in &scenario.faults.churn {
                self.churn[m.index()] = Some((leave, rejoin));
            }
        }
    }
}

/// Phase A: computes outcome (and fault draws) for every drained record
/// of one shard. Pure with respect to coordinator state: reads only the
/// scenario's static maps and the append-only release history.
#[allow(clippy::too_many_arguments)]
fn compute_shard(
    shard: &mut Shard,
    out: &mut Vec<TestRec>,
    machine_problem: &[Option<ProblemId>],
    missed: &MachineSet,
    fixed: &[ProblemSet],
    faults: &FaultPlan,
    faults_active: bool,
    workers: usize,
) {
    for &ShardTest {
        seq,
        machine,
        release,
    } in &shard.raw
    {
        let mut passed = match machine_problem[machine.index()] {
            None => true,
            Some(problem) => fixed[release as usize].contains(problem),
        };
        let mut escaped = false;
        if !passed && missed.contains(machine) {
            passed = true;
            escaped = true;
        }
        let mut rec = TestRec {
            seq,
            machine,
            release,
            passed,
            escaped,
            lost: false,
            duplicated: false,
            deliveries: 0,
            delays: [0; 2],
        };
        if faults_active {
            // The machine's own up-link lane, drawn in the sequential
            // driver's fixed per-report order (loss, duplication, then
            // one delay per delivery).
            let lane = shard.lanes.lane(machine.index() / workers);
            rec.lost = lane.chance(faults.loss);
            if !rec.lost {
                rec.deliveries = 1;
                if lane.chance(faults.duplication) {
                    rec.duplicated = true;
                    rec.deliveries = 2;
                }
                for slot in 0..rec.deliveries as usize {
                    rec.delays[slot] = lane.below_inclusive(faults.max_delay);
                }
            }
        }
        out.push(rec);
    }
}

/// Where the next in-order item of a merged bucket comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Shard(usize),
    Coord,
    Done,
}

/// The `(workers + 1)`-way merge cursor: picks the pending record or
/// coordinator event with the smallest sequence number.
fn next_source(
    rec_bufs: &[Vec<TestRec>],
    heads: &[usize],
    coord_buf: &[(u64, Event)],
    chead: usize,
) -> Source {
    let mut best = Source::Done;
    let mut best_seq = u64::MAX;
    for (s, out) in rec_bufs.iter().enumerate() {
        if let Some(rec) = out.get(heads[s]) {
            if rec.seq < best_seq {
                best_seq = rec.seq;
                best = Source::Shard(s);
            }
        }
    }
    if let Some(&(seq, _)) = coord_buf.get(chead) {
        if seq < best_seq {
            best = Source::Coord;
        }
    }
    best
}

/// The parallel driver's coordinator: owns all cross-shard state and
/// replays merged buckets in sequential order.
struct ParSim<'s, 'a> {
    scenario: &'s Scenario,
    arena: &'a mut SimArena,
    workers: usize,
    /// OS-level parallelism available for Phase A (1 on a single-core
    /// host: sharding still pays via batch absorption, honestly inline).
    threads: usize,
    now: SimTime,
    /// Global schedule sequence counter: every scheduled event (shard or
    /// coordinator) takes the next value, reproducing the sequential
    /// queue's FIFO-within-timestamp order under merge.
    seq: u64,
    /// Total pending events across all queues — the sequential driver's
    /// `queue.len()`, maintained incrementally so the queue-depth gauge
    /// trajectory matches exactly.
    virtual_len: usize,
    queue_high_water: usize,
    fixed_by_release: Vec<ProblemSet>,
    fix_queue: VecDeque<ProblemId>,
    fixing: Option<ProblemId>,
    known_problems: ProblemSet,
    metrics: SimMetrics,
    telemetry: Telemetry,
    journaling: bool,
    /// No observers that are sensitive to per-event order (flight
    /// events, journal, URR) and no faults: all-pass buckets may take
    /// the order-free batch path.
    plain: bool,
    faults_active: bool,
    rng_down: FaultRng,
    ticks_issued: u64,
    urr_sink: Option<UrrSink>,
}

impl<'s, 'a> ParSim<'s, 'a> {
    fn new(
        arena: &'a mut SimArena,
        scenario: &'s Scenario,
        telemetry: Telemetry,
        workers: usize,
    ) -> Self {
        arena.prepare(scenario, workers);
        let faults_active = !scenario.faults.is_none();
        let n = scenario.machine_count();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(workers);
        let plain = !faults_active
            && scenario.urr.is_none()
            && !telemetry.enabled()
            && !telemetry.journals();
        ParSim {
            scenario,
            arena,
            workers,
            threads,
            now: 0,
            seq: 0,
            virtual_len: 0,
            queue_high_water: 0,
            fixed_by_release: vec![ProblemSet::new()],
            fix_queue: VecDeque::new(),
            fixing: None,
            known_problems: ProblemSet::new(),
            metrics: SimMetrics {
                machine_pass_time: vec![None; n],
                ..SimMetrics::default()
            },
            telemetry,
            journaling: false,
            plain,
            faults_active,
            rng_down: FaultRng::new(scenario.faults.seed),
            ticks_issued: 0,
            urr_sink: scenario
                .urr
                .as_ref()
                .map(|urr| UrrSink::new(scenario, Arc::clone(urr))),
        }
    }

    #[inline]
    fn jot(&mut self, event: JournalEvent) {
        if self.journaling {
            self.arena.journal_buf.push((self.now, event));
            if self.arena.journal_buf.len() >= JOURNAL_FLUSH_LEN {
                self.flush_journal();
            }
        }
    }

    fn flush_journal(&mut self) {
        if !self.arena.journal_buf.is_empty() {
            self.telemetry.journal_timed(&self.arena.journal_buf);
            self.arena.journal_buf.clear();
        }
    }

    fn bump_queue_depth(&mut self) {
        if self.virtual_len > self.queue_high_water {
            self.queue_high_water = self.virtual_len;
            self.telemetry
                .gauge("sim.queue_depth", self.virtual_len as i64);
        }
    }

    fn latest_release(&self) -> Release {
        Release((self.fixed_by_release.len() - 1) as u32)
    }

    #[inline]
    fn schedule_test(&mut self, time: SimTime, machine: MachineId, release: u32) {
        let seq = self.seq;
        self.seq += 1;
        let shard = machine.index() % self.workers;
        self.arena.shards[shard].queue.schedule(
            time,
            ShardTest {
                seq,
                machine,
                release,
            },
        );
        // One master-index entry per (queue, future time) suffices; a
        // mark at a strictly future time is guaranteed still pending.
        if time <= self.now || self.arena.due_mark[shard] != time {
            self.arena.due.schedule(time, shard as u8);
            self.arena.due_mark[shard] = time;
        }
        self.virtual_len += 1;
    }

    #[inline]
    fn schedule_coord(&mut self, time: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.arena.coord.schedule(time, (seq, event));
        if time <= self.now || self.arena.due_mark[self.workers] != time {
            self.arena.due.schedule(time, self.workers as u8);
            self.arena.due_mark[self.workers] = time;
        }
        self.virtual_len += 1;
    }

    fn exec(&mut self, commands: Vec<Command>) {
        for cmd in commands {
            match cmd {
                Command::Notify { machines, release } => {
                    self.telemetry
                        .counter("sim.machines_notified", machines.len() as u64);
                    if self.faults_active {
                        for m in machines {
                            self.fault_notify(m, release.0);
                        }
                        continue;
                    }
                    self.metrics.total_tests += machines.len();
                    let cycle = self.scenario.timings.machine_cycle();
                    if !self.telemetry.enabled() && !self.journaling {
                        for m in machines {
                            let start = self.scenario.offline_until[m.index()].max(self.now);
                            self.schedule_test(start + cycle, m, release.0);
                        }
                        continue;
                    }
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
                        let start = self.scenario.offline_until[m.index()].max(self.now);
                        self.schedule_test(start + cycle, m, release.0);
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

    fn available_from(&self, machine: MachineId, t: SimTime) -> Option<SimTime> {
        let start = t.max(self.scenario.offline_until[machine.index()]);
        match self.arena.churn[machine.index()] {
            Some((leave, rejoin)) if start >= leave && start < rejoin => {
                if rejoin == SimTime::MAX {
                    None
                } else {
                    Some(rejoin)
                }
            }
            _ => Some(start),
        }
    }

    fn fault_notify(&mut self, machine: MachineId, release: u32) {
        self.telemetry
            .event_with(|| FlightEvent::MachineNotifiedId {
                machine: machine.index() as u32,
                release,
            });
        self.jot(JournalEvent::Notify {
            machine: machine.index() as u32,
            release,
        });
        self.arena.awaiting[machine.index()] = Some((release, 0));
        self.send_notification(machine, release);
        let delay = self.scenario.faults.retry_delay(0);
        self.schedule_coord(
            self.now + delay,
            Event::RetryCheck {
                machine,
                release,
                attempt: 0,
            },
        );
    }

    fn send_notification(&mut self, machine: MachineId, release: u32) {
        let loss = self.scenario.faults.loss;
        let dup = self.scenario.faults.duplication;
        let max_delay = self.scenario.faults.max_delay;
        let mut deliveries = 0u32;
        if self.rng_down.chance(loss) {
            self.metrics.msgs_dropped += 1;
            self.telemetry.counter("sim.msgs_dropped", 1);
            self.jot(JournalEvent::Fault {
                fault: FaultKind::Loss,
                machine: machine.index() as u32,
            });
        } else {
            deliveries += 1;
            if self.rng_down.chance(dup) {
                self.metrics.msgs_duplicated += 1;
                self.telemetry.counter("sim.msgs_duplicated", 1);
                self.jot(JournalEvent::Fault {
                    fault: FaultKind::Duplication,
                    machine: machine.index() as u32,
                });
                deliveries += 1;
            }
        }
        for _ in 0..deliveries {
            let delay = self.rng_down.below_inclusive(max_delay);
            if let Some(start) = self.available_from(machine, self.now + delay) {
                self.metrics.total_tests += 1;
                self.schedule_test(
                    start + self.scenario.timings.machine_cycle(),
                    machine,
                    release,
                );
            }
        }
    }

    #[inline]
    fn sink_report(&mut self, machine: MachineId, release: u32, outcome: TestOutcome) {
        if self.urr_sink.is_none() {
            return;
        }
        let problem = match outcome {
            TestOutcome::Pass => None,
            TestOutcome::Fail { problem } => Some(problem),
        };
        self.jot(JournalEvent::UrrDeposit {
            machine: machine.index() as u32,
            release,
            problem: problem.map_or(NO_PROBLEM, |p| p.index() as u16),
        });
        if let Some(sink) = &mut self.urr_sink {
            sink.record(machine, release, problem);
        }
    }

    fn start_next_fix(&mut self) {
        if self.fixing.is_none() {
            if let Some(problem) = self.fix_queue.pop_front() {
                self.schedule_coord(
                    self.now + self.scenario.timings.fix,
                    Event::FixDone { problem },
                );
                self.fixing = Some(problem);
            }
        }
    }

    /// Replays one shard record under a fault plan: the mirror of
    /// `fault_test_done` + `send_report`, with the up-link draws taken
    /// from the record instead of the RNG.
    fn replay_fault_test(&mut self, rec: TestRec) {
        let TestRec {
            machine, release, ..
        } = rec;
        if rec.escaped {
            self.metrics.escaped_problems += 1;
            self.telemetry.counter("sim.escaped_problems", 1);
        }
        let outcome = if rec.passed {
            if self.metrics.machine_pass_time[machine.index()].is_none() {
                self.metrics.machine_pass_time[machine.index()] = Some(self.now);
            }
            self.telemetry.counter("sim.tests_passed", 1);
            self.telemetry.event_with(|| FlightEvent::TestPassedId {
                machine: machine.index() as u32,
                release,
            });
            self.jot(JournalEvent::Test {
                machine: machine.index() as u32,
                release,
                problem: NO_PROBLEM,
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
            self.jot(JournalEvent::Test {
                machine: machine.index() as u32,
                release,
                problem: problem.index() as u16,
            });
            TestOutcome::Fail { problem }
        };
        if rec.lost {
            self.metrics.msgs_dropped += 1;
            self.telemetry.counter("sim.msgs_dropped", 1);
            self.jot(JournalEvent::Fault {
                fault: FaultKind::Loss,
                machine: machine.index() as u32,
            });
        } else if rec.duplicated {
            self.metrics.msgs_duplicated += 1;
            self.telemetry.counter("sim.msgs_duplicated", 1);
            self.jot(JournalEvent::Fault {
                fault: FaultKind::Duplication,
                machine: machine.index() as u32,
            });
        }
        for slot in 0..rec.deliveries as usize {
            self.schedule_coord(
                self.now + rec.delays[slot],
                Event::ReportDelivery {
                    machine,
                    release,
                    outcome,
                },
            );
        }
    }

    /// Replays one reliable-channel shard record through the full
    /// protocol path: the mirror of `handle_test_done`.
    fn replay_reliable_test(&mut self, protocol: &mut dyn Protocol, rec: TestRec) {
        let TestRec {
            machine, release, ..
        } = rec;
        if rec.escaped {
            self.metrics.escaped_problems += 1;
            self.telemetry.counter("sim.escaped_problems", 1);
        }
        let outcome = if rec.passed {
            if self.metrics.machine_pass_time[machine.index()].is_none() {
                self.metrics.machine_pass_time[machine.index()] = Some(self.now);
            }
            self.telemetry.counter("sim.tests_passed", 1);
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
            TestOutcome::Fail { problem }
        };
        self.jot(JournalEvent::Test {
            machine: machine.index() as u32,
            release,
            problem: match outcome {
                TestOutcome::Pass => NO_PROBLEM,
                TestOutcome::Fail { problem } => problem.index() as u16,
            },
        });
        self.jot(JournalEvent::Report {
            machine: machine.index() as u32,
            release,
            passed: matches!(outcome, TestOutcome::Pass),
        });
        self.sink_report(machine, release, outcome);
        let report = TestReport {
            machine,
            release: Release(release),
            outcome,
        };
        let commands = protocol.on_report(&report);
        self.exec(commands);
        if let TestOutcome::Fail { problem } = report.outcome {
            let latest = self.latest_release();
            if latest.0 > release && self.fixed_by_release[latest.0 as usize].contains(problem) {
                let commands =
                    protocol.on_release(latest, &self.fixed_by_release[latest.0 as usize]);
                self.exec(commands);
            }
        }
    }

    fn replay_test_rec(&mut self, protocol: &mut dyn Protocol, rec: TestRec) {
        if self.faults_active {
            self.replay_fault_test(rec);
        } else {
            self.replay_reliable_test(protocol, rec);
        }
    }

    /// Emits the driver-side effects of passes absorbed silently by the
    /// protocol (the pass branch of `handle_test_done`, minus the
    /// `on_report` the protocol already accounted for). Counter
    /// increments batch across the chunk — their *sums* match the
    /// sequential per-event emissions.
    fn absorbed_pass_effects(&mut self, chunk: &[TestRec]) {
        let now = self.now;
        let mut escaped = 0u64;
        for rec in chunk {
            if rec.escaped {
                escaped += 1;
                self.metrics.escaped_problems += 1;
            }
            let slot = &mut self.metrics.machine_pass_time[rec.machine.index()];
            if slot.is_none() {
                *slot = Some(now);
            }
        }
        if !self.plain {
            for rec in chunk {
                self.telemetry.event_with(|| FlightEvent::TestPassedId {
                    machine: rec.machine.index() as u32,
                    release: rec.release,
                });
                self.jot(JournalEvent::Test {
                    machine: rec.machine.index() as u32,
                    release: rec.release,
                    problem: NO_PROBLEM,
                });
                self.jot(JournalEvent::Report {
                    machine: rec.machine.index() as u32,
                    release: rec.release,
                    passed: true,
                });
                self.sink_report(rec.machine, rec.release, TestOutcome::Pass);
            }
        }
        self.telemetry
            .counter("sim.events_processed", chunk.len() as u64);
        self.telemetry
            .counter("sim.tests_passed", chunk.len() as u64);
        if escaped > 0 {
            self.telemetry.counter("sim.escaped_problems", escaped);
        }
        self.virtual_len -= chunk.len();
        // The queue only shrank: no high-water check needed.
    }

    /// Replays a maximal seq-contiguous run of passing reliable-channel
    /// records: absorb what the protocol can take silently, route the
    /// first transition-triggering record through `on_report`, repeat.
    fn replay_pass_run(
        &mut self,
        protocol: &mut dyn Protocol,
        pairs: &mut Vec<(MachineId, Release)>,
        run: &[TestRec],
    ) {
        let mut off = 0;
        while off < run.len() {
            pairs.clear();
            pairs.extend(run[off..].iter().map(|r| (r.machine, Release(r.release))));
            let absorbed = protocol.absorb_passes(pairs);
            self.absorbed_pass_effects(&run[off..off + absorbed]);
            off += absorbed;
            if off < run.len() {
                let rec = run[off];
                off += 1;
                self.virtual_len -= 1;
                self.telemetry.counter("sim.events_processed", 1);
                self.replay_test_rec(protocol, rec);
                self.bump_queue_depth();
            }
        }
    }

    /// Ordered replay of an all-pass plain bucket whose `pairs` are
    /// already in global sequence order, without materialized records:
    /// absorb maximal prefixes, fully replay each stage-completing
    /// pass, repeat. `escapes` holds the (sorted) bucket-relative
    /// positions of passes that escaped detection.
    fn replay_ordered_passes(
        &mut self,
        protocol: &mut dyn Protocol,
        pairs: &[(MachineId, Release)],
        escapes: &[u64],
        base: u64,
    ) {
        // Pass times are pre-stamped by the caller while it gathers
        // `pairs` — every pass in the current bucket gets time `now`
        // regardless of which sub-path replays it. Escape positions in
        // `escapes` are bucket-absolute; `base` is the bucket position
        // of `pairs[0]`.
        let mut off = 0usize;
        let mut esc_i = 0usize;
        while off < pairs.len() {
            let absorbed = protocol.absorb_passes(&pairs[off..]);
            if absorbed > 0 {
                let mut escaped = 0u64;
                while esc_i < escapes.len()
                    && (escapes[esc_i] as usize) < base as usize + off + absorbed
                {
                    esc_i += 1;
                    escaped += 1;
                }
                if escaped > 0 {
                    self.metrics.escaped_problems += escaped as usize;
                    self.telemetry.counter("sim.escaped_problems", escaped);
                }
                self.telemetry
                    .counter("sim.events_processed", absorbed as u64);
                self.telemetry.counter("sim.tests_passed", absorbed as u64);
                self.virtual_len -= absorbed;
                off += absorbed;
            }
            if off < pairs.len() {
                let (machine, release) = pairs[off];
                let escaped =
                    esc_i < escapes.len() && escapes[esc_i] as usize == base as usize + off;
                if escaped {
                    esc_i += 1;
                }
                off += 1;
                self.virtual_len -= 1;
                self.telemetry.counter("sim.events_processed", 1);
                self.replay_reliable_test(
                    protocol,
                    TestRec {
                        seq: 0,
                        machine,
                        release: release.0,
                        passed: true,
                        escaped,
                        lost: false,
                        duplicated: false,
                        deliveries: 0,
                        delays: [0; 2],
                    },
                );
                self.bump_queue_depth();
            }
        }
    }

    fn replay_report_delivery(
        &mut self,
        protocol: &mut dyn Protocol,
        machine: MachineId,
        release: u32,
        outcome: TestOutcome,
    ) {
        if let Some((awaited, _)) = self.arena.awaiting[machine.index()] {
            if release >= awaited {
                self.arena.awaiting[machine.index()] = None;
            }
        }
        self.jot(JournalEvent::Report {
            machine: machine.index() as u32,
            release,
            passed: matches!(outcome, TestOutcome::Pass),
        });
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
        let report = TestReport {
            machine,
            release: Release(release),
            outcome,
        };
        let commands = protocol.on_report(&report);
        self.exec(commands);
        if let TestOutcome::Fail { problem } = outcome {
            let latest = self.latest_release();
            if latest.0 > release && self.fixed_by_release[latest.0 as usize].contains(problem) {
                let commands =
                    protocol.on_release(latest, &self.fixed_by_release[latest.0 as usize]);
                self.exec(commands);
            }
        }
    }

    fn replay_retry_check(&mut self, machine: MachineId, release: u32, attempt: u32) {
        if self.arena.awaiting[machine.index()] != Some((release, attempt)) {
            return;
        }
        let cap = self
            .scenario
            .faults
            .max_retries
            .unwrap_or(RETRY_SAFETY_CAP)
            .min(RETRY_SAFETY_CAP);
        if attempt >= cap {
            self.arena.awaiting[machine.index()] = None;
            return;
        }
        if self.available_from(machine, self.now).is_none() {
            self.arena.awaiting[machine.index()] = None;
            return;
        }
        self.metrics.retries_sent += 1;
        self.telemetry.counter("deploy.retries_sent", 1);
        self.jot(JournalEvent::Retry {
            machine: machine.index() as u32,
            release,
            attempt,
        });
        self.send_notification(machine, release);
        let next = attempt + 1;
        self.arena.awaiting[machine.index()] = Some((release, next));
        self.schedule_coord(
            self.now + self.scenario.faults.retry_delay(next),
            Event::RetryCheck {
                machine,
                release,
                attempt: next,
            },
        );
    }

    fn replay_fix_done(&mut self, protocol: &mut dyn Protocol, problem: ProblemId) {
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

    fn replay_coord(&mut self, protocol: &mut dyn Protocol, event: Event) {
        match event {
            Event::TestDone { .. } => {
                unreachable!("TestDone events live in shard queues, never the coordinator's")
            }
            Event::FixDone { problem } => self.replay_fix_done(protocol, problem),
            Event::ReportDelivery {
                machine,
                release,
                outcome,
            } => self.replay_report_delivery(protocol, machine, release, outcome),
            Event::RetryCheck {
                machine,
                release,
                attempt,
            } => self.replay_retry_check(machine, release, attempt),
            Event::Tick => {
                let commands = protocol.on_tick(self.now);
                self.exec(commands);
                if !protocol.done() && self.ticks_issued < self.scenario.faults.max_ticks {
                    self.schedule_coord(self.now + self.scenario.faults.tick_interval, Event::Tick);
                    self.ticks_issued += 1;
                }
            }
        }
    }

    fn run(mut self, protocol: &mut dyn Protocol) -> SimMetrics {
        let _span = self.telemetry.span("sim.run");
        self.journaling = self.telemetry.journals();
        let commands = protocol.start();
        self.exec(commands);
        if self.faults_active && self.scenario.faults.rep_timeout.is_some() {
            self.schedule_coord(self.scenario.faults.tick_interval, Event::Tick);
            self.ticks_issued = 1;
        }
        self.bump_queue_depth();

        // Scratch buffers move out of the arena for the run (the borrow
        // checker cannot see through `&mut self` into disjoint arena
        // fields from helper calls) and move back at the end.
        let mut rec_bufs = std::mem::take(&mut self.arena.rec_bufs);
        let mut coord_buf = std::mem::take(&mut self.arena.coord_buf);
        let mut pairs = std::mem::take(&mut self.arena.pairs);
        let mut run_buf = std::mem::take(&mut self.arena.run_buf);
        let mut heads = std::mem::take(&mut self.arena.heads);
        let mut due_buf = std::mem::take(&mut self.arena.due_buf);
        let mut due_flags = std::mem::take(&mut self.arena.due_flags);
        let mut escape_buf = std::mem::take(&mut self.arena.escape_buf);
        let mut fail_buf = std::mem::take(&mut self.arena.fail_buf);

        loop {
            // The next time bucket comes from the master index, which
            // also tells us *which* queues hold events there. Never
            // probing the other queues keeps their cursors at global
            // time, so replay-time schedules are always in the future.
            due_buf.clear();
            let Some(t) = self.arena.due.pop_bucket(&mut due_buf) else {
                break;
            };
            due_flags.fill(false);
            for &s in &due_buf {
                due_flags[s as usize] = true;
            }
            if t != self.now {
                self.now = t;
                self.telemetry.journal_time(t);
            }

            // Phase A, step 1: drain each shard's bucket. Record
            // computation is deferred until the bucket's replay path is
            // known — all-pass plain buckets never materialize records.
            let mut total = 0usize;
            let mut min_seq = u64::MAX;
            let mut max_seq = 0u64;
            for (s, shard) in self.arena.shards.iter_mut().enumerate() {
                shard.raw.clear();
                if due_flags[s] {
                    let drained = shard.queue.pop_bucket(&mut shard.raw);
                    debug_assert_eq!(drained, Some(t), "shard bucket off the master index");
                }
                if let (Some(first), Some(last)) = (shard.raw.first(), shard.raw.last()) {
                    min_seq = min_seq.min(first.seq);
                    max_seq = max_seq.max(last.seq);
                }
                total += shard.raw.len();
            }
            // Scheduling is FIFO within a timestamp, so each shard's
            // drained bucket is already seq-sorted; when the bucket's
            // seqs form one contiguous range (the common case: one wave
            // scheduled by a single Notify) the global order falls out
            // by direct placement, with no comparison merge at all.
            let contiguous = total > 0 && max_seq - min_seq + 1 == total as u64;

            // Drain the coordinator's bucket at this time, if any.
            coord_buf.clear();
            if due_flags[self.workers] {
                let drained = self.arena.coord.pop_bucket(&mut coord_buf);
                debug_assert_eq!(drained, Some(t), "coordinator bucket off the master index");
            }

            // Plain contiguous buckets (no faults, journal, URR, or
            // flight events — the overwhelmingly common case) replay
            // straight off the 16-byte raw records. No TestRec is ever
            // materialized.
            if self.plain && contiguous && coord_buf.is_empty() {
                // One placement pass per shard computes each record's
                // outcome, stamps pass times, places passes into
                // `pairs` by global sequence, and sets failing records
                // aside (with their global position stashed in `seq`).
                // Stamping before replay is equivalent: every pass in
                // this bucket receives time `t` on whichever sub-path
                // replays it.
                escape_buf.clear();
                pairs.clear();
                pairs.resize(total, (MachineId(0), Release(0)));
                fail_buf.clear();
                {
                    let machine_problem = &self.scenario.machine_problem[..];
                    let missed = &self.scenario.missed_detection;
                    let fixed = &self.fixed_by_release[..];
                    let pass_time = &mut self.metrics.machine_pass_time[..];
                    for shard in &self.arena.shards {
                        for st in &shard.raw {
                            let pos = st.seq - min_seq;
                            if let Some(problem) = machine_problem[st.machine.index()] {
                                if !fixed[st.release as usize].contains(problem) {
                                    if !missed.contains(st.machine) {
                                        fail_buf.push(ShardTest { seq: pos, ..*st });
                                        continue;
                                    }
                                    escape_buf.push(pos);
                                }
                            }
                            pairs[pos as usize] = (st.machine, Release(st.release));
                            let slot = &mut pass_time[st.machine.index()];
                            if slot.is_none() {
                                *slot = Some(t);
                            }
                        }
                    }
                }
                // Shards interleave in the placement, so positions
                // collected per shard need one merge-sort each (both
                // are concatenations of sorted runs — cheap).
                escape_buf.sort_unstable();
                fail_buf.sort_unstable_by_key(|st| st.seq);

                // Walk the bucket as pass segments separated by
                // failures: each segment absorbs via ordered
                // maximal-prefix absorption (a transition-free segment
                // is a single `absorb_passes` call — the ordered twin
                // of the order-free batch, which still serves the
                // non-contiguous path below); each failure replays
                // through the full protocol path in order.
                let mut start = 0usize;
                let mut esc_lo = 0usize;
                for f in &fail_buf {
                    let pos = f.seq as usize;
                    if pos > start {
                        let hi =
                            esc_lo + escape_buf[esc_lo..].partition_point(|&e| (e as usize) < pos);
                        self.replay_ordered_passes(
                            protocol,
                            &pairs[start..pos],
                            &escape_buf[esc_lo..hi],
                            start as u64,
                        );
                        esc_lo = hi;
                    }
                    self.virtual_len -= 1;
                    self.telemetry.counter("sim.events_processed", 1);
                    self.replay_reliable_test(
                        protocol,
                        TestRec {
                            seq: 0,
                            machine: f.machine,
                            release: f.release,
                            passed: false,
                            escaped: false,
                            lost: false,
                            duplicated: false,
                            deliveries: 0,
                            delays: [0; 2],
                        },
                    );
                    self.bump_queue_depth();
                    start = pos + 1;
                }
                if start < total {
                    self.replay_ordered_passes(
                        protocol,
                        &pairs[start..],
                        &escape_buf[esc_lo..],
                        start as u64,
                    );
                }
                continue;
            }

            // A plain bucket whose seqs are *not* contiguous (offline
            // stragglers colliding with a later wave) cannot placement-
            // merge, but if it is all passes the order-free batch
            // absorb applies — shard order is as good as any.
            if self.plain && total > 0 && !contiguous && coord_buf.is_empty() {
                let mut all_pass = true;
                let mut escaped = 0usize;
                {
                    let machine_problem = &self.scenario.machine_problem[..];
                    let missed = &self.scenario.missed_detection;
                    let fixed = &self.fixed_by_release[..];
                    'scan: for shard in &self.arena.shards {
                        for st in &shard.raw {
                            if let Some(problem) = machine_problem[st.machine.index()] {
                                if !fixed[st.release as usize].contains(problem) {
                                    if !missed.contains(st.machine) {
                                        all_pass = false;
                                        break 'scan;
                                    }
                                    escaped += 1;
                                }
                            }
                        }
                    }
                }
                if all_pass {
                    pairs.clear();
                    for shard in &self.arena.shards {
                        pairs.extend(shard.raw.iter().map(|r| (r.machine, Release(r.release))));
                    }
                    if protocol.absorb_pass_batch(&pairs) {
                        for &(m, _) in pairs.iter() {
                            let slot = &mut self.metrics.machine_pass_time[m.index()];
                            if slot.is_none() {
                                *slot = Some(t);
                            }
                        }
                        // Counter *sums* match the per-event sequential
                        // emissions (order-insensitive by definition).
                        self.metrics.escaped_problems += escaped;
                        self.telemetry.counter("sim.events_processed", total as u64);
                        self.telemetry.counter("sim.tests_passed", total as u64);
                        if escaped > 0 {
                            self.telemetry
                                .counter("sim.escaped_problems", escaped as u64);
                        }
                        self.virtual_len -= total;
                        continue;
                    }
                }
            }

            // Phase A, step 2: compute records for every drained shard.
            {
                let shards = &mut self.arena.shards;
                for out in rec_bufs.iter_mut() {
                    out.clear();
                }
                let machine_problem = &self.scenario.machine_problem[..];
                let missed = &self.scenario.missed_detection;
                let fixed = &self.fixed_by_release[..];
                let faults = &self.scenario.faults;
                let faults_active = self.faults_active;
                let workers = self.workers;
                if self.threads > 1 && total >= PAR_COMPUTE_MIN {
                    std::thread::scope(|scope| {
                        for (shard, out) in shards.iter_mut().zip(rec_bufs.iter_mut()) {
                            if shard.raw.is_empty() {
                                continue;
                            }
                            scope.spawn(move || {
                                compute_shard(
                                    shard,
                                    out,
                                    machine_problem,
                                    missed,
                                    fixed,
                                    faults,
                                    faults_active,
                                    workers,
                                );
                            });
                        }
                    });
                } else {
                    for (shard, out) in shards.iter_mut().zip(rec_bufs.iter_mut()) {
                        if shard.raw.is_empty() {
                            continue;
                        }
                        compute_shard(
                            shard,
                            out,
                            machine_problem,
                            missed,
                            fixed,
                            faults,
                            faults_active,
                            workers,
                        );
                    }
                }
            }

            // Phase B: merge by global sequence number and replay in
            // exact sequential order.
            heads.fill(0);
            let mut chead = 0usize;
            loop {
                match next_source(&rec_bufs, &heads, &coord_buf, chead) {
                    Source::Done => break,
                    Source::Coord => {
                        let (_, event) = coord_buf[chead];
                        chead += 1;
                        self.virtual_len -= 1;
                        self.telemetry.counter("sim.events_processed", 1);
                        self.replay_coord(protocol, event);
                        self.bump_queue_depth();
                    }
                    Source::Shard(s) => {
                        let rec = rec_bufs[s][heads[s]];
                        if !self.faults_active && rec.passed {
                            // Gather the maximal run of consecutive
                            // passing records (across shards, in seq
                            // order) and absorb it batched.
                            run_buf.clear();
                            run_buf.push(rec);
                            heads[s] += 1;
                            while let Source::Shard(s2) =
                                next_source(&rec_bufs, &heads, &coord_buf, chead)
                            {
                                let next = rec_bufs[s2][heads[s2]];
                                if !next.passed {
                                    break;
                                }
                                run_buf.push(next);
                                heads[s2] += 1;
                            }
                            let run = std::mem::take(&mut run_buf);
                            self.replay_pass_run(protocol, &mut pairs, &run);
                            run_buf = run;
                        } else {
                            heads[s] += 1;
                            self.virtual_len -= 1;
                            self.telemetry.counter("sim.events_processed", 1);
                            self.replay_test_rec(protocol, rec);
                            self.bump_queue_depth();
                        }
                    }
                }
            }
        }

        self.arena.rec_bufs = rec_bufs;
        self.arena.coord_buf = coord_buf;
        self.arena.pairs = pairs;
        self.arena.run_buf = run_buf;
        self.arena.heads = heads;
        self.arena.due_buf = due_buf;
        self.arena.due_flags = due_flags;
        self.arena.escape_buf = escape_buf;
        self.arena.fail_buf = fail_buf;

        debug_assert_eq!(self.virtual_len, 0, "all queues drained at run end");
        if let Some(sink) = &mut self.urr_sink {
            sink.flush();
        }
        self.flush_journal();
        self.telemetry
            .gauge("sim.queue_depth", self.virtual_len as i64);
        self.metrics.rep_timeouts = protocol.rep_timeouts();
        self.metrics
    }
}

/// Clamps a requested worker count to `[1, MAX_WORKERS]` and the fleet
/// size (more shards than machines is pure overhead).
fn clamp_workers(requested: usize, machine_count: usize) -> usize {
    requested.clamp(1, MAX_WORKERS).min(machine_count.max(1))
}

/// Runs `protocol` against `scenario` on the sharded parallel driver
/// with an explicit worker count, reusing `arena`'s allocations.
///
/// Bit-identical to the sequential [`Simulation`] at every worker
/// count; `workers <= 1` delegates to it outright (the oracle is the
/// one-worker configuration). Publishes the effective worker count on
/// the `sim.workers` gauge.
pub fn run_parallel_in(
    arena: &mut SimArena,
    scenario: &Scenario,
    protocol: &mut dyn Protocol,
    telemetry: Telemetry,
    workers: usize,
) -> SimMetrics {
    let workers = clamp_workers(workers, scenario.machine_count());
    telemetry.gauge("sim.workers", workers as i64);
    // Tick-driven protocols (rollout controllers with a decision clock)
    // run on the sequential driver, which owns the tick schedule.
    if workers <= 1 || protocol.wants_ticks() {
        return Simulation::new(scenario)
            .with_telemetry(telemetry)
            .run(protocol);
    }
    ParSim::new(arena, scenario, telemetry, workers).run(protocol)
}

/// Runs `protocol` against `scenario` on the parallel driver with a
/// fresh arena and telemetry attached. See [`run_parallel_in`].
pub fn run_parallel_with_telemetry(
    scenario: &Scenario,
    protocol: &mut dyn Protocol,
    telemetry: Telemetry,
    workers: usize,
) -> SimMetrics {
    let mut arena = SimArena::new();
    run_parallel_in(&mut arena, scenario, protocol, telemetry, workers)
}

/// Runs `protocol` against `scenario` on the parallel driver with a
/// fresh arena and no telemetry. See [`run_parallel_in`].
pub fn run_parallel(
    scenario: &Scenario,
    protocol: &mut dyn Protocol,
    workers: usize,
) -> SimMetrics {
    run_parallel_with_telemetry(scenario, protocol, Telemetry::noop(), workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::runner;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::ProtocolChoice;
    use mirage_telemetry::health::{health_report_json, rollup};
    use mirage_telemetry::trace_export::chrome_trace;
    use mirage_telemetry::{Journal, Registry, TraceConfig, WatchdogConfig};

    const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

    fn choices() -> [ProtocolChoice; 4] {
        [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 11 },
        ]
    }

    fn scenarios() -> Vec<(&'static str, Scenario)> {
        vec![
            (
                "small",
                ScenarioBuilder::new()
                    .clusters(4, 3, 1)
                    .problem_in_clusters("p", &[2])
                    .build(),
            ),
            ("healthy", ScenarioBuilder::new().clusters(3, 5, 2).build()),
            (
                "misplaced",
                ScenarioBuilder::new()
                    .clusters(4, 4, 1)
                    .problem_in_clusters("p", &[1])
                    .misplaced_machine(3, "q")
                    .build(),
            ),
            (
                "threshold+offline",
                ScenarioBuilder::new()
                    .clusters(3, 6, 1)
                    .problem_in_clusters("p", &[0])
                    .offline_machines(1, 2, 200)
                    .threshold(0.5)
                    .build(),
            ),
            (
                "missed-detection",
                ScenarioBuilder::new()
                    .clusters(3, 4, 1)
                    .problem_in_clusters("p", &[1])
                    .missed_detections(1, 2)
                    .build(),
            ),
            (
                "multi-problem",
                ScenarioBuilder::new()
                    .clusters(5, 4, 1)
                    .problem_in_clusters("p", &[1, 2])
                    .problem_in_clusters("q", &[3])
                    .build(),
            ),
        ]
    }

    /// The parallel driver is bit-identical to the sequential oracle on
    /// reliable channels, for every protocol, scenario shape, and
    /// worker count (1 delegates to the oracle itself).
    #[test]
    fn parallel_matches_sequential() {
        for (name, s) in scenarios() {
            for choice in choices() {
                let mut oracle = choice.build(s.plan.clone(), s.threshold);
                let expect = runner::run(&s, &mut oracle);
                for workers in WORKER_COUNTS {
                    let mut p = choice.build(s.plan.clone(), s.threshold);
                    let got = run_parallel(&s, &mut p, workers);
                    assert_eq!(
                        expect,
                        got,
                        "{name}/{} diverged at {workers} workers",
                        choice.name()
                    );
                }
            }
        }
    }

    /// Same bit-identity under a fault plan exercising loss,
    /// duplication, delay, retries, rep timeouts, and churn — the RNG
    /// forking must reproduce the exact sequential fault schedule at
    /// every worker count.
    #[test]
    fn parallel_matches_sequential_under_faults() {
        let s = ScenarioBuilder::new()
            .clusters(4, 6, 1)
            .problem_in_clusters("p", &[2])
            .faults(
                FaultSpec::new(0xFA11)
                    .loss(0.30)
                    .duplication(0.15)
                    .delay(6)
                    .retry(20, 4)
                    .rep_timeout(600)
                    .churn(1, 2, 40, 400)
                    .churn(3, 1, 10, SimTime::MAX),
            )
            .build();
        for choice in choices() {
            let mut oracle = choice.build(s.plan.clone(), s.threshold);
            let expect = runner::run(&s, &mut oracle);
            for workers in WORKER_COUNTS {
                let mut p = choice.build(s.plan.clone(), s.threshold);
                let got = run_parallel(&s, &mut p, workers);
                assert_eq!(
                    expect,
                    got,
                    "faulted {} diverged at {workers} workers",
                    choice.name()
                );
            }
        }
    }

    fn journaled_registry() -> Arc<Registry> {
        Arc::new(Registry::with_journal(
            1 << 14,
            Journal::with_spill(1 << 12),
        ))
    }

    fn run_instrumented(
        s: &Scenario,
        choice: ProtocolChoice,
        workers: Option<usize>,
    ) -> (SimMetrics, Arc<Registry>) {
        let registry = journaled_registry();
        let telemetry = Telemetry::from_registry(Arc::clone(&registry));
        let mut protocol = choice
            .build(s.plan.clone(), s.threshold)
            .with_telemetry(telemetry.clone());
        let metrics = match workers {
            None => runner::run_with_telemetry(s, &mut protocol, telemetry),
            Some(w) => run_parallel_with_telemetry(s, &mut protocol, telemetry, w),
        };
        (metrics, registry)
    }

    /// Journaled instrumented runs are byte-identical between the
    /// drivers: the journal entry stream (time, seq, payload), counter
    /// sums, the queue-depth gauge trajectory, and the derived health
    /// rollup and Perfetto export all match at every worker count.
    #[test]
    fn instrumented_parallel_run_is_bit_identical() {
        let reliable = ScenarioBuilder::new()
            .clusters(4, 5, 1)
            .problem_in_clusters("p", &[2])
            .build();
        let faulted = ScenarioBuilder::new()
            .clusters(3, 5, 1)
            .problem_in_clusters("p", &[1])
            .faults(
                FaultSpec::new(0x0B5E)
                    .loss(0.25)
                    .duplication(0.10)
                    .delay(5)
                    .retry(20, 4)
                    .rep_timeout(600),
            )
            .build();
        for (name, s) in [("reliable", &reliable), ("faulted", &faulted)] {
            let (seq_metrics, seq_reg) = run_instrumented(s, ProtocolChoice::Balanced, None);
            let seq_entries = seq_reg.journal().entries();
            assert!(
                !seq_entries.is_empty(),
                "{name}: sequential journal must record"
            );
            let mut machine_cluster = vec![0u32; s.machine_count()];
            for cluster in &s.plan.clusters {
                for m in &cluster.members {
                    machine_cluster[m.index()] = cluster.id as u32;
                }
            }
            let run_end = seq_metrics.completion_time.unwrap_or(0);
            for workers in [2, 3, 8] {
                let (par_metrics, par_reg) =
                    run_instrumented(s, ProtocolChoice::Balanced, Some(workers));
                assert_eq!(seq_metrics, par_metrics, "{name} w={workers}: metrics");
                let par_entries = par_reg.journal().entries();
                assert_eq!(
                    seq_entries, par_entries,
                    "{name} w={workers}: journal streams differ"
                );
                let seq_snap = seq_reg.snapshot();
                let par_snap = par_reg.snapshot();
                assert_eq!(
                    seq_snap.counters, par_snap.counters,
                    "{name} w={workers}: counter sums differ"
                );
                assert_eq!(
                    seq_snap.gauges.get("sim.queue_depth"),
                    par_snap.gauges.get("sim.queue_depth"),
                    "{name} w={workers}: queue depth gauge differs"
                );
                assert_eq!(
                    par_snap.gauges.get("sim.workers").map(|g| g.value),
                    Some(workers as i64),
                    "{name} w={workers}: workers gauge"
                );
                // Derived artifacts are byte-identical after the
                // exporters' canonical (time, seq) sort.
                let config = WatchdogConfig::default();
                assert_eq!(
                    health_report_json(&rollup(&seq_entries, &machine_cluster, run_end, &config)),
                    health_report_json(&rollup(&par_entries, &machine_cluster, run_end, &config)),
                    "{name} w={workers}: health rollup differs"
                );
                let trace = |entries: &[mirage_telemetry::JournalEntry]| {
                    chrome_trace(
                        entries,
                        run_end,
                        &|m| s.plan.machine_name(MachineId(m)).to_string(),
                        &|p| s.problems.name(ProblemId(p)).to_string(),
                        &TraceConfig::default(),
                    )
                };
                assert_eq!(
                    trace(&seq_entries),
                    trace(&par_entries),
                    "{name} w={workers}: Perfetto export differs"
                );
            }
        }
    }

    /// The journal keeps its `(time, seq)` ordering property under
    /// multi-shard flushes: the raw stream (buffered driver jots
    /// interleaved with write-through protocol jots) is identical to the
    /// sequential one, and the exporters' canonical `(time, seq)` sort
    /// yields a time-monotone stream with unique sequence numbers.
    #[test]
    fn journal_orders_by_time_seq_under_multi_shard_flushes() {
        let s = ScenarioBuilder::new()
            .clusters(5, 7, 1)
            .problem_in_clusters("p", &[1, 3])
            .build();
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, None);
        let seq_entries = seq_reg.journal().entries();
        for workers in [2, 4, 8] {
            let (_, reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, Some(workers));
            let entries = reg.journal().entries();
            assert!(!entries.is_empty());
            assert_eq!(
                seq_entries, entries,
                "raw stream diverged at {workers} workers"
            );
            let mut sorted = entries.clone();
            sorted.sort_by_key(|e| (e.time, e.seq));
            for pair in sorted.windows(2) {
                assert!(
                    pair[0].time <= pair[1].time && pair[0].seq != pair[1].seq,
                    "canonical sort violated: {:?} then {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// Cross-shard scheduling reproduces the sequential queue-depth
    /// high-water mark exactly (the parallel driver tracks a virtual
    /// global depth, not per-shard depths).
    #[test]
    fn cross_shard_queue_depth_high_water_matches() {
        let s = ScenarioBuilder::new()
            .clusters(6, 8, 2)
            .problem_in_clusters("p", &[2])
            .build();
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, None);
        let seq_gauge = seq_reg.snapshot().gauges["sim.queue_depth"];
        assert!(seq_gauge.high_water >= s.machine_count() as i64);
        for workers in [2, 5, 8] {
            let (_, par_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, Some(workers));
            let par_gauge = par_reg.snapshot().gauges["sim.queue_depth"];
            assert_eq!(
                seq_gauge, par_gauge,
                "queue depth high-water diverged at {workers} workers"
            );
        }
    }

    /// One arena serves many runs (different scenarios, protocols,
    /// worker counts) without contaminating results.
    #[test]
    fn arena_reuse_is_deterministic() {
        let mut arena = SimArena::new();
        for _ in 0..2 {
            for (name, s) in scenarios() {
                for choice in [ProtocolChoice::Balanced, ProtocolChoice::NoStaging] {
                    let mut oracle = choice.build(s.plan.clone(), s.threshold);
                    let expect = runner::run(&s, &mut oracle);
                    for workers in [2, 4] {
                        let mut p = choice.build(s.plan.clone(), s.threshold);
                        let got =
                            run_parallel_in(&mut arena, &s, &mut p, Telemetry::noop(), workers);
                        assert_eq!(expect, got, "{name}/{} reused arena", choice.name());
                    }
                }
            }
        }
    }

    /// The requested worker count is clamped to the fleet size and
    /// `MAX_WORKERS`, and the clamped count runs bit-identically.
    #[test]
    fn worker_count_clamping() {
        assert_eq!(clamp_workers(6, 400), 6);
        // Clamped to the fleet: 2 machines cannot use 6 shards.
        assert_eq!(clamp_workers(6, 2), 2);
        assert_eq!(clamp_workers(10_000, 200), MAX_WORKERS);
        assert_eq!(clamp_workers(0, 200), 1);
        assert_eq!(clamp_workers(4, 0), 1);
        // An over-large request runs clamped, end to end.
        let tiny = ScenarioBuilder::new().clusters(1, 2, 1).build();
        let mut p = ProtocolChoice::Balanced.build(tiny.plan.clone(), tiny.threshold);
        let got = run_parallel(&tiny, &mut p, 6);
        let mut oracle = ProtocolChoice::Balanced.build(tiny.plan.clone(), tiny.threshold);
        assert_eq!(got, runner::run(&tiny, &mut oracle));
    }
}
