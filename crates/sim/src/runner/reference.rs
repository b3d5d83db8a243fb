//! The retained string-keyed simulation driver.
//!
//! This module preserves the pre-interning data plane end to end: a
//! `BinaryHeap`-plus-slab event queue moving `String`-payload events,
//! a driver whose per-machine state lives in `BTreeMap<String, _>`, and
//! the string-keyed protocols from [`mirage_deploy::reference`]. It
//! exists for two jobs:
//!
//! 1. **Equivalence.** [`run_reference`] converts its name-keyed
//!    results into the same id-indexed [`SimMetrics`] the fast driver
//!    produces, so seeded property tests can `assert_eq!` the two
//!    drivers bit for bit across random scenarios and protocols.
//! 2. **Benchmarking.** `repro sim-perf` measures both drivers on the
//!    same scenarios; the committed `BENCH_sim.json` quantifies what
//!    the interned data plane buys.
//!
//! Nothing here is on any production path — keep it boring and keep it
//! byte-for-byte faithful to the original implementation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use mirage_deploy::reference::{NamedCommand, NamedOutcome, NamedPlan, NamedProtocol, NamedReport};
use mirage_deploy::Release;

use crate::engine::SimTime;
use crate::metrics::SimMetrics;
use crate::scenario::Scenario;

/// Events processed by the reference simulation (string payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamedEvent {
    /// A machine finished downloading and testing a release.
    TestDone {
        /// The machine that tested.
        machine: String,
        /// The release it tested.
        release: u32,
    },
    /// The vendor finished fixing a problem.
    FixDone {
        /// The problem that was fixed.
        problem: String,
    },
}

/// The original deterministic time-ordered event queue: a
/// `BinaryHeap` over `(time, seq, slot)` triples with event payloads
/// in a free-listed slab.
///
/// Events at equal times are processed in insertion order (FIFO), which
/// keeps simulations reproducible — the calendar queue in
/// [`crate::engine`] preserves exactly this contract.
#[derive(Debug, Default)]
pub struct HeapEventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    store: Vec<Option<NamedEvent>>,
    free: Vec<usize>,
    seq: u64,
}

impl HeapEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: NamedEvent) {
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.store[idx].is_none(), "free slot still occupied");
                self.store[idx] = Some(event);
                idx
            }
            None => {
                self.store.push(Some(event));
                self.store.len() - 1
            }
        };
        self.heap.push(Reverse((time, self.seq, idx)));
        self.seq += 1;
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, NamedEvent)> {
        let Reverse((time, _, idx)) = self.heap.pop()?;
        let event = self.store[idx].take().expect("event already taken");
        self.free.push(idx);
        Some((time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A string-keyed view of a [`Scenario`], as the original driver
/// consumed it.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    /// String-keyed plan for the reference protocols.
    pub plan: NamedPlan,
    /// Machine name → problem name (absent = healthy).
    pub machine_problem: BTreeMap<String, String>,
    /// Machine name → offline horizon.
    pub offline_until: BTreeMap<String, SimTime>,
    /// Machines whose testing misses their problem.
    pub missed_detection: BTreeSet<String>,
    /// Time constants.
    pub timings: crate::scenario::Timings,
    /// Advancement threshold.
    pub threshold: f64,
    /// The interned scenario this view was derived from, kept so the
    /// final metrics can be re-keyed by dense ids.
    source: Scenario,
}

impl NamedScenario {
    /// Renders an interned scenario into the string-keyed shape.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let plan = NamedPlan::from_plan(&scenario.plan);
        let mut machine_problem = BTreeMap::new();
        let mut offline_until = BTreeMap::new();
        let mut missed_detection = BTreeSet::new();
        for id in scenario.plan.machines.ids() {
            let name = scenario.plan.machine_name(id);
            if let Some(p) = scenario.machine_problem[id.index()] {
                machine_problem.insert(name.to_string(), scenario.problems.name(p).to_string());
            }
            let until = scenario.offline_until[id.index()];
            if until > 0 {
                offline_until.insert(name.to_string(), until);
            }
            if scenario.missed_detection.contains(id) {
                missed_detection.insert(name.to_string());
            }
        }
        NamedScenario {
            plan,
            machine_problem,
            offline_until,
            missed_detection,
            timings: scenario.timings,
            threshold: scenario.threshold,
            source: scenario.clone(),
        }
    }
}

/// The original string-keyed driver state.
struct ReferenceSimulation<'a> {
    scenario: &'a NamedScenario,
    queue: HeapEventQueue,
    now: SimTime,
    fixed_by_release: Vec<BTreeSet<String>>,
    fix_queue: VecDeque<String>,
    fixing: Option<String>,
    known_problems: BTreeSet<String>,
    machine_pass_time: BTreeMap<String, SimTime>,
    failed_tests: usize,
    total_tests: usize,
    releases_shipped: u32,
    completion_time: Option<SimTime>,
    problems_discovered: Vec<String>,
    escaped_problems: usize,
}

impl<'a> ReferenceSimulation<'a> {
    fn new(scenario: &'a NamedScenario) -> Self {
        ReferenceSimulation {
            scenario,
            queue: HeapEventQueue::new(),
            now: 0,
            fixed_by_release: vec![BTreeSet::new()],
            fix_queue: VecDeque::new(),
            fixing: None,
            known_problems: BTreeSet::new(),
            machine_pass_time: BTreeMap::new(),
            failed_tests: 0,
            total_tests: 0,
            releases_shipped: 0,
            completion_time: None,
            problems_discovered: Vec::new(),
            escaped_problems: 0,
        }
    }

    fn latest_release(&self) -> Release {
        Release((self.fixed_by_release.len() - 1) as u32)
    }

    fn passes(&self, machine: &str, release: u32) -> bool {
        match self.scenario.machine_problem.get(machine) {
            None => true,
            Some(problem) => self.fixed_by_release[release as usize].contains(problem),
        }
    }

    fn exec(&mut self, commands: Vec<NamedCommand>) {
        for cmd in commands {
            match cmd {
                NamedCommand::Notify { machines, release } => {
                    for m in machines {
                        self.total_tests += 1;
                        let start = self
                            .scenario
                            .offline_until
                            .get(&m)
                            .copied()
                            .unwrap_or(0)
                            .max(self.now);
                        self.queue.schedule(
                            start + self.scenario.timings.machine_cycle(),
                            NamedEvent::TestDone {
                                machine: m,
                                release: release.0,
                            },
                        );
                    }
                }
                NamedCommand::Complete => {
                    if self.completion_time.is_none() {
                        self.completion_time = Some(self.now);
                    }
                }
            }
        }
    }

    fn start_next_fix(&mut self) {
        if self.fixing.is_none() {
            if let Some(problem) = self.fix_queue.pop_front() {
                self.queue.schedule(
                    self.now + self.scenario.timings.fix,
                    NamedEvent::FixDone {
                        problem: problem.clone(),
                    },
                );
                self.fixing = Some(problem);
            }
        }
    }

    fn handle_test_done(
        &mut self,
        protocol: &mut dyn NamedProtocol,
        machine: String,
        release: u32,
    ) {
        let mut passed = self.passes(&machine, release);
        if !passed && self.scenario.missed_detection.contains(&machine) {
            passed = true;
            self.escaped_problems += 1;
        }
        let outcome = if passed {
            self.machine_pass_time
                .entry(machine.clone())
                .or_insert(self.now);
            NamedOutcome::Pass
        } else {
            self.failed_tests += 1;
            let problem = self.scenario.machine_problem[&machine].clone();
            if self.known_problems.insert(problem.clone()) {
                self.problems_discovered.push(problem.clone());
                self.fix_queue.push_back(problem.clone());
                self.start_next_fix();
            }
            NamedOutcome::Fail { problem }
        };
        let report = NamedReport {
            machine,
            release: Release(release),
            outcome,
        };
        let commands = protocol.on_report(&report);
        self.exec(commands);
        if let NamedOutcome::Fail { problem } = &report.outcome {
            let latest = self.latest_release();
            if latest.0 > release && self.fixed_by_release[latest.0 as usize].contains(problem) {
                let fixed = self.fixed_by_release[latest.0 as usize].clone();
                let commands = protocol.on_release(latest, &fixed);
                self.exec(commands);
            }
        }
    }

    fn handle_fix_done(&mut self, protocol: &mut dyn NamedProtocol, problem: String) {
        debug_assert_eq!(self.fixing.as_deref(), Some(problem.as_str()));
        self.fixing = None;
        let mut fixed = self.fixed_by_release.last().cloned().unwrap_or_default();
        fixed.insert(problem);
        self.fixed_by_release.push(fixed);
        self.releases_shipped += 1;
        self.start_next_fix();
        let release = self.latest_release();
        let fixed = self.fixed_by_release[release.0 as usize].clone();
        let commands = protocol.on_release(release, &fixed);
        self.exec(commands);
    }

    fn run(mut self, protocol: &mut dyn NamedProtocol) -> SimMetrics {
        let commands = protocol.start();
        self.exec(commands);
        while let Some((time, event)) = self.queue.pop() {
            self.now = time;
            match event {
                NamedEvent::TestDone { machine, release } => {
                    self.handle_test_done(protocol, machine, release)
                }
                NamedEvent::FixDone { problem } => self.handle_fix_done(protocol, problem),
            }
        }
        self.into_metrics()
    }

    /// Re-keys the name-indexed results by dense ids so callers can
    /// `assert_eq!` against the fast driver's [`SimMetrics`].
    fn into_metrics(self) -> SimMetrics {
        let source = &self.scenario.source;
        let mut machine_pass_time = vec![None; source.plan.machine_count()];
        for (name, t) in &self.machine_pass_time {
            let id = source
                .plan
                .machine_id(name)
                .expect("reference driver produced a machine outside the plan");
            machine_pass_time[id.index()] = Some(*t);
        }
        let problems_discovered = self
            .problems_discovered
            .iter()
            .map(|p| {
                source
                    .problems
                    .id(p)
                    .expect("reference driver discovered a problem outside the scenario")
            })
            .collect();
        SimMetrics {
            machine_pass_time,
            failed_tests: self.failed_tests,
            total_tests: self.total_tests,
            releases_shipped: self.releases_shipped,
            completion_time: self.completion_time,
            problems_discovered,
            escaped_problems: self.escaped_problems,
            // The reference driver models a reliable channel only; the
            // fault counters stay zero, which is exactly what the
            // zero-fault equivalence property asserts against.
            ..SimMetrics::default()
        }
    }
}

/// Runs a string-keyed protocol against a string-keyed scenario with
/// the original heap-queue driver, returning id-indexed [`SimMetrics`]
/// for direct comparison with [`crate::Simulation::run`].
pub fn run_reference(scenario: &NamedScenario, protocol: &mut dyn NamedProtocol) -> SimMetrics {
    ReferenceSimulation::new(scenario).run(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Simulation;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::reference::{NamedBalanced, NamedFrontLoading, NamedNoStaging};
    use mirage_deploy::{Balanced, FrontLoading, NoStaging};

    fn small_scenario() -> Scenario {
        ScenarioBuilder::new()
            .clusters(4, 3, 1)
            .problem_in_clusters("p", &[2])
            .build()
    }

    #[test]
    fn heap_queue_orders_and_fifos() {
        let mut q = HeapEventQueue::new();
        let td = |m: &str| NamedEvent::TestDone {
            machine: m.into(),
            release: 0,
        };
        q.schedule(10, td("late"));
        q.schedule(5, td("first"));
        q.schedule(5, td("second"));
        assert_eq!(q.len(), 3);
        let order: Vec<(SimTime, String)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                NamedEvent::TestDone { machine, .. } => (t, machine),
                NamedEvent::FixDone { problem } => (t, problem),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (5, "first".to_string()),
                (5, "second".to_string()),
                (10, "late".to_string())
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn named_scenario_round_trips_knobs() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .problem_in_clusters("p", &[1])
            .offline_machines(0, 1, 200)
            .missed_detections(1, 1)
            .threshold(0.75)
            .build();
        let named = NamedScenario::from_scenario(&s);
        assert_eq!(named.plan.machine_count(), 8);
        assert_eq!(named.machine_problem.len(), 4);
        assert_eq!(named.offline_until.len(), 1);
        assert_eq!(named.missed_detection.len(), 1);
        assert_eq!(named.threshold, 0.75);
    }

    /// The reference driver + reference protocols reproduce the fast
    /// driver's metrics exactly on the canonical small scenario.
    #[test]
    fn reference_driver_matches_fast_driver() {
        let s = small_scenario();
        let named = NamedScenario::from_scenario(&s);

        let fast = Simulation::new(&s).run(&mut NoStaging::new(s.plan.clone()));
        let slow = run_reference(&named, &mut NamedNoStaging::new(named.plan.clone()));
        assert_eq!(fast, slow, "NoStaging");

        let fast = Simulation::new(&s).run(&mut Balanced::new(s.plan.clone(), 1.0));
        let slow = run_reference(&named, &mut NamedBalanced::new(named.plan.clone(), 1.0));
        assert_eq!(fast, slow, "Balanced");

        let fast = Simulation::new(&s).run(&mut FrontLoading::new(s.plan.clone(), 1.0));
        let slow = run_reference(&named, &mut NamedFrontLoading::new(named.plan.clone(), 1.0));
        assert_eq!(fast, slow, "FrontLoading");
    }
}
