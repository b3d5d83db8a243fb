//! The run surface, and the sequential driver behind it.
//!
//! [`Simulation`] is the one way to run a scenario: a builder over the
//! scenario, an optional telemetry handle, a worker count and an
//! optional [`SimArena`], whose [`run`](Simulation::run) picks the
//! driver — one worker is the sequential loop below, more is the sharded
//! driver of [`crate::parallel`]. Nothing else in the crate chooses.
//!
//! The sequential loop is one calendar queue, popped one event at a
//! time, feeding the shared vendor side (`vendor.rs`). It moves `Copy`
//! events and dense ids only: per-machine and per-problem state is
//! flat-indexed, and the telemetry flight events render machine/problem
//! names lazily (zero cost when telemetry is a noop). It is the oracle
//! every equivalence property and paired bench row compares the sharded
//! driver against. The original string-keyed driver — binary-heap queue,
//! name maps and all — survives under [`mod@reference`] so equivalence
//! tests can prove this one produces identical [`SimMetrics`].

pub mod reference;

use mirage_deploy::{MachineId, Protocol};
use mirage_telemetry::Telemetry;

use crate::engine::{Event, EventQueue, SimTime};
use crate::faults::RngLanes;
use crate::metrics::SimMetrics;
use crate::parallel::{clamp_workers, ParSim, SimArena};
use crate::scenario::Scenario;
use crate::vendor::{test_outcome, Lent, Schedule, Transmission, VendorSide};

impl Schedule for EventQueue {
    fn test(&mut self, time: SimTime, machine: MachineId, release: u32) {
        self.schedule(time, Event::TestDone { machine, release });
    }

    fn vendor(&mut self, time: SimTime, event: Event) {
        self.schedule(time, event);
    }

    fn pending(&self) -> usize {
        self.len()
    }
}

/// One run of a scenario, configured and then [`run`](Simulation::run)
/// against a protocol.
///
/// ```
/// use mirage_deploy::Balanced;
/// use mirage_sim::{ScenarioBuilder, Simulation};
/// let s = ScenarioBuilder::new().clusters(3, 4, 1).build();
/// let one = Simulation::new(&s).run(&mut Balanced::new(s.plan.clone(), 1.0));
/// let four = Simulation::new(&s)
///     .workers(4)
///     .run(&mut Balanced::new(s.plan.clone(), 1.0));
/// assert_eq!(one, four);
/// ```
#[derive(Debug)]
pub struct Simulation<'a> {
    scenario: &'a Scenario,
    telemetry: Telemetry,
    workers: usize,
    arena: Option<&'a mut SimArena>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation over `scenario`: unobserved, one worker.
    pub fn new(scenario: &'a Scenario) -> Self {
        Simulation {
            scenario,
            telemetry: Telemetry::noop(),
            workers: 1,
            arena: None,
        }
    }

    /// Attaches a telemetry handle.
    ///
    /// Telemetry is strictly observational: an instrumented run
    /// produces bit-identical [`SimMetrics`] to an uninstrumented one
    /// (wall-clock span timings never feed back into simulated time).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Shards the machine-side work across `workers` shards, clamped to
    /// `[1, `[`MAX_WORKERS`](crate::MAX_WORKERS)`]` and the fleet size
    /// (more shards than machines is pure overhead). The count never changes a result — every
    /// output is bit-identical to the one-worker run — so there is no
    /// environment variable, scenario setting or host-derived default
    /// behind it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Runs in `arena`, reusing its queues and scratch buffers, so a
    /// sweep re-running many configurations allocates once. A run
    /// without one makes its own; the one-worker driver needs none.
    pub fn arena(mut self, arena: &'a mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Runs the simulation to completion, consuming it. One worker (the
    /// default) is the sequential loop; more is the sharded driver,
    /// whatever the protocol. The shard count of the driver that ran is
    /// published on the `sim.workers` gauge.
    pub fn run(self, protocol: &mut dyn Protocol) -> SimMetrics {
        let workers = clamp_workers(self.workers, self.scenario.machine_count());
        self.telemetry.gauge("sim.workers", workers as i64);
        if workers <= 1 {
            return run_sequential(self.scenario, self.telemetry, protocol);
        }
        let mut own = None;
        let arena = self.arena.unwrap_or_else(|| own.insert(SimArena::new()));
        ParSim::new(arena, self.scenario, self.telemetry, workers).run(protocol)
    }
}

/// The sequential driver: pops one queue until it drains.
fn run_sequential(
    scenario: &Scenario,
    telemetry: Telemetry,
    protocol: &mut dyn Protocol,
) -> SimMetrics {
    let mut vendor = VendorSide::new(scenario, EventQueue::new(), telemetry, Lent::default());
    // Per-machine fault RNG lanes for machine→vendor transmissions,
    // forked per machine off the plan seed so each machine's report
    // fault schedule depends only on its own event order — the
    // property that lets the sharded driver draw them shard-side and
    // stay bit-identical. Empty unless the scenario has a fault plan.
    let lanes = if vendor.faults_active {
        scenario.machine_count()
    } else {
        0
    };
    let mut rng_up = RngLanes::new(scenario.faults.seed, lanes);
    let _span = vendor.telemetry.span("sim.run");
    vendor.start(protocol);
    while let Some((time, event)) = vendor.sched.pop() {
        vendor.advance(time);
        match event {
            Event::TestDone { machine, release } => {
                let outcome = test_outcome(scenario, &vendor.fixed_by_release, machine, release);
                let uplink = vendor
                    .faults_active
                    .then(|| Transmission::draw(rng_up.lane(machine.index()), &scenario.faults));
                vendor.test_done(protocol, machine, release, outcome, uplink);
            }
            other => vendor.vendor_event(protocol, other),
        }
    }
    vendor.finish(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::{Balanced, FrontLoading, NoStaging};

    /// 4 clusters × 3 machines; cluster 2 carries problem "p".
    fn small_scenario() -> Scenario {
        ScenarioBuilder::new()
            .clusters(4, 3, 1)
            .problem_in_clusters("p", &[2])
            .build()
    }

    #[test]
    fn nostaging_finishes_and_counts_overhead() {
        let s = small_scenario();
        let mut p = NoStaging::new(s.plan.clone());
        let m = Simulation::new(&s).run(&mut p);
        assert!(p.done());
        // All 3 machines of the problem cluster tested the faulty
        // release: overhead = population of the problem.
        assert_eq!(m.failed_tests, 3);
        assert_eq!(m.releases_shipped, 1);
        assert_eq!(m.passed_count(), 12);
        // Healthy machines pass at download+test = 15.
        assert_eq!(m.pass_time_named(&s.plan, "c00-m00000"), Some(15));
        // Problem machines: fail at 15, fix done at 515, retest at 530.
        assert_eq!(m.pass_time_named(&s.plan, "c02-m00000"), Some(530));
        assert_eq!(m.completion_time, Some(530));
    }

    #[test]
    fn balanced_overhead_is_one_per_problem() {
        let s = small_scenario();
        let mut p = Balanced::new(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        assert!(p.done());
        // Only the problem cluster's representative failed.
        assert_eq!(m.failed_tests, 1);
        assert_eq!(
            m.problems_discovered_named(&s.problems),
            vec!["p".to_string()]
        );
        // Clusters 0,1 complete before the problem cluster stalls:
        // c0: rep 15, nonreps 30. c1: 45/60. c2 rep fails at 75;
        // fix at 575; rep passes 590; nonreps 605. c3: 620/635.
        assert_eq!(m.pass_time_named(&s.plan, "c00-m00001"), Some(30));
        assert_eq!(m.pass_time_named(&s.plan, "c01-m00001"), Some(60));
        assert_eq!(m.pass_time_named(&s.plan, "c02-m00000"), Some(590));
        assert_eq!(m.pass_time_named(&s.plan, "c02-m00001"), Some(605));
        assert_eq!(m.completion_time, Some(635));
    }

    #[test]
    fn frontloading_front_loads_debugging() {
        let s = small_scenario();
        let mut p = FrontLoading::new(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        assert!(p.done());
        // Phase 1: all 4 reps test at 15; c2's rep fails; fix at 515;
        // re-test passes at 530. Phase 2 (desc distance: c3, c2, c1, c0):
        // c3 non-reps 545, c2 560, c1 575, c0 590.
        assert_eq!(m.failed_tests, 1);
        assert_eq!(m.pass_time_named(&s.plan, "c03-m00001"), Some(545));
        assert_eq!(m.pass_time_named(&s.plan, "c02-m00001"), Some(560));
        assert_eq!(m.pass_time_named(&s.plan, "c00-m00001"), Some(590));
        assert_eq!(m.completion_time, Some(590));
    }

    /// Telemetry must be deterministic-neutral: an instrumented run
    /// produces bit-identical metrics to an uninstrumented one, for
    /// every protocol, and the recorder's own counters agree with the
    /// metrics it observed.
    #[test]
    fn instrumented_run_is_bit_identical() {
        use std::sync::Arc;

        use mirage_telemetry::Registry;

        type ProtocolFactory = Box<dyn Fn() -> Box<dyn Protocol>>;

        let s = small_scenario();
        let protocols: Vec<(&str, ProtocolFactory)> = vec![
            (
                "NoStaging",
                Box::new(|| Box::new(NoStaging::new(small_scenario().plan))),
            ),
            (
                "Balanced",
                Box::new(|| Box::new(Balanced::new(small_scenario().plan, 1.0))),
            ),
            (
                "FrontLoading",
                Box::new(|| Box::new(FrontLoading::new(small_scenario().plan, 1.0))),
            ),
        ];
        for (name, make) in protocols {
            let plain = Simulation::new(&s).run(make().as_mut());
            let registry = Arc::new(Registry::new(4096));
            let instrumented = Simulation::new(&s)
                .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
                .run(make().as_mut());
            assert_eq!(plain, instrumented, "{name} diverged under instrumentation");

            let snap = registry.snapshot();
            assert_eq!(
                snap.counters["sim.tests_failed"] as usize, plain.failed_tests,
                "{name}"
            );
            assert_eq!(
                snap.counters["sim.releases_shipped"] as u32, plain.releases_shipped,
                "{name}"
            );
            assert_eq!(
                snap.counters["sim.tests_passed"] as usize,
                plain.passed_count(),
                "{name}"
            );
            assert!(snap.gauges["sim.queue_depth"].high_water >= 1, "{name}");
            assert_eq!(snap.spans["sim.run"].count, 1, "{name}");
        }
    }

    /// The queue-depth gauge is published only on high-water rises now,
    /// but the *recorded* high-water (and final value) must match what
    /// per-event publication recorded.
    #[test]
    fn queue_depth_high_water_is_unchanged() {
        use std::sync::Arc;

        use mirage_telemetry::Registry;

        let s = small_scenario();
        let registry = Arc::new(Registry::new(4096));
        let _ = Simulation::new(&s)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .run(&mut NoStaging::new(s.plan.clone()));
        let snap = registry.snapshot();
        let gauge = &snap.gauges["sim.queue_depth"];
        // NoStaging notifies all 12 machines up front — the depth peaks
        // at 12 immediately and only drains afterwards (the one FixDone
        // arrives after 7 TestDones have already popped).
        assert_eq!(gauge.high_water, 12);
        // The final publication reports the drained queue, exactly as
        // the per-event version's last publication did.
        assert_eq!(gauge.value, 0);
    }

    #[test]
    fn healthy_fleet_needs_no_fixes() {
        let s = ScenarioBuilder::new().clusters(3, 4, 1).build();
        let mut p = Balanced::new(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        assert_eq!(m.failed_tests, 0);
        assert_eq!(m.releases_shipped, 0);
        assert_eq!(m.passed_count(), 12);
        // Sequential: cluster k completes at 30(k+1).
        assert_eq!(m.completion_time, Some(90));
    }

    #[test]
    fn misplaced_machine_fails_at_nonrep_stage() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .misplaced_machine(0, "odd")
            .build();
        let mut p = Balanced::new(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        // The misplaced machine fails once; everyone eventually passes.
        assert_eq!(m.failed_tests, 1);
        assert_eq!(m.passed_count(), 8);
        // Cluster 0 rep passes at 15; non-reps test at 30: two pass, the
        // misplaced fails. Fix at 530; it retests at 545. With threshold
        // 1.0 cluster 1 waits: rep 560, nonreps 575.
        assert_eq!(m.completion_time, Some(575));
    }

    #[test]
    fn threshold_lets_deployment_pass_misplaced_machines() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .misplaced_machine(0, "odd")
            .threshold(0.75)
            .build();
        let mut p = Balanced::new(s.plan.clone(), s.threshold);
        let m = Simulation::new(&s).run(&mut p);
        // Cluster 1 proceeds at 30 without waiting for the fix: rep 45,
        // non-reps 60. The misplaced machine still completes at 545.
        assert_eq!(m.pass_time_named(&s.plan, "c01-m00003"), Some(60));
        assert_eq!(m.completion_time, Some(545));
    }

    #[test]
    fn multiple_problems_fix_sequentially() {
        let s = ScenarioBuilder::new()
            .clusters(3, 2, 1)
            .problem_in_clusters("p0", &[0])
            .problem_in_clusters("p1", &[1])
            .problem_in_clusters("p2", &[2])
            .build();
        let mut p = NoStaging::new(s.plan.clone());
        let m = Simulation::new(&s).run(&mut p);
        // All three problems discovered at t=15; fixes at 515, 1015, 1515;
        // final passes at 1530. Each failed machine is re-notified only
        // when *its* problem is fixed, so overhead = m = 6 (the paper's
        // NoStaging overhead) rather than one failure per release wave.
        assert_eq!(m.releases_shipped, 3);
        assert_eq!(m.failed_tests, 6);
        assert_eq!(m.completion_time, Some(1530));
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::{Balanced, NoStaging};

    /// The paper-scale scenario must simulate quickly (it backs Fig 10).
    #[test]
    fn paper_scale_scenario_runs() {
        let s = ScenarioBuilder::new()
            .clusters(20, 5_000, 1)
            .problem_in_clusters("prevalent", &[14, 15, 16])
            .problem_in_clusters("rare-a", &[17])
            .problem_in_clusters("rare-b", &[18])
            .build();
        let mut nostaging = NoStaging::new(s.plan.clone());
        let m = Simulation::new(&s).run(&mut nostaging);
        assert_eq!(m.failed_tests, 25_000);
        assert_eq!(m.passed_count(), 100_000);

        let mut balanced = Balanced::new(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut balanced);
        assert_eq!(m.failed_tests, 3);
        assert_eq!(m.passed_count(), 100_000);
    }

    /// A 1,000,000-machine Figure-10-style run must be routine. Gated
    /// behind `--ignored` so plain `cargo test` stays fast; CI exercises
    /// it in release mode.
    #[test]
    #[ignore = "1M-machine run; exercised via cargo test --release -- --ignored"]
    fn million_machine_scenario_runs() {
        let s = ScenarioBuilder::new()
            .clusters(100, 10_000, 1)
            .problem_in_clusters("prevalent", &[70, 71, 72])
            .problem_in_clusters("rare-a", &[85])
            .problem_in_clusters("rare-b", &[90])
            .build();
        assert_eq!(s.machine_count(), 1_000_000);

        let mut balanced = Balanced::new(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut balanced);
        // Overhead is p: one representative per *problem* (Table 4) —
        // later prevalent-problem clusters receive the fixed release.
        assert_eq!(m.failed_tests, 3);
        assert_eq!(m.passed_count(), 1_000_000);
        assert!(m.completion_time.is_some());

        let mut nostaging = NoStaging::new(s.plan.clone());
        let m = Simulation::new(&s).run(&mut nostaging);
        // Overhead is the full population of every fault.
        assert_eq!(m.failed_tests, 50_000);
        assert_eq!(m.passed_count(), 1_000_000);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::{Balanced, NoStaging};

    #[test]
    fn offline_machines_are_late_arrivals() {
        // One machine of cluster 0 is offline until t=200; with
        // threshold 0.75 the deployment proceeds without it.
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .offline_machines(0, 1, 200)
            .threshold(0.75)
            .build();
        let m = Simulation::new(&s).run(&mut Balanced::new(s.plan.clone(), s.threshold));
        // Everyone, including the late arrival, eventually passes.
        assert_eq!(m.passed_count(), 8);
        let offline = &s.offline_machine_names()[0];
        assert_eq!(
            m.pass_time_named(&s.plan, offline),
            Some(215),
            "online at 200 + cycle 15"
        );
        // The second cluster did not wait for it: its rep passed at 45.
        assert_eq!(m.pass_time_named(&s.plan, "c01-m00000"), Some(45));
    }

    #[test]
    fn offline_machine_blocks_full_threshold() {
        // With threshold 1.0 the first cluster cannot complete until the
        // late arrival reports, delaying the second cluster.
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .offline_machines(0, 1, 200)
            .build();
        let m = Simulation::new(&s).run(&mut Balanced::new(s.plan.clone(), 1.0));
        assert!(m.pass_time_named(&s.plan, "c01-m00000").unwrap() > 200);
    }

    #[test]
    fn missed_detection_lets_problems_escape() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .problem_in_clusters("p", &[1])
            .missed_detections(1, 2)
            .build();
        let m = Simulation::new(&s).run(&mut NoStaging::new(s.plan.clone()));
        // Two problem machines "pass" with the fault integrated; the
        // other two fail and drive a fix.
        assert_eq!(m.escaped_problems, 2);
        assert_eq!(m.failed_tests, 2);
        assert_eq!(m.releases_shipped, 1);
        assert_eq!(m.passed_count(), 8);
    }

    #[test]
    fn perfect_testing_has_no_escapes() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .problem_in_clusters("p", &[1])
            .build();
        let m = Simulation::new(&s).run(&mut NoStaging::new(s.plan.clone()));
        assert_eq!(m.escaped_problems, 0);
    }
}
