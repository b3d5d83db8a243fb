//! The run surface and its one driver.
//!
//! [`Simulation`] is the one way to run a scenario: a builder over the
//! scenario, an optional telemetry handle and an optional
//! [`SimArena`], whose [`run`](Simulation::run) feeds the shared vendor
//! side (`vendor.rs`) off one calendar queue, a whole timestamp at a
//! time (`EventQueue::pop_bucket`).
//!
//! Bucket order is sequential order. The queue is FIFO within a
//! timestamp, so a bucket holds its events in the order a loop popping
//! one event at a time would pop them, and whatever the vendor side
//! schedules at the same timestamp while the driver walks the bucket
//! queues behind it, where that loop would also find it. So the driver
//! needs no sequence stamps and no merge. It walks the bucket in order:
//!
//! - a maximal run of sound upgrade passes on the reliable channel goes
//!   to [`Protocol::absorb_passes`] in one call; the driver stamps the
//!   absorbed passes' times, batches their counters, and journals and
//!   deposits each one in order. The pass the protocol stops at takes
//!   the per-event path, and the rest of the run goes back to
//!   `absorb_passes`;
//! - anything else ends the run and takes the vendor side's per-event
//!   path on its own: a tick, a fix, a failure (escaped ones included),
//!   a `PRIOR_RELEASE` confirmation, and every test or delivery under a
//!   fault plan.
//!
//! The one-event loop survives only as [`sequential::run_sequential`],
//! the oracle every driver property compares against. It is on no
//! production path.

pub mod sequential;

use mirage_deploy::{MachineId, Protocol, Release, PRIOR_RELEASE};
use mirage_telemetry::Telemetry;

use crate::engine::{Event, EventQueue, SimTime};
use crate::faults::RngLanes;
use crate::metrics::SimMetrics;
use crate::scenario::Scenario;
use crate::vendor::{test_outcome, Lent, Schedule, Transmission, VendorSide};

/// Most passes gathered before they go to `absorb_passes`. Absorbing a
/// run in pieces is the same as absorbing it whole (the contract is
/// per report); the cap keeps the gathered run's buffer small instead
/// of a copy of a whole wave.
const RUN_CAP: usize = 1_024;

/// One run of a scenario, configured and then [`run`](Simulation::run)
/// against a protocol.
///
/// ```
/// use mirage_deploy::ProtocolChoice;
/// use mirage_sim::runner::sequential::run_sequential;
/// use mirage_sim::{ScenarioBuilder, Simulation};
/// use mirage_telemetry::Telemetry;
/// let s = ScenarioBuilder::new().clusters(3, 4, 1).build();
/// let run = Simulation::new(&s).run(&mut ProtocolChoice::Balanced.build(s.plan.clone(), 1.0));
/// let oracle = run_sequential(
///     &s,
///     Telemetry::noop(),
///     &mut ProtocolChoice::Balanced.build(s.plan.clone(), 1.0),
/// );
/// assert_eq!(run, oracle);
/// ```
#[derive(Debug)]
pub struct Simulation<'a> {
    scenario: &'a Scenario,
    telemetry: Telemetry,
    arena: Option<&'a mut SimArena>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation over `scenario`, unobserved.
    pub fn new(scenario: &'a Scenario) -> Self {
        Simulation {
            scenario,
            telemetry: Telemetry::noop(),
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

    /// Runs in `arena`, reusing its queue and buffers, so a sweep
    /// re-running many configurations allocates once. A run without one
    /// makes its own.
    pub fn arena(mut self, arena: &'a mut SimArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Runs the simulation to completion, consuming it.
    pub fn run(self, protocol: &mut dyn Protocol) -> SimMetrics {
        let mut own = None;
        let arena = self.arena.unwrap_or_else(|| own.insert(SimArena::new()));
        drive(arena, self.scenario, self.telemetry, protocol)
    }
}

/// Reusable state for runs, handed to one with [`Simulation::arena`]:
/// the calendar queue (whose buckets keep their allocations), the
/// bucket in hand, the run of passes being gathered and the vendor
/// side's per-run buffers. Any run may follow any other in one arena —
/// plain, faulted, guarded — with the result of a fresh one.
#[derive(Debug, Default)]
pub struct SimArena {
    queue: EventQueue,
    bucket: Vec<Event>,
    run: Vec<(MachineId, Release)>,
    lent: Lent,
    pub(crate) shapes: Shapes,
}

impl SimArena {
    /// Creates an empty arena. Buffers grow on first use and are
    /// retained across runs.
    pub fn new() -> Self {
        SimArena::default()
    }
}

/// What the driver did with the buckets it walked, recorded in its
/// arena in test builds only, for tests that must show they drove a
/// shape. Empty (and free) in every other build.
#[derive(Debug, Default)]
pub(crate) struct Shapes {
    /// One entry per `absorb_passes` call that absorbed anything: the
    /// bucket's time, the first absorbed machine, and how many.
    #[cfg(test)]
    pub(crate) absorbed: Vec<(SimTime, MachineId, usize)>,
    /// Times of buckets that held a vendor event (tick, fix, delivery,
    /// retry) and absorbed passes too.
    #[cfg(test)]
    pub(crate) mixed: Vec<SimTime>,
}

impl Shapes {
    #[inline]
    fn absorbed(&mut self, _time: SimTime, _first: MachineId, _count: usize) {
        #[cfg(test)]
        self.absorbed.push((_time, _first, _count));
    }

    #[inline]
    fn walked(&mut self, _time: SimTime, _bucket: &[Event]) {
        #[cfg(test)]
        if self.absorbed.last().is_some_and(|a| a.0 == _time)
            && _bucket.iter().any(|e| !matches!(e, Event::TestDone { .. }))
        {
            self.mixed.push(_time);
        }
    }
}

/// The driver's schedule: the arena's calendar queue, plus how many
/// events of the bucket in hand the vendor side has not been handed
/// yet. Together they are what a queue popped one event at a time would
/// still hold, so the `sim.queue_depth` gauge reads the same.
#[derive(Debug)]
struct Calendar<'a> {
    queue: &'a mut EventQueue,
    in_hand: usize,
}

impl Schedule for Calendar<'_> {
    fn test(&mut self, time: SimTime, machine: MachineId, release: u32) {
        self.queue
            .schedule(time, Event::TestDone { machine, release });
    }

    fn vendor(&mut self, time: SimTime, event: Event) {
        self.queue.schedule(time, event);
    }

    fn pending(&self) -> usize {
        self.queue.len() + self.in_hand
    }
}

/// The driver: pops whole buckets until the queue drains, walking each
/// in order.
fn drive(
    arena: &mut SimArena,
    scenario: &Scenario,
    telemetry: Telemetry,
    protocol: &mut dyn Protocol,
) -> SimMetrics {
    arena.queue.reset();
    arena.shapes = Shapes::default();
    let mut bucket = std::mem::take(&mut arena.bucket);
    let mut run = std::mem::take(&mut arena.run);
    let lent = std::mem::take(&mut arena.lent);
    let calendar = Calendar {
        queue: &mut arena.queue,
        in_hand: 0,
    };
    let mut vendor = VendorSide::new(scenario, calendar, telemetry, lent);
    // Per-machine fault RNG lanes for machine→vendor transmissions, as
    // the oracle draws them: a machine's report fault schedule depends
    // only on its own event order. Empty unless the scenario has a
    // fault plan.
    let lanes = if vendor.faults_active {
        scenario.machine_count()
    } else {
        0
    };
    let mut rng_up = RngLanes::new(scenario.faults.seed, lanes);
    let _span = vendor.telemetry.span("sim.run");
    vendor.start(protocol);
    while let Some(time) = vendor.sched.queue.pop_bucket(&mut bucket) {
        vendor.advance(time);
        for (i, &event) in bucket.iter().enumerate() {
            let test = match event {
                Event::TestDone { machine, release } => {
                    let outcome =
                        test_outcome(scenario, &vendor.fixed_by_release, machine, release);
                    if outcome == (true, false)
                        && !vendor.faults_active
                        && release != PRIOR_RELEASE.0
                    {
                        run.push((machine, Release(release)));
                        if run.len() == RUN_CAP {
                            let left = bucket.len() - i - 1;
                            absorb(&mut vendor, protocol, &mut run, left, &mut arena.shapes);
                        }
                        continue;
                    }
                    Some((machine, release, outcome))
                }
                _ => None,
            };
            let left = bucket.len() - i;
            absorb(&mut vendor, protocol, &mut run, left, &mut arena.shapes);
            vendor.sched.in_hand = left - 1;
            match test {
                Some((machine, release, outcome)) => {
                    let uplink = vendor.faults_active.then(|| {
                        rng_up.draw(machine.index(), |rng| {
                            Transmission::draw(rng, &scenario.faults)
                        })
                    });
                    vendor.test_done(protocol, machine, release, outcome, uplink);
                }
                None => vendor.vendor_event(protocol, event),
            }
        }
        absorb(&mut vendor, protocol, &mut run, 0, &mut arena.shapes);
        arena.shapes.walked(time, &bucket);
    }
    let metrics = vendor.finish(protocol);
    arena.lent = std::mem::take(&mut vendor.lent);
    arena.bucket = bucket;
    arena.run = run;
    metrics
}

/// Hands `run` — consecutive sound upgrade passes on the reliable
/// channel, in bucket order — to the protocol and empties it: the
/// prefix [`Protocol::absorb_passes`] takes is recorded in one go, the
/// pass it stops at takes the per-event path, and the rest goes back to
/// `absorb_passes`. `left` counts the bucket's events after the run.
fn absorb(
    vendor: &mut VendorSide<'_, Calendar<'_>>,
    protocol: &mut dyn Protocol,
    run: &mut Vec<(MachineId, Release)>,
    left: usize,
    shapes: &mut Shapes,
) {
    let mut off = 0;
    while off < run.len() {
        let absorbed = protocol.absorb_passes(&run[off..]);
        if absorbed > 0 {
            shapes.absorbed(vendor.now, run[off].0, absorbed);
            vendor.absorbed_passes(&run[off..off + absorbed]);
            off += absorbed;
        }
        if let Some(&(machine, release)) = run.get(off) {
            off += 1;
            vendor.sched.in_hand = left + run.len() - off;
            vendor.test_done(protocol, machine, release.0, (true, false), None);
        }
    }
    run.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::ProtocolChoice;

    /// Pass time of the named machine of `s`, if it passed.
    pub(super) fn pass_time(m: &SimMetrics, s: &Scenario, machine: &str) -> Option<SimTime> {
        m.pass_time(s.plan.machine_id(machine)?)
    }

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
        let mut p = ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        assert!(p.done());
        // All 3 machines of the problem cluster tested the faulty
        // release: overhead = population of the problem.
        assert_eq!(m.failed_tests, 3);
        assert_eq!(m.releases_shipped, 1);
        assert_eq!(m.passed_count(), 12);
        // Healthy machines pass at download+test = 15.
        assert_eq!(pass_time(&m, &s, "c00-m00000"), Some(15));
        // Problem machines: fail at 15, fix done at 515, retest at 530.
        assert_eq!(pass_time(&m, &s, "c02-m00000"), Some(530));
        assert_eq!(m.completion_time, Some(530));
    }

    #[test]
    fn balanced_overhead_is_one_per_problem() {
        let s = small_scenario();
        let mut p = ProtocolChoice::Balanced.build(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        assert!(p.done());
        // Only the problem cluster's representative failed.
        assert_eq!(m.failed_tests, 1);
        assert_eq!(m.problems_discovered, [s.problems.id("p").unwrap()]);
        // Clusters 0,1 complete before the problem cluster stalls:
        // c0: rep 15, nonreps 30. c1: 45/60. c2 rep fails at 75;
        // fix at 575; rep passes 590; nonreps 605. c3: 620/635.
        assert_eq!(pass_time(&m, &s, "c00-m00001"), Some(30));
        assert_eq!(pass_time(&m, &s, "c01-m00001"), Some(60));
        assert_eq!(pass_time(&m, &s, "c02-m00000"), Some(590));
        assert_eq!(pass_time(&m, &s, "c02-m00001"), Some(605));
        assert_eq!(m.completion_time, Some(635));
    }

    #[test]
    fn frontloading_front_loads_debugging() {
        let s = small_scenario();
        let mut p = ProtocolChoice::FrontLoading.build(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut p);
        assert!(p.done());
        // Phase 1: all 4 reps test at 15; c2's rep fails; fix at 515;
        // re-test passes at 530. Phase 2 (desc distance: c3, c2, c1, c0):
        // c3 non-reps 545, c2 560, c1 575, c0 590.
        assert_eq!(m.failed_tests, 1);
        assert_eq!(pass_time(&m, &s, "c03-m00001"), Some(545));
        assert_eq!(pass_time(&m, &s, "c02-m00001"), Some(560));
        assert_eq!(pass_time(&m, &s, "c00-m00001"), Some(590));
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

        let s = small_scenario();
        for choice in [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
        ] {
            let name = choice.name();
            let make = || choice.build(s.plan.clone(), 1.0);
            let plain = Simulation::new(&s).run(&mut make());
            let registry = Arc::new(Registry::new(4096));
            let instrumented = Simulation::new(&s)
                .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
                .run(&mut make());
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
            .run(&mut ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0));
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
        let mut p = ProtocolChoice::Balanced.build(s.plan.clone(), 1.0);
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
        let mut p = ProtocolChoice::Balanced.build(s.plan.clone(), 1.0);
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
        let mut p = ProtocolChoice::Balanced.build(s.plan.clone(), s.threshold);
        let m = Simulation::new(&s).run(&mut p);
        // Cluster 1 proceeds at 30 without waiting for the fix: rep 45,
        // non-reps 60. The misplaced machine still completes at 545.
        assert_eq!(pass_time(&m, &s, "c01-m00003"), Some(60));
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
        let mut p = ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0);
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
    use mirage_deploy::ProtocolChoice;

    /// The paper-scale scenario must simulate quickly (it backs Fig 10).
    #[test]
    fn paper_scale_scenario_runs() {
        let s = ScenarioBuilder::new()
            .clusters(20, 5_000, 1)
            .problem_in_clusters("prevalent", &[14, 15, 16])
            .problem_in_clusters("rare-a", &[17])
            .problem_in_clusters("rare-b", &[18])
            .build();
        let mut nostaging = ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut nostaging);
        assert_eq!(m.failed_tests, 25_000);
        assert_eq!(m.passed_count(), 100_000);

        let mut balanced = ProtocolChoice::Balanced.build(s.plan.clone(), 1.0);
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

        let mut balanced = ProtocolChoice::Balanced.build(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut balanced);
        // Overhead is p: one representative per *problem* (Table 4) —
        // later prevalent-problem clusters receive the fixed release.
        assert_eq!(m.failed_tests, 3);
        assert_eq!(m.passed_count(), 1_000_000);
        assert!(m.completion_time.is_some());

        let mut nostaging = ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0);
        let m = Simulation::new(&s).run(&mut nostaging);
        // Overhead is the full population of every fault.
        assert_eq!(m.failed_tests, 50_000);
        assert_eq!(m.passed_count(), 1_000_000);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::tests::pass_time;
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::ProtocolChoice;

    #[test]
    fn offline_machines_are_late_arrivals() {
        // One machine of cluster 0 is offline until t=200; with
        // threshold 0.75 the deployment proceeds without it.
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .offline_machines(0, 1, 200)
            .threshold(0.75)
            .build();
        let m = Simulation::new(&s)
            .run(&mut ProtocolChoice::Balanced.build(s.plan.clone(), s.threshold));
        // Everyone, including the late arrival, eventually passes.
        assert_eq!(m.passed_count(), 8);
        let offline = s.offline_until.iter().position(|&t| t > 0).unwrap();
        assert_eq!(
            m.pass_time(MachineId(offline as u32)),
            Some(215),
            "online at 200 + cycle 15"
        );
        // The second cluster did not wait for it: its rep passed at 45.
        assert_eq!(pass_time(&m, &s, "c01-m00000"), Some(45));
    }

    #[test]
    fn offline_machine_blocks_full_threshold() {
        // With threshold 1.0 the first cluster cannot complete until the
        // late arrival reports, delaying the second cluster.
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .offline_machines(0, 1, 200)
            .build();
        let m = Simulation::new(&s).run(&mut ProtocolChoice::Balanced.build(s.plan.clone(), 1.0));
        assert!(pass_time(&m, &s, "c01-m00000").unwrap() > 200);
    }

    #[test]
    fn missed_detection_lets_problems_escape() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .problem_in_clusters("p", &[1])
            .missed_detections(1, 2)
            .build();
        let m = Simulation::new(&s).run(&mut ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0));
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
        let m = Simulation::new(&s).run(&mut ProtocolChoice::NoStaging.build(s.plan.clone(), 1.0));
        assert_eq!(m.escaped_problems, 0);
    }
}
