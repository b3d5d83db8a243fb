//! Randomised tests of the simulator + protocols as a system: random
//! small scenarios must always converge, the paper's overhead
//! relations must hold, and the interned data plane must be
//! bit-identical to the retained string-keyed reference.
//!
//! Scenarios are generated with a seeded xorshift generator, so every
//! run exercises the same cases deterministically and offline.

use std::collections::BTreeSet;
use std::sync::Arc;

use mirage_deploy::reference::{AnyNamedProtocol, NamedProtocol};
use mirage_deploy::{
    AnyProtocol, Balanced, Command, MachineId, NoStaging, ProblemSet, Protocol, ProtocolChoice,
    Release, TestReport, PRIOR_RELEASE,
};
use mirage_report::Urr;
use mirage_rollout::{GuardSettings, RolloutStrategy};
use mirage_sim::runner::reference::{run_reference, NamedScenario};
use mirage_sim::{FaultSpec, Scenario, ScenarioBuilder, SimTime, Simulation};
use mirage_telemetry::{Journal, Registry, Telemetry};

/// Deterministic xorshift64 generator for scenario specs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone)]
struct RandomScenario {
    clusters: usize,
    size: usize,
    problem_clusters: Vec<usize>,
    misplaced_cluster: Option<usize>,
    threshold: f64,
    /// `(cluster, count, until)` offline directive, if any.
    offline: Option<(usize, usize, u64)>,
    /// `(problem cluster, count)` missed-detection directive, if any.
    missed: Option<(usize, usize)>,
}

fn random_scenario(rng: &mut Rng) -> RandomScenario {
    let clusters = 2 + rng.below(4);
    let size = 2 + rng.below(4);
    let mut problem_clusters = BTreeSet::new();
    for _ in 0..rng.below(clusters) {
        problem_clusters.insert(rng.below(clusters));
    }
    let misplaced_cluster = if rng.below(2) == 0 {
        Some(rng.below(clusters))
    } else {
        None
    };
    let threshold = [0.5f64, 0.75, 1.0][rng.below(3)];
    RandomScenario {
        clusters,
        size,
        problem_clusters: problem_clusters.into_iter().collect(),
        misplaced_cluster,
        threshold,
        offline: None,
        missed: None,
    }
}

/// Like [`random_scenario`], but also exercises the offline and
/// missed-detection extension knobs (used by the driver-equivalence
/// test, which makes no behavioural assumptions beyond determinism).
fn random_scenario_ext(rng: &mut Rng) -> RandomScenario {
    let mut spec = random_scenario(rng);
    if rng.below(2) == 0 {
        let cluster = rng.below(spec.clusters);
        let count = 1 + rng.below(2);
        let until = 50 + 50 * rng.below(20) as u64;
        spec.offline = Some((cluster, count, until));
    }
    if rng.below(2) == 0 {
        if let Some(&c) = spec.problem_clusters.first() {
            spec.missed = Some((c, 1 + rng.below(spec.size)));
        }
    }
    spec
}

fn build(spec: &RandomScenario) -> Scenario {
    let mut builder = ScenarioBuilder::new()
        .clusters(spec.clusters, spec.size, 1)
        .threshold(spec.threshold);
    if !spec.problem_clusters.is_empty() {
        builder = builder.problem_in_clusters("p-main", &spec.problem_clusters);
    }
    if let Some(c) = spec.misplaced_cluster {
        // Only inject where a non-representative exists and the cluster
        // is otherwise healthy (that is what "misplaced" means).
        if spec.size > 1 && !spec.problem_clusters.contains(&c) {
            builder = builder.misplaced_machine(c, "p-misplaced");
        }
    }
    if let Some((cluster, count, until)) = spec.offline {
        builder = builder.offline_machines(cluster, count, until);
    }
    if let Some((cluster, count)) = spec.missed {
        builder = builder.missed_detections(cluster, count);
    }
    builder.build()
}

/// The four protocol selections exercised by every property, through
/// the unified dispatch surface (RandomStaging's shuffle is seeded per
/// case so different cases explore different orders deterministically).
fn choices(case: u64) -> [ProtocolChoice; 4] {
    [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
        ProtocolChoice::RandomStaging { seed: case },
    ]
}

fn protocols(scenario: &Scenario, case: u64) -> Vec<(&'static str, AnyProtocol)> {
    choices(case)
        .into_iter()
        .map(|c| (c.name(), c.build(scenario.plan.clone(), scenario.threshold)))
        .collect()
}

/// The string-keyed reference protocols, in the same order as
/// [`protocols`] and with the same RandomStaging order (both sides
/// derive it from the same seeded shuffle).
fn named_protocols(named: &NamedScenario, case: u64) -> Vec<(&'static str, AnyNamedProtocol)> {
    choices(case)
        .into_iter()
        .map(|c| (c.name(), c.build_named(named.plan.clone(), named.threshold)))
        .collect()
}

/// Every protocol converges on every scenario: all machines pass,
/// completion is reported, and pass times are sane.
#[test]
fn all_protocols_converge() {
    let mut rng = Rng::new(0x51);
    for case in 0..64 {
        let spec = random_scenario(&mut rng);
        let scenario = build(&spec);
        let total = scenario.machine_count();
        for (name, mut protocol) in protocols(&scenario, case) {
            let metrics = Simulation::new(&scenario).run(&mut protocol);
            assert_eq!(
                metrics.passed_count(),
                total,
                "case {case}: {name} left machines behind ({spec:?})"
            );
            assert!(
                metrics.completion_time.is_some(),
                "case {case}: {name} never completed ({spec:?})"
            );
            assert!(protocol.done(), "case {case}: {name} not done ({spec:?})");
            let max_pass = metrics.max_pass_time().unwrap_or(0);
            assert!(
                metrics.completion_time.unwrap() >= max_pass,
                "case {case}: {name} completed before its last machine ({spec:?})"
            );
        }
    }
}

/// NoStaging's overhead equals the problem population exactly, and
/// staged protocols never exceed it.
#[test]
fn staging_never_increases_overhead() {
    let mut rng = Rng::new(0x52);
    for case in 0..64 {
        let spec = random_scenario(&mut rng);
        let scenario = build(&spec);
        let m = scenario.problem_machine_count();
        let nostaging = Simulation::new(&scenario).run(&mut NoStaging::new(scenario.plan.clone()));
        assert_eq!(nostaging.failed_tests, m, "case {case} ({spec:?})");
        for (name, mut protocol) in protocols(&scenario, case) {
            let metrics = Simulation::new(&scenario).run(&mut protocol);
            assert!(
                metrics.failed_tests <= m,
                "case {case}: {name} overhead {} exceeds NoStaging {m} ({spec:?})",
                metrics.failed_tests
            );
        }
    }
}

/// The number of releases equals the number of distinct problems
/// present in the fleet (each needs exactly one fix).
#[test]
fn one_release_per_problem() {
    let mut rng = Rng::new(0x53);
    for case in 0..64 {
        let spec = random_scenario(&mut rng);
        let scenario = build(&spec);
        let distinct = scenario.problem_populations().len() as u32;
        for (name, mut protocol) in protocols(&scenario, case) {
            let metrics = Simulation::new(&scenario).run(&mut protocol);
            assert_eq!(
                metrics.releases_shipped, distinct,
                "case {case}: {name} shipped a surprising number of releases ({spec:?})"
            );
        }
    }
}

/// Healthy fleets complete with zero failures and zero releases at
/// the deterministic per-protocol time.
#[test]
fn healthy_fleet_timing() {
    for clusters in 1usize..6 {
        for size in 1usize..6 {
            let scenario = ScenarioBuilder::new().clusters(clusters, size, 1).build();
            let cycle = scenario.timings.machine_cycle();
            let balanced =
                Simulation::new(&scenario).run(&mut Balanced::new(scenario.plan.clone(), 1.0));
            assert_eq!(balanced.failed_tests, 0);
            // Sequential reps+nonreps per cluster (single-member clusters
            // skip the empty non-rep stage).
            let per_cluster = if size == 1 { cycle } else { 2 * cycle };
            assert_eq!(
                balanced.completion_time,
                Some(per_cluster * clusters as u64),
                "clusters {clusters}, size {size}"
            );
            let nostaging =
                Simulation::new(&scenario).run(&mut NoStaging::new(scenario.plan.clone()));
            assert_eq!(nostaging.completion_time, Some(cycle));
        }
    }
}

/// **The equivalence property** (tentpole acceptance): the interned
/// data plane — id-keyed protocols, calendar event queue, flat-indexed
/// driver — produces *bit-identical* [`mirage_sim::SimMetrics`] (pass
/// times, overhead, releases, completion time, problem discovery
/// order, escapes) to the retained string-keyed reference across
/// random scenarios, thresholds, extension knobs, and all four
/// protocols.
#[test]
fn interned_driver_matches_string_reference() {
    let mut rng = Rng::new(0x5E);
    for case in 0..48 {
        let spec = random_scenario_ext(&mut rng);
        let scenario = build(&spec);
        let named = NamedScenario::from_scenario(&scenario);
        let fast = protocols(&scenario, case);
        let slow = named_protocols(&named, case);
        for ((name, mut fast_p), (slow_name, mut slow_p)) in fast.into_iter().zip(slow) {
            assert_eq!(name, slow_name);
            let fast_m = Simulation::new(&scenario).run(&mut fast_p);
            let slow_m = run_reference(&named, &mut slow_p);
            assert_eq!(
                fast_m, slow_m,
                "case {case}: {name} diverged from the string reference ({spec:?})"
            );
            assert_eq!(
                fast_p.done(),
                slow_p.done(),
                "case {case}: {name} done() diverged ({spec:?})"
            );
        }
    }
}

/// **Zero-fault equivalence** (fault-path acceptance): a scenario
/// carrying an explicit [`mirage_sim::FaultPlan::none`] — here attached
/// through the builder's `faults(FaultSpec)` surface with no fault
/// knobs set — produces *bit-identical* [`mirage_sim::SimMetrics`] to
/// the pre-fault string-keyed reference driver, across ≥48 random
/// scenarios and all four protocols. This is what licenses the fault
/// machinery to exist at all: the reliable-channel fast path is
/// untouched, including the new fault counters (all zero).
#[test]
fn fault_plan_none_is_bit_identical() {
    let mut rng = Rng::new(0xFA);
    for case in 0..48u64 {
        let spec = random_scenario_ext(&mut rng);
        let mut builder = ScenarioBuilder::new()
            .clusters(spec.clusters, spec.size, 1)
            .threshold(spec.threshold)
            // A FaultSpec with no fault knobs lowers to FaultPlan::none().
            .faults(FaultSpec::new(case));
        if !spec.problem_clusters.is_empty() {
            builder = builder.problem_in_clusters("p-main", &spec.problem_clusters);
        }
        if let Some((cluster, count, until)) = spec.offline {
            builder = builder.offline_machines(cluster, count, until);
        }
        if let Some((cluster, count)) = spec.missed {
            builder = builder.missed_detections(cluster, count);
        }
        let scenario = builder.build();
        assert!(
            scenario.faults.is_none(),
            "case {case}: a knob-free FaultSpec must lower to the zero-fault plan"
        );
        let named = NamedScenario::from_scenario(&scenario);
        let fast = protocols(&scenario, case);
        let slow = named_protocols(&named, case);
        for ((name, mut fast_p), (slow_name, mut slow_p)) in fast.into_iter().zip(slow) {
            assert_eq!(name, slow_name);
            let fast_m = Simulation::new(&scenario).run(&mut fast_p);
            let slow_m = run_reference(&named, &mut slow_p);
            assert_eq!(
                fast_m, slow_m,
                "case {case}: {name} zero-fault run diverged from the pre-fault reference ({spec:?})"
            );
            assert_eq!(
                (
                    fast_m.msgs_dropped,
                    fast_m.msgs_duplicated,
                    fast_m.retries_sent,
                    fast_m.rep_timeouts
                ),
                (0, 0, 0, 0),
                "case {case}: {name} zero-fault run touched the fault counters ({spec:?})"
            );
        }
    }
}

/// **Journal neutrality** (observatory acceptance): attaching a
/// journal-enabled [`Registry`] to both the driver and the protocol
/// produces *bit-identical* [`mirage_sim::SimMetrics`] to a plain,
/// uninstrumented run, across 48 random scenarios (extension knobs
/// included, heavy faults on half the cases) and all four protocols.
/// The journal is strictly observational: it records the timeline but
/// never feeds back into simulation state.
#[test]
fn journaled_run_is_bit_identical() {
    let mut rng = Rng::new(0x0B);
    for case in 0..48u64 {
        let spec = random_scenario_ext(&mut rng);
        let mut builder = ScenarioBuilder::new()
            .clusters(spec.clusters, spec.size, 1)
            .threshold(spec.threshold);
        if !spec.problem_clusters.is_empty() {
            builder = builder.problem_in_clusters("p-main", &spec.problem_clusters);
        }
        if let Some((cluster, count, until)) = spec.offline {
            builder = builder.offline_machines(cluster, count, until);
        }
        if let Some((cluster, count)) = spec.missed {
            builder = builder.missed_detections(cluster, count);
        }
        // Half the cases run under heavy faults so the fault/retry/
        // waiver journal arms are exercised, not just the happy path.
        if case % 2 == 1 {
            builder = builder.faults(
                FaultSpec::new(0x0B5E ^ case)
                    .loss(0.30)
                    .duplication(0.15)
                    .delay(6)
                    .retry(20, 4)
                    .rep_timeout(600),
            );
        }
        let scenario = builder.build();
        for choice in choices(case) {
            let name = choice.name();
            let mut plain_p = choice.build(scenario.plan.clone(), scenario.threshold);
            let plain = Simulation::new(&scenario).run(&mut plain_p);

            let registry = Arc::new(Registry::with_journal(4096, Journal::with_spill(4096)));
            let telemetry = Telemetry::from_registry(Arc::clone(&registry));
            let mut journaled_p = choice
                .build(scenario.plan.clone(), scenario.threshold)
                .with_telemetry(telemetry.clone());
            let journaled = Simulation::new(&scenario)
                .with_telemetry(telemetry)
                .run(&mut journaled_p);

            assert_eq!(
                plain, journaled,
                "case {case}: {name} metrics diverged under journaling ({spec:?})"
            );
            assert!(
                registry.journal().total() > 0,
                "case {case}: {name} journaled run recorded nothing ({spec:?})"
            );
            assert_eq!(
                registry.journal().dropped(),
                0,
                "case {case}: {name} spill journal dropped events ({spec:?})"
            );
        }
    }
}

/// Builds the parallel-equivalence scenario for `case`: extension
/// knobs from [`random_scenario_ext`], heavy faults (loss, dup, delay,
/// retries, rep timeouts) on odd cases so both the reliable and the
/// faulted replay paths face the full 48-case gauntlet.
fn parallel_case(rng: &mut Rng, case: u64) -> (RandomScenario, Scenario) {
    let spec = random_scenario_ext(rng);
    let mut builder = ScenarioBuilder::new()
        .clusters(spec.clusters, spec.size, 1)
        .threshold(spec.threshold);
    if !spec.problem_clusters.is_empty() {
        builder = builder.problem_in_clusters("p-main", &spec.problem_clusters);
    }
    if let Some((cluster, count, until)) = spec.offline {
        builder = builder.offline_machines(cluster, count, until);
    }
    if let Some((cluster, count)) = spec.missed {
        builder = builder.missed_detections(cluster, count);
    }
    if case % 2 == 1 {
        builder = builder.faults(
            FaultSpec::new(0x0B5E ^ case)
                .loss(0.30)
                .duplication(0.15)
                .delay(6)
                .retry(20, 4)
                .rep_timeout(600),
        );
    }
    (spec, builder.build())
}

/// **Parallel equivalence** (tentpole acceptance): the sharded
/// time-bucket driver produces *bit-identical* [`mirage_sim::SimMetrics`]
/// to the sequential oracle at 1, 2, 4, and 8 workers, across 48 random
/// scenarios (extension knobs included, heavy faults on odd cases) and
/// all four protocols — the fault schedule, retry cascade, and waiver
/// timing must reproduce exactly at every shard count.
#[test]
fn parallel_driver_matches_sequential_oracle() {
    let mut rng = Rng::new(0x5EB);
    for case in 0..48u64 {
        let (spec, scenario) = parallel_case(&mut rng, case);
        for choice in choices(case) {
            let name = choice.name();
            let mut oracle = choice.build(scenario.plan.clone(), scenario.threshold);
            let expect = Simulation::new(&scenario).run(&mut oracle);
            for workers in [1usize, 2, 4, 8] {
                let mut protocol = choice.build(scenario.plan.clone(), scenario.threshold);
                let got = Simulation::new(&scenario)
                    .workers(workers)
                    .run(&mut protocol);
                assert_eq!(
                    expect, got,
                    "case {case}: {name} diverged at {workers} workers ({spec:?})"
                );
                assert!(
                    protocol.done(),
                    "case {case}: {name} not done at {workers} workers ({spec:?})"
                );
            }
        }
    }
}

/// **Journaled parallel equivalence**: with a journal-enabled registry
/// attached to driver *and* protocol, the parallel driver's journal
/// stream — entry for entry, `(time, seq, payload)` — and metrics match
/// the sequential oracle's at 1, 2, 4, and 8 workers across the same
/// 48-case gauntlet. The merge rule replays cross-shard events in
/// exactly the sequential order, so even the raw (unsorted) stream is
/// identical.
#[test]
fn journaled_parallel_run_matches_sequential() {
    let mut rng = Rng::new(0x0B7);
    for case in 0..48u64 {
        let (spec, scenario) = parallel_case(&mut rng, case);
        for choice in choices(case) {
            let name = choice.name();
            let seq_reg = Arc::new(Registry::with_journal(4096, Journal::with_spill(4096)));
            let seq_tel = Telemetry::from_registry(Arc::clone(&seq_reg));
            let mut seq_p = choice
                .build(scenario.plan.clone(), scenario.threshold)
                .with_telemetry(seq_tel.clone());
            let seq_m = Simulation::new(&scenario)
                .with_telemetry(seq_tel)
                .run(&mut seq_p);
            let seq_entries = seq_reg.journal().entries();
            assert!(!seq_entries.is_empty(), "case {case}: {name} journal empty");
            for workers in [1usize, 2, 4, 8] {
                let par_reg = Arc::new(Registry::with_journal(4096, Journal::with_spill(4096)));
                let par_tel = Telemetry::from_registry(Arc::clone(&par_reg));
                let mut par_p = choice
                    .build(scenario.plan.clone(), scenario.threshold)
                    .with_telemetry(par_tel.clone());
                let par_m = Simulation::new(&scenario)
                    .with_telemetry(par_tel)
                    .workers(workers)
                    .run(&mut par_p);
                assert_eq!(
                    seq_m, par_m,
                    "case {case}: {name} journaled metrics diverged at {workers} workers ({spec:?})"
                );
                assert_eq!(
                    seq_entries,
                    par_reg.journal().entries(),
                    "case {case}: {name} journal stream diverged at {workers} workers ({spec:?})"
                );
            }
        }
    }
}

/// **Repository equivalence**: the two drivers leave the same Upgrade
/// Report Repository behind. Each run deposits into a fresh `Urr`; at
/// 2, 4 and 8 workers the sharded driver's repository answers
/// `stats()`, `snapshot()` (every frozen query surface) and
/// `next_seq()` exactly as the sequential driver's does, on the
/// reliable channel (even cases: batched pass absorption deposits too)
/// and under heavy faults (odd cases: duplicated deliveries deposit
/// twice, lost ones never).
#[test]
fn parallel_driver_fills_the_same_repository() {
    let mut rng = Rng::new(0x0DD);
    for case in 0..24u64 {
        let (spec, mut scenario) = parallel_case(&mut rng, case);
        for choice in choices(case) {
            let name = choice.name();
            let mut deposit = |workers: usize| {
                let urr = Arc::new(Urr::new());
                scenario.urr = Some(Arc::clone(&urr));
                let mut protocol = choice.build(scenario.plan.clone(), scenario.threshold);
                let metrics = Simulation::new(&scenario)
                    .workers(workers)
                    .run(&mut protocol);
                (metrics, urr)
            };
            let (seq_m, seq_urr) = deposit(1);
            assert!(seq_urr.stats().total > 0, "case {case}: {name} deposited");
            for workers in [2usize, 4, 8] {
                let (par_m, par_urr) = deposit(workers);
                let at = format!("case {case}: {name} at {workers} workers ({spec:?})");
                assert_eq!(seq_m, par_m, "{at}: metrics");
                assert_eq!(seq_urr.stats(), par_urr.stats(), "{at}: stats");
                assert_eq!(seq_urr.snapshot(), par_urr.snapshot(), "{at}: snapshot");
                assert_eq!(seq_urr.next_seq(), par_urr.next_seq(), "{at}: next_seq");
            }
        }
    }
}

/// A guard that small fleets can trip: two reports make a cluster's
/// failure rate count, two bad verdicts in a row roll back.
const GUARD: GuardSettings = GuardSettings {
    max_cluster_failure_rate: 0.3,
    max_failure_population: usize::MAX,
    min_reports: 2,
    unhealthy_ticks: 2,
    healthy_ticks: 1,
};

/// **Adoption equivalence**: a repository that adopts the plan's machine
/// table whole (a fresh `Urr`: [`Urr::intern_fleet`] keeps the table
/// and hashes no name) is filled exactly like one that interns the
/// fleet name by name. The second repository is pushed onto the
/// per-name path by one machine interned before the run that no plan
/// lists, which also shifts every ref of its fleet by one. Converging
/// (even) and faulty (odd) cases run all four protocols on both
/// drivers; every third case is instead a fleet-wide regression under a
/// guarded rolling rollout, which the guard rolls back, so the
/// `PRIOR_RELEASE` revert confirmations are deposited too. `stats()`,
/// `snapshot()`, `all()` and `next_seq()` must agree.
#[test]
fn adopted_fleet_fills_the_same_repository() {
    fn assert_same_repository(adopted: &Urr, per_name: &Urr, at: &str) {
        assert!(adopted.stats().total > 0, "{at}: deposited");
        assert_eq!(adopted.stats(), per_name.stats(), "{at}: stats");
        assert_eq!(adopted.snapshot(), per_name.snapshot(), "{at}: snapshot");
        assert_eq!(adopted.all(), per_name.all(), "{at}: all");
        assert_eq!(adopted.next_seq(), per_name.next_seq(), "{at}: next_seq");
    }
    /// A fresh repository, or one that already knows a machine outside
    /// every fleet.
    fn repository(per_name: bool) -> Arc<Urr> {
        let urr = Arc::new(Urr::new());
        if per_name {
            urr.intern_machine("not-in-the-fleet");
        }
        urr
    }
    let mut rng = Rng::new(0xAD0);
    let mut rolled_back = 0;
    for case in 0..24u64 {
        let (spec, mut scenario) = parallel_case(&mut rng, case);
        if case % 3 == 2 {
            let everywhere: Vec<usize> = (0..spec.clusters).collect();
            let mut builder = ScenarioBuilder::new()
                .clusters(spec.clusters, spec.size, 1)
                .problem_in_clusters("regression", &everywhere)
                .with_strategy(RolloutStrategy::Rolling {
                    batch_size: spec.size,
                })
                .with_guard(GUARD);
            if case % 2 == 1 {
                builder = builder.faults(
                    FaultSpec::new(0xAD0 ^ case)
                        .loss(0.20)
                        .duplication(0.10)
                        .retry(20, 4),
                );
            }
            let fill = |per_name: bool| {
                let urr = repository(per_name);
                let scenario = builder.clone().with_urr(Arc::clone(&urr)).build();
                let mut controller =
                    scenario.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
                Simulation::new(&scenario).run(&mut controller);
                assert!(controller.rollback().is_some(), "case {case}: rolled back");
                urr
            };
            assert_same_repository(&fill(false), &fill(true), &format!("case {case}"));
            rolled_back += 1;
            continue;
        }
        for choice in choices(case) {
            for workers in [1usize, 2, 4] {
                let mut fill = |per_name: bool| {
                    let urr = repository(per_name);
                    scenario.urr = Some(Arc::clone(&urr));
                    let mut protocol = choice.build(scenario.plan.clone(), scenario.threshold);
                    Simulation::new(&scenario)
                        .workers(workers)
                        .run(&mut protocol);
                    urr
                };
                let at = format!(
                    "case {case}: {} at {workers} workers ({spec:?})",
                    choice.name()
                );
                assert_same_repository(&fill(false), &fill(true), &at);
            }
        }
    }
    assert_eq!(rolled_back, 8);
}

/// A Balanced protocol that records how much of the repository is
/// visible each time the vendor ticks it.
struct TickProbe {
    inner: AnyProtocol,
    urr: Arc<Urr>,
    seen: Vec<(SimTime, u64)>,
}

impl Protocol for TickProbe {
    fn name(&self) -> &'static str {
        "TickProbe"
    }
    fn start(&mut self) -> Vec<Command> {
        self.inner.start()
    }
    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        self.inner.on_report(report)
    }
    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        self.inner.absorb_passes(reports)
    }
    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        self.inner.on_release(release, fixed)
    }
    fn on_tick(&mut self, now: SimTime) -> Vec<Command> {
        self.seen.push((now, self.urr.next_seq()));
        self.inner.on_tick(now)
    }
    fn rep_timeouts(&self) -> u64 {
        self.inner.rep_timeouts()
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
}

/// A protocol deciding on a tick must see every report the vendor has
/// received so far, on either driver: both flush the repository sink
/// (4 096-record buffer) before `on_tick`. The sharded driver used to
/// tick without flushing, so a tick-time query there saw an empty
/// repository until the run ended.
#[test]
fn tick_sees_the_same_repository_on_both_drivers() {
    let build = |urr: &Arc<Urr>| {
        ScenarioBuilder::new()
            .clusters(4, 6, 1)
            .problem_in_clusters("p", &[2])
            .faults(
                FaultSpec::new(0x71C)
                    .loss(0.25)
                    .duplication(0.10)
                    .delay(5)
                    .retry(20, 4)
                    .rep_timeout(600),
            )
            .with_urr(Arc::clone(urr))
            .build()
    };
    let probe = |workers: usize| {
        let urr = Arc::new(Urr::new());
        let s = build(&urr);
        let mut p = TickProbe {
            inner: ProtocolChoice::Balanced
                .build(s.plan.clone(), s.threshold)
                .with_rep_timeout(600),
            urr,
            seen: Vec::new(),
        };
        let metrics = Simulation::new(&s).workers(workers).run(&mut p);
        assert!(metrics.converged(s.machine_count()));
        p.seen
    };
    let expect = probe(1);
    assert!(
        expect.windows(2).filter(|w| w[0].1 < w[1].1).count() > 1,
        "reports became visible tick by tick: {expect:?}"
    );
    for workers in [2usize, 4, 8] {
        assert_eq!(expect, probe(workers), "at {workers} workers");
    }
}

/// **Guarded-rollout equivalence**: a rollout controller with a URR
/// guard — decision ticks, guard queries against the repository the run
/// fills, and, when the guard trips, a `PRIOR_RELEASE` revert wave —
/// runs on the sharded driver exactly as on the sequential one. 32
/// cases over random fleet shapes (late arrivals and missed detections
/// included): the four strategies × a good and a fleet-wide-bad release
/// × a reliable and a lossy (loss, duplication, delay, retries) channel,
/// twice. At 2, 4 and 8 workers [`mirage_sim::SimMetrics`], the
/// `RolloutOutcome`, the raw journal stream, the counter sums and the
/// repository (`stats`, `snapshot`, `next_seq`) equal the one-worker
/// run's, and `sim.workers` reads the shard count that ran.
#[test]
fn guarded_rollout_matches_sequential_at_any_worker_count() {
    let mut rng = Rng::new(0x6A2D);
    let mut rolled_back = 0;
    for case in 0..32u64 {
        let spec = random_scenario_ext(&mut rng);
        let strategy = match case % 4 {
            0 => RolloutStrategy::Staged { waves: 2 },
            1 => RolloutStrategy::Canary {
                percentage: 25.0,
                bake_time: 30,
            },
            2 => RolloutStrategy::Rolling {
                batch_size: spec.size,
            },
            _ => RolloutStrategy::BlueGreen,
        };
        let (bad, lossy) = (case / 4 % 2 == 1, case / 8 % 2 == 1);
        let choice = choices(case)[(case / 8) as usize];
        let mut builder = ScenarioBuilder::new()
            .clusters(spec.clusters, spec.size, 1)
            .threshold(spec.threshold)
            .with_strategy(strategy)
            .with_guard(GUARD);
        if let Some((cluster, count, until)) = spec.offline {
            builder = builder.offline_machines(cluster, count, until);
        }
        if bad {
            let everywhere: Vec<usize> = (0..spec.clusters).collect();
            builder = builder.problem_in_clusters("regression", &everywhere);
            if let Some((cluster, count)) = spec.missed {
                builder = builder.missed_detections(cluster, count);
            }
        }
        if lossy {
            builder = builder.faults(
                FaultSpec::new(0x6A2D ^ case)
                    .loss(0.20)
                    .duplication(0.10)
                    .delay(6)
                    .retry(20, 4),
            );
        }
        let run = |workers: usize| {
            let urr = Arc::new(Urr::new());
            let scenario = builder.clone().with_urr(Arc::clone(&urr)).build();
            let registry = Arc::new(Registry::with_journal(4096, Journal::with_spill(4096)));
            let telemetry = Telemetry::from_registry(Arc::clone(&registry));
            let mut controller = scenario.rollout_controller(choice, telemetry.clone());
            let metrics = Simulation::new(&scenario)
                .with_telemetry(telemetry)
                .workers(workers)
                .run(&mut controller);
            let snapshot = registry.snapshot();
            assert_eq!(
                snapshot.gauges["sim.workers"].value,
                workers.min(scenario.machine_count()) as i64,
                "case {case}: sim.workers names the driver that ran"
            );
            (
                (metrics, controller.outcome()),
                (registry.journal().entries(), snapshot.counters),
                (urr.stats(), urr.snapshot(), urr.next_seq()),
            )
        };
        let (expect_run, expect_telemetry, expect_urr) = run(1);
        assert!(!expect_telemetry.0.is_empty(), "case {case}: journaled");
        rolled_back += usize::from(expect_run.1.rollback.is_some());
        for workers in [2usize, 4, 8] {
            let at = format!(
                "case {case}: {} at {workers} workers ({spec:?})",
                strategy.name()
            );
            let (got_run, got_telemetry, got_urr) = run(workers);
            assert_eq!(expect_run, got_run, "{at}: metrics and outcome");
            assert_eq!(expect_telemetry, got_telemetry, "{at}: journal, counters");
            assert_eq!(expect_urr, got_urr, "{at}: repository");
        }
    }
    // The other two bad releases are staged rollouts on the lossy
    // channel, which converge through the vendor's fix first.
    assert_eq!(rolled_back, 14, "bad releases the guard rolled back");
}

/// Notifies the whole fleet and, on the first report, tells everyone to
/// revert: a `PRIOR_RELEASE` wave from a protocol with no decision
/// clock and no guard.
struct RevertProbe {
    fleet: Vec<MachineId>,
    reverting: bool,
    reverted: usize,
}

impl Protocol for RevertProbe {
    fn name(&self) -> &'static str {
        "RevertProbe"
    }
    fn start(&mut self) -> Vec<Command> {
        vec![Command::Notify {
            machines: self.fleet.clone(),
            release: Release(0),
        }]
    }
    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        if !self.reverting {
            self.reverting = true;
            return vec![Command::Notify {
                machines: self.fleet.clone(),
                release: PRIOR_RELEASE,
            }];
        }
        if report.release == PRIOR_RELEASE {
            self.reverted += 1;
            if self.done() {
                return vec![Command::Complete];
            }
        }
        Vec::new()
    }
    fn on_release(&mut self, _release: Release, _fixed: &ProblemSet) -> Vec<Command> {
        Vec::new()
    }
    fn done(&self) -> bool {
        self.reverted == self.fleet.len()
    }
}

/// A revert is a revert on every replay path. The sentinel is not an
/// index into the release history (the sharded driver's outcome scans
/// used to index with it, and panicked on the first problem-carrying
/// machine that reverted), and a confirmation lands in
/// `machine_revert_time`, not in the pass times — unobserved (the
/// placement pass) and journaled (Phase A and the merge) alike.
#[test]
fn revert_wave_without_a_guard_matches_sequential() {
    let s = ScenarioBuilder::new()
        .clusters(3, 4, 1)
        .problem_in_clusters("p", &[1])
        .build();
    let run = |workers: usize, journaled: bool| {
        let telemetry = if journaled {
            let journal = Journal::with_spill(4096);
            Telemetry::from_registry(Arc::new(Registry::with_journal(4096, journal)))
        } else {
            Telemetry::noop()
        };
        let mut probe = RevertProbe {
            fleet: s.plan.machines.ids().collect(),
            reverting: false,
            reverted: 0,
        };
        let metrics = Simulation::new(&s)
            .with_telemetry(telemetry)
            .workers(workers)
            .run(&mut probe);
        assert!(probe.done(), "every machine confirmed the revert");
        metrics
    };
    for journaled in [false, true] {
        let expect = run(1, journaled);
        let cycle = s.timings.machine_cycle();
        assert_eq!(expect.machine_revert_time, vec![Some(2 * cycle); 12]);
        assert_eq!((expect.reverted_count(), expect.passed_count()), (12, 8));
        assert_eq!(expect.completion_time, Some(2 * cycle));
        for workers in [2usize, 4] {
            assert_eq!(
                expect,
                run(workers, journaled),
                "at {workers} workers, journaled={journaled}"
            );
        }
    }
}

/// **Fault convergence** (hardening acceptance): under 30% message
/// loss, 15% duplication, delivery delay, *and* transient churn, every
/// protocol still converges to 100% of machines passed within the
/// bounded tick budget, thanks to timed re-notification and
/// timeout-based stage advancement.
#[test]
fn protocols_converge_under_heavy_faults() {
    let mut rng = Rng::new(0xF0);
    for case in 0..24u64 {
        let spec = random_scenario(&mut rng);
        let mut builder = ScenarioBuilder::new()
            .clusters(spec.clusters, spec.size, 1)
            .threshold(spec.threshold);
        if !spec.problem_clusters.is_empty() {
            builder = builder.problem_in_clusters("p-main", &spec.problem_clusters);
        }
        let mut faults = FaultSpec::new(0xC0FFEE ^ case)
            .loss(0.30)
            .duplication(0.15)
            .delay(6)
            .retry(20, 4)
            .rep_timeout(600);
        // Transient churn: a trailing non-rep of the last cluster leaves
        // early and rejoins later (clusters of size 1 have no non-reps).
        if spec.size > 1 {
            faults = faults.churn(spec.clusters - 1, 1, 10, 400);
        }
        let scenario = builder.faults(faults).build();
        assert!(!scenario.faults.is_none());
        let total = scenario.machine_count();
        for (name, mut protocol) in protocols(&scenario, case) {
            let metrics = Simulation::new(&scenario).run(&mut protocol);
            assert_eq!(
                metrics.passed_count(),
                total,
                "case {case}: {name} left machines behind under faults ({spec:?})"
            );
            assert!(
                metrics.completion_time.is_some(),
                "case {case}: {name} never completed under faults ({spec:?})"
            );
            assert!(
                protocol.done(),
                "case {case}: {name} not done under faults ({spec:?})"
            );
        }
    }
}
