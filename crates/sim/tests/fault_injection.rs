//! Fault-injection integration tests: churn windows, rep crashes and
//! timeout waivers, and an (ignored) million-machine sweep.
//!
//! These exercise the unreliable-channel path of the runner — the
//! reliable fast path is covered by the zero-fault equivalence
//! property in `proptests.rs`.

use mirage_deploy::{MachineId, Protocol, ProtocolChoice};
use mirage_rollout::RolloutStrategy;
use mirage_sim::{FaultSpec, Scenario, ScenarioBuilder, SimTime, Simulation};
use mirage_telemetry::Telemetry;

/// Cluster id owning a given machine in the scenario's plan.
fn cluster_of(scenario: &Scenario, machine: MachineId) -> usize {
    scenario
        .plan
        .clusters
        .iter()
        .find(|c| c.members.contains(&machine))
        .expect("machine belongs to some cluster")
        .id
}

/// A machine that leaves the network before its stage is reached is
/// notified when it rejoins: the fleet still converges, and the churned
/// cluster's latency is pushed past the rejoin time.
#[test]
fn machine_leaving_before_its_stage_delays_only_its_cluster() {
    let rejoin: SimTime = 100_000;
    let scenario = ScenarioBuilder::new()
        .clusters(4, 8, 1)
        // One non-rep of the last cluster is gone from t=1 until long
        // after the healthy fleet would have finished.
        .faults(FaultSpec::new(11).churn(3, 1, 1, rejoin))
        .build();
    let total = scenario.plan.machine_count();
    let (churned, leave, back) = scenario.faults.churn[0];
    assert_eq!((leave, back), (1, rejoin));
    assert_eq!(cluster_of(&scenario, churned), 3);

    let metrics = Simulation::new(&scenario)
        .run(&mut ProtocolChoice::Balanced.build(scenario.plan.clone(), scenario.threshold));
    assert!(metrics.converged(total), "churned machine passes on rejoin");
    assert!(
        metrics.pass_time(churned).unwrap() >= rejoin,
        "pass {:?} must postdate rejoin {rejoin}",
        metrics.pass_time(churned)
    );

    let latencies = metrics.cluster_latencies(&scenario.plan, 1.0);
    assert!(latencies.iter().all(|l| l.time.is_some()));
    assert!(
        latencies[3].time.unwrap() >= rejoin,
        "churned cluster completes only after the rejoin"
    );
    for healthy in &latencies[..3] {
        assert!(
            healthy.time.unwrap() < rejoin,
            "cluster {} should finish before the churned one rejoins",
            healthy.cluster
        );
    }
    assert!(metrics.completion_time.unwrap() >= rejoin);
}

/// A machine that only joins the network after the plan was made (it
/// is offline from t=0) is picked up by its first deliverable
/// notification; the fleet converges.
#[test]
fn machine_joining_after_planning_is_upgraded_on_arrival() {
    let arrives: SimTime = 7_500;
    let scenario = ScenarioBuilder::new()
        .clusters(3, 6, 1)
        .faults(FaultSpec::new(23).churn(0, 1, 0, arrives))
        .build();
    let total = scenario.plan.machine_count();
    let (late_joiner, ..) = scenario.faults.churn[0];

    let metrics = Simulation::new(&scenario)
        .run(&mut ProtocolChoice::Balanced.build(scenario.plan.clone(), scenario.threshold));
    assert!(metrics.converged(total));
    assert!(
        metrics.pass_time(late_joiner).unwrap() >= arrives,
        "cannot integrate before joining the network"
    );
    // Everyone else is unaffected by the straggler's absence except
    // for stage ordering: at threshold 1.0 the joiner's own cluster
    // gates on it, so its latency lands after the arrival...
    let latencies = metrics.cluster_latencies(&scenario.plan, 1.0);
    assert!(latencies[0].time.unwrap() >= arrives);
    // ...while a sub-1.0 threshold view of the same cluster is already
    // served by the machines that never left.
    let relaxed = metrics.cluster_latencies(&scenario.plan, 0.5);
    assert!(relaxed[0].time.unwrap() < arrives);
}

/// A representative that crashes and never returns is waived by the
/// timeout-based degradation: the protocol still completes, counts the
/// waiver in `rep_timeouts`, and every surviving machine passes.
#[test]
fn crashed_rep_is_waived_and_the_rest_of_the_fleet_converges() {
    let scenario = ScenarioBuilder::new()
        .clusters(3, 10, 1)
        .faults(FaultSpec::new(31).crash_rep(1, 0).rep_timeout(200))
        .build();
    let total = scenario.plan.machine_count();
    let (crashed, _, gone_until) = scenario.faults.churn[0];
    assert_eq!(gone_until, SimTime::MAX, "crash means never rejoining");
    assert!(scenario.plan.clusters[1].members.contains(&crashed));

    let mut protocol = ProtocolChoice::Balanced.build(scenario.plan.clone(), scenario.threshold);
    let metrics = Simulation::new(&scenario).run(&mut protocol);
    assert!(protocol.done(), "waiver unblocks the protocol");
    assert!(metrics.rep_timeouts >= 1, "the crashed rep was waived");
    assert!(!metrics.converged(total), "the crashed rep never passes");
    assert_eq!(metrics.passed_count(), total - 1);
    assert_eq!(metrics.pass_time(crashed), None);
    assert!(
        metrics.completion_time.is_some(),
        "completion despite the permanent crash"
    );
    let latencies = metrics.cluster_latencies(&scenario.plan, 1.0);
    assert_eq!(latencies[1].time, None, "crashed rep holds 1.0 threshold");
    assert!(latencies[0].time.is_some() && latencies[2].time.is_some());
}

/// The stall budget has one source, the scenario's fault plan: a
/// rollout controller built by the scenario waives the crashed rep the
/// same way the bare protocol does, with no second setter to forget —
/// under every strategy, since they all run on the one staging engine.
/// The crashed machine sits in the second cluster, which is the second
/// Rolling batch, the Canary remainder and one of BlueGreen's reps.
#[test]
fn rollout_controller_receives_the_scenarios_stall_budget() {
    for strategy in [
        RolloutStrategy::Staged { waves: 2 },
        RolloutStrategy::Rolling { batch_size: 10 },
        RolloutStrategy::Canary {
            percentage: 10.0,
            bake_time: 50,
        },
        RolloutStrategy::BlueGreen,
    ] {
        let scenario = ScenarioBuilder::new()
            .clusters(3, 10, 1)
            .faults(FaultSpec::new(31).crash_rep(1, 0).rep_timeout(200))
            .with_strategy(strategy)
            .build();
        let total = scenario.plan.machine_count();
        let mut controller =
            scenario.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
        let metrics = Simulation::new(&scenario).run(&mut controller);
        let name = strategy.name();
        assert_eq!(
            metrics.passed_count(),
            total - 1,
            "{name}: everyone but the crashed rep passes"
        );
        assert!(
            metrics.rep_timeouts >= 1,
            "{name}: the crashed rep was waived"
        );
        assert!(metrics.completion_time.is_some(), "{name}: completion");
        assert!(controller.done(), "{name}: the waiver unblocks the rollout");
    }
}

/// Duplicated reports and notifications do not change convergence,
/// only the duplication counter.
#[test]
fn duplication_alone_does_not_change_outcomes() {
    let clean = ScenarioBuilder::new().clusters(4, 12, 2).build();
    let noisy = ScenarioBuilder::new()
        .clusters(4, 12, 2)
        .faults(FaultSpec::new(5).duplication(0.5))
        .build();
    let total = clean.plan.machine_count();

    let base = Simulation::new(&clean)
        .run(&mut ProtocolChoice::Balanced.build(clean.plan.clone(), clean.threshold));
    let dup = Simulation::new(&noisy)
        .run(&mut ProtocolChoice::Balanced.build(noisy.plan.clone(), noisy.threshold));
    assert!(base.converged(total) && dup.converged(total));
    assert_eq!(dup.failed_tests, base.failed_tests);
    assert_eq!(dup.msgs_dropped, 0, "duplication is not loss");
    assert!(dup.msgs_duplicated > 0, "seeded duplication must fire");
}

/// Million-machine fault sweep: 200 clusters x 5000 machines under
/// 20% loss, duplication, delay and rep timeouts. Run with
/// `cargo test --release -p mirage-sim --test fault_injection -- --ignored`.
#[test]
#[ignore = "release-mode scale run"]
fn million_machine_fleet_converges_under_faults() {
    let scenario = ScenarioBuilder::new()
        .clusters(200, 5_000, 2)
        .faults(
            FaultSpec::new(0x00A1_5EED)
                .loss(0.20)
                .duplication(0.10)
                .delay(8)
                .rep_timeout(4_000),
        )
        .build();
    let total = scenario.plan.machine_count();
    assert_eq!(total, 1_000_000);
    for choice in [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
    ] {
        let mut protocol = choice.build(scenario.plan.clone(), scenario.threshold);
        let metrics = Simulation::new(&scenario).run(&mut protocol);
        assert!(
            metrics.converged(total),
            "{}: {}/{total} passed",
            choice.name(),
            metrics.passed_count()
        );
        assert!(metrics.msgs_dropped > 0 && metrics.retries_sent > 0);
    }
}
