//! Release-mode scale gates for the sharded parallel driver.
//!
//! Both tests are `#[ignore]`d: they run 100k–10M-machine fleets and
//! belong to the release-mode CI jobs (the smoke by name in the
//! release-smokes job, the 10M gate in the scale job's `--ignored`
//! sweep), not the debug tier-1 run.

use std::time::Instant;

use mirage_deploy::ProtocolChoice;
use mirage_sim::{ScenarioBuilder, SimArena, Simulation};

/// The paper's Figure-10 shape at 100k machines: 20 clusters × 5000,
/// problems placed late in the staging order.
fn scenario_100k() -> mirage_sim::Scenario {
    ScenarioBuilder::new()
        .clusters(20, 5_000, 1)
        .problem_in_clusters("prevalent", &[15, 16, 17])
        .problem_in_clusters("rare-a", &[18])
        .problem_in_clusters("rare-b", &[19])
        .build()
}

/// Release-smoke gate: the parallel driver at 4 workers is bit-identical
/// to the sequential oracle on the full 100k Figure-10 scenario, for
/// every protocol.
#[test]
#[ignore = "release-mode smoke; run explicitly in the release-smokes CI job"]
fn parallel_smoke_100k_4_workers() {
    let s = scenario_100k();
    let mut arena = SimArena::new();
    for choice in [
        ProtocolChoice::NoStaging,
        ProtocolChoice::Balanced,
        ProtocolChoice::FrontLoading,
    ] {
        let mut oracle = choice.build(s.plan.clone(), s.threshold);
        let expect = Simulation::new(&s).run(&mut oracle);
        let mut p = choice.build(s.plan.clone(), s.threshold);
        let got = Simulation::new(&s).workers(4).arena(&mut arena).run(&mut p);
        assert_eq!(expect, got, "{} diverged at 100k/4 workers", choice.name());
        assert_eq!(expect.passed_count(), s.machine_count());
    }
}

/// Scale gate (acceptance): a 10M-machine Balanced deployment completes
/// through the parallel driver in under 10 seconds of run time
/// (scenario construction excluded).
#[test]
#[ignore = "10M-machine scale gate; release mode only (CI scale job)"]
fn parallel_ten_million_machines_under_ten_seconds() {
    let s = ScenarioBuilder::new()
        .clusters(1_000, 10_000, 1)
        .problem_in_clusters("prevalent", &[750, 800, 850])
        .problem_in_clusters("rare-a", &[900])
        .problem_in_clusters("rare-b", &[950])
        .build();
    assert_eq!(s.machine_count(), 10_000_000);
    let mut protocol = ProtocolChoice::Balanced.build(s.plan.clone(), s.threshold);
    let mut arena = SimArena::new();
    let started = Instant::now();
    let metrics = Simulation::new(&s)
        .workers(8)
        .arena(&mut arena)
        .run(&mut protocol);
    let elapsed = started.elapsed();
    assert_eq!(metrics.passed_count(), 10_000_000);
    assert!(metrics.completion_time.is_some());
    // 3 distinct problems -> 3 fix releases.
    assert_eq!(metrics.releases_shipped, 3);
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "10M-machine Balanced run took {:.2} s (budget 10 s)",
        elapsed.as_secs_f64()
    );
}
