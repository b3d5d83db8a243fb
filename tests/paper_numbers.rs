//! One test per paper table/figure: the headline numbers this
//! reproduction commits to (the EXPERIMENTS.md ledger, executable).

use mirage::scenarios::{apps, deployment, firefox, mysql, survey};

#[test]
fn table1_all_rows() {
    let expected = [
        ("firefox", 907, 839, 1, 23, 7),
        ("apache", 400, 251, 133, 0, 2),
        ("php", 215, 206, 0, 0, 0),
        ("mysql", 286, 250, 0, 33, 1),
    ];
    for (model, (name, files, env, fp, fn_, rules)) in apps::all_models().iter().zip(expected) {
        let row = model.table1_row();
        assert_eq!(row.app, name);
        assert_eq!(
            (
                row.files_total,
                row.env_resources,
                row.false_positives,
                row.false_negatives,
                row.vendor_rules
            ),
            (files, env, fp, fn_, rules),
            "Table 1 row {name}"
        );
        assert!(model.with_rules_row().is_perfect(), "{name} with rules");
    }
}

#[test]
fn figure6_and_7() {
    let (clustering, score) = mysql::MySqlScenario::with_full_parsers().cluster_and_score();
    assert_eq!(
        (
            clustering.len(),
            score.unnecessary_clusters,
            score.misplaced
        ),
        (15, 12, 0)
    );

    let (_, score) = mysql::MySqlScenario::with_mirage_parsers(3).cluster_and_score();
    assert_eq!(score.misplaced, 2, "Figure 7: w = 2 at d = 3");
}

#[test]
fn figure8_and_9() {
    let (clustering, score) = firefox::FirefoxScenario::with_full_parsers().cluster_and_score();
    assert_eq!(
        (
            clustering.len(),
            score.unnecessary_clusters,
            score.misplaced
        ),
        (4, 2, 0)
    );

    let (c4, s4) = firefox::FirefoxScenario::with_mirage_parsers(4).cluster_and_score();
    assert_eq!(
        (c4.len(), s4.unnecessary_clusters, s4.misplaced),
        (2, 0, 0),
        "d=4 ideal"
    );

    let (c6, s6) = firefox::FirefoxScenario::with_mirage_parsers(6).cluster_and_score();
    assert_eq!((c6.len(), s6.misplaced), (1, 3), "d=6 imperfect");
}

#[test]
fn survey_headlines() {
    let rows = survey::dataset();
    let s = survey::stats(&rows);
    assert_eq!(s.respondents, 50);
    assert!((s.experienced_fraction - 0.82).abs() < 1e-9);
    assert!((s.monthly_or_more - 0.90).abs() < 1e-9);
    assert!((s.refrain_fraction - 0.70).abs() < 1e-9);
    assert!((s.failure_rate_avg - 8.6).abs() < 1e-9);
    assert!((s.failure_rate_median - 5.0).abs() < 1e-9);
    assert!((s.failure_rate_5_to_10 - 0.66).abs() < 1e-9);
}

/// The §4.3.2 overhead formulas on a scaled-down fleet (the full
/// 100 000-machine run is exercised by the repro harness and benches).
#[test]
fn overhead_formulas_hold() {
    use mirage::deploy::{Balanced, FrontLoading, NoStaging};
    use mirage::sim::{ScenarioBuilder, Simulation};
    let scenario = ScenarioBuilder::new()
        .clusters(20, 100, 1)
        .problem_in_clusters(deployment::PREVALENT, &[15, 16, 17])
        .problem_in_clusters(deployment::RARE_A, &[18])
        .problem_in_clusters(deployment::RARE_B, &[19])
        .build();
    let m = 5 * 100;
    assert_eq!(
        Simulation::new(&scenario)
            .run(&mut NoStaging::new(scenario.plan.clone()))
            .failed_tests,
        m
    );
    assert_eq!(
        Simulation::new(&scenario)
            .run(&mut Balanced::new(scenario.plan.clone(), 1.0))
            .failed_tests,
        3
    );
    assert_eq!(
        Simulation::new(&scenario)
            .run(&mut FrontLoading::new(scenario.plan.clone(), 1.0))
            .failed_tests,
        5
    );
}

/// Figure 10's qualitative shape at reduced scale: NoStaging's immediate
/// 75 %, Balanced-best's early lead, FrontLoading's late-start /
/// early-finish crossover.
#[test]
fn figure10_shape() {
    use mirage::deploy::{Balanced, FrontLoading, NoStaging};
    use mirage::sim::{latency_cdf, ScenarioBuilder, Simulation};
    let scenario = ScenarioBuilder::new()
        .clusters(20, 100, 1)
        .problem_in_clusters(deployment::PREVALENT, &[15, 16, 17])
        .problem_in_clusters(deployment::RARE_A, &[18])
        .problem_in_clusters(deployment::RARE_B, &[19])
        .build();
    let nostaging = Simulation::new(&scenario).run(&mut NoStaging::new(scenario.plan.clone()));
    let balanced = Simulation::new(&scenario).run(&mut Balanced::new(scenario.plan.clone(), 1.0));
    let frontloading =
        Simulation::new(&scenario).run(&mut FrontLoading::new(scenario.plan.clone(), 1.0));

    let ns = latency_cdf(&nostaging.cluster_latencies(&scenario.plan, 1.0));
    assert_eq!(ns[0], (15, 0.75), "75% of clusters pass immediately");

    let b = latency_cdf(&balanced.cluster_latencies(&scenario.plan, 1.0));
    let f = latency_cdf(&frontloading.cluster_latencies(&scenario.plan, 1.0));
    assert!(b[0].0 < f[0].0, "Balanced starts integrating first");
    assert!(
        f.last().unwrap().0 < b.last().unwrap().0,
        "FrontLoading's last cluster finishes first (the crossover)"
    );
}
