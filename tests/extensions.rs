//! Integration tests for the beyond-the-evaluation features: private
//! clustering (§3.5), incremental reclustering (§3.2.3 future work),
//! urgency-driven protocol selection (§3.2.2), per-machine rule
//! templates (§4.1), and the simulator's late-arrival / imperfect-
//! testing knobs.

use std::collections::BTreeMap;

use mirage::cluster::privacy::{is_my_turn, machine_token, PrivateClustering};
use mirage::cluster::{recluster_one, ClusteringScore, MachineInfo};
use mirage::scenarios::mysql::MySqlScenario;

/// Private clustering over the MySQL fleet reproduces the phase-1
/// structure from opaque tokens, and the advertised-token protocol lets
/// exactly the right machines respond.
#[test]
fn private_clustering_on_the_mysql_fleet() {
    let scenario = MySqlScenario::with_full_parsers();
    let inputs = scenario.fleet_inputs();

    // Machines report only tokens.
    let private = PrivateClustering::from_tokens(inputs.iter().map(|i| machine_token(&i.diff)));
    assert_eq!(private.machine_count(), 21);
    // Tokens group machines with identical parsed diffs — the plain
    // phase-1 structure. (The full clustering further splits by
    // overlapping applications, which private mode cannot see; the
    // MySQL fleet's parsed diffs alone give at least 10 groups.)
    assert!(private.len() >= 10, "got {} token groups", private.len());

    // Walking the advertised schedule reaches every machine exactly once.
    let mut reached = 0usize;
    for token in private.schedule() {
        let responders: Vec<&str> = inputs
            .iter()
            .filter(|i| is_my_turn(&i.diff, token))
            .map(|i| i.id())
            .collect();
        assert!(!responders.is_empty());
        reached += responders.len();
    }
    assert_eq!(reached, 21);
}

/// An admin edits `my.cnf` on one machine: incremental reclustering
/// moves exactly that machine and keeps the partition sound.
#[test]
fn incremental_recluster_after_config_edit() {
    let scenario = MySqlScenario::with_full_parsers();
    let inputs = scenario.fleet_inputs();
    let clustering = scenario.vendor.cluster(&inputs);
    let by_id: BTreeMap<String, MachineInfo> = inputs
        .iter()
        .map(|i| (i.id().to_string(), i.clone()))
        .collect();

    // ubt-ms4(2) suddenly matches the withconfig group: simulate by
    // giving it that group's diff.
    let withconfig = by_id["ubt-ms4/withconfig"].clone();
    let mut updated = withconfig.clone();
    updated.diff.machine = "ubt-ms4(2)".to_string();
    let next = recluster_one(
        &clustering,
        &by_id,
        updated.clone(),
        scenario.vendor.diameter,
    );
    next.validate_partition().unwrap();
    // It left its twin and joined the withconfig cluster.
    assert!(!next.cluster_of("ubt-ms4").unwrap().contains("ubt-ms4(2)"));
    assert!(next
        .cluster_of("ubt-ms4/withconfig")
        .unwrap()
        .contains("ubt-ms4(2)"));

    // Soundness against ground truth is preserved (the machine is still
    // healthy; it just changed environment groups).
    let mut machines = by_id.clone();
    machines.insert("ubt-ms4(2)".into(), updated);
    let score = ClusteringScore::compute(&next, &scenario.behavior);
    assert_eq!(score.misplaced, 0);
}

/// Rule templates expand per machine: the `.my.cnf` include lands in
/// each user's home.
#[test]
fn rule_templates_expand_per_machine() {
    use mirage::heuristic::{expand_templates, RuleTemplate};
    let templates = vec![RuleTemplate::include("$HOME/.my.cnf")];
    let root_env: BTreeMap<String, String> = [("HOME".to_string(), "/root".to_string())].into();
    let user_env: BTreeMap<String, String> = [("HOME".to_string(), "/home/dba".to_string())].into();
    let root_rules = expand_templates(&templates, &root_env);
    let user_rules = expand_templates(&templates, &user_env);
    assert!(root_rules.includes("/root/.my.cnf"));
    assert!(!root_rules.includes("/home/dba/.my.cnf"));
    assert!(user_rules.includes("/home/dba/.my.cnf"));
}

/// The simulator's extension knobs interact sanely with staging: an
/// escaped problem never drives a fix, and late arrivals still converge.
#[test]
fn simulator_extension_knobs() {
    use mirage::deploy::ProtocolChoice;
    use mirage::sim::{ScenarioBuilder, Simulation};
    let scenario = ScenarioBuilder::new()
        .clusters(3, 5, 1)
        .problem_in_clusters("p", &[2])
        .missed_detections(2, 5) // every problem machine escapes
        .offline_machines(0, 2, 1_000)
        .threshold(0.6)
        .build();
    let metrics = Simulation::new(&scenario)
        .run(&mut ProtocolChoice::Balanced.build(scenario.plan.clone(), 0.6));
    // All problems escaped: no failures, no fixes, but the faulty
    // release is now live on 5 machines — the paper's motivation for
    // better testing, quantified.
    assert_eq!(metrics.failed_tests, 0);
    assert_eq!(metrics.releases_shipped, 0);
    assert_eq!(metrics.escaped_problems, 5);
    // Late arrivals eventually integrate.
    assert_eq!(metrics.passed_count(), 15);
    assert!(
        metrics
            .machine_pass_time
            .iter()
            .flatten()
            .any(|&t| t >= 1_000),
        "some machine integrated after coming online"
    );
}
