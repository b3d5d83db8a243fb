//! Integration tests for the beyond-the-evaluation features: private
//! clustering (§3.5), incremental reclustering (§3.2.3 future work),
//! urgency-driven protocol selection (§3.2.2), per-machine rule
//! templates (§4.1), the simulator's late-arrival / imperfect-testing
//! knobs, hierarchical-suffix truncation (§1) and the SlimServer
//! improper-packaging example (§2.3).

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

/// The vendor rule API (§3.2.3): a rule is an include or exclude glob,
/// and a rule set expanded from templates on a machine is the set the
/// vendor would have written for it by hand.
#[test]
fn vendor_rules_from_templates_equal_rules_written_by_hand() {
    use mirage::heuristic::{expand_templates, Rule, RuleSet, RuleTemplate};
    for (rule, include) in [
        (Rule::include("/var/lib/mysql/**"), true),
        (Rule::exclude("/var/lib/mysql/**"), false),
    ] {
        let (Rule::Include(glob) | Rule::Exclude(glob)) = &rule;
        assert!(glob.matches("/var/lib/mysql/user.frm"));
        assert!(!glob.matches("/var/lib/pgsql/user.frm"));
        assert_eq!(matches!(rule, Rule::Include(_)), include);
    }
    let templates = [
        RuleTemplate::include("$HOME/.my.cnf"),
        RuleTemplate::exclude("$HOME/tmp/**"),
        // `DATADIR` is unset on this machine: the template is skipped.
        RuleTemplate::exclude("$DATADIR/**"),
    ];
    let env: BTreeMap<String, String> = [("HOME".to_string(), "/home/dba".to_string())].into();
    let rules = expand_templates(&templates, &env);
    assert_eq!(
        rules,
        RuleSet::new()
            .include("/home/dba/.my.cnf")
            .exclude("/home/dba/tmp/**")
    );
    assert!(rules.includes("/home/dba/.my.cnf"));
    assert!(!rules.includes("/home/dba/tmp/scratch"));
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
            .any(|t| t >= 1_000),
        "some machine integrated after coming online"
    );
}

/// The vendor's protocol for each urgency (§3.2.2): urgent upgrades
/// bypass staging, major releases front-load, routine ones use Balanced.
#[test]
fn urgency_selects_protocol() {
    use mirage::core::{choice_for_urgency, ProtocolChoice};
    use mirage::env::Urgency;
    assert_eq!(
        choice_for_urgency(Urgency::Urgent),
        ProtocolChoice::NoStaging
    );
    assert_eq!(
        choice_for_urgency(Urgency::Major),
        ProtocolChoice::FrontLoading
    );
    assert_eq!(
        choice_for_urgency(Urgency::Routine),
        ProtocolChoice::Balanced
    );
}

/// A live campaign driven by the upgrade's urgency converges under each
/// of the three protocols it selects.
#[test]
fn drive_auto_converges_for_each_urgency() {
    use mirage::core::{Campaign, RolloutStrategy, UserAgent, Vendor};
    use mirage::env::{
        ApplicationSpec, File, MachineBuilder, Package, Repository, RunInput, Upgrade, Urgency,
        Version, VersionReq,
    };
    let app = |version: u32| {
        Package::new("app", Version::new(version, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            u64::from(version),
        ))
    };
    let spec = || ApplicationSpec::new("app", "app", "/usr/bin/app");
    for urgency in [Urgency::Routine, Urgency::Major, Urgency::Urgent] {
        let mut repo = Repository::new();
        repo.publish(app(1));
        let reference = MachineBuilder::new("ref")
            .install(&repo, "app", VersionReq::Any)
            .app(spec())
            .build();
        let vendor = Vendor::new(reference, repo).with_diameter(0);
        let agents = (0..4)
            .map(|i| {
                let mut agent = UserAgent::new(
                    MachineBuilder::new(format!("u{i}"))
                        .install(&vendor.repo, "app", VersionReq::Any)
                        .app(spec())
                        .build(),
                );
                agent.collect("app", RunInput::new("w"));
                agent
            })
            .collect();
        let fp =
            vendor.reference_fingerprint(&vendor.classify_reference("app", &[RunInput::new("w")]));
        let mut campaign = Campaign::new(vendor, agents);
        let (_, plan) = campaign.rollout_plan("app", &fp, 1, RolloutStrategy::Staged { waves: 1 });
        let upgrade = Upgrade::new(app(2), vec![]).with_urgency(urgency);
        let result = campaign.drive_auto(upgrade, &plan, 1.0);
        assert!(result.converged(4), "urgency {urgency:?}");
    }
}

/// Truncating an item's suffix (§1 "hierarchical suffixes") makes two
/// builds of the same library version indistinguishable.
#[test]
fn truncate_merges_same_version_different_build() {
    use mirage::fingerprint::{ImportanceFilter, Item};
    let f = ImportanceFilter::new().truncate_suffix(["libc", "lib"], 3);
    let x = Item::new(["libc", "lib", "2.4", "aaaa"]);
    let y = Item::new(["libc", "lib", "2.4", "bbbb"]);
    assert_eq!(f.apply_item(&x), f.apply_item(&y));
    assert_eq!(f.apply_item(&x).unwrap().depth(), 3);
}

/// Truncation keeps at least one segment and never lengthens an item.
#[test]
fn truncate_clamps_to_item_depth() {
    use mirage::fingerprint::{ImportanceFilter, Item};
    let f = ImportanceFilter::new().truncate_suffix(["a"], 10);
    let i = Item::new(["a", "b"]);
    assert_eq!(f.apply_item(&i), Some(i.clone()));
    let f0 = ImportanceFilter::new().truncate_suffix(["a"], 0);
    assert_eq!(f0.apply_item(&i).unwrap().depth(), 1);
}

/// Improper packaging (§2.3): SlimServer 6.5.1 forgets the database
/// upgrade and fails validation; the corrected 6.5.2 package ships the
/// new-format database, passes and integrates.
#[test]
fn slimserver_packaging_problem_and_corrected_package() {
    use mirage::core::UserAgent;
    use mirage::env::RunInput;
    use mirage::scenarios::apache::slimserver_scenario;
    use mirage::testing::{FailureKind, Validator};
    let (repo, machine, broken, fixed) = slimserver_scenario();
    let mut agent = UserAgent::new(machine);
    agent.collect("slimserver", RunInput::new("scan"));
    // 6.5.1 fails validation: the server cannot start without the v2
    // database the package never shipped.
    let report = Validator::new().validate(&agent.machine, &repo, &broken, &agent.runs);
    assert!(!report.passed());
    assert!(matches!(
        report.first_failure().unwrap().1,
        FailureKind::Crash { .. } | FailureKind::Integration { .. }
    ));
    // 6.5.2 ships the database: the very same problem spec can no longer
    // trigger, and validation passes.
    let report = Validator::new().validate(&agent.machine, &repo, &fixed, &agent.runs);
    assert!(report.passed(), "{report:?}");
    // The live machine integrates cleanly.
    assert!(agent.upgrade(&repo, &fixed).passed());
    assert!(agent.machine.fs.contains("/srv/slimserver/library-v2.db"));
}
