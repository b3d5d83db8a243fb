//! Cross-crate pipeline tests on synthetic fleets: each stage's output
//! is checked as it feeds the next.

use std::collections::BTreeMap;

use mirage::cluster::{ClusterEngine, ClusteringScore, MachineInfo};
use mirage::core::{classify_machine, fingerprint_machine, UserAgent, Vendor};
use mirage::deploy::{DeployPlan, ProtocolChoice};
use mirage::env::{
    ApplicationSpec, File, IniDoc, MachineBuilder, Package, Repository, RunInput, Version,
    VersionReq,
};
use mirage::sim::{latency_cdf, ScenarioBuilder, Simulation};
use mirage::trace::RunId;

fn repo() -> Repository {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("svc", Version::new(1, 0, 0))
            .with_file(File::executable("/usr/bin/svc", "svc", 1))
            .with_file(File::library("/usr/lib/libsvc.so", "libsvc", "1.0", 1)),
    );
    repo
}

fn spec() -> ApplicationSpec {
    ApplicationSpec::new("svc", "svc", "/usr/bin/svc")
        .reads("/usr/lib/libsvc.so")
        .probes("/etc/svc.conf")
}

fn machine(name: &str, conf_value: Option<&str>) -> mirage::env::Machine {
    let mut builder = MachineBuilder::new(name)
        .install(&repo(), "svc", VersionReq::Any)
        .app(spec());
    if let Some(v) = conf_value {
        builder = builder.file(File::config(
            "/etc/svc.conf",
            IniDoc::new().section("svc").key("mode", v),
        ));
    }
    builder.build()
}

/// Heuristic output feeds fingerprinting: the identified resources are
/// exactly the fingerprinted ones, and config differences surface as
/// item diffs.
#[test]
fn heuristic_feeds_fingerprinting() {
    let vendor_machine = machine("vendor", None);
    let vendor = Vendor::new(vendor_machine, repo());
    let classification = vendor.classify_reference("svc", &[RunInput::new("r")]);
    assert!(classification.is_env("/usr/bin/svc"));
    assert!(classification.is_env("/usr/lib/libsvc.so"));
    assert!(!classification.is_env("/etc/svc.conf"), "absent on vendor");
    let reference = vendor.reference_fingerprint(&classification);

    let user = machine("user", Some("fast"));
    let traces = vec![user.run_app("svc", &RunInput::new("r"), RunId(0))];
    let uc = classify_machine(&user, "svc", &traces, &vendor.heuristic, &vendor.rules);
    assert!(uc.is_env("/etc/svc.conf"), "probed and found on the user");
    let ufp = fingerprint_machine(&user, &uc, &vendor.registry, "user");
    let diff = ufp.diff(&reference);
    assert!(!diff.is_empty(), "config file must show in the diff");
    assert!(diff
        .all_items()
        .iter()
        .all(|i| i.resource() == "/etc/svc.conf"));
}

/// Fingerprint diffs feed clustering; clustering feeds deployment plans;
/// plans feed the simulator; the simulator's metrics match the fleet.
#[test]
fn diffs_to_clusters_to_simulation() {
    let vendor_machine = machine("vendor", None);
    let vendor = Vendor::new(vendor_machine, repo()).with_diameter(0);
    let classification = vendor.classify_reference("svc", &[RunInput::new("r")]);
    let reference = vendor.reference_fingerprint(&classification);

    let mut infos: Vec<MachineInfo> = Vec::new();
    for i in 0..9 {
        let conf = match i % 3 {
            0 => None,
            1 => Some("fast"),
            _ => Some("slow"),
        };
        let mut agent = UserAgent::new(machine(&format!("m{i}"), conf));
        agent.collect("svc", RunInput::new("r"));
        infos.push(agent.clustering_input("svc", &vendor, &reference));
    }
    let clustering = ClusterEngine::new(0).cluster(&infos);
    assert_eq!(clustering.len(), 3, "none / fast / slow configurations");
    clustering.validate_partition().unwrap();

    // Pretend the "slow" config breaks the upgrade.
    let behavior: BTreeMap<String, String> = (0..9)
        .filter(|i| i % 3 == 2)
        .map(|i| (format!("m{i}"), "slow-breaks".to_string()))
        .collect();
    let score = ClusteringScore::compute(&clustering, &behavior);
    assert_eq!(score.misplaced, 0);

    // Drive the deployment plan through the discrete-event simulator.
    let plan = DeployPlan::from_clustering(&clustering, 1);
    let mut builder = mirage::sim::ScenarioBuilder::over_plan(plan.clone());
    for m in behavior.keys() {
        builder = builder.problem_on_machine(m, "slow-breaks");
    }
    let scenario = builder.build();
    let metrics =
        Simulation::new(&scenario).run(&mut ProtocolChoice::Balanced.build(plan.clone(), 1.0));
    assert_eq!(metrics.passed_count(), 9);
    assert_eq!(metrics.failed_tests, 1, "only the slow cluster's rep");
    let nostaging =
        Simulation::new(&scenario).run(&mut ProtocolChoice::NoStaging.build(plan.clone(), 1.0));
    assert_eq!(nostaging.failed_tests, 3, "every slow machine");
    // Staging sacrifices some latency for the overhead win.
    assert!(
        metrics.completion_time.unwrap() >= nostaging.completion_time.unwrap(),
        "balanced {:?} vs nostaging {:?}",
        metrics.completion_time,
        nostaging.completion_time
    );
}

/// Cluster latency CDFs are monotone and complete for healthy fleets.
#[test]
fn latency_cdf_invariants() {
    let scenario = ScenarioBuilder::new().clusters(10, 20, 2).build();
    let metrics = Simulation::new(&scenario)
        .run(&mut ProtocolChoice::Balanced.build(scenario.plan.clone(), 1.0));
    let cdf = latency_cdf(&metrics.cluster_latencies(&scenario.plan, 1.0));
    assert!(!cdf.is_empty());
    assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    for pair in cdf.windows(2) {
        assert!(pair[0].0 < pair[1].0, "times strictly increase");
        assert!(pair[0].1 < pair[1].1, "fractions strictly increase");
    }
}

/// Representative count is a real knob: more representatives catch a
/// misplaced machine in the representative stage.
#[test]
fn extra_representatives_catch_misplaced_machines_earlier() {
    // With 1 rep, the misplaced machine (a non-rep) fails during the
    // non-rep wave; with enough reps it IS a rep and fails in the rep
    // stage, before other members are disturbed... unless it is not
    // first. Either way the fleet converges with exactly one failure.
    for reps in [1usize, 3] {
        let scenario = ScenarioBuilder::new()
            .clusters(3, 6, reps)
            .misplaced_machine(1, "odd")
            .build();
        let metrics = Simulation::new(&scenario)
            .run(&mut ProtocolChoice::Balanced.build(scenario.plan.clone(), 1.0));
        assert_eq!(metrics.failed_tests, 1);
        assert_eq!(metrics.passed_count(), 18);
    }
}
