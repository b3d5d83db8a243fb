//! End-to-end integration tests: the full Mirage cycle on the paper's
//! evaluation fleets.

use std::collections::BTreeSet;
use std::sync::Arc;

use mirage::cluster::ClusteringScore;
use mirage::core::{
    Campaign, GuardSettings, ProtocolChoice, RolloutPlan, RolloutStrategy, UserAgent, Vendor,
};
use mirage::deploy::{DeployPlan, MachineId, PRIOR_RELEASE};
use mirage::env::{
    ApplicationSpec, EnvPredicate, File, IniDoc, MachineBuilder, Package, ProblemEffect,
    ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage::fingerprint::MachineFingerprint;
use mirage::scenarios::{firefox, mysql};
use mirage_telemetry::{JournalEvent, Registry, RolloutStep, Telemetry};

/// The complete MySQL campaign: trace → identify → fingerprint →
/// cluster → staged deploy → sandbox test → report → fix → converge.
#[test]
fn mysql_campaign_with_balanced_protocol() {
    let scenario = mysql::MySqlScenario::with_full_parsers();
    let behavior = scenario.behavior.clone();
    let upgrade = scenario.upgrade.clone();
    let inputs = scenario.fleet_inputs();
    let clustering = scenario.vendor.cluster(&inputs);
    let score = ClusteringScore::compute(&clustering, &behavior);
    assert_eq!(score.clusters, 15);
    assert_eq!(score.misplaced, 0);

    let plan = RolloutPlan::new(
        DeployPlan::from_clustering(&clustering, 1),
        RolloutStrategy::Staged { waves: 1 },
    );
    let mut campaign = Campaign::new(scenario.vendor, scenario.agents);
    let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);

    assert!(result.converged(21), "all 21 machines converge");
    // One representative per problem is inconvenienced; the PHP problem
    // affects multiple clusters but the first failure halts deployment
    // until the fix ships.
    assert!(
        (1..=3).contains(&result.failed_validations),
        "staged overhead should be tiny, got {}",
        result.failed_validations
    );
    // Three releases at most: original + one fix per problem (the fix
    // batches all problems known at that point).
    assert!(result.releases.len() <= 3);

    // The URR has deduplicated failure groups covering both problems.
    let groups = campaign.urr.failure_groups();
    assert!(!groups.is_empty());
    let stats = campaign.urr.stats();
    assert_eq!(stats.failures, result.failed_validations);
    // Every machine eventually filed a success report.
    assert!(stats.successes >= 21);
}

/// NoStaging inconveniences every problem machine; staging avoids that.
#[test]
fn mysql_nostaging_pays_full_overhead() {
    let scenario = mysql::MySqlScenario::with_full_parsers();
    let upgrade = scenario.upgrade.clone();
    let inputs = scenario.fleet_inputs();
    let clustering = scenario.vendor.cluster(&inputs);
    let plan = RolloutPlan::new(
        DeployPlan::from_clustering(&clustering, 1),
        RolloutStrategy::Staged { waves: 1 },
    );
    let mut campaign = Campaign::new(scenario.vendor, scenario.agents);
    let result = campaign.drive(upgrade, &plan, ProtocolChoice::NoStaging, 1.0);
    assert!(result.converged(21));
    // All 5 PHP machines + 2 userconfig machines fail.
    assert_eq!(result.failed_validations, 7, "m = 7 problem machines");
}

/// FrontLoading discovers every problem in phase 1 (all reps), so the
/// failure groups cover all problem clusters before non-reps test.
#[test]
fn firefox_frontloading_campaign() {
    let scenario = firefox::FirefoxScenario::with_full_parsers();
    let upgrade = scenario.upgrade.clone();
    let inputs = scenario.fleet_inputs();
    let clustering = scenario.vendor.cluster(&inputs);
    assert_eq!(clustering.len(), 4);
    let plan = RolloutPlan::new(
        DeployPlan::from_clustering(&clustering, 1),
        RolloutStrategy::Staged { waves: 1 },
    );
    let mut campaign = Campaign::new(scenario.vendor, scenario.agents);
    let result = campaign.drive(upgrade, &plan, ProtocolChoice::FrontLoading, 1.0);
    assert!(result.converged(6));
    // Two clusters carry the problem → two representatives fail
    // (p + Cp = 1 + 1).
    assert_eq!(result.failed_validations, 2);
    assert_eq!(result.releases.len(), 2);
}

/// The live machines are genuinely upgraded after a campaign, and
/// machines that first saw a faulty release end up on the fixed one.
#[test]
fn campaign_upgrades_live_machines() {
    let scenario = mysql::MySqlScenario::with_full_parsers();
    let upgrade = scenario.upgrade.clone();
    let inputs = scenario.fleet_inputs();
    let clustering = scenario.vendor.cluster(&inputs);
    let plan = RolloutPlan::new(
        DeployPlan::from_clustering(&clustering, 1),
        RolloutStrategy::Staged { waves: 1 },
    );
    let mut campaign = Campaign::new(scenario.vendor, scenario.agents);
    let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
    assert!(result.converged(21));
    for agent in &campaign.agents {
        let v = agent
            .machine
            .pkgs
            .installed_version("mysql")
            .expect("mysql installed");
        assert_eq!(v.major, 5, "{} still runs MySQL {v}", agent.machine.id);
        // The new library is actually on disk.
        assert_eq!(
            agent
                .machine
                .fs
                .get("/usr/lib/libmysqlclient.so")
                .and_then(|f| f.content.library_version()),
            Some("5.0")
        );
    }
}

/// App v1 on six machines; `u4` and `u5` carry a legacy config, so they
/// cluster apart from the other four.
fn legacy_campaign() -> (Campaign, MachineFingerprint) {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("app", Version::new(1, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            1,
        )),
    );
    let spec = || ApplicationSpec::new("app", "app", "/usr/bin/app").probes("/etc/app-legacy.conf");
    let reference = MachineBuilder::new("vendor-ref")
        .install(&repo, "app", VersionReq::Any)
        .app(spec())
        .build();
    let agents = (0..6)
        .map(|i| {
            let mut b = MachineBuilder::new(format!("u{i}"))
                .install(&repo, "app", VersionReq::Any)
                .app(spec());
            if i >= 4 {
                b = b.file(File::config(
                    "/etc/app-legacy.conf",
                    IniDoc::new().key("legacy", "yes"),
                ));
            }
            let mut agent = UserAgent::new(b.build());
            agent.collect("app", RunInput::new("w1"));
            agent.collect("app", RunInput::new("w2"));
            agent
        })
        .collect();
    let vendor = Vendor::new(reference, repo).with_diameter(0);
    let c = vendor.classify_reference("app", &[RunInput::new("w1"), RunInput::new("w2")]);
    let ref_fp = vendor.reference_fingerprint(&c);
    (Campaign::new(vendor, agents), ref_fp)
}

/// App v2, crashing wherever `problems` say.
fn app_v2(problems: Vec<ProblemSpec>) -> Upgrade {
    Upgrade::new(
        Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            2,
        )),
        problems,
    )
}

/// A fleet-wide regression under a guarded rolling drive: the guard
/// trips on the campaign's own URR, exposure stays within the first
/// batch, and every reverted machine drops out of `integrated`.
#[test]
fn guarded_drive_aborts_and_contains_exposure() {
    let (campaign, ref_fp) = legacy_campaign();
    let registry = Arc::new(Registry::new(1024));
    let mut campaign = campaign
        .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
        .with_guard(GuardSettings {
            max_cluster_failure_rate: 0.3,
            min_reports: 2,
            unhealthy_ticks: 1,
            healthy_ticks: 1,
            ..GuardSettings::default()
        });
    let everywhere_bad = app_v2(vec![ProblemSpec::new(
        "global-regression",
        "v2 crashes on every machine",
        EnvPredicate::FileExists("/usr/bin/app".into()),
        ProblemEffect::CrashOnStart { app: "app".into() },
    )]);
    let (_, plan) = campaign.rollout_plan(
        "app",
        &ref_fp,
        1,
        RolloutStrategy::Rolling { batch_size: 2 },
    );
    assert_eq!(plan.wave_count(), 3, "three batches of two");
    let result = campaign.drive(everywhere_bad, &plan, ProtocolChoice::Balanced, 1.0);
    let info = result.rollback.expect("guard aborts the regression");
    assert_eq!(info.exposed_machines, 2, "contained to the first batch");
    assert_eq!(info.at_cohort, 0);
    assert_eq!(info.prior_release, PRIOR_RELEASE);
    assert!(
        result.integrated.is_empty(),
        "reverted machines are un-integrated: {:?}",
        result.integrated
    );
    assert!(!result.converged(6));
    // The revert wave names exactly the exposed machines — the ones
    // that reported on the bad release — each once, journaled no
    // earlier than the roll-back decision.
    let exposed: BTreeSet<String> = campaign.urr.all().into_iter().map(|r| r.machine).collect();
    let entries = registry.journal().entries();
    let rolled_back = entries
        .iter()
        .find(|e| matches!(e.event, JournalEvent::Rollout { step, .. } if step == RolloutStep::RollBack))
        .expect("roll-back journaled");
    let reverted: Vec<String> = entries
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::Notify { machine, release } if release == PRIOR_RELEASE.0 => {
                assert!(
                    (e.time, e.seq) > (rolled_back.time, rolled_back.seq),
                    "revert {e:?} before the roll-back {rolled_back:?}"
                );
                Some(plan.deploy.machine_name(MachineId(machine)).to_string())
            }
            _ => None,
        })
        .collect();
    assert_eq!(reverted.len(), info.exposed_machines);
    assert_eq!(reverted.into_iter().collect::<BTreeSet<_>>(), exposed);
    assert_eq!(
        registry.snapshot().counters["campaign.reverts"],
        info.exposed_machines as u64
    );
}

/// A guarded drive of a *clean* upgrade stays open: the guard holds
/// its fire and the fleet converges normally.
#[test]
fn guarded_drive_passes_a_clean_release() {
    let (campaign, ref_fp) = legacy_campaign();
    let mut campaign = campaign.with_guard(GuardSettings::default());
    let clean = app_v2(vec![]);
    let (_, plan) = campaign.rollout_plan(
        "app",
        &ref_fp,
        1,
        RolloutStrategy::Canary {
            percentage: 20.0,
            bake_time: 0,
        },
    );
    let result = campaign.drive(clean, &plan, ProtocolChoice::Balanced, 1.0);
    assert!(result.rollback.is_none());
    assert!(result.converged(6), "integrated: {:?}", result.integrated);
}
