//! Scale sanity: a moderately large fleet through the full live
//! pipeline (parallel fingerprinting, clustering, staged deployment).

use mirage::core::{Campaign, ProtocolChoice, RolloutStrategy, UserAgent, Vendor};
use mirage::env::{
    ApplicationSpec, EnvPredicate, File, IniDoc, MachineBuilder, Package, ProblemEffect,
    ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage::fingerprint::MachineFingerprint;

/// The `svc` fleet: `machines` machines dealt round-robin into `groups`
/// environment groups (group 0 carries no `/etc/svc.conf`), and a v2
/// upgrade that breaks every machine carrying one.
fn svc_campaign(machines: usize, groups: usize) -> (Campaign, Upgrade) {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("svc", Version::new(1, 0, 0))
            .with_file(File::executable("/usr/bin/svc", "svc", 1))
            .with_file(File::library("/usr/lib/libsvc.so", "libsvc", "1.0", 1)),
    );
    let spec = || {
        ApplicationSpec::new("svc", "svc", "/usr/bin/svc")
            .reads("/usr/lib/libsvc.so")
            .probes("/etc/svc.conf")
    };
    let reference = MachineBuilder::new("ref")
        .install(&repo, "svc", VersionReq::Any)
        .app(spec())
        .build();
    let vendor = Vendor::new(reference, repo).with_diameter(0);

    let mut agents = Vec::new();
    for i in 0..machines {
        let group = i % groups;
        let mut b = MachineBuilder::new(format!("m{i:05}"))
            .install(&vendor.repo, "svc", VersionReq::Any)
            .app(spec());
        if group > 0 {
            b = b.file(File::config(
                "/etc/svc.conf",
                IniDoc::new().key("group", group.to_string()),
            ));
        }
        let mut agent = UserAgent::new(b.build());
        agent.collect("svc", RunInput::new("w1"));
        agent.collect("svc", RunInput::new("w2"));
        agents.push(agent);
    }

    let upgrade = Upgrade::new(
        Package::new("svc", Version::new(2, 0, 0)).with_file(File::executable(
            "/usr/bin/svc",
            "svc",
            2,
        )),
        vec![ProblemSpec::new(
            "conf-break",
            "v2 breaks every machine carrying /etc/svc.conf",
            EnvPredicate::ConfigHasKey {
                path: "/etc/svc.conf".into(),
                section: "global".into(),
                key: "group".into(),
            },
            ProblemEffect::CrashOnStart { app: "svc".into() },
        )],
    );
    (Campaign::new(vendor, agents), upgrade)
}

/// The reference fingerprint the `svc` vendor clusters against.
fn svc_reference(campaign: &Campaign) -> MachineFingerprint {
    let classification = campaign
        .vendor
        .classify_reference("svc", &[RunInput::new("w1"), RunInput::new("w2")]);
    campaign.vendor.reference_fingerprint(&classification)
}

/// 60 machines across 6 environment groups; five of them break the
/// upgrade. The whole cycle — parallel fleet fingerprinting included —
/// must converge with exactly one representative inconvenienced.
#[test]
fn sixty_machine_campaign() {
    let (mut campaign, upgrade) = svc_campaign(60, 6);
    let fp = svc_reference(&campaign);
    let (clustering, plan) =
        campaign.rollout_plan("svc", &fp, 1, RolloutStrategy::Staged { waves: 1 });
    assert_eq!(clustering.len(), 6, "six environment groups");
    assert_eq!(plan.deploy.machine_count(), 60);

    let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
    assert!(result.converged(60));
    // The problem triggers on every machine with /etc/svc.conf (50
    // machines across 5 clusters), but staging stops at the first
    // cluster's representative: exactly one failed validation.
    assert_eq!(result.failed_validations, 1);
    assert_eq!(campaign.urr.stats().successes, 60);
}

/// The live drive is linear in the fleet: one table probe, one sandbox
/// validation and one URR report per notified machine, none of them a
/// scan over the other machines. Doubling the fleet (and its groups, so
/// rounds double too) doubles a linear drive and quadruples one that
/// looks each agent or cluster up by scanning. The two sizes take turns
/// (small, large, small, …) so a burst of load from other processes
/// lands on both, and the fastest drive of each size counts.
#[test]
fn drive_time_is_linear_in_the_fleet() {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const MACHINES: usize = 5_000;
    const GROUP_SIZE: usize = 25;
    let mut fleets: Vec<_> = [MACHINES, 2 * MACHINES]
        .into_iter()
        .map(|machines| {
            let (campaign, upgrade) = svc_campaign(machines, machines / GROUP_SIZE);
            let fp = svc_reference(&campaign);
            let (_, plan) =
                campaign.rollout_plan("svc", &fp, 1, RolloutStrategy::Staged { waves: 1 });
            let untouched = campaign.agents.clone();
            (machines, campaign, upgrade, plan, untouched, Duration::MAX)
        })
        .collect();
    for _ in 0..3 {
        for (machines, campaign, upgrade, plan, untouched, fastest) in &mut fleets {
            campaign.agents = untouched.clone();
            campaign.urr = Arc::default();
            let started = Instant::now();
            let result = campaign.drive(upgrade.clone(), plan, ProtocolChoice::Balanced, 1.0);
            let spent = started.elapsed();
            assert!(result.converged(*machines));
            assert_eq!(result.failed_validations, 1);
            *fastest = (*fastest).min(spent);
        }
    }
    let (small, large) = (fleets[0].5, fleets[1].5);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    eprintln!(
        "drive {MACHINES}: {small:?}, {}: {large:?}, ratio {ratio:.2}",
        2 * MACHINES
    );
    assert!(
        ratio <= 3.0,
        "drive at {} machines took {large:?}, {ratio:.2}x the {small:?} at {MACHINES}",
        2 * MACHINES
    );
}

/// Installing copies pointers: a 1 000-machine `svc` fleet holds exactly
/// one allocation of each package file and one package record — the
/// repository's. A `file.clone()` or `pkg.clone()` back in the install
/// path fails here, not only as a memory number.
#[test]
fn fleet_shares_one_allocation_of_each_package_file() {
    use std::sync::Arc;

    const MACHINES: usize = 1_000;
    let (campaign, _) = svc_campaign(MACHINES, MACHINES / 25);
    let published = campaign
        .vendor
        .repo
        .best("svc", VersionReq::Any)
        .expect("svc is published");
    assert_eq!(published.files.len(), 2);
    for file in &published.files {
        assert!(
            Arc::strong_count(file) >= MACHINES,
            "{} has {} holders in a fleet of {MACHINES}",
            file.path,
            Arc::strong_count(file)
        );
    }
    for agent in &campaign.agents {
        let machine = &agent.machine;
        assert!(std::ptr::eq(
            machine.pkgs.installed("svc").expect("installed"),
            published
        ));
        for file in &published.files {
            assert!(std::ptr::eq(
                machine.fs.get(&file.path).expect("installed file"),
                &**file
            ));
        }
    }
}

/// The Table 2 MySQL fleet replicated ×4 (the `plan_mysql` shape):
/// replicas are identical machines, so phase 2 is all ties. The ×4
/// fleet must yield the ×1 fleet's 15 clusters, each replica beside its
/// original, from exactly one distance evaluation per pair within each
/// phase-1 group.
#[test]
fn replicated_mysql_fleet_clusters_like_the_original() {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use mirage::cluster::phase1::original_clusters;
    use mirage::cluster::{ClusterEngine, MachineInfo};
    use mirage::scenarios::mysql::MySqlScenario;
    use mirage_telemetry::{Registry, Telemetry};

    const REPLICAS: usize = 4;
    let scenario = MySqlScenario::with_full_parsers();
    let originals = scenario.fleet_inputs();
    let diameter = scenario.vendor.diameter;
    let counted = |machines: &[MachineInfo]| {
        let registry = Arc::new(Registry::new(64));
        let clustering = ClusterEngine::new(diameter)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .cluster(machines);
        (clustering, registry.snapshot().counters)
    };
    let (base, base_counters) = counted(&originals);
    assert_eq!(base.len(), 15);

    let fleet: Vec<MachineInfo> = (0..REPLICAS)
        .flat_map(|replica| {
            originals.iter().map(move |m| {
                let mut copy = m.clone();
                copy.diff.machine = format!("{}#{replica}", m.id());
                copy
            })
        })
        .collect();
    let (clustering, counters) = counted(&fleet);
    clustering.validate_partition().expect("partition");

    let expected: BTreeSet<Vec<String>> = base
        .clusters
        .iter()
        .map(|c| {
            let mut members: Vec<String> = c
                .members
                .iter()
                .flat_map(|m| (0..REPLICAS).map(move |replica| format!("{m}#{replica}")))
                .collect();
            members.sort();
            members
        })
        .collect();
    let got: BTreeSet<Vec<String>> = clustering
        .clusters
        .iter()
        .map(|c| c.members.clone())
        .collect();
    assert_eq!(got, expected);

    let refs: Vec<&MachineInfo> = fleet.iter().collect();
    let pairs: usize = original_clusters(&refs)
        .iter()
        .map(|g| g.len() * (g.len() - 1) / 2)
        .sum();
    assert_eq!(counters["cluster.distance_evals"], pairs as u64);
    // Replication adds machines, not phase-2 groups (the app-overlap
    // split makes the 15 clusters out of them afterwards).
    assert_eq!(
        fleet.len() as u64 - counters["cluster.qt_merges"],
        originals.len() as u64 - base_counters["cluster.qt_merges"]
    );
}

/// Cloning a `DeployPlan` copies cluster id vectors and no name: every
/// name the clone hands out is the very `str` the original holds, and so
/// is every name of a second clone. The table is copy-on-write: a clone
/// that interns a new name takes a private copy of the table first —
/// same names under the same ids, its own storage — and the original
/// never learns the name.
#[test]
fn plan_clones_share_the_machine_table() {
    use mirage::deploy::{DeployPlan, MachineId};
    use mirage::sim::ScenarioBuilder;

    const MACHINES: usize = 100_000;
    let ids = || (0..MACHINES as u32).map(MachineId);
    let same_strs = |a: &DeployPlan, b: &DeployPlan| {
        ids().all(|id| std::ptr::eq(a.machine_name(id), b.machine_name(id)))
    };
    let plan = ScenarioBuilder::new().clusters(20, 5_000, 1).build().plan;
    let mut clone = plan.clone();
    let untouched = plan.clone();
    assert_eq!(plan, clone);
    assert!(same_strs(&plan, &clone), "a clone copies no name");

    // A name the table already lists is found, not added.
    assert_eq!(clone.machines.intern("c00-m00007"), MachineId(7));
    assert_eq!(clone.machines.len(), MACHINES);

    let ghost = clone.machines.intern("ghost");
    assert_eq!(ghost, MachineId(MACHINES as u32));
    assert_eq!(clone.machine_name(ghost), "ghost");
    assert_eq!(clone.machine_id("ghost"), Some(ghost));
    assert_eq!(plan.machines.len(), MACHINES, "the original is untouched");
    assert_eq!(plan.machine_id("ghost"), None);
    assert_ne!(plan, clone);
    assert!(
        ids().all(|id| clone.machine_name(id) == plan.machine_name(id)
            && clone.machine_id(plan.machine_name(id)) == Some(id)),
        "the private copy lists the same names under the same ids"
    );
    assert!(
        same_strs(&plan, &untouched),
        "clones that intern nothing still share"
    );
}
