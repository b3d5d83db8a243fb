//! Integration tests of the simulator → URR wiring: attaching a
//! repository must leave the simulation bit-identical while producing a
//! queryable record of every vendor-received outcome, up to the paper's
//! million-machine scale.

use std::sync::Arc;

use mirage_deploy::{Balanced, NoStaging, Protocol};
use mirage_report::Urr;
use mirage_sim::{FaultSpec, ScenarioBuilder, Simulation};

/// With the knob enabled the metrics are bit-identical to the unwired
/// run, and the repository holds exactly the vendor-received outcomes.
#[test]
fn with_urr_is_observationally_neutral_and_records_everything() {
    let build = || {
        ScenarioBuilder::new()
            .clusters(4, 3, 1)
            .problem_in_clusters("php/crash", &[2])
            .problem_in_clusters("mycnf/overwritten", &[3])
    };
    let plain = build().build();
    let m_plain = Simulation::new(&plain).run(&mut Balanced::new(plain.plan.clone(), 1.0));

    let urr = Arc::new(Urr::with_shards(4));
    let wired = build().with_urr(Arc::clone(&urr)).build();
    let m_wired = Simulation::new(&wired).run(&mut Balanced::new(wired.plan.clone(), 1.0));

    assert_eq!(m_plain, m_wired, "with_urr must not perturb the simulation");

    // On the reliable channel every test outcome reaches the vendor
    // exactly once: the repository is a complete record.
    let stats = urr.stats();
    assert_eq!(stats.successes, m_wired.passed_count());
    assert_eq!(stats.failures, m_wired.failed_tests);
    assert_eq!(stats.total, m_wired.passed_count() + m_wired.failed_tests);
    assert_eq!(stats.distinct_failures, 2);
    assert_eq!(stats.image_bytes, 0, "interned reports carry no image");

    // The vendor's queries see the deployment's problems.
    let groups = urr.failure_groups();
    assert_eq!(groups.len(), 2);
    assert_eq!(groups[0].signature, "php/crash", "discovered first");
    assert_eq!(groups[0].clusters, vec![2]);
    assert_eq!(groups[1].signature, "mycnf/overwritten");
    let top = urr.top_k_failure_groups(1);
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].count, groups.iter().map(|g| g.count).max().unwrap());

    // Per-cluster rates cover every cluster (all machines reported) and
    // failures appear only in the problem clusters.
    let rates = urr.cluster_failure_rates();
    assert_eq!(rates.len(), 4);
    assert_eq!(rates[0].failures, 0);
    assert!(rates[2].failures > 0);
    assert!(rates[3].failures > 0);

    // Every shipped fix shows up as a release: r0 plus one per fix.
    let releases = urr.release_summaries();
    assert_eq!(releases.len(), 1 + m_wired.releases_shipped as usize);
    assert_eq!(releases[0].version, "r0");
    assert!(
        releases[0].failures > 0,
        "original upgrade accumulated failures"
    );
    assert_eq!(
        releases.last().unwrap().failures,
        0,
        "final release fixed everything"
    );
}

/// Under faults the repository records what the vendor actually
/// received: duplicated reports deposit again (deduplicated by
/// signature when grouping), lost reports never arrive.
#[test]
fn with_urr_under_faults_records_received_reports() {
    let urr = Arc::new(Urr::with_shards(2));
    let s = ScenarioBuilder::new()
        .clusters(3, 4, 1)
        .problem_in_clusters("p", &[1])
        .faults(FaultSpec::new(0xFA17).loss(0.2).duplication(0.2))
        .with_urr(Arc::clone(&urr))
        .build();
    let mut protocol = Balanced::new(s.plan.clone(), 1.0);
    let m = Simulation::new(&s).run(&mut protocol);
    assert!(protocol.done(), "deployment must converge under faults");
    assert!(m.converged(s.machine_count()));

    let stats = urr.stats();
    // Every machine eventually passed and its report was received at
    // least once; duplicates may push the count higher.
    assert!(stats.successes >= m.passed_count());
    assert!(stats.failures >= 1);
    assert_eq!(stats.distinct_failures, 1);
    let groups = urr.failure_groups();
    assert_eq!(groups[0].signature, "p");
    assert_eq!(groups[0].clusters, vec![1]);
}

/// Acceptance: a million-machine simulated deployment with `with_urr`
/// enabled completes in release mode and answers a top-k failure-group
/// query. Gated behind `--ignored` so plain `cargo test` stays fast.
#[test]
#[ignore = "1M-machine run; exercised via cargo test --release -- --ignored"]
fn million_machine_run_with_urr_answers_topk() {
    let urr = Arc::new(Urr::new());
    let s = ScenarioBuilder::new()
        .clusters(100, 10_000, 1)
        .problem_in_clusters("prevalent", &[70, 71, 72])
        .problem_in_clusters("rare-a", &[85])
        .problem_in_clusters("rare-b", &[90])
        .with_urr(Arc::clone(&urr))
        .build();
    assert_eq!(s.machine_count(), 1_000_000);

    let m = Simulation::new(&s).run(&mut NoStaging::new(s.plan.clone()));
    assert_eq!(m.passed_count(), 1_000_000);
    assert_eq!(m.failed_tests, 50_000);

    // The repository holds the full fleet's outcomes...
    let stats = urr.stats();
    assert_eq!(stats.successes, 1_000_000);
    assert_eq!(stats.failures, 50_000);
    assert_eq!(stats.distinct_failures, 3);

    // ...and the vendor's top-k query ranks the prevalent problem first.
    let top = urr.top_k_failure_groups(2);
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].signature, "prevalent");
    assert_eq!(top[0].count, 30_000);
    assert_eq!(top[0].machines.len(), 30_000);
    assert_eq!(top[0].clusters, vec![70, 71, 72]);
    assert_eq!(top[1].count, 10_000);

    // Drill-downs and rates stay consistent at scale.
    assert_eq!(urr.clusters_for_signature("rare-a").unwrap(), vec![85]);
    let rates = urr.cluster_failure_rates();
    assert_eq!(rates.len(), 100);
    assert!(rates[70].rate() > 0.49 && rates[70].rate() < 0.51);
}

/// A simulated campaign persisted through the storage layer: the
/// journaled run is observationally neutral (identical metrics and
/// repository contents to `with_urr`), and after a simulated vendor
/// crash the recovered repository answers every query the live one
/// could.
#[test]
fn durable_campaign_survives_vendor_crash() {
    use mirage_report::{DurableConfig, DurableUrr, MemoryStore, UrrStore};

    let build = || {
        ScenarioBuilder::new()
            .clusters(4, 50, 2)
            .problem_in_clusters("php/crash", &[2])
            .problem_in_clusters("mycnf/overwritten", &[3])
            .faults(FaultSpec::new(0xD0_0D).loss(0.1).duplication(0.1))
    };

    // Baseline: plain in-memory repository.
    let plain_urr = Arc::new(Urr::with_shards(4));
    let plain = build().with_urr(Arc::clone(&plain_urr)).build();
    let m_plain = Simulation::new(&plain).run(&mut Balanced::new(plain.plan.clone(), 1.0));

    // Journaled: same campaign, deposits flow through the WAL, with a
    // mid-campaign compaction cadence.
    let store = MemoryStore::with_segment_bytes(16 << 10);
    let handle = store.clone();
    let durable = Arc::new(
        DurableUrr::new(
            Box::new(store),
            DurableConfig {
                shards: 4,
                snapshot_every_batches: 1,
                ..DurableConfig::default()
            },
        )
        .expect("durable"),
    );
    let wired = build().with_durable_urr(Arc::clone(&durable)).build();
    let m_wired = Simulation::new(&wired).run(&mut Balanced::new(wired.plan.clone(), 1.0));

    assert_eq!(
        m_plain, m_wired,
        "journaling must not perturb the simulation"
    );
    assert_eq!(durable.urr().stats(), plain_urr.stats());
    assert_eq!(durable.urr().failure_groups(), plain_urr.failure_groups());
    assert!(
        !handle.snapshots().expect("snapshots").is_empty(),
        "campaign wrote at least one compacted snapshot"
    );

    // Vendor crash: image the store, recover, and compare every surface.
    let crashed = handle.fork();
    let (recovered, report) = DurableUrr::recover(
        Box::new(crashed),
        DurableConfig {
            shards: 4,
            snapshot_every_batches: 1,
            ..DurableConfig::default()
        },
    )
    .expect("recover");
    assert!(report.snapshot_loaded, "recovery started from a snapshot");
    assert_eq!(report.torn_tail, None);
    let (live, back) = (durable.urr(), recovered.urr());
    assert_eq!(live.stats(), back.stats());
    assert_eq!(live.failure_groups(), back.failure_groups());
    assert_eq!(live.top_k_failure_groups(2), back.top_k_failure_groups(2));
    assert_eq!(live.cluster_failure_rates(), back.cluster_failure_rates());
    assert_eq!(live.release_summaries(), back.release_summaries());
    assert_eq!(live.to_json(), back.to_json());
    assert_eq!(
        live.machines_for_signature("php/crash"),
        back.machines_for_signature("php/crash")
    );
    // The frozen serving view of the recovered repository matches too.
    assert_eq!(live.snapshot(), back.snapshot());
}
