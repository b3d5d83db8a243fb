//! The Firefox clustering evaluation (paper §4.2.2, Table 3, Figures 8–9).
//!
//! Six machines: three fresh 1.5.0.7 installations (one with Java and
//! JavaScript disabled) and three upgraded from 1.0.4 (one with
//! Java/JavaScript disabled). The 1.0.4-upgraded machines carry two
//! legacy preference files that cause erratic behaviour when upgrading
//! to Firefox 2.0 (the paper's \[11\]): `user.js` and `localstore.rdf`.
//!
//! With the vendor's preferences parser (which discards user-specific
//! noise such as update timestamps and window geometry), clustering is
//! sound: 4 clusters, w = 0, C = 2 (Figure 8). With Mirage parsers only,
//! the preference files fall back to content chunking, where every
//! machine's `prefs.js` hash differs (timestamps!): diameter 4 yields
//! the *ideal* two-cluster split, while diameter 6 collapses everything
//! into one imperfect cluster with w = 3 (Figure 9) — the paper's
//! demonstration that the right diameter is hard to pick and that only
//! parsers can tell relevant differences from irrelevant ones.

use std::collections::BTreeMap;

use mirage_cluster::{Clustering, ClusteringScore, MachineInfo};
use mirage_core::{fleet_inputs, UserAgent, Vendor};
use mirage_env::{
    ApplicationSpec, EnvPredicate, File, FileContent, MachineBuilder, Package, PrefsDoc,
    ProblemEffect, ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage_fingerprint::parsers::{mirage_default_registry, PrefsParser};
use mirage_fingerprint::{ParserRegistry, ResourceKind};

/// One Table 3 configuration.
#[derive(Debug, Clone)]
pub(crate) struct MachineConfig {
    /// Machine name as printed in Table 3.
    pub(crate) name: &'static str,
    /// Upgraded from 1.0.4 (carries the legacy preference files).
    pub(crate) from10: bool,
    /// Java and JavaScript disabled.
    pub(crate) nojava: bool,
    /// Per-machine noise seed (update timestamps, window geometry).
    pub(crate) noise: u64,
}

/// The Table 3 machine list.
pub(crate) fn table3_configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig {
            name: "firefox15-fresh",
            from10: false,
            nojava: false,
            noise: 11,
        },
        MachineConfig {
            name: "firefox15-fresh(2)",
            from10: false,
            nojava: false,
            noise: 22,
        },
        MachineConfig {
            name: "firefox15-fresh-nojava",
            from10: false,
            nojava: true,
            noise: 33,
        },
        MachineConfig {
            name: "firefox15-from10",
            from10: true,
            nojava: false,
            noise: 44,
        },
        MachineConfig {
            name: "firefox15-from10(2)",
            from10: true,
            nojava: false,
            noise: 55,
        },
        MachineConfig {
            name: "firefox15-from10-nojava",
            from10: true,
            nojava: true,
            noise: 66,
        },
    ]
}

/// Path of the preferences file.
pub(crate) const PREFS_PATH: &str = "/home/user/.mozilla/firefox/prefs.js";
/// Path of the first legacy preference file (1.0.x era).
pub(crate) const LEGACY_USERJS: &str = "/home/user/.mozilla/firefox/user.js";
/// Path of the second legacy file (1.0.x era, opaque format).
pub(crate) const LEGACY_LOCALSTORE: &str = "/home/user/.mozilla/firefox/localstore.rdf";

/// Builds a machine's `prefs.js`.
pub(crate) fn prefs_doc(nojava: bool, noise: u64) -> PrefsDoc {
    PrefsDoc::new()
        .pref("javascript.enabled", if nojava { "false" } else { "true" })
        .pref("java.enabled", if nojava { "false" } else { "true" })
        .pref("browser.startup.homepage", "\"about:home\"")
        .pref(
            "app.update.lastUpdateTime",
            format!("{}", 1_161_000_000 + noise),
        )
        .pref("browser.window.width", format!("{}", 800 + noise % 7 * 64))
}

/// The Firefox package repository (1.5.0.7 installed, 2.0 upgrade).
pub(crate) fn repository() -> Repository {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("firefox", Version::new(1, 5, 7))
            .with_file(File::executable("/usr/bin/firefox", "firefox", 1507))
            .with_file(File::library(
                "/usr/lib/libxul.so",
                "libxul",
                "1.5.0.7",
                1507,
            )),
    );
    repo
}

/// The Firefox application behaviour spec.
pub(crate) fn firefox_spec() -> ApplicationSpec {
    ApplicationSpec::new("firefox", "firefox", "/usr/bin/firefox")
        .reads("/usr/lib/libxul.so")
        .probes(PREFS_PATH)
        .probes(LEGACY_USERJS)
        .probes(LEGACY_LOCALSTORE)
        .with_logic(mirage_env::AppLogic {
            serves_net: true,
            writes_data: false,
            log_path: None,
            output_path: Some("/home/user/.mozilla/firefox/session-summary".into()),
            version_sensitive: false,
        })
}

/// Builds one Table 3 machine.
pub(crate) fn build_machine(config: &MachineConfig, repo: &Repository) -> mirage_env::Machine {
    let mut builder = MachineBuilder::new(config.name)
        .env_var("HOME", "/home/user")
        .install(repo, "firefox", VersionReq::Any)
        .app(firefox_spec())
        .file(File::prefs(
            PREFS_PATH,
            prefs_doc(config.nojava, config.noise),
        ));
    if config.from10 {
        builder = builder
            .file(File::prefs(
                LEGACY_USERJS,
                PrefsDoc::new()
                    .pref("browser.chrome.legacy", "true")
                    .pref("mail.migration.from10", "true"),
            ))
            .file(
                File::new(
                    LEGACY_LOCALSTORE,
                    ResourceKind::Binary,
                    // Sized for a couple of Rabin chunks; identical on every
                    // upgraded machine (static since the 1.0→1.5 migration).
                    FileContent::Binary {
                        seed: 4242,
                        len: 9000,
                    },
                )
                .env_resource(),
            )
    }
    builder.build()
}

/// The vendor's reference machine: a fresh 1.5.0.7 install.
pub(crate) fn vendor_reference(repo: &Repository) -> mirage_env::Machine {
    build_machine(
        &MachineConfig {
            name: "vendor-reference",
            from10: false,
            nojava: false,
            noise: 0,
        },
        repo,
    )
}

/// The Firefox 2.0 upgrade with the legacy-preferences problem.
pub(crate) fn firefox2_upgrade() -> Upgrade {
    Upgrade::new(
        Package::new("firefox", Version::new(2, 0, 0))
            .with_file(File::executable("/usr/bin/firefox", "firefox", 2000))
            .with_file(File::library("/usr/lib/libxul.so", "libxul", "2.0", 2000)),
        vec![ProblemSpec::new(
            "ff2-legacy-prefs",
            "legacy 1.0.x preference files cause erratic behaviour in 2.0",
            EnvPredicate::FileExists(LEGACY_USERJS.into()),
            ProblemEffect::WrongOutput {
                app: "firefox".into(),
                tag: "!erratic".into(),
            },
        )],
    )
}

/// The vendor registry with the Firefox preferences parser (Figure 8).
pub(crate) fn full_registry() -> ParserRegistry {
    let mut registry = mirage_default_registry();
    registry.register_vendor(
        ResourceKind::Prefs,
        Box::new(PrefsParser::ignoring(["app.update.*", "browser.window.*"])),
    );
    registry
}

/// Ground-truth behaviour under [`firefox2_upgrade`].
pub(crate) fn behavior_map() -> BTreeMap<String, String> {
    table3_configs()
        .into_iter()
        .filter(|c| c.from10)
        .map(|c| (c.name.to_string(), "ff2-legacy-prefs".to_string()))
        .collect()
}

/// The assembled scenario.
pub struct FirefoxScenario {
    /// The vendor.
    pub vendor: Vendor,
    /// One agent per Table 3 machine.
    pub agents: Vec<UserAgent>,
    /// The Firefox 2.0 upgrade.
    pub upgrade: Upgrade,
    /// Ground-truth behaviours.
    pub behavior: BTreeMap<String, String>,
}

impl FirefoxScenario {
    /// Figure 8 configuration: vendor preferences parser registered.
    pub fn with_full_parsers() -> Self {
        Self::build(full_registry(), 3)
    }

    /// Figure 9 configuration: Mirage parsers only, explicit diameter.
    pub fn with_mirage_parsers(diameter: usize) -> Self {
        Self::build(mirage_default_registry(), diameter)
    }

    fn build(registry: ParserRegistry, diameter: usize) -> Self {
        let repo = repository();
        let reference = vendor_reference(&repo);
        let vendor = Vendor::new(reference, repo)
            .with_registry(registry)
            .with_diameter(diameter);
        let mut agents = Vec::new();
        for config in table3_configs() {
            let machine = build_machine(&config, &vendor.repo);
            let mut agent = UserAgent::new(machine);
            agent.collect("firefox", RunInput::new("browse-1"));
            agent.collect("firefox", RunInput::new("browse-2"));
            agents.push(agent);
        }
        FirefoxScenario {
            vendor,
            agents,
            upgrade: firefox2_upgrade(),
            behavior: behavior_map(),
        }
    }

    /// Computes clustering inputs for the fleet.
    pub fn fleet_inputs(&self) -> Vec<MachineInfo> {
        let classification = self
            .vendor
            .classify_reference("firefox", &[RunInput::new("a"), RunInput::new("b")]);
        let reference = self.vendor.reference_fingerprint(&classification);
        fleet_inputs(&self.agents, "firefox", &self.vendor, &reference)
    }

    /// Runs the clustering and scores it.
    pub fn cluster_and_score(&self) -> (Clustering, ClusteringScore) {
        let inputs = self.fleet_inputs();
        let clustering = self.vendor.cluster(&inputs);
        let score = ClusteringScore::compute(&clustering, &self.behavior);
        (clustering, score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_cluster::ClusterQuality;

    #[test]
    fn legacy_localstore_has_two_or_three_chunks() {
        // The Figure 9 distances depend on the opaque legacy file
        // spanning 2–3 chunks (cross-group distance 5–6).
        let chunker = mirage_fingerprint::Chunker::paper_default();
        let bytes = FileContent::Binary {
            seed: 4242,
            len: 9000,
        }
        .render();
        let n = chunker.chunk(&bytes).len();
        assert!((2..=3).contains(&n), "localstore.rdf spans {n} chunks");
    }

    #[test]
    fn figure8_full_parsers_sound_4_clusters() {
        let scenario = FirefoxScenario::with_full_parsers();
        let (clustering, score) = scenario.cluster_and_score();
        clustering.validate_partition().unwrap();
        assert_eq!(clustering.len(), 4, "paper: 4 clusters");
        assert_eq!(score.misplaced, 0, "paper: w = 0");
        assert_eq!(score.unnecessary_clusters, 2, "paper: C = 2");
        assert_eq!(score.quality(), ClusterQuality::Sound);
        // Identical machines cluster together.
        let fresh = clustering.cluster_of("firefox15-fresh").unwrap();
        assert!(fresh.contains("firefox15-fresh(2)"));
        assert_eq!(fresh.len(), 2);
        let from10 = clustering.cluster_of("firefox15-from10").unwrap();
        assert!(from10.contains("firefox15-from10(2)"));
        assert_eq!(from10.len(), 2);
    }

    #[test]
    fn figure9_d4_is_ideal() {
        let scenario = FirefoxScenario::with_mirage_parsers(4);
        let (clustering, score) = scenario.cluster_and_score();
        assert_eq!(clustering.len(), 2, "paper: two clusters at d = 4");
        assert_eq!(score.misplaced, 0);
        assert_eq!(score.unnecessary_clusters, 0);
        assert_eq!(score.quality(), ClusterQuality::Ideal);
        // All problematic machines together, all healthy together.
        let bad = clustering.cluster_of("firefox15-from10").unwrap();
        assert_eq!(bad.len(), 3);
        assert!(bad.contains("firefox15-from10-nojava"));
    }

    #[test]
    fn figure9_d6_is_imperfect_w3() {
        let scenario = FirefoxScenario::with_mirage_parsers(6);
        let (clustering, score) = scenario.cluster_and_score();
        assert_eq!(clustering.len(), 1, "d = 6 collapses everything");
        assert_eq!(score.misplaced, 3, "paper: w = 3");
        assert_eq!(score.quality(), ClusterQuality::Imperfect);
    }

    #[test]
    fn upgrade_problem_triggers_only_on_from10_machines() {
        let repo = repository();
        let upgrade = firefox2_upgrade();
        for config in table3_configs() {
            let machine = build_machine(&config, &repo);
            let active = upgrade.active_problems(&machine);
            assert_eq!(
                !active.is_empty(),
                config.from10,
                "problem trigger mismatch on {}",
                config.name
            );
        }
    }

    #[test]
    fn validation_catches_the_erratic_behavior() {
        use mirage_testing::FailureKind;
        let scenario = FirefoxScenario::with_full_parsers();
        let from10 = scenario
            .agents
            .iter()
            .find(|a| a.machine.id == "firefox15-from10")
            .unwrap();
        let report = from10.test_upgrade(&scenario.vendor.repo, &scenario.upgrade);
        assert!(!report.passed());
        assert!(matches!(
            report.first_failure().unwrap().1,
            FailureKind::OutputMismatch { .. } | FailureKind::Crash { .. }
        ));
        // A fresh machine validates cleanly.
        let fresh = scenario
            .agents
            .iter()
            .find(|a| a.machine.id == "firefox15-fresh")
            .unwrap();
        assert!(fresh
            .test_upgrade(&scenario.vendor.repo, &scenario.upgrade)
            .passed());
    }
}
