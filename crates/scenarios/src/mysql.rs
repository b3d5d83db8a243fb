//! The MySQL clustering evaluation (paper §4.2.1, Table 2, Figures 6–7).
//!
//! Twenty-one machine configurations reconstruct Table 2: two
//! distributions (Fedora Core 5, Ubuntu 6.06), an optional libc upgrade,
//! PHP 4.4.6 (optionally with Apache 1.3.9 compiled against it), and
//! five kinds of `my.cnf` configuration change. Two real upgrade
//! problems are injected for the MySQL 4→5 upgrade:
//!
//! * **php-broken-dep** — PHP compiled against `libmysqlclient` 4.x
//!   crashes once the upgrade drags in the 5.x library (the paper's
//!   \[24\]); triggers wherever PHP is installed (bold entries).
//! * **mycnf-legacy** — machines with a user-level `$HOME/.my.cnf`
//!   fail to start the upgraded server (legacy-configuration problem;
//!   bold-italic entries).
//!
//! Interpretation note: Table 2 is ambiguous about which machines carry
//! `/etc/mysql/my.cnf` by default. We model Fedora as shipping one and
//! Ubuntu base as not (`withconfig` *adds* it, matching its
//! description); the comment/directive variants therefore carry the file
//! with the described edit applied to the standard content. This
//! reproduces the paper's headline numbers exactly: 15 clusters, C = 12,
//! w = 0 with full parsers (Figure 6) and w = 2 with Mirage parsers only
//! at diameter 3 (Figure 7).

use std::collections::BTreeMap;

use mirage_cluster::{Clustering, ClusteringScore, MachineInfo};
use mirage_core::{UserAgent, Vendor};
use mirage_env::{
    ApplicationSpec, EnvPredicate, File, IniDoc, MachineBuilder, Package, ProblemEffect,
    ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage_fingerprint::parsers::{mirage_default_registry, IniConfigParser};
use mirage_fingerprint::{Glob, ImportanceFilter, ParserRegistry};

/// Distribution of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Distro {
    /// Fedora Core 5 (libc 2.5, ships `/etc/mysql/my.cnf`).
    Fc5,
    /// Ubuntu 6.06 Dapper Drake (libc 2.3, no default `my.cnf`).
    Ubt,
}

/// How a machine's `/etc/mysql/my.cnf` differs from the standard one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MyCnf {
    /// No `/etc/mysql/my.cnf` at all.
    Absent,
    /// The standard file.
    Standard,
    /// Standard with extra comments.
    CommentAdded,
    /// Standard with a comment removed.
    CommentDeleted,
    /// Standard plus an extra configuration directive.
    DirectiveAdded,
    /// Standard minus one directive.
    DirectiveDeleted,
}

/// One Table 2 configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Machine name as printed in Table 2.
    pub name: &'static str,
    /// Distribution.
    pub(crate) distro: Distro,
    /// Whether libc was upgraded (Ubuntu only in Table 2).
    pub libc_upgraded: bool,
    /// `my.cnf` state.
    pub(crate) mycnf: MyCnf,
    /// Has a user-level `$HOME/.my.cnf` (triggers the legacy problem).
    pub user_config: bool,
    /// PHP 4.4.6 installed (triggers the broken-dependency problem).
    pub php4: bool,
    /// Apache 1.3.9 compiled with PHP support installed.
    pub ap139: bool,
}

/// The full Table 2 machine list.
pub fn table2_configs() -> Vec<MachineConfig> {
    fn cfg(name: &'static str, distro: Distro) -> MachineConfig {
        MachineConfig {
            name,
            distro,
            libc_upgraded: false,
            mycnf: match distro {
                Distro::Fc5 => MyCnf::Standard,
                Distro::Ubt => MyCnf::Absent,
            },
            user_config: false,
            php4: false,
            ap139: false,
        }
    }
    let mut configs = vec![cfg("fc5-ms4", Distro::Fc5)];
    configs.push(MachineConfig {
        php4: true,
        ..cfg("fc5-ms4/php4", Distro::Fc5)
    });
    configs.push(MachineConfig {
        php4: true,
        ap139: true,
        ..cfg("fc5-ms4/php4/ap139", Distro::Fc5)
    });
    configs.push(MachineConfig {
        php4: true,
        mycnf: MyCnf::CommentAdded,
        ..cfg("fc5-ms4/php4-comments", Distro::Fc5)
    });
    configs.push(cfg("ubt-ms4", Distro::Ubt));
    configs.push(cfg("ubt-ms4(2)", Distro::Ubt));
    configs.push(MachineConfig {
        php4: true,
        ..cfg("ubt-ms4/php4", Distro::Ubt)
    });
    configs.push(MachineConfig {
        php4: true,
        ap139: true,
        ..cfg("ubt-ms4/php4/ap139", Distro::Ubt)
    });
    configs.push(MachineConfig {
        mycnf: MyCnf::Standard,
        ..cfg("ubt-ms4/withconfig", Distro::Ubt)
    });
    configs.push(MachineConfig {
        user_config: true,
        ..cfg("ubt-ms4/userconfig", Distro::Ubt)
    });
    configs.push(MachineConfig {
        mycnf: MyCnf::DirectiveAdded,
        ..cfg("ubt-ms4/confdirective-added", Distro::Ubt)
    });
    configs.push(MachineConfig {
        mycnf: MyCnf::DirectiveDeleted,
        ..cfg("ubt-ms4/confdirective-deleted", Distro::Ubt)
    });
    configs.push(MachineConfig {
        mycnf: MyCnf::CommentAdded,
        ..cfg("ubt-ms4/comment-added", Distro::Ubt)
    });
    configs.push(MachineConfig {
        mycnf: MyCnf::CommentDeleted,
        ..cfg("ubt-ms4/comment-deleted", Distro::Ubt)
    });
    for (suffix, mycnf, user_config) in [
        ("", MyCnf::Absent, false),
        ("/withconfig", MyCnf::Standard, false),
        ("/userconfig", MyCnf::Absent, true),
        ("/confdirective-added", MyCnf::DirectiveAdded, false),
        ("/confdirective-deleted", MyCnf::DirectiveDeleted, false),
        ("/comment-added", MyCnf::CommentAdded, false),
        ("/comment-deleted", MyCnf::CommentDeleted, false),
    ] {
        let name: &'static str = match suffix {
            "" => "ubt-ms4/libc-upg",
            "/withconfig" => "ubt-ms4/libc-upg/withconfig",
            "/userconfig" => "ubt-ms4/libc-upg/userconfig",
            "/confdirective-added" => "ubt-ms4/libc-upg/confdirective-added",
            "/confdirective-deleted" => "ubt-ms4/libc-upg/confdirective-deleted",
            "/comment-added" => "ubt-ms4/libc-upg/comment-added",
            _ => "ubt-ms4/libc-upg/comment-deleted",
        };
        configs.push(MachineConfig {
            libc_upgraded: true,
            mycnf,
            user_config,
            ..cfg(name, Distro::Ubt)
        });
    }
    configs
}

/// The standard `my.cnf` content.
pub(crate) fn standard_mycnf() -> IniDoc {
    IniDoc::new()
        .comment("The MySQL database server configuration file.")
        .section("mysqld")
        .key("datadir", "/srv/mysql-data")
        .key("port", "3306")
        .directive("skip-external-locking")
        .comment("Fine tuning")
        .key("key_buffer", "16M")
        .section("client")
        .key("socket", "/run/mysqld.sock")
}

fn mycnf_for(variant: MyCnf) -> Option<IniDoc> {
    let standard = standard_mycnf();
    match variant {
        MyCnf::Absent => None,
        MyCnf::Standard => Some(standard),
        MyCnf::CommentAdded => Some(standard.comment("Edited by the local admin.")),
        MyCnf::CommentDeleted => {
            let mut doc = IniDoc::new();
            // Remove the first comment line.
            let mut removed = false;
            for line in standard.lines {
                if !removed && matches!(line, mirage_env::IniLine::Comment(_)) {
                    removed = true;
                    continue;
                }
                doc.lines.push(line);
            }
            Some(doc)
        }
        MyCnf::DirectiveAdded => Some({
            let mut doc = standard;
            doc.lines.insert(
                4,
                mirage_env::IniLine::KeyValue("max_connections".into(), "200".into()),
            );
            doc
        }),
        MyCnf::DirectiveDeleted => Some({
            let mut doc = standard;
            doc.remove_key("skip-external-locking");
            doc
        }),
    }
}

/// The `mysqld` application behaviour spec.
pub fn mysqld_spec() -> ApplicationSpec {
    ApplicationSpec::new("mysqld", "mysql", "/usr/sbin/mysqld")
        .reads("/lib/libc.so.6")
        .reads("/usr/lib/libmysqlclient.so")
        .probes("/etc/mysql/my.cnf")
        .probes("$HOME/.my.cnf")
}

/// The shared package repository: MySQL 4.1.22 and 5.0.27, PHP, Apache.
pub fn repository() -> Repository {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("mysql", Version::new(4, 1, 22))
            .with_file(File::executable("/usr/sbin/mysqld", "mysqld", 4122))
            .with_file(File::library(
                "/usr/lib/libmysqlclient.so",
                "libmysqlclient",
                "4.1",
                4122,
            )),
    );
    repo.publish(
        Package::new("php", Version::new(4, 4, 6)).with_file(File::executable(
            "/usr/bin/php",
            "php",
            446,
        )),
    );
    repo.publish(
        Package::new("apache", Version::new(1, 3, 9)).with_file(File::executable(
            "/usr/sbin/httpd",
            "httpd",
            139,
        )),
    );
    repo
}

/// Builds one Table 2 machine.
pub fn build_machine(config: &MachineConfig, repo: &Repository) -> mirage_env::Machine {
    let (libc_version, libc_build) = match (config.distro, config.libc_upgraded) {
        (Distro::Fc5, _) => ("2.5", 250u64),
        (Distro::Ubt, false) => ("2.3", 236),
        (Distro::Ubt, true) => ("2.4", 240),
    };
    let mut builder = MachineBuilder::new(config.name)
        .file(File::library(
            "/lib/libc.so.6",
            "libc",
            libc_version,
            libc_build,
        ))
        .env_var("HOME", "/root")
        .install(repo, "mysql", VersionReq::Exact(Version::new(4, 1, 22)))
        .app(mysqld_spec());
    if let Some(doc) = mycnf_for(config.mycnf) {
        builder = builder.file(File::config("/etc/mysql/my.cnf", doc));
    }
    if config.user_config {
        builder = builder.file(File::config(
            "/root/.my.cnf",
            IniDoc::new().section("client").key("user", "root"),
        ));
    }
    if config.php4 {
        builder = builder.install(repo, "php", VersionReq::Any).app(
            ApplicationSpec::new("php", "php", "/usr/bin/php")
                .reads("/usr/lib/libmysqlclient.so")
                .reads("/lib/libc.so.6"),
        );
    }
    if config.ap139 {
        builder = builder.install(repo, "apache", VersionReq::Any).app(
            ApplicationSpec::new("apache", "apache", "/usr/sbin/httpd")
                .reads("/lib/libc.so.6")
                .sharing_with("php"),
        );
    }
    builder.build()
}

/// The vendor's reference machine: a plain Ubuntu 6.06 installation.
pub fn vendor_reference(repo: &Repository) -> mirage_env::Machine {
    build_machine(
        &MachineConfig {
            name: "vendor-reference",
            distro: Distro::Ubt,
            libc_upgraded: false,
            mycnf: MyCnf::Absent,
            user_config: false,
            php4: false,
            ap139: false,
        },
        repo,
    )
}

/// The MySQL 4→5 upgrade with its two injected problems.
pub fn mysql5_upgrade() -> Upgrade {
    let mut repo_pkg = Package::new("mysql", Version::new(5, 0, 27)).with_file(File::executable(
        "/usr/sbin/mysqld",
        "mysqld",
        5027,
    ));
    repo_pkg = repo_pkg.with_file(File::library(
        "/usr/lib/libmysqlclient.so",
        "libmysqlclient",
        "5.0",
        5027,
    ));
    Upgrade::new(
        repo_pkg,
        vec![
            ProblemSpec::new(
                "php-broken-dep",
                "PHP compiled against libmysqlclient 4.x crashes with 5.x",
                EnvPredicate::AllOf(vec![
                    EnvPredicate::AppInstalled("php".into()),
                    EnvPredicate::LibVersion {
                        path: "/usr/lib/libmysqlclient.so".into(),
                        version: "5.0".into(),
                    },
                ]),
                ProblemEffect::CrashOnStart { app: "php".into() },
            ),
            ProblemSpec::new(
                "mycnf-legacy",
                "server fails to start with a legacy $HOME/.my.cnf",
                EnvPredicate::FileExists("/root/.my.cnf".into()),
                ProblemEffect::FailToStart {
                    app: "mysqld".into(),
                },
            ),
        ],
    )
}

/// The parser registry with vendor-provided MySQL parsers (Figure 6).
pub fn full_registry() -> ParserRegistry {
    let mut registry = mirage_default_registry();
    registry.register_vendor_glob(Glob::new("/etc/mysql/**"), Box::new(IniConfigParser));
    registry.register_vendor_glob(Glob::new("**/.my.cnf"), Box::new(IniConfigParser));
    registry
}

/// Ground-truth behaviour of each machine under [`mysql5_upgrade`].
pub(crate) fn behavior_map() -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for config in table2_configs() {
        if config.php4 {
            map.insert(config.name.to_string(), "php-broken-dep".to_string());
        } else if config.user_config {
            map.insert(config.name.to_string(), "mycnf-legacy".to_string());
        }
    }
    map
}

/// The assembled scenario.
pub struct MySqlScenario {
    /// The vendor (reference machine, registry, repository, diameter).
    pub vendor: Vendor,
    /// One agent per Table 2 machine, traces collected.
    pub agents: Vec<UserAgent>,
    /// The MySQL 5 upgrade with injected problems.
    pub upgrade: Upgrade,
    /// Ground-truth behaviours for scoring.
    pub behavior: BTreeMap<String, String>,
}

impl MySqlScenario {
    /// Builds the scenario with vendor parsers (Figure 6 configuration).
    pub fn with_full_parsers() -> Self {
        Self::build(full_registry(), 3)
    }

    /// Builds the scenario with Mirage parsers only and the given
    /// phase-2 diameter (Figure 7 configuration).
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
        for config in table2_configs() {
            let machine = build_machine(&config, &vendor.repo);
            let mut agent = UserAgent::new(machine);
            agent.collect("mysqld", RunInput::new("startup-1"));
            agent.collect("mysqld", RunInput::new("startup-2"));
            agents.push(agent);
        }
        MySqlScenario {
            vendor,
            agents,
            upgrade: mysql5_upgrade(),
            behavior: behavior_map(),
        }
    }

    /// Computes the fleet's clustering inputs.
    pub fn fleet_inputs(&self) -> Vec<MachineInfo> {
        let classification = self
            .vendor
            .classify_reference("mysqld", &[RunInput::new("a"), RunInput::new("b")]);
        let reference = self.vendor.reference_fingerprint(&classification);
        self.agents
            .iter()
            .map(|a| a.clustering_input("mysqld", &self.vendor, &reference))
            .collect()
    }

    /// Runs the clustering and scores it against ground truth.
    pub fn cluster_and_score(&self) -> (Clustering, ClusteringScore) {
        let inputs = self.fleet_inputs();
        let clustering = self.vendor.cluster(&inputs);
        let score = ClusteringScore::compute(&clustering, &self.behavior);
        (clustering, score)
    }

    /// Reruns the clustering with the vendor ignoring all
    /// `/etc/mysql/my.cnf` items (the §4.2.1 cluster-merging discussion).
    pub fn cluster_ignoring_mycnf(&self) -> (Clustering, ClusteringScore) {
        let inputs = self.fleet_inputs();
        let engine = mirage_cluster::ClusterEngine::new(self.vendor.diameter)
            .with_importance(ImportanceFilter::new().drop_prefix(["/etc/mysql/my.cnf"]));
        let clustering = engine.cluster(&inputs);
        let score = ClusteringScore::compute(&clustering, &self.behavior);
        (clustering, score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_cluster::ClusterQuality;

    #[test]
    fn fleet_has_21_machines() {
        assert_eq!(table2_configs().len(), 21);
        let scenario = MySqlScenario::with_full_parsers();
        assert_eq!(scenario.agents.len(), 21);
    }

    #[test]
    fn figure6_full_parsers_sound_15_clusters() {
        let scenario = MySqlScenario::with_full_parsers();
        let (clustering, score) = scenario.cluster_and_score();
        clustering.validate_partition().unwrap();
        assert_eq!(score.misplaced, 0, "clustering must be sound");
        assert_eq!(
            clustering.len(),
            15,
            "paper: 15 clusters; got {:#?}",
            clustering
                .clusters
                .iter()
                .map(|c| c.members.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(score.unnecessary_clusters, 12, "paper: C = 12");
        assert_eq!(score.quality(), ClusterQuality::Sound);
        // The two identical Ubuntu machines share a cluster.
        let base = clustering.cluster_of("ubt-ms4").unwrap();
        assert!(base.contains("ubt-ms4(2)"));
        // Comment-only edits cluster with the standard config.
        let withcfg = clustering.cluster_of("ubt-ms4/withconfig").unwrap();
        assert!(withcfg.contains("ubt-ms4/comment-added"));
        assert!(withcfg.contains("ubt-ms4/comment-deleted"));
        // PHP-problem machines never share a cluster with healthy ones.
        let php = clustering.cluster_of("ubt-ms4/php4").unwrap();
        for m in &php.members {
            assert_eq!(
                scenario.behavior.get(m).map(String::as_str),
                Some("php-broken-dep")
            );
        }
    }

    #[test]
    fn figure7_mirage_parsers_d3_w2() {
        let scenario = MySqlScenario::with_mirage_parsers(3);
        let (clustering, score) = scenario.cluster_and_score();
        clustering.validate_partition().unwrap();
        assert_eq!(score.misplaced, 2, "paper: w = 2 at diameter 3");
        // The PHP machines are still clustered correctly (all-php
        // clusters).
        let php = clustering.cluster_of("ubt-ms4/php4").unwrap();
        for m in &php.members {
            assert_eq!(
                scenario.behavior.get(m).map(String::as_str),
                Some("php-broken-dep")
            );
        }
    }

    #[test]
    fn figure7_diameter_zero_is_sound_but_fragmented() {
        let scenario = MySqlScenario::with_mirage_parsers(0);
        let (clustering, score) = scenario.cluster_and_score();
        assert_eq!(score.misplaced, 0, "d = 0 separates the benign diffs too");
        let (_, d3_score) = MySqlScenario::with_mirage_parsers(3).cluster_and_score();
        let d3_clusters = d3_score.clusters;
        assert!(
            clustering.len() > d3_clusters,
            "d = 0 must create more clusters than d = 3"
        );
    }

    #[test]
    fn mycnf_importance_merge_keeps_problems_separate() {
        let scenario = MySqlScenario::with_full_parsers();
        let (full, full_score) = scenario.cluster_and_score();
        let (merged, merged_score) = scenario.cluster_ignoring_mycnf();
        assert!(merged.len() < full.len(), "ignoring my.cnf merges clusters");
        assert_eq!(merged_score.misplaced, 0, "problems remain separated");
        assert_eq!(full_score.misplaced, 0);
        // userconfig machines (the my.cnf problem) still isolated.
        let user = merged.cluster_of("ubt-ms4/userconfig").unwrap();
        for m in &user.members {
            assert_eq!(
                scenario.behavior.get(m).map(String::as_str),
                Some("mycnf-legacy")
            );
        }
    }

    #[test]
    fn problems_trigger_on_the_right_machines() {
        let repo = repository();
        let upgrade = mysql5_upgrade();
        for config in table2_configs() {
            let machine = build_machine(&config, &repo);
            // Problems evaluate against the post-upgrade state; simulate
            // by checking the trigger on a sandboxed upgrade.
            let mut sandbox = mirage_testing::Sandbox::boot(&machine);
            sandbox.apply_upgrade(&repo, &upgrade).unwrap();
            let active: Vec<String> = upgrade
                .active_problems(&sandbox.machine)
                .into_iter()
                .map(|p| p.id.0.clone())
                .collect();
            if config.php4 {
                assert!(
                    active.contains(&"php-broken-dep".to_string()),
                    "{}",
                    config.name
                );
            }
            if config.user_config {
                assert!(
                    active.contains(&"mycnf-legacy".to_string()),
                    "{}",
                    config.name
                );
            }
            if !config.php4 && !config.user_config {
                assert!(
                    active.is_empty(),
                    "{} should be healthy: {active:?}",
                    config.name
                );
            }
        }
    }
}
