//! Two more of the paper's real-world upgrade problems (§2.3), end to
//! end: the Apache 1.3.24→1.3.26 Include/ACL incompatibility \[3\]
//! ("incompatibility with legacy configurations") and the
//! SlimServer 6.5.1 database omission ("improper packaging").
//!
//! * **Apache**: configurations that `Include` an access-control file
//!   stop working after the 1.3.26 upgrade; the admin had to move the
//!   included contents into the main configuration file. Machines with
//!   the `Include` directive form their own cluster (one differing
//!   parsed item under the vendor's `httpd.conf` parser), so staging
//!   confines the failure to that cluster's representative.
//! * **SlimServer**: the 6.5.1 package did not upgrade the database, so
//!   the server "would not start due to a changed database format" —
//!   modelled as a trigger on the *absence* of the new-format database
//!   file, which the corrected package ships.

use std::collections::BTreeMap;

use mirage_cluster::{Clustering, ClusteringScore};
use mirage_core::{UserAgent, Vendor};
use mirage_env::{
    ApplicationSpec, EnvPredicate, File, FileContent, MachineBuilder, Package, ProblemEffect,
    ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage_fingerprint::parsers::{mirage_default_registry, HttpdConfParser};
use mirage_fingerprint::{Glob, ParserRegistry, ResourceKind};

/// Path of the main Apache configuration file.
pub(crate) const HTTPD_CONF: &str = "/etc/apache/httpd.conf";
/// Path of the included access-control file.
pub(crate) const ACL_CONF: &str = "/etc/apache/acl.conf";

fn httpd_conf(with_include: bool, keepalive: Option<&str>) -> File {
    let mut lines = vec![
        "# Apache HTTP server configuration".to_string(),
        "ServerRoot /srv/apache".to_string(),
        "Listen 80".to_string(),
    ];
    if let Some(v) = keepalive {
        lines.push(format!("KeepAlive {v}"));
    }
    lines.push("<Directory /srv/www>".to_string());
    lines.push("Options Indexes".to_string());
    lines.push("</Directory>".to_string());
    if with_include {
        lines.push(format!("Include {ACL_CONF}"));
    }
    File::new(HTTPD_CONF, ResourceKind::Config, FileContent::Text(lines)).env_resource()
}

/// The Apache repository: 1.3.24 installed everywhere.
pub fn repository() -> Repository {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("apache", Version::new(1, 3, 24)).with_file(File::executable(
            "/usr/sbin/httpd",
            "httpd",
            1324,
        )),
    );
    repo
}

/// The Apache application spec.
pub(crate) fn apache_spec() -> ApplicationSpec {
    ApplicationSpec::new("apache", "apache", "/usr/sbin/httpd")
        .reads(HTTPD_CONF)
        .probes(ACL_CONF)
}

/// One fleet machine: `include_acl` reproduces the problem
/// configuration; `keepalive` is a benign config variation.
pub fn build_machine(
    name: &str,
    include_acl: bool,
    keepalive: Option<&str>,
    repo: &Repository,
) -> mirage_env::Machine {
    let mut builder = MachineBuilder::new(name)
        .install(repo, "apache", VersionReq::Any)
        .app(apache_spec())
        .file(httpd_conf(include_acl, keepalive));
    if include_acl {
        builder = builder.file(
            File::new(
                ACL_CONF,
                ResourceKind::Config,
                FileContent::Text(vec![
                    "<Directory /srv/www/private>".into(),
                    "Order deny,allow".into(),
                    "</Directory>".into(),
                ]),
            )
            .env_resource(),
        );
    }
    builder.build()
}

/// The 1.3.26 upgrade with the Include/ACL problem \[3\].
pub(crate) fn acl_upgrade() -> Upgrade {
    Upgrade::new(
        Package::new("apache", Version::new(1, 3, 26)).with_file(File::executable(
            "/usr/sbin/httpd",
            "httpd",
            1326,
        )),
        vec![ProblemSpec::new(
            "acl-include",
            "1.3.26 breaks configurations that Include an ACL file",
            EnvPredicate::FileContains {
                path: HTTPD_CONF.into(),
                needle: format!("Include {ACL_CONF}"),
            },
            ProblemEffect::FailToStart {
                app: "apache".into(),
            },
        )],
    )
}

/// The vendor registry with the `httpd.conf` parser.
pub fn full_registry() -> ParserRegistry {
    let mut registry = mirage_default_registry();
    registry.register_vendor_glob(Glob::new("/etc/apache/**"), Box::new(HttpdConfParser));
    registry
}

/// The assembled Apache scenario: 8 machines, 2 with the ACL include.
pub struct ApacheScenario {
    /// The vendor.
    pub vendor: Vendor,
    /// The fleet agents.
    pub agents: Vec<UserAgent>,
    /// The 1.3.26 upgrade.
    pub upgrade: Upgrade,
    /// Ground-truth behaviours.
    pub behavior: BTreeMap<String, String>,
}

impl ApacheScenario {
    /// Builds the scenario.
    pub fn new() -> Self {
        let repo = repository();
        let reference = build_machine("vendor-reference", false, None, &repo);
        let vendor = Vendor::new(reference, repo)
            .with_registry(full_registry())
            .with_diameter(0);
        let mut agents = Vec::new();
        let mut behavior = BTreeMap::new();
        for i in 0..8 {
            let include_acl = i >= 6;
            let keepalive = if (3..6).contains(&i) {
                Some("On")
            } else {
                None
            };
            let name = format!("ap{i}");
            let machine = build_machine(&name, include_acl, keepalive, &vendor.repo);
            if include_acl {
                behavior.insert(name.clone(), "acl-include".to_string());
            }
            let mut agent = UserAgent::new(machine);
            agent.collect("apache", RunInput::new("serve-1"));
            agent.collect("apache", RunInput::new("serve-2"));
            agents.push(agent);
        }
        ApacheScenario {
            vendor,
            agents,
            upgrade: acl_upgrade(),
            behavior,
        }
    }

    /// Clusters the fleet and scores it.
    pub fn cluster_and_score(&self) -> (Clustering, ClusteringScore) {
        let classification = self
            .vendor
            .classify_reference("apache", &[RunInput::new("a"), RunInput::new("b")]);
        let reference = self.vendor.reference_fingerprint(&classification);
        let inputs: Vec<_> = self
            .agents
            .iter()
            .map(|a| a.clustering_input("apache", &self.vendor, &reference))
            .collect();
        let clustering = self.vendor.cluster(&inputs);
        let score = ClusteringScore::compute(&clustering, &self.behavior);
        (clustering, score)
    }
}

impl Default for ApacheScenario {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the SlimServer improper-packaging scenario: the 6.5.1 package
/// forgets to upgrade the database, so the server cannot start until
/// the corrected package ships the new-format file.
pub fn slimserver_scenario() -> (Repository, mirage_env::Machine, Upgrade, Upgrade) {
    let mut repo = Repository::new();
    repo.publish(
        Package::new("slimserver", Version::new(6, 5, 0))
            .with_file(File::executable("/usr/bin/slimserver", "slimserver", 650))
            .with_file(File::data("/srv/slimserver/library.db", 1, 512).env_resource()),
    );
    let machine = MachineBuilder::new("media-host")
        .install(&repo, "slimserver", VersionReq::Any)
        .app(
            ApplicationSpec::new("slimserver", "slimserver", "/usr/bin/slimserver")
                .reads("/srv/slimserver/library.db")
                .probes("/srv/slimserver/library-v2.db"),
        )
        .build();
    // 6.5.1: ships the new server but NOT the new-format database.
    let broken = Upgrade::new(
        Package::new("slimserver", Version::new(6, 5, 1)).with_file(File::executable(
            "/usr/bin/slimserver",
            "slimserver",
            651,
        )),
        vec![ProblemSpec::new(
            "missing-db-upgrade",
            "6.5.1 requires the v2 database format the package never ships",
            EnvPredicate::FileAbsent("/srv/slimserver/library-v2.db".into()),
            ProblemEffect::FailToStart {
                app: "slimserver".into(),
            },
        )],
    );
    // 6.5.2: the corrected package includes the migrated database, so the
    // problem's trigger can no longer hold.
    let fixed = Upgrade::new(
        Package::new("slimserver", Version::new(6, 5, 2))
            .with_file(File::executable("/usr/bin/slimserver", "slimserver", 652))
            .with_file(File::data("/srv/slimserver/library-v2.db", 2, 512).env_resource()),
        vec![broken.problems[0].clone()],
    );
    (repo, machine, broken, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_core::{Campaign, ProtocolChoice, RolloutPlan, RolloutStrategy};
    use mirage_deploy::DeployPlan;

    #[test]
    fn acl_machines_cluster_separately() {
        let scenario = ApacheScenario::new();
        let (clustering, score) = scenario.cluster_and_score();
        clustering.validate_partition().unwrap();
        // Three groups: plain, keepalive, acl-include.
        assert_eq!(clustering.len(), 3);
        assert_eq!(score.misplaced, 0);
        let acl = clustering.cluster_of("ap6").unwrap();
        assert!(acl.contains("ap7"));
        assert_eq!(acl.len(), 2);
    }

    #[test]
    fn acl_campaign_confines_the_failure() {
        let scenario = ApacheScenario::new();
        let upgrade = scenario.upgrade.clone();
        let (clustering, _) = scenario.cluster_and_score();
        let plan = RolloutPlan::new(
            DeployPlan::from_clustering(&clustering, 1),
            RolloutStrategy::Staged { waves: 1 },
        );
        let mut campaign = Campaign::new(scenario.vendor, scenario.agents);
        let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
        assert!(result.converged(8));
        assert_eq!(result.failed_validations, 1, "one representative only");
        let groups = campaign.urr.failure_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].machines.len(), 1);
    }
}
