//! The vendor side: reference environment, parsers, rules, repository.

use mirage_cluster::{ClusterEngine, Clustering, MachineInfo};
use mirage_env::{Machine, Repository, RunInput, Upgrade};
use mirage_fingerprint::{HashValue, ImportanceFilter, Item, MachineFingerprint, ParserRegistry};
use mirage_heuristic::{identify, Classification, HeuristicConfig, RuleSet};
use mirage_telemetry::Telemetry;
use mirage_trace::{RunId, Trace};

/// The vendor: reference machine, fingerprinting policy, repository.
pub struct Vendor {
    /// The vendor's reference machine for the application being shipped.
    pub reference: Machine,
    /// Parser registry (Mirage-supplied plus vendor-supplied parsers).
    pub registry: ParserRegistry,
    /// Include/exclude rules for the resource-identification heuristic.
    pub rules: RuleSet,
    /// Heuristic configuration (env types, default excludes).
    pub heuristic: HeuristicConfig,
    /// The package repository upgrades ship from.
    pub repo: Repository,
    /// Phase-2 cluster diameter.
    pub diameter: usize,
    /// Item-importance filter applied before clustering.
    pub importance: ImportanceFilter,
    /// Telemetry handle threaded into clustering (no-op by default).
    pub telemetry: Telemetry,
}

impl Vendor {
    /// Creates a vendor around a reference machine and repository.
    pub fn new(reference: Machine, repo: Repository) -> Self {
        Vendor {
            reference,
            registry: mirage_fingerprint::parsers::mirage_default_registry(),
            rules: RuleSet::new(),
            heuristic: HeuristicConfig::paper_default(),
            repo,
            diameter: 3,
            importance: ImportanceFilter::new(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Replaces the parser registry (e.g. to add vendor parsers).
    pub fn with_registry(mut self, registry: ParserRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the heuristic rules.
    pub fn with_rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Sets the clustering diameter.
    pub fn with_diameter(mut self, diameter: usize) -> Self {
        self.diameter = diameter;
        self
    }

    /// Sets the importance filter.
    pub fn with_importance(mut self, importance: ImportanceFilter) -> Self {
        self.importance = importance;
        self
    }

    /// Attaches a telemetry handle; clustering runs are instrumented
    /// with it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Traces `app` on the reference machine over `inputs` and runs the
    /// identification heuristic on the resulting traces.
    pub fn classify_reference(&self, app: &str, inputs: &[RunInput]) -> Classification {
        let traces: Vec<Trace> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| self.reference.run_app(app, input, RunId(i as u64)))
            .collect();
        classify_machine(&self.reference, app, &traces, &self.heuristic, &self.rules)
    }

    /// Fingerprints the reference machine's environmental resources —
    /// the item list sent to every user machine for comparison.
    pub fn reference_fingerprint(&self, classification: &Classification) -> MachineFingerprint {
        fingerprint_machine(
            &self.reference,
            classification,
            &self.registry,
            "vendor-reference",
        )
    }

    /// Clusters a fleet given each machine's clustering input.
    pub fn cluster(&self, machines: &[MachineInfo]) -> Clustering {
        ClusterEngine::new(self.diameter)
            .with_importance(self.importance.clone())
            .with_telemetry(self.telemetry.clone())
            .cluster(machines)
    }

    /// Identifies which problems an upgrade exhibits on `machine`.
    ///
    /// Models the vendor reproducing a failure from a report image: the
    /// upgrade is re-applied to a sandboxed copy of the failing
    /// environment (the image carries that state in the paper) and the
    /// problems are pinpointed against the *post-upgrade* machine —
    /// triggers like "PHP linked against the new library" only hold once
    /// the upgrade is in place.
    pub fn diagnose(&self, upgrade: &Upgrade, machine: &Machine) -> Vec<String> {
        let mut sandbox = mirage_testing::Sandbox::boot(machine);
        let _ = sandbox.apply_upgrade(&self.repo, upgrade);
        upgrade
            .active_problems(&sandbox.machine)
            .into_iter()
            .map(|p| p.id.0.clone())
            .collect()
    }
}

/// Runs the identification heuristic for `app` on any machine, over
/// traces the caller keeps.
pub fn classify_machine<'a>(
    machine: &'a Machine,
    app: &str,
    traces: impl IntoIterator<Item = &'a Trace>,
    config: &HeuristicConfig,
    rules: &RuleSet,
) -> Classification {
    let manifest = machine
        .apps
        .get(app)
        .into_iter()
        .flat_map(|spec| machine.pkgs.manifest(&spec.package));
    let kind_of = |path: &str| machine.fs.get(path).map(|f| f.kind);
    identify(traces, manifest, &kind_of, config, rules)
}

/// Fingerprints a machine's identified environmental resources.
///
/// Environment variables read by the application become parsed items of
/// the form `env.NAME.VALUE_HASH`.
pub fn fingerprint_machine(
    machine: &Machine,
    classification: &Classification,
    registry: &ParserRegistry,
    label: &str,
) -> MachineFingerprint {
    let resources = machine.fs.resources(classification.env_resources.iter());
    let mut fp = MachineFingerprint::of_resources(label, &resources, registry);
    for var in &classification.env_vars {
        if let Some(value) = machine.env.get(var) {
            fp.parsed.insert(Item::new([
                "env",
                var.as_str(),
                &HashValue::of_str(value).short(),
            ]));
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_env::{ApplicationSpec, File, IniDoc, MachineBuilder, Package, Version, VersionReq};

    fn world() -> (Repository, Machine) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("app", Version::new(1, 0, 0))
                .with_file(File::executable("/usr/bin/app", "app", 1))
                .with_file(File::library("/usr/lib/libapp.so", "libapp", "1.0", 1)),
        );
        let machine = MachineBuilder::new("ref")
            .install(&repo, "app", VersionReq::Any)
            .file(File::config(
                "/etc/app.conf",
                IniDoc::new().section("main").key("mode", "fast"),
            ))
            .env_var("APP_HOME", "/usr/share/app")
            .app(
                ApplicationSpec::new("app", "app", "/usr/bin/app")
                    .reads("/usr/lib/libapp.so")
                    .reads("/etc/app.conf")
                    .env("APP_HOME"),
            )
            .build();
        (repo, machine)
    }

    #[test]
    fn vendor_classifies_and_fingerprints_reference() {
        let (repo, reference) = world();
        let vendor = Vendor::new(reference, repo);
        let classification =
            vendor.classify_reference("app", &[RunInput::new("a"), RunInput::new("b")]);
        assert!(classification.is_env("/usr/bin/app"));
        assert!(classification.is_env("/etc/app.conf"));
        assert!(classification.env_vars.contains("APP_HOME"));
        let fp = vendor.reference_fingerprint(&classification);
        assert!(!fp.is_empty());
        // Env var item present.
        assert!(fp.parsed.iter().any(|i| i.resource() == "env"));
    }

    #[test]
    fn identical_machine_diffs_empty() {
        let (repo, reference) = world();
        let (_, user) = world();
        let vendor = Vendor::new(reference, repo);
        let c = vendor.classify_reference("app", &[RunInput::new("a")]);
        let ref_fp = vendor.reference_fingerprint(&c);
        let traces = vec![user.run_app("app", &RunInput::new("a"), RunId(0))];
        let uc = classify_machine(&user, "app", &traces, &vendor.heuristic, &vendor.rules);
        let ufp = fingerprint_machine(&user, &uc, &vendor.registry, &user.id);
        assert!(ufp.diff(&ref_fp).is_empty());
    }

    #[test]
    fn config_difference_shows_in_diff() {
        let (repo, reference) = world();
        let (_, mut user) = world();
        user.fs.insert(File::config(
            "/etc/app.conf",
            IniDoc::new().section("main").key("mode", "slow"),
        ));
        let vendor = Vendor::new(reference, repo);
        let c = vendor.classify_reference("app", &[RunInput::new("a")]);
        let ref_fp = vendor.reference_fingerprint(&c);
        let traces = vec![user.run_app("app", &RunInput::new("a"), RunId(0))];
        let uc = classify_machine(&user, "app", &traces, &vendor.heuristic, &vendor.rules);
        let ufp = fingerprint_machine(&user, &uc, &vendor.registry, &user.id);
        let diff = ufp.diff(&ref_fp);
        // One item each side (differing value hash for mode).
        assert_eq!(diff.parsed.len(), 2);
    }

    #[test]
    fn diagnose_resolves_problem_ids() {
        use mirage_env::{EnvPredicate, ProblemEffect, ProblemSpec};
        let (repo, reference) = world();
        let (_, user) = world();
        let vendor = Vendor::new(reference, repo);
        let upgrade = Upgrade::new(
            Package::new("app", Version::new(2, 0, 0)),
            vec![ProblemSpec::new(
                "p1",
                "always breaks",
                EnvPredicate::Always,
                ProblemEffect::CrashOnStart { app: "app".into() },
            )],
        );
        assert_eq!(vendor.diagnose(&upgrade, &user), vec!["p1"]);
    }
}
