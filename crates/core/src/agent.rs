//! The per-machine user agent.

use std::collections::{BTreeMap, BTreeSet};

use mirage_cluster::MachineInfo;
use mirage_env::{Machine, Repository, RunInput, Upgrade};
use mirage_fingerprint::fnv1a;
use mirage_fingerprint::MachineFingerprint;
use mirage_heuristic::Classification;
use mirage_report::ReportImage;
use mirage_testing::{RecordedRun, ValidationReport, Validator};
use mirage_trace::RunId;

use crate::vendor::{classify_machine, fingerprint_machine, Vendor};

/// The Mirage daemon running on one user machine.
///
/// Owns the machine model and the machine's trace library; performs the
/// user-side half of every subsystem: trace collection, resource
/// identification, fingerprint comparison, sandbox validation, and
/// (after a pass) integration of the upgrade into the live system.
#[derive(Debug, Clone)]
pub struct UserAgent {
    /// The live machine.
    pub machine: Machine,
    /// Recorded runs (the trace library), all applications mixed.
    pub runs: Vec<RecordedRun>,
    next_run: u64,
    /// Environment digest per application at last trace collection —
    /// the dependence subsystem's trigger state (paper §3.3: tracing is
    /// re-started only "when necessary").
    trace_env_digest: BTreeMap<String, u64>,
}

impl UserAgent {
    /// Creates an agent for a machine.
    pub fn new(machine: Machine) -> Self {
        UserAgent {
            machine,
            runs: Vec::new(),
            next_run: 0,
            trace_env_digest: BTreeMap::new(),
        }
    }

    /// Digest of the environment an application currently depends on:
    /// the rendered contents of its executable, declared reads, and
    /// package manifest files.
    pub fn environment_digest(&self, app: &str) -> u64 {
        let Some(spec) = self.machine.apps.get(app) else {
            return 0;
        };
        // Deduplicate: XOR-combining would cancel a path listed both in
        // the spec and the package manifest.
        let mut paths: BTreeSet<&str> = BTreeSet::new();
        paths.insert(&spec.exe);
        paths.extend(spec.init_reads.iter().map(|r| r.path.as_str()));
        paths.extend(spec.late_reads.iter().map(|r| r.path.as_str()));
        paths.extend(self.machine.pkgs.manifest(&spec.package));
        let mut digest = 0u64;
        for path in paths {
            if let Some(file) = self.machine.fs.get(path) {
                digest ^= fnv1a(path.as_bytes()) ^ fnv1a(&file.content.render());
            }
        }
        digest
    }

    /// Returns `true` if `app`'s environment changed since its traces
    /// were recorded (or it has never been traced): the dependence
    /// subsystem's trace-collection trigger.
    pub fn needs_retrace(&self, app: &str) -> bool {
        self.trace_env_digest.get(app).copied() != Some(self.environment_digest(app))
    }

    /// Runs `app` on `input` and records the trace.
    ///
    /// Returns `false` if the application is not installed.
    pub fn collect(&mut self, app: &str, input: RunInput) -> bool {
        let run = RunId(self.next_run);
        match self.machine.try_run_app(app, &input, run) {
            Some(trace) => {
                self.next_run += 1;
                self.runs.push(RecordedRun::new(input, trace));
                let digest = self.environment_digest(app);
                self.trace_env_digest.insert(app.to_string(), digest);
                true
            }
            None => false,
        }
    }

    /// Drops an application's recorded runs (stale after an approved
    /// I/O-changing upgrade); the next [`UserAgent::collect`] rebuilds
    /// the library.
    pub fn invalidate_runs(&mut self, app: &str) -> usize {
        let before = self.runs.len();
        self.runs.retain(|r| r.app() != app);
        self.trace_env_digest.remove(app);
        before - self.runs.len()
    }

    /// Recorded runs of one application.
    pub fn runs_of(&self, app: &str) -> Vec<RecordedRun> {
        self.runs
            .iter()
            .filter(|r| r.app() == app)
            .cloned()
            .collect()
    }

    /// Identifies environmental resources of `app` from this machine's
    /// own traces, under the vendor's heuristic configuration and rules.
    pub fn classify(&self, app: &str, vendor: &Vendor) -> Classification {
        let traces = self
            .runs
            .iter()
            .filter(|r| r.app() == app)
            .map(|r| &r.trace);
        classify_machine(&self.machine, app, traces, &vendor.heuristic, &vendor.rules)
    }

    /// Fingerprints this machine and produces its clustering input (the
    /// diff against the vendor's reference list plus the overlapping
    /// application set).
    pub fn clustering_input(
        &self,
        app: &str,
        vendor: &Vendor,
        reference: &MachineFingerprint,
    ) -> MachineInfo {
        let classification = self.classify(app, vendor);
        let fp = fingerprint_machine(
            &self.machine,
            &classification,
            &vendor.registry,
            &self.machine.id,
        );
        let diff = fp.diff(reference);
        let mut info = MachineInfo::new(diff);
        // Applications overlapping the upgraded application's resources:
        // those affected by a hypothetical change to its manifest.
        if let Some(spec) = self.machine.apps.get(app) {
            let manifest: BTreeSet<&str> = self.machine.pkgs.manifest(&spec.package).collect();
            for affected in self.machine.apps_affected_by(&manifest) {
                if affected != app {
                    info.overlapping_apps.insert(affected);
                }
            }
        }
        info
    }

    /// Tests an upgrade in the sandbox against this machine's traces.
    pub fn test_upgrade(&self, repo: &Repository, upgrade: &Upgrade) -> ValidationReport {
        Validator::new().validate(&self.machine, repo, upgrade, &self.runs)
    }

    /// Integrates an upgrade into the live machine (after a pass).
    pub fn integrate(&mut self, repo: &Repository, upgrade: &Upgrade) -> bool {
        self.machine
            .pkgs
            .apply_package(&mut self.machine.fs, repo, &upgrade.package)
            .is_ok()
    }

    /// Builds the report image for a failed validation.
    pub fn report_image(&self, validation: &ValidationReport) -> ReportImage {
        let digest: String = format!("fs:{}files", self.machine.fs.len());
        let env_context = validation
            .changed_paths
            .iter()
            .map(|p| format!("changed:{p}"))
            .collect();
        let replayed_inputs = self.runs.iter().map(|r| r.input.id.clone()).collect();
        let observed_outputs = validation
            .verdicts
            .iter()
            .filter_map(|v| v.result.as_ref().err().map(|e| format!("{}: {e}", v.app)))
            .collect();
        ReportImage::new(digest, env_context, replayed_inputs, observed_outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_env::{ApplicationSpec, File, MachineBuilder, Package, Version, VersionReq};

    fn world() -> (Repository, Machine) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("app", Version::new(1, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                1,
            )),
        );
        let machine = MachineBuilder::new("u1")
            .install(&repo, "app", VersionReq::Any)
            .app(ApplicationSpec::new("app", "app", "/usr/bin/app"))
            .build();
        (repo, machine)
    }

    #[test]
    fn collect_records_runs() {
        let (_, machine) = world();
        let mut agent = UserAgent::new(machine);
        assert!(agent.collect("app", RunInput::new("w1")));
        assert!(agent.collect("app", RunInput::new("w2")));
        assert!(!agent.collect("ghost", RunInput::new("w3")));
        assert_eq!(agent.runs.len(), 2);
        assert_eq!(agent.runs_of("app").len(), 2);
        assert_eq!(agent.runs[0].trace.run, RunId(0));
        assert_eq!(agent.runs[1].trace.run, RunId(1));
    }

    #[test]
    fn clustering_input_against_identical_vendor_is_empty() {
        let (repo, reference) = world();
        let (_, user) = world();
        let vendor = Vendor::new(reference, repo);
        let c = vendor.classify_reference("app", &[RunInput::new("a")]);
        let ref_fp = vendor.reference_fingerprint(&c);
        let mut agent = UserAgent::new(user);
        agent.collect("app", RunInput::new("a"));
        let info = agent.clustering_input("app", &vendor, &ref_fp);
        assert!(info.diff.is_empty());
        assert!(info.overlapping_apps.is_empty());
    }

    #[test]
    fn test_and_integrate_upgrade() {
        let (mut repo, machine) = world();
        let v2 = Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            2,
        ));
        repo.publish(v2.clone());
        let upgrade = Upgrade::new(v2, vec![]);
        let mut agent = UserAgent::new(machine);
        agent.collect("app", RunInput::new("w"));
        let report = agent.test_upgrade(&repo, &upgrade);
        assert!(report.passed());
        assert!(agent.integrate(&repo, &upgrade));
        assert_eq!(
            agent.machine.pkgs.installed_version("app"),
            Some(Version::new(2, 0, 0))
        );
    }

    #[test]
    fn report_image_includes_failure_context() {
        use mirage_env::{EnvPredicate, ProblemEffect, ProblemSpec};
        let (mut repo, machine) = world();
        let v2 = Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            2,
        ));
        repo.publish(v2.clone());
        let upgrade = Upgrade::new(
            v2,
            vec![ProblemSpec::new(
                "p",
                "crash",
                EnvPredicate::Always,
                ProblemEffect::CrashOnStart { app: "app".into() },
            )],
        );
        let mut agent = UserAgent::new(machine);
        agent.collect("app", RunInput::new("w"));
        let validation = agent.test_upgrade(&repo, &upgrade);
        assert!(!validation.passed());
        let image = agent.report_image(&validation);
        assert!(!image.observed_outputs.is_empty());
        assert!(image.env_context.iter().any(|c| c.contains("/usr/bin/app")));
    }
}

#[cfg(test)]
mod retrace_tests {
    use super::*;
    use mirage_env::{ApplicationSpec, File, MachineBuilder, Package, Version, VersionReq};

    fn world() -> (Repository, Machine) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("app", Version::new(1, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                1,
            )),
        );
        repo.publish(
            Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                2,
            )),
        );
        let machine = MachineBuilder::new("m")
            .install(&repo, "app", VersionReq::Exact(Version::new(1, 0, 0)))
            .app(ApplicationSpec::new("app", "app", "/usr/bin/app"))
            .build();
        (repo, machine)
    }

    #[test]
    fn retrace_triggers_on_environment_change() {
        let (repo, machine) = world();
        let mut agent = UserAgent::new(machine);
        // Never traced: needs collection.
        assert!(agent.needs_retrace("app"));
        agent.collect("app", RunInput::new("w"));
        assert!(!agent.needs_retrace("app"), "fresh traces are current");
        // Integrating an upgrade changes the executable: retrace needed.
        let upgrade = Upgrade::new(
            repo.get("app", Version::new(2, 0, 0)).unwrap().clone(),
            vec![],
        );
        assert!(agent.integrate(&repo, &upgrade));
        assert!(agent.needs_retrace("app"));
        // Collecting again re-arms the trigger.
        agent.collect("app", RunInput::new("w2"));
        assert!(!agent.needs_retrace("app"));
    }

    #[test]
    fn invalidate_runs_clears_library_and_trigger() {
        let (_, machine) = world();
        let mut agent = UserAgent::new(machine);
        agent.collect("app", RunInput::new("w1"));
        agent.collect("app", RunInput::new("w2"));
        assert_eq!(agent.invalidate_runs("app"), 2);
        assert!(agent.runs.is_empty());
        assert!(agent.needs_retrace("app"));
        assert_eq!(agent.invalidate_runs("app"), 0);
    }

    #[test]
    fn unknown_app_digest_is_stable() {
        let (_, machine) = world();
        let agent = UserAgent::new(machine);
        assert_eq!(agent.environment_digest("ghost"), 0);
        assert!(agent.needs_retrace("ghost"));
    }
}
