//! The per-machine user agent.

use std::collections::BTreeSet;

use mirage_cluster::MachineInfo;
use mirage_env::{Machine, Repository, RunInput, Upgrade};
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
}

impl UserAgent {
    /// Creates an agent for a machine.
    pub fn new(machine: Machine) -> Self {
        UserAgent {
            machine,
            runs: Vec::new(),
            next_run: 0,
        }
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
                true
            }
            None => false,
        }
    }

    /// Identifies environmental resources of `app` from this machine's
    /// own traces, under the vendor's heuristic configuration and rules.
    pub(crate) fn classify(&self, app: &str, vendor: &Vendor) -> Classification {
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

    /// Tests an upgrade in the sandbox and, on a pass, integrates it:
    /// the live machine becomes the sandbox's upgraded machine, so the
    /// release is installed once, not again on the live system.
    pub fn upgrade(&mut self, repo: &Repository, upgrade: &Upgrade) -> ValidationReport {
        let (report, upgraded) =
            Validator::new().validate_in_sandbox(&self.machine, repo, upgrade, &self.runs);
        if let (true, Some(machine)) = (report.passed(), upgraded) {
            self.machine = machine;
        }
        report
    }

    /// Builds the report image for a failed validation.
    pub(crate) fn report_image(&self, validation: &ValidationReport) -> ReportImage {
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
        assert!(agent.test_upgrade(&repo, &upgrade).passed());
        assert_eq!(
            agent.machine.pkgs.installed_version("app"),
            Some(Version::new(1, 0, 0)),
            "testing alone leaves the live machine as it was"
        );
        assert!(agent.upgrade(&repo, &upgrade).passed());
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
        let validation = agent.upgrade(&repo, &upgrade);
        assert!(!validation.passed());
        assert_eq!(
            agent.machine.pkgs.installed_version("app"),
            Some(Version::new(1, 0, 0)),
            "a failed upgrade is not integrated"
        );
        let image = agent.report_image(&validation);
        assert!(!image.observed_outputs.is_empty());
        assert!(image.env_context.iter().any(|c| c.contains("/usr/bin/app")));
    }
}
