//! The upgrade-validation subsystem.

use std::collections::BTreeSet;

use mirage_env::app::{execute, RunOutputs, EXIT_ABORT, EXIT_NO_IMAGE};
use mirage_env::problems::run_behavior_for;
use mirage_env::{Machine, Repository, RunInput, Upgrade, UpgradeId};
use mirage_trace::RunId;

use crate::compare::{diff_outputs, OutputDiff};
use crate::record::RecordedRun;
use crate::sandbox::Sandbox;

/// How to treat output mismatches — the stand-in for the human decision
/// the paper asks of the user when observed behaviour differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AcceptancePolicy {
    /// Any difference fails validation (the safe default).
    #[default]
    RejectDifferences,
    /// Differences are accepted (a representative approving a
    /// legitimately I/O-changing feature upgrade, §3.5).
    AcceptDifferences,
}

/// Why an application failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The upgrade did not integrate (missing image / missing required
    /// resource).
    Integration {
        /// Exit code observed.
        exit_code: i32,
    },
    /// The application crashed when run on recorded inputs.
    Crash {
        /// Exit code observed.
        exit_code: i32,
    },
    /// The application ran but produced different outputs.
    OutputMismatch {
        /// Human-readable difference list.
        diffs: Vec<String>,
    },
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Integration { exit_code } => {
                write!(f, "integration failure (exit {exit_code})")
            }
            FailureKind::Crash { exit_code } => write!(f, "crash (exit {exit_code})"),
            FailureKind::OutputMismatch { diffs } => {
                write!(f, "output mismatch: {}", diffs.join("; "))
            }
        }
    }
}

/// The validation verdict for one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppVerdict {
    /// Application name.
    pub app: String,
    /// `Ok(())` on pass, or the failure.
    pub result: Result<(), FailureKind>,
    /// Number of recorded runs replayed (0 = integration/crash check
    /// only).
    pub(crate) runs_tested: usize,
}

impl AppVerdict {
    /// Returns `true` if the application passed.
    pub(crate) fn passed(&self) -> bool {
        self.result.is_ok()
    }
}

/// The complete validation result for one upgrade on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// The upgrade validated.
    pub(crate) upgrade: UpgradeId,
    /// The machine it was validated on.
    pub(crate) machine: String,
    /// Files the upgrade changed in the sandbox.
    pub changed_paths: BTreeSet<String>,
    /// Applications deemed affected and their verdicts.
    pub verdicts: Vec<AppVerdict>,
}

impl ValidationReport {
    /// Returns `true` if every affected application passed.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(AppVerdict::passed)
    }

    /// Returns the first failure, if any (the failure signature reported
    /// to the vendor).
    pub fn first_failure(&self) -> Option<(&str, &FailureKind)> {
        self.verdicts.iter().find_map(|v| match &v.result {
            Ok(()) => None,
            Err(kind) => Some((v.app.as_str(), kind)),
        })
    }
}

/// The validator: applies an upgrade in a sandbox and replays recorded
/// runs of the affected applications.
#[derive(Debug, Clone, Default)]
pub struct Validator {
    /// Mismatch handling policy.
    pub(crate) policy: AcceptancePolicy,
}

impl Validator {
    /// Creates a validator with the safe default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a validator with an explicit policy.
    pub fn with_policy(policy: AcceptancePolicy) -> Self {
        Validator { policy }
    }

    /// Validates `upgrade` for `machine` against its recorded runs.
    ///
    /// `runs` is the machine's trace library (all applications mixed);
    /// the validator selects the runs of affected applications itself.
    /// An upgrade that cannot even be installed (dependency resolution
    /// failure) is reported as a [`FailureKind::Integration`] on the
    /// package itself.
    pub fn validate(
        &self,
        machine: &Machine,
        repo: &Repository,
        upgrade: &Upgrade,
        runs: &[RecordedRun],
    ) -> ValidationReport {
        self.validate_in_sandbox(machine, repo, upgrade, runs).0
    }

    /// [`Validator::validate`], also handing back the sandbox's machine
    /// when the upgrade installed: `machine` with the upgrade applied
    /// (replay never writes to it), which integration adopts on a pass.
    pub fn validate_in_sandbox(
        &self,
        machine: &Machine,
        repo: &Repository,
        upgrade: &Upgrade,
        runs: &[RecordedRun],
    ) -> (ValidationReport, Option<Machine>) {
        let mut sandbox = Sandbox::boot(machine);
        let (changed_paths, verdicts, upgraded) = match sandbox.apply_upgrade(repo, upgrade) {
            Ok(install) => {
                let changed_paths = sandbox.changed_paths(&install, machine);
                let affected = sandbox.machine.apps_affected_by(&changed_paths);
                let verdicts = affected
                    .iter()
                    .map(|app| self.validate_app(&sandbox, upgrade, app, runs))
                    .collect();
                (changed_paths, verdicts, Some(sandbox.machine))
            }
            Err(_) => {
                let verdict = AppVerdict {
                    app: upgrade.package.name.clone(),
                    result: Err(FailureKind::Integration {
                        exit_code: EXIT_NO_IMAGE,
                    }),
                    runs_tested: 0,
                };
                (BTreeSet::new(), vec![verdict], None)
            }
        };
        let report = ValidationReport {
            upgrade: upgrade.id(),
            machine: machine.id.clone(),
            changed_paths,
            verdicts,
        };
        (report, upgraded)
    }

    /// Replays `app`'s recorded runs in the sandbox, recording only
    /// their outputs and exit codes: what the verdict compares.
    fn validate_app(
        &self,
        sandbox: &Sandbox,
        upgrade: &Upgrade,
        app: &str,
        runs: &[RecordedRun],
    ) -> AppVerdict {
        // Problems trigger against the *post-upgrade* environment.
        let behavior = run_behavior_for(&sandbox.machine, app, &upgrade.problems);
        let verdict = |result, runs_tested| AppVerdict {
            app: app.to_string(),
            result,
            runs_tested,
        };
        let app_runs = || runs.iter().filter(|r| r.app() == app);
        let tested = app_runs().count();
        let machine = &sandbox.machine;
        // `app` comes from `apps_affected_by` on this same machine.
        let spec = &machine.apps[app];
        let replay = |input: &RunInput| {
            let mut outputs = RunOutputs::default();
            execute(
                &machine.fs,
                &machine.env,
                spec,
                input,
                &behavior,
                &mut outputs,
            );
            outputs
        };

        if tested == 0 {
            // No traces: integration and crash checking only (§3.3).
            let input = RunInput::new("integration-check");
            let outputs = replay(&input);
            return verdict(classify_exit(outputs.exit_code), 0);
        }

        for run in app_runs() {
            let outputs = replay(&run.input);
            if let Err(kind) = classify_exit(outputs.exit_code) {
                return verdict(Err(kind), tested);
            }
            if self.policy == AcceptancePolicy::RejectDifferences {
                let diffs = diff_outputs(&run.trace, &outputs);
                if !diffs.is_empty() {
                    let diffs = diffs.iter().map(OutputDiff::to_string).collect();
                    return verdict(Err(FailureKind::OutputMismatch { diffs }), tested);
                }
            }
        }
        verdict(Ok(()), tested)
    }
}

pub(crate) fn classify_exit(exit_code: Option<i32>) -> Result<(), FailureKind> {
    match exit_code {
        Some(0) => Ok(()),
        Some(code) if code == EXIT_NO_IMAGE || code == EXIT_ABORT => {
            Err(FailureKind::Integration { exit_code: code })
        }
        Some(code) => Err(FailureKind::Crash { exit_code: code }),
        None => Err(FailureKind::Crash { exit_code: -1 }),
    }
}

/// Produces fresh reference runs for an approved I/O-changing upgrade.
///
/// After a representative accepts new behaviour, Mirage records traces of
/// the upgraded application at the representative and ships them to the
/// rest of the cluster, which can then validate the upgrade without
/// human involvement (paper §3.5).
pub fn refresh_runs(
    machine: &Machine,
    repo: &Repository,
    upgrade: &Upgrade,
    inputs: &[RunInput],
    app: &str,
) -> Vec<RecordedRun> {
    let mut sandbox = Sandbox::boot(machine);
    if sandbox.apply_upgrade(repo, upgrade).is_err() {
        return Vec::new();
    }
    let behavior = run_behavior_for(&sandbox.machine, app, &upgrade.problems);
    inputs
        .iter()
        .enumerate()
        .filter_map(|(i, input)| {
            sandbox
                .machine
                .run_app_with_behavior(app, input, RunId(i as u64), &behavior)
                .map(|trace| RecordedRun::new(input.clone(), trace))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_env::{
        AppLogic, ApplicationSpec, EnvPredicate, File, MachineBuilder, Package, ProblemEffect,
        ProblemSpec, Version, VersionReq,
    };

    /// World: an editor app (upgraded) and a plugin app that reads the
    /// editor's library. The upgrade can carry problems.
    fn world() -> (Repository, Machine) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("editor", Version::new(1, 0, 0))
                .with_file(File::executable("/usr/bin/ed", "ed", 1))
                .with_file(File::library("/usr/lib/libed.so", "libed", "1.0", 1)),
        );
        let machine = MachineBuilder::new("m")
            .install(&repo, "editor", VersionReq::Any)
            .file(File::data("/home/u/doc.txt", 3, 64))
            .app(
                ApplicationSpec::new("editor", "editor", "/usr/bin/ed")
                    .reads("/usr/lib/libed.so")
                    .with_logic(AppLogic {
                        serves_net: true,
                        writes_data: false,
                        log_path: Some("/home/u/.ed.log".into()),
                        output_path: Some("/home/u/out.txt".into()),
                        version_sensitive: false,
                    }),
            )
            .build();
        (repo, machine)
    }

    fn upgrade_v2(problems: Vec<ProblemSpec>) -> Upgrade {
        Upgrade::new(
            Package::new("editor", Version::new(2, 0, 0))
                .with_file(File::executable("/usr/bin/ed", "ed", 2))
                .with_file(File::library("/usr/lib/libed.so", "libed", "2.0", 2)),
            problems,
        )
    }

    fn record(machine: &Machine) -> Vec<RecordedRun> {
        let input = RunInput::new("w")
            .data("/home/u/doc.txt")
            .request("client", b"hello".to_vec());
        let trace = machine.run_app("editor", &input, RunId(0));
        vec![RecordedRun::new(input, trace)]
    }

    #[test]
    fn clean_upgrade_passes() {
        let (repo, machine) = world();
        let runs = record(&machine);
        let report = Validator::new().validate(&machine, &repo, &upgrade_v2(vec![]), &runs);
        assert!(report.passed(), "unexpected failure: {report:?}");
        assert!(report.changed_paths.contains("/usr/bin/ed"));
        assert_eq!(report.verdicts.len(), 1);
        assert_eq!(report.verdicts[0].runs_tested, 1);
        assert!(report.first_failure().is_none());
        // The live machine is untouched.
        assert_eq!(
            machine.pkgs.installed_version("editor"),
            Some(Version::new(1, 0, 0))
        );
    }

    #[test]
    fn crashing_upgrade_fails() {
        let (repo, machine) = world();
        let runs = record(&machine);
        let upgrade = upgrade_v2(vec![ProblemSpec::new(
            "crash",
            "editor crashes everywhere",
            EnvPredicate::Always,
            ProblemEffect::CrashOnStart {
                app: "editor".into(),
            },
        )]);
        let report = Validator::new().validate(&machine, &repo, &upgrade, &runs);
        assert!(!report.passed());
        let (app, kind) = report.first_failure().unwrap();
        assert_eq!(app, "editor");
        assert!(matches!(kind, FailureKind::Crash { .. }));
    }

    #[test]
    fn wrong_output_upgrade_fails_comparison() {
        let (repo, machine) = world();
        let runs = record(&machine);
        let upgrade = upgrade_v2(vec![ProblemSpec::new(
            "corrupt",
            "bad replies",
            EnvPredicate::Always,
            ProblemEffect::WrongOutput {
                app: "editor".into(),
                tag: "!x".into(),
            },
        )]);
        let report = Validator::new().validate(&machine, &repo, &upgrade, &runs);
        let (_, kind) = report.first_failure().unwrap();
        assert!(matches!(kind, FailureKind::OutputMismatch { .. }));
        // A permissive policy (representative approving new behaviour)
        // accepts the same difference.
        let report = Validator::with_policy(AcceptancePolicy::AcceptDifferences)
            .validate(&machine, &repo, &upgrade, &runs);
        assert!(report.passed());
    }

    #[test]
    fn environment_gated_problem_only_fires_where_triggered() {
        let (repo, machine) = world();
        let runs = record(&machine);
        let upgrade = upgrade_v2(vec![ProblemSpec::new(
            "legacy",
            "fails with legacy config",
            EnvPredicate::FileExists("/home/u/.edrc".into()),
            ProblemEffect::FailToStart {
                app: "editor".into(),
            },
        )]);
        // Machine without the legacy config passes.
        let report = Validator::new().validate(&machine, &repo, &upgrade, &runs);
        assert!(report.passed());
        // Machine with it fails.
        let mut legacy = machine.clone();
        legacy.fs.insert(File::config(
            "/home/u/.edrc",
            mirage_env::IniDoc::new().key("mode", "legacy"),
        ));
        let legacy_runs = record(&legacy);
        let report = Validator::new().validate(&legacy, &repo, &upgrade, &legacy_runs);
        assert!(!report.passed());
        assert!(matches!(
            report.first_failure().unwrap().1,
            FailureKind::Crash { .. } | FailureKind::Integration { .. }
        ));
    }

    #[test]
    fn upgrade_without_traces_gets_integration_check() {
        let (repo, machine) = world();
        // No recorded runs at all.
        let report = Validator::new().validate(&machine, &repo, &upgrade_v2(vec![]), &[]);
        assert!(report.passed());
        assert_eq!(report.verdicts[0].runs_tested, 0);
    }

    #[test]
    fn unresolvable_upgrade_reports_integration_failure() {
        let (repo, machine) = world();
        let upgrade = Upgrade::new(
            Package::new("editor", Version::new(3, 0, 0)).with_dep("ghost-lib", VersionReq::Any),
            vec![],
        );
        let report = Validator::new().validate(&machine, &repo, &upgrade, &[]);
        assert!(!report.passed());
        assert!(matches!(
            report.first_failure().unwrap().1,
            FailureKind::Integration { .. }
        ));
    }

    #[test]
    fn refresh_runs_produces_new_references() {
        let (repo, machine) = world();
        let inputs = vec![RunInput::new("w").request("client", b"hello".to_vec())];
        let refreshed = refresh_runs(&machine, &repo, &upgrade_v2(vec![]), &inputs, "editor");
        assert_eq!(refreshed.len(), 1);
        assert_eq!(refreshed[0].app(), "editor");
        assert!(refreshed[0].trace.succeeded());
        // Refreshed runs validate the same upgrade cleanly on peers.
        let report = Validator::new().validate(&machine, &repo, &upgrade_v2(vec![]), &refreshed);
        assert!(report.passed());
    }
}
