//! Upgrades and injected upgrade problems.
//!
//! An [`Upgrade`] bundles a new package version with the set of latent
//! [`ProblemSpec`]s it carries. Each problem has an [`EnvPredicate`]
//! describing the environments in which it manifests — this is how the
//! paper's problem taxonomy (broken dependencies, legacy-configuration
//! incompatibilities, plain bugs, improper packaging) is encoded — and a
//! [`ProblemEffect`] describing *how* it manifests.
//!
//! Predicates are evaluated against a machine **after** the upgrade has
//! been applied (in the validation sandbox), matching the paper's model
//! where problems surface during post-upgrade testing.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::app::RunBehavior;
use crate::machine::Machine;
use crate::pkg::{Package, Version, VersionReq};

/// Identifier of one upgrade problem.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProblemId(pub String);

impl fmt::Display for ProblemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Identifier of one upgrade (package + version).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpgradeId {
    /// Upgraded package name.
    pub(crate) package: String,
    /// Target version.
    pub(crate) version: Version,
}

impl fmt::Display for UpgradeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.package, self.version)
    }
}

/// A predicate over a machine's (post-upgrade) environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvPredicate {
    /// Always true (a bug affecting everyone).
    Always,
    /// The given file exists.
    FileExists(String),
    /// The given file does not exist.
    FileAbsent(String),
    /// The file at `path` renders to content containing `needle`
    /// (works for any content kind; the Apache Include-directive
    /// problem \[3\] is detected this way).
    FileContains {
        /// File path.
        path: String,
        /// Substring looked for in the rendered content.
        needle: String,
    },
    /// An INI config file at `path` has `key` in `section`.
    ConfigHasKey {
        /// Config file path.
        path: String,
        /// Section name (`"global"` for the implicit section).
        section: String,
        /// Key or directive name.
        key: String,
    },
    /// The library file at `path` embeds exactly this version string.
    LibVersion {
        /// Library path.
        path: String,
        /// Expected embedded version.
        version: String,
    },
    /// A package is installed with a version matching `req`.
    InstalledVersion {
        /// Package name.
        package: String,
        /// Requirement on the installed version.
        req: VersionReq,
    },
    /// An application with this name is installed.
    AppInstalled(String),
    /// An environment variable is set.
    EnvVarSet(String),
    /// All sub-predicates hold.
    AllOf(Vec<EnvPredicate>),
    /// At least one sub-predicate holds.
    AnyOf(Vec<EnvPredicate>),
    /// The sub-predicate does not hold.
    Not(Box<EnvPredicate>),
}

impl EnvPredicate {
    /// Evaluates the predicate against a machine.
    pub fn eval(&self, machine: &Machine) -> bool {
        match self {
            EnvPredicate::Always => true,
            EnvPredicate::FileExists(path) => machine.fs.contains(path),
            EnvPredicate::FileAbsent(path) => !machine.fs.contains(path),
            EnvPredicate::FileContains { path, needle } => machine
                .fs
                .get(path)
                .map(|f| String::from_utf8_lossy(&f.content.render()).contains(needle.as_str()))
                .unwrap_or(false),
            EnvPredicate::ConfigHasKey { path, section, key } => machine
                .fs
                .get(path)
                .and_then(|f| match &f.content {
                    crate::content::FileContent::Ini(doc) => Some(doc.has_key_in(section, key)),
                    _ => None,
                })
                .unwrap_or(false),
            EnvPredicate::LibVersion { path, version } => machine
                .fs
                .get(path)
                .and_then(|f| f.content.library_version())
                .map(|v| v == version)
                .unwrap_or(false),
            EnvPredicate::InstalledVersion { package, req } => machine
                .pkgs
                .installed_version(package)
                .map(|v| req.matches(v))
                .unwrap_or(false),
            EnvPredicate::AppInstalled(app) => machine.apps.contains_key(app),
            EnvPredicate::EnvVarSet(var) => machine.env.contains_key(var),
            EnvPredicate::AllOf(ps) => ps.iter().all(|p| p.eval(machine)),
            EnvPredicate::AnyOf(ps) => ps.iter().any(|p| p.eval(machine)),
            EnvPredicate::Not(p) => !p.eval(machine),
        }
    }
}

/// How a triggered problem manifests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemEffect {
    /// The named application crashes during startup.
    CrashOnStart {
        /// Affected application.
        app: String,
    },
    /// The named application refuses to start.
    FailToStart {
        /// Affected application.
        app: String,
    },
    /// The named application runs but produces wrong output.
    WrongOutput {
        /// Affected application.
        app: String,
        /// Perturbation tag appended to outputs.
        tag: String,
    },
}

impl ProblemEffect {
    /// Returns the application the effect targets.
    pub(crate) fn app(&self) -> &str {
        match self {
            ProblemEffect::CrashOnStart { app }
            | ProblemEffect::FailToStart { app }
            | ProblemEffect::WrongOutput { app, .. } => app,
        }
    }
}

/// One latent problem carried by an upgrade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblemSpec {
    /// Problem identifier (stable across fix iterations).
    pub id: ProblemId,
    /// Human-readable description.
    pub(crate) description: String,
    /// Environments in which the problem manifests.
    pub(crate) trigger: EnvPredicate,
    /// How it manifests.
    pub(crate) effect: ProblemEffect,
}

impl ProblemSpec {
    /// Creates a problem spec.
    pub fn new(
        id: impl Into<String>,
        description: impl Into<String>,
        trigger: EnvPredicate,
        effect: ProblemEffect,
    ) -> Self {
        ProblemSpec {
            id: ProblemId(id.into()),
            description: description.into(),
            trigger,
            effect,
        }
    }
}

/// Computes the injected [`RunBehavior`] for one application on one
/// machine given the problems still live in an upgrade.
pub fn run_behavior_for(machine: &Machine, app: &str, problems: &[ProblemSpec]) -> RunBehavior {
    let mut behavior = RunBehavior::healthy();
    for p in problems {
        if p.effect.app() != app || !p.trigger.eval(machine) {
            continue;
        }
        match &p.effect {
            ProblemEffect::CrashOnStart { .. } => behavior.crash_on_start = true,
            ProblemEffect::FailToStart { .. } => behavior.fail_to_start = true,
            ProblemEffect::WrongOutput { tag, .. } => behavior.wrong_output_tag = Some(tag.clone()),
        }
    }
    behavior
}

/// How urgent an upgrade is — the vendor's §3.2.2 lever for choosing a
/// deployment protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Urgency {
    /// A routine upgrade: stage it carefully.
    #[default]
    Routine,
    /// A major release: the vendor "may decide to go slowly" —
    /// front-load the debugging.
    Major,
    /// An urgent, high-confidence upgrade (a security patch): bypass the
    /// cluster infrastructure and push to everyone at once.
    Urgent,
}

/// A deployable upgrade: a new package version with latent problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upgrade {
    /// The new package payload (including any dependency requirements),
    /// shared by every machine that installs it.
    pub package: Arc<Package>,
    /// Latent problems. Fixed problems are *removed* by [`Upgrade::fix`].
    pub problems: Vec<ProblemSpec>,
    /// Problems fixed relative to the original release (for reporting).
    pub(crate) fixed: BTreeSet<ProblemId>,
    /// Deployment urgency.
    pub urgency: Urgency,
}

impl Upgrade {
    /// Creates an upgrade carrying `problems`.
    pub fn new(package: Package, problems: Vec<ProblemSpec>) -> Self {
        Upgrade {
            package: Arc::new(package),
            problems,
            fixed: BTreeSet::new(),
            urgency: Urgency::Routine,
        }
    }

    /// Sets the deployment urgency.
    pub fn with_urgency(mut self, urgency: Urgency) -> Self {
        self.urgency = urgency;
        self
    }

    /// Returns the upgrade identifier.
    pub fn id(&self) -> UpgradeId {
        UpgradeId {
            package: self.package.name.clone(),
            version: self.package.version,
        }
    }

    /// Returns the problems whose triggers hold on `machine`.
    pub fn active_problems(&self, machine: &Machine) -> Vec<&ProblemSpec> {
        self.problems
            .iter()
            .filter(|p| p.trigger.eval(machine))
            .collect()
    }

    /// Produces a corrected release with `problem` removed and the patch
    /// version bumped — the vendor's debug-and-re-release step.
    ///
    /// Returns `None` if the upgrade does not carry that problem.
    pub fn fix(&self, problem: &ProblemId) -> Option<Upgrade> {
        if !self.problems.iter().any(|p| &p.id == problem) {
            return None;
        }
        let mut fixed = self.fixed.clone();
        fixed.insert(problem.clone());
        let mut package = Package::clone(&self.package);
        package.version = package.version.next_patch();
        // A fix changes the payload bytes: bump the build of every
        // executable/library file in the package. The files are shared
        // with the published release and with machines that installed it;
        // `make_mut` edits a private copy, and only of a file that changes.
        for file in &mut package.files {
            use crate::content::FileContent::{Executable, Library};
            if !matches!(file.content, Executable { .. } | Library { .. }) {
                continue;
            }
            if let Executable { build, .. } | Library { build, .. } =
                &mut Arc::make_mut(file).content
            {
                *build += 1;
            }
        }
        Some(Upgrade {
            package: Arc::new(package),
            problems: self
                .problems
                .iter()
                .filter(|p| &p.id != problem)
                .cloned()
                .collect(),
            fixed,
            urgency: self.urgency,
        })
    }

    /// Produces a corrected release with *all* problems in `ids` removed.
    pub fn fix_all<'a>(&self, ids: impl IntoIterator<Item = &'a ProblemId>) -> Upgrade {
        let mut current = self.clone();
        for id in ids {
            if let Some(next) = current.fix(id) {
                current = next;
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{FileContent, IniDoc};
    use crate::file::File;
    use crate::machine::MachineBuilder;

    fn machine_with_php() -> Machine {
        MachineBuilder::new("m")
            .file(File::library("/usr/lib/libmysql.so", "libmysql", "5.0", 5))
            .file(File::config(
                "/etc/mysql/my.cnf",
                IniDoc::new().section("mysqld").key("port", "3306"),
            ))
            .env_var("HOME", "/root")
            .app(crate::app::ApplicationSpec::new(
                "php",
                "php",
                "/usr/bin/php",
            ))
            .build()
    }

    #[test]
    fn predicates_evaluate() {
        let m = machine_with_php();
        assert!(EnvPredicate::Always.eval(&m));
        assert!(EnvPredicate::FileExists("/etc/mysql/my.cnf".into()).eval(&m));
        assert!(EnvPredicate::FileAbsent("/nope".into()).eval(&m));
        assert!(EnvPredicate::FileContains {
            path: "/etc/mysql/my.cnf".into(),
            needle: "port".into(),
        }
        .eval(&m));
        assert!(!EnvPredicate::FileContains {
            path: "/etc/mysql/my.cnf".into(),
            needle: "no-such-directive".into(),
        }
        .eval(&m));
        assert!(!EnvPredicate::FileContains {
            path: "/missing".into(),
            needle: "x".into(),
        }
        .eval(&m));
        assert!(EnvPredicate::ConfigHasKey {
            path: "/etc/mysql/my.cnf".into(),
            section: "mysqld".into(),
            key: "port".into(),
        }
        .eval(&m));
        assert!(!EnvPredicate::ConfigHasKey {
            path: "/etc/mysql/my.cnf".into(),
            section: "client".into(),
            key: "port".into(),
        }
        .eval(&m));
        assert!(EnvPredicate::LibVersion {
            path: "/usr/lib/libmysql.so".into(),
            version: "5.0".into(),
        }
        .eval(&m));
        assert!(EnvPredicate::AppInstalled("php".into()).eval(&m));
        assert!(!EnvPredicate::AppInstalled("apache".into()).eval(&m));
        assert!(EnvPredicate::EnvVarSet("HOME".into()).eval(&m));
        assert!(EnvPredicate::AllOf(vec![
            EnvPredicate::Always,
            EnvPredicate::Not(Box::new(EnvPredicate::EnvVarSet("NOPE".into()))),
        ])
        .eval(&m));
        assert!(EnvPredicate::AnyOf(vec![
            EnvPredicate::EnvVarSet("NOPE".into()),
            EnvPredicate::Always,
        ])
        .eval(&m));
    }

    #[test]
    fn run_behavior_composition() {
        let m = machine_with_php();
        let problems = vec![
            ProblemSpec::new(
                "php-crash",
                "PHP crashes against new libmysql",
                EnvPredicate::AppInstalled("php".into()),
                ProblemEffect::CrashOnStart { app: "php".into() },
            ),
            ProblemSpec::new(
                "other-app",
                "does not apply here",
                EnvPredicate::Always,
                ProblemEffect::FailToStart {
                    app: "apache".into(),
                },
            ),
        ];
        let b = run_behavior_for(&m, "php", &problems);
        assert!(b.crash_on_start);
        assert!(!b.fail_to_start);
        let b = run_behavior_for(&m, "apache", &problems);
        assert!(b.fail_to_start);
        let b = run_behavior_for(&m, "mysqld", &problems);
        assert_eq!(b, RunBehavior::healthy());
    }

    #[test]
    fn fix_removes_problem_and_bumps_version() {
        let pkg = Package::new("mysql", Version::new(5, 0, 0)).with_file(File::executable(
            "/usr/sbin/mysqld",
            "mysqld",
            10,
        ));
        let up = Upgrade::new(
            pkg,
            vec![
                ProblemSpec::new(
                    "p1",
                    "bug one",
                    EnvPredicate::Always,
                    ProblemEffect::CrashOnStart {
                        app: "mysqld".into(),
                    },
                ),
                ProblemSpec::new(
                    "p2",
                    "bug two",
                    EnvPredicate::Always,
                    ProblemEffect::WrongOutput {
                        app: "mysqld".into(),
                        tag: "!".into(),
                    },
                ),
            ],
        );
        assert_eq!(up.id().to_string(), "mysql-5.0.0");
        let fixed = up.fix(&ProblemId("p1".into())).unwrap();
        assert_eq!(fixed.package.version, Version::new(5, 0, 1));
        assert_eq!(fixed.problems.len(), 1);
        assert!(fixed.fixed.contains(&ProblemId("p1".into())));
        // Payload bytes changed with the fix.
        assert_ne!(up.package.files[0], fixed.package.files[0]);
        // Fixing an unknown problem is a no-op signal.
        assert!(fixed.fix(&ProblemId("p1".into())).is_none());
        // fix_all clears everything.
        let all = up.fix_all([&ProblemId("p1".into()), &ProblemId("p2".into())]);
        assert!(all.problems.is_empty());
        assert_eq!(all.package.version, Version::new(5, 0, 2));
    }

    /// A corrected release edits private copies: the published package
    /// and a machine that installed it stay byte-identical.
    #[test]
    fn fix_never_writes_through_to_the_published_package() {
        use crate::pkg::Repository;
        let problem = |id: &str| {
            ProblemSpec::new(
                id,
                "bug",
                EnvPredicate::Always,
                ProblemEffect::CrashOnStart { app: "svc".into() },
            )
        };
        let mut repo = Repository::new();
        repo.publish(
            Package::new("svc", Version::new(2, 0, 0))
                .with_file(File::executable("/usr/bin/svc", "svc", 2))
                .with_file(File::library("/usr/lib/libsvc.so", "libsvc", "2.0", 2))
                .with_file(File::config("/etc/svc.conf", IniDoc::new().key("k", "v"))),
        );
        let published = repo.get("svc", Version::new(2, 0, 0)).unwrap();
        let machine = MachineBuilder::new("m")
            .install(&repo, "svc", VersionReq::Any)
            .build();
        // The upgrade shares its files with the repository and the machine.
        let upgrade = Upgrade::new(published.clone(), vec![problem("p1"), problem("p2")]);
        assert!(Arc::ptr_eq(&upgrade.package.files[0], &published.files[0]));
        let before = (published.clone(), machine.fs.resources(machine.fs.paths()));

        let fixed = upgrade.fix(&ProblemId("p1".into())).unwrap();
        let all = upgrade.fix_all([&ProblemId("p1".into()), &ProblemId("p2".into())]);
        for (release, bumps) in [(&fixed, 1), (&all, 2)] {
            assert_eq!(
                release.package.files[0].content,
                FileContent::Executable {
                    name: "svc".into(),
                    build: 2 + bumps,
                }
            );
            assert_ne!(release.package.files[1], published.files[1]);
            // A file the fix does not touch is still the shared one.
            assert!(Arc::ptr_eq(&release.package.files[2], &published.files[2]));
        }
        assert_eq!(*upgrade.package, before.0);
        assert_eq!(*published, before.0);
        assert_eq!(machine.fs.resources(machine.fs.paths()), before.1);
        assert!(std::ptr::eq(
            machine.fs.get("/usr/bin/svc").unwrap(),
            &*published.files[0]
        ));
    }

    #[test]
    fn active_problems_respect_triggers() {
        let m = machine_with_php();
        let up = Upgrade::new(
            Package::new("mysql", Version::new(5, 0, 0)),
            vec![
                ProblemSpec::new(
                    "php-dep",
                    "needs php",
                    EnvPredicate::AppInstalled("php".into()),
                    ProblemEffect::CrashOnStart { app: "php".into() },
                ),
                ProblemSpec::new(
                    "apache-dep",
                    "needs apache",
                    EnvPredicate::AppInstalled("apache".into()),
                    ProblemEffect::CrashOnStart {
                        app: "apache".into(),
                    },
                ),
            ],
        );
        let active = up.active_problems(&m);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].id, ProblemId("php-dep".into()));
    }
}
