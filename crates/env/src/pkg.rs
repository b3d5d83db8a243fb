//! Packages, versions, dependency resolution, and upgrades.
//!
//! Mirror of the package-management behaviour the paper's problem
//! taxonomy depends on: upgrading one package can transitively upgrade a
//! library that *another*, untouched application was built against —
//! the classic PHP-breaks-when-MySQL-upgrades failure \[24\].

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::file::File;
use crate::fs::FileSystem;

/// A `major.minor.patch` package version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Major component.
    pub major: u32,
    /// Minor component.
    pub minor: u32,
    /// Patch component.
    pub patch: u32,
}

impl Version {
    /// Creates a version.
    pub fn new(major: u32, minor: u32, patch: u32) -> Self {
        Version {
            major,
            minor,
            patch,
        }
    }

    /// Returns the next patch release.
    pub fn next_patch(self) -> Self {
        Version {
            patch: self.patch + 1,
            ..self
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

impl FromStr for Version {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut next = |name: &str| -> Result<u32, String> {
            parts
                .next()
                .ok_or_else(|| format!("missing {name} component in {s:?}"))?
                .parse::<u32>()
                .map_err(|e| format!("bad {name} component in {s:?}: {e}"))
        };
        let v = Version::new(next("major")?, next("minor")?, next("patch")?);
        if parts.next().is_some() {
            return Err(format!("trailing components in {s:?}"));
        }
        Ok(v)
    }
}

/// A version requirement on a dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionReq {
    /// Any version satisfies.
    Any,
    /// Exactly this version.
    Exact(Version),
    /// This version or newer.
    AtLeast(Version),
    /// Same major version, and at least this version.
    Compatible(Version),
}

impl VersionReq {
    /// Returns `true` if `v` satisfies the requirement.
    pub fn matches(&self, v: Version) -> bool {
        match self {
            VersionReq::Any => true,
            VersionReq::Exact(want) => v == *want,
            VersionReq::AtLeast(want) => v >= *want,
            VersionReq::Compatible(want) => v.major == want.major && v >= *want,
        }
    }
}

impl fmt::Display for VersionReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionReq::Any => write!(f, "*"),
            VersionReq::Exact(v) => write!(f, "={v}"),
            VersionReq::AtLeast(v) => write!(f, ">={v}"),
            VersionReq::Compatible(v) => write!(f, "^{v}"),
        }
    }
}

/// A dependency edge of a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// Depended-on package name.
    pub package: String,
    /// Version requirement.
    pub req: VersionReq,
}

impl Dependency {
    /// Creates a dependency.
    pub fn new(package: impl Into<String>, req: VersionReq) -> Self {
        Dependency {
            package: package.into(),
            req,
        }
    }
}

/// A versioned package: payload files plus dependencies.
///
/// A published package is written once and then only read, so its files
/// sit behind [`Arc`]: every machine that installs it holds the same
/// allocations the repository does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Package {
    /// Package name.
    pub name: String,
    /// Package version.
    pub version: Version,
    /// Payload files installed by this package.
    pub files: Vec<Arc<File>>,
    /// Dependencies.
    pub deps: Vec<Dependency>,
}

impl Package {
    /// Creates a package.
    pub fn new(name: impl Into<String>, version: Version) -> Self {
        Package {
            name: name.into(),
            version,
            files: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Adds a payload file.
    pub fn with_file(mut self, file: File) -> Self {
        self.files.push(Arc::new(file));
        self
    }

    /// Adds a dependency.
    pub fn with_dep(mut self, package: impl Into<String>, req: VersionReq) -> Self {
        self.deps.push(Dependency::new(package, req));
        self
    }

    /// Iterates over the payload file paths (the package manifest).
    pub fn manifest(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.path.as_str())
    }
}

/// Package-management errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkgError {
    /// No version of the package exists in the repository.
    NotFound {
        /// Requested package name.
        package: String,
    },
    /// No available version satisfies the requirement.
    Unsatisfiable {
        /// Requested package name.
        package: String,
        /// Unsatisfied requirement (rendered).
        req: String,
    },
    /// Dependency resolution found a cycle.
    DependencyCycle {
        /// Package where the cycle was detected.
        package: String,
    },
}

impl fmt::Display for PkgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkgError::NotFound { package } => write!(f, "package {package} not found"),
            PkgError::Unsatisfiable { package, req } => {
                write!(f, "no version of {package} satisfies {req}")
            }
            PkgError::DependencyCycle { package } => {
                write!(f, "dependency cycle through {package}")
            }
        }
    }
}

impl std::error::Error for PkgError {}

/// A repository of available package versions.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    packages: BTreeMap<String, BTreeMap<Version, Arc<Package>>>,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a package version.
    pub fn publish(&mut self, pkg: Package) {
        self.packages
            .entry(pkg.name.clone())
            .or_default()
            .insert(pkg.version, Arc::new(pkg));
    }

    /// Returns the newest available version of `name` satisfying `req`.
    pub fn best(&self, name: &str, req: VersionReq) -> Option<&Package> {
        self.best_shared(name, req).map(Arc::as_ref)
    }

    /// Returns a specific version.
    pub fn get(&self, name: &str, version: Version) -> Option<&Package> {
        self.packages.get(name)?.get(&version).map(Arc::as_ref)
    }

    fn best_shared(&self, name: &str, req: VersionReq) -> Option<&Arc<Package>> {
        self.packages
            .get(name)?
            .values()
            .rev()
            .find(|p| req.matches(p.version))
    }

    /// Returns `true` if any version of `name` is published.
    pub fn has(&self, name: &str) -> bool {
        self.packages.contains_key(name)
    }
}

/// The result of one install/upgrade operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstallReport {
    /// Packages newly installed or upgraded, in application order.
    pub installed: Vec<(String, Version)>,
    /// Paths written to the filesystem.
    pub files_written: Vec<String>,
}

/// The per-machine package database and installer.
///
/// Holds the repository's own [`Arc<Package>`]s: installing copies
/// pointers, and so does cloning the database for a sandbox.
#[derive(Debug, Clone, Default)]
pub struct PackageManager {
    installed: BTreeMap<String, Arc<Package>>,
}

impl PackageManager {
    /// Creates an empty package database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the installed version of `name`, if any.
    pub fn installed_version(&self, name: &str) -> Option<Version> {
        self.installed.get(name).map(|p| p.version)
    }

    /// Returns the installed package record.
    pub fn installed(&self, name: &str) -> Option<&Package> {
        self.installed.get(name).map(Arc::as_ref)
    }

    /// Iterates over installed packages in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Package> {
        self.installed.values().map(Arc::as_ref)
    }

    /// Iterates over the manifest (payload paths) of an installed
    /// package; empty when `name` is not installed.
    pub fn manifest<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a str> {
        self.installed
            .get(name)
            .into_iter()
            .flat_map(|p| p.manifest())
    }

    /// Installs `name` (best version matching `req`) and its transitive
    /// dependencies into `fs`.
    ///
    /// Already-installed packages that satisfy their requirement are left
    /// alone; those that do not are upgraded — this transitive upgrading
    /// is what breaks applications built against the older library.
    pub fn install(
        &mut self,
        fs: &mut FileSystem,
        repo: &Repository,
        name: &str,
        req: VersionReq,
    ) -> Result<InstallReport, PkgError> {
        let mut report = InstallReport::default();
        let mut in_progress = BTreeSet::new();
        self.install_inner(fs, repo, name, req, &mut report, &mut in_progress)?;
        Ok(report)
    }

    /// Installs a concrete package object (an upgrade pushed by a vendor)
    /// plus its dependencies from `repo`.
    pub fn apply_package(
        &mut self,
        fs: &mut FileSystem,
        repo: &Repository,
        pkg: &Package,
    ) -> Result<InstallReport, PkgError> {
        let mut report = InstallReport::default();
        let mut in_progress = BTreeSet::new();
        let pkg = Arc::new(pkg.clone());
        self.apply_concrete(fs, repo, &pkg, &mut report, &mut in_progress)?;
        Ok(report)
    }

    fn install_inner(
        &mut self,
        fs: &mut FileSystem,
        repo: &Repository,
        name: &str,
        req: VersionReq,
        report: &mut InstallReport,
        in_progress: &mut BTreeSet<String>,
    ) -> Result<(), PkgError> {
        if let Some(v) = self.installed_version(name) {
            if req.matches(v) {
                return Ok(());
            }
        }
        if !repo.has(name) {
            return Err(PkgError::NotFound {
                package: name.to_string(),
            });
        }
        let pkg = repo
            .best_shared(name, req)
            .ok_or_else(|| PkgError::Unsatisfiable {
                package: name.to_string(),
                req: req.to_string(),
            })?;
        self.apply_concrete(fs, repo, pkg, report, in_progress)
    }

    fn apply_concrete(
        &mut self,
        fs: &mut FileSystem,
        repo: &Repository,
        pkg: &Arc<Package>,
        report: &mut InstallReport,
        in_progress: &mut BTreeSet<String>,
    ) -> Result<(), PkgError> {
        if !in_progress.insert(pkg.name.clone()) {
            return Err(PkgError::DependencyCycle {
                package: pkg.name.clone(),
            });
        }
        for dep in &pkg.deps {
            self.install_inner(fs, repo, &dep.package, dep.req, report, in_progress)?;
        }
        for file in &pkg.files {
            fs.insert(Arc::clone(file));
            report.files_written.push(file.path.clone());
        }
        report.installed.push((pkg.name.clone(), pkg.version));
        self.installed.insert(pkg.name.clone(), Arc::clone(pkg));
        in_progress.remove(&pkg.name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::FileContent;

    fn lib_pkg(name: &str, ver: Version, libver: &str) -> Package {
        Package::new(name, ver).with_file(File::library(
            format!("/usr/lib/{name}.so"),
            name,
            libver,
            u64::from(ver.major),
        ))
    }

    #[test]
    fn version_parse_and_order() {
        let v: Version = "4.1.22".parse().unwrap();
        assert_eq!(v, Version::new(4, 1, 22));
        assert!(Version::new(5, 0, 0) > v);
        assert!(Version::new(4, 2, 0) > v);
        assert!(Version::new(4, 1, 23) > v);
        assert_eq!(v.next_patch(), Version::new(4, 1, 23));
        assert_eq!(v.to_string(), "4.1.22");
        assert!("4.1".parse::<Version>().is_err());
        assert!("4.1.x".parse::<Version>().is_err());
        assert!("4.1.2.3".parse::<Version>().is_err());
    }

    #[test]
    fn version_req_semantics() {
        let v41 = Version::new(4, 1, 0);
        let v45 = Version::new(4, 5, 0);
        let v50 = Version::new(5, 0, 0);
        assert!(VersionReq::Any.matches(v41));
        assert!(VersionReq::Exact(v41).matches(v41));
        assert!(!VersionReq::Exact(v41).matches(v45));
        assert!(VersionReq::AtLeast(v41).matches(v50));
        assert!(!VersionReq::AtLeast(v45).matches(v41));
        assert!(VersionReq::Compatible(v41).matches(v45));
        assert!(!VersionReq::Compatible(v41).matches(v50));
    }

    #[test]
    fn repository_best_prefers_newest() {
        let mut repo = Repository::new();
        repo.publish(lib_pkg("libmysql", Version::new(4, 1, 0), "4.1"));
        repo.publish(lib_pkg("libmysql", Version::new(5, 0, 0), "5.0"));
        let best = repo.best("libmysql", VersionReq::Any).unwrap();
        assert_eq!(best.version, Version::new(5, 0, 0));
        let compat = repo
            .best("libmysql", VersionReq::Compatible(Version::new(4, 0, 0)))
            .unwrap();
        assert_eq!(compat.version, Version::new(4, 1, 0));
        assert!(repo
            .best("libmysql", VersionReq::AtLeast(Version::new(6, 0, 0)))
            .is_none());
    }

    #[test]
    fn install_applies_files_and_deps() {
        let mut repo = Repository::new();
        repo.publish(lib_pkg("libmysql", Version::new(4, 1, 0), "4.1"));
        repo.publish(
            Package::new("mysql", Version::new(4, 1, 22))
                .with_file(File::executable("/usr/sbin/mysqld", "mysqld", 4))
                .with_dep("libmysql", VersionReq::Compatible(Version::new(4, 0, 0))),
        );
        let mut fs = FileSystem::new();
        let mut pm = PackageManager::new();
        let report = pm
            .install(&mut fs, &repo, "mysql", VersionReq::Any)
            .unwrap();
        assert_eq!(report.installed.len(), 2);
        assert!(fs.contains("/usr/sbin/mysqld"));
        assert!(fs.contains("/usr/lib/libmysql.so"));
        assert_eq!(
            pm.installed_version("libmysql"),
            Some(Version::new(4, 1, 0))
        );
        assert_eq!(
            pm.manifest("mysql").collect::<Vec<_>>(),
            ["/usr/sbin/mysqld"]
        );
        assert_eq!(pm.manifest("absent").count(), 0);
    }

    /// Installing copies pointers: two machines installed from one
    /// repository hold the repository's own files and package record.
    #[test]
    fn installs_share_the_repository_allocations() {
        let mut repo = Repository::new();
        repo.publish(lib_pkg("libz", Version::new(1, 2, 3), "1.2"));
        repo.publish(
            Package::new("app", Version::new(1, 0, 0))
                .with_file(File::executable("/usr/bin/app", "app", 1))
                .with_dep("libz", VersionReq::Any),
        );
        let install = || {
            let (mut fs, mut pm) = (FileSystem::new(), PackageManager::new());
            pm.install(&mut fs, &repo, "app", VersionReq::Any).unwrap();
            (fs, pm)
        };
        let ((fs_a, pm_a), (fs_b, pm_b)) = (install(), install());
        for name in ["app", "libz"] {
            let published = repo.best(name, VersionReq::Any).unwrap();
            assert!(std::ptr::eq(pm_a.installed(name).unwrap(), published));
            assert!(std::ptr::eq(pm_b.installed(name).unwrap(), published));
            for file in &published.files {
                assert!(std::ptr::eq(fs_a.get(&file.path).unwrap(), &**file));
                assert!(std::ptr::eq(fs_b.get(&file.path).unwrap(), &**file));
                // The repository, and each machine's filesystem.
                assert_eq!(Arc::strong_count(file), 3);
            }
        }
        // Writing to one machine shows on neither the other nor the repository.
        let (mut fs_a, published) = (fs_a, repo.best("app", VersionReq::Any).unwrap().clone());
        fs_a.insert(File::executable("/usr/bin/app", "app", 9));
        fs_a.remove("/usr/lib/libz.so");
        assert_eq!(fs_b.get("/usr/bin/app"), Some(&*published.files[0]));
        assert!(fs_b.contains("/usr/lib/libz.so"));
        assert_eq!(repo.best("app", VersionReq::Any), Some(&published));
        assert_eq!(pm_a.installed("app"), Some(&published));

        // A pushed upgrade is wrapped once; its files stay the vendor's.
        let v2 = Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            2,
        ));
        let (mut fs, mut pm) = install();
        pm.apply_package(&mut fs, &repo, &v2).unwrap();
        assert!(std::ptr::eq(fs.get("/usr/bin/app").unwrap(), &*v2.files[0]));
        assert_eq!(pm.installed("app").unwrap(), &v2);
    }

    #[test]
    fn upgrade_cascades_to_dependencies() {
        // The PHP-breaks scenario: mysql 5 requires libmysql 5; installing
        // the mysql upgrade silently replaces the library PHP was built
        // against.
        let mut repo = Repository::new();
        repo.publish(lib_pkg("libmysql", Version::new(4, 1, 0), "4.1"));
        repo.publish(lib_pkg("libmysql", Version::new(5, 0, 0), "5.0"));
        repo.publish(
            Package::new("mysql", Version::new(4, 1, 22))
                .with_dep("libmysql", VersionReq::Compatible(Version::new(4, 0, 0))),
        );
        let mysql5 = Package::new("mysql", Version::new(5, 0, 27))
            .with_file(File::executable("/usr/sbin/mysqld", "mysqld", 5))
            .with_dep("libmysql", VersionReq::Compatible(Version::new(5, 0, 0)));
        repo.publish(mysql5.clone());

        let mut fs = FileSystem::new();
        let mut pm = PackageManager::new();
        pm.install(
            &mut fs,
            &repo,
            "mysql",
            VersionReq::Exact(Version::new(4, 1, 22)),
        )
        .unwrap();
        assert_eq!(
            fs.get("/usr/lib/libmysql.so").unwrap().content,
            FileContent::Library {
                name: "libmysql".into(),
                version: "4.1".into(),
                build: 4,
            }
        );

        let report = pm.apply_package(&mut fs, &repo, &mysql5).unwrap();
        assert!(report
            .installed
            .contains(&("libmysql".to_string(), Version::new(5, 0, 0))));
        assert_eq!(
            fs.get("/usr/lib/libmysql.so")
                .unwrap()
                .content
                .library_version(),
            Some("5.0")
        );
    }

    #[test]
    fn install_errors() {
        let mut repo = Repository::new();
        repo.publish(lib_pkg("a", Version::new(1, 0, 0), "1.0"));
        let mut fs = FileSystem::new();
        let mut pm = PackageManager::new();
        assert_eq!(
            pm.install(&mut fs, &repo, "missing", VersionReq::Any),
            Err(PkgError::NotFound {
                package: "missing".into()
            })
        );
        assert!(matches!(
            pm.install(
                &mut fs,
                &repo,
                "a",
                VersionReq::AtLeast(Version::new(2, 0, 0))
            ),
            Err(PkgError::Unsatisfiable { .. })
        ));
    }

    #[test]
    fn dependency_cycle_detected() {
        let mut repo = Repository::new();
        repo.publish(Package::new("a", Version::new(1, 0, 0)).with_dep("b", VersionReq::Any));
        repo.publish(
            Package::new("b", Version::new(1, 0, 0))
                .with_dep("a", VersionReq::Exact(Version::new(2, 0, 0))),
        );
        // b requires a=2.0.0 which doesn't exist → either cycle or
        // unsatisfiable; publish a 2.0.0 that depends back on b to force
        // the cycle path.
        repo.publish(Package::new("a", Version::new(2, 0, 0)).with_dep("b", VersionReq::Any));
        let mut fs = FileSystem::new();
        let mut pm = PackageManager::new();
        let err = pm.install(
            &mut fs,
            &repo,
            "a",
            VersionReq::Exact(Version::new(1, 0, 0)),
        );
        assert!(matches!(err, Err(PkgError::DependencyCycle { .. })));
    }

    #[test]
    fn satisfied_dependency_is_not_reinstalled() {
        let mut repo = Repository::new();
        repo.publish(lib_pkg("libz", Version::new(1, 2, 3), "1.2"));
        repo.publish(Package::new("app", Version::new(1, 0, 0)).with_dep("libz", VersionReq::Any));
        let mut fs = FileSystem::new();
        let mut pm = PackageManager::new();
        pm.install(&mut fs, &repo, "libz", VersionReq::Any).unwrap();
        let report = pm.install(&mut fs, &repo, "app", VersionReq::Any).unwrap();
        assert_eq!(
            report.installed,
            vec![("app".to_string(), Version::new(1, 0, 0))]
        );
    }
}
