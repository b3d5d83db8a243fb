//! Machines and fleets.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mirage_trace::{RunId, Trace};

use crate::app::{execute, ApplicationSpec, RunBehavior, RunInput};
use crate::file::File;
use crate::fs::FileSystem;
use crate::pkg::{PackageManager, PkgError, Repository, VersionReq};

/// One simulated user machine.
#[derive(Debug, Clone, Default)]
pub struct Machine {
    /// Machine identifier (the paper's `ubt-ms4/php4`-style names).
    pub id: String,
    /// The machine's filesystem.
    pub fs: FileSystem,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Installed-package database.
    pub pkgs: PackageManager,
    /// Installed applications, by name. A spec is never edited once
    /// registered, so a sandbox shares it with the live machine.
    pub apps: BTreeMap<String, Arc<ApplicationSpec>>,
}

impl Machine {
    /// Creates an empty machine.
    pub fn new(id: impl Into<String>) -> Self {
        Machine {
            id: id.into(),
            ..Default::default()
        }
    }

    /// Runs an installed application, producing a trace.
    ///
    /// # Panics
    ///
    /// Panics if the application is not installed; use
    /// [`Machine::try_run_app`] for a fallible variant.
    pub fn run_app(&self, app: &str, input: &RunInput, run: RunId) -> Trace {
        self.try_run_app(app, input, run)
            .unwrap_or_else(|| panic!("application {app} not installed on {}", self.id))
    }

    /// Runs an installed application with healthy behaviour.
    pub fn try_run_app(&self, app: &str, input: &RunInput, run: RunId) -> Option<Trace> {
        let spec = self.apps.get(app)?;
        Some(execute(
            &self.id,
            &self.fs,
            &self.env,
            spec,
            input,
            run,
            &RunBehavior::healthy(),
        ))
    }

    /// Runs an installed application with injected misbehaviour.
    pub fn run_app_with_behavior(
        &self,
        app: &str,
        input: &RunInput,
        run: RunId,
        behavior: &RunBehavior,
    ) -> Option<Trace> {
        let spec = self.apps.get(app)?;
        Some(execute(
            &self.id, &self.fs, &self.env, spec, input, run, behavior,
        ))
    }

    /// Returns the set of applications affected by changes to `paths`.
    ///
    /// An application is affected if a changed path is its executable, one
    /// of its declared reads, or part of its package manifest; resource
    /// sharing declared via
    /// [`ApplicationSpec::sharing_with`](crate::app::ApplicationSpec)
    /// propagates the effect (the dependence subsystem of paper §3.3).
    pub fn apps_affected_by<S: Borrow<str> + Ord>(&self, paths: &BTreeSet<S>) -> BTreeSet<String> {
        let mut affected = BTreeSet::new();
        for (name, spec) in &self.apps {
            let touched = paths.contains(spec.exe.as_str())
                || spec
                    .init_reads
                    .iter()
                    .any(|r| paths.contains(r.path.as_str()))
                || spec
                    .late_reads
                    .iter()
                    .any(|r| paths.contains(r.path.as_str()))
                || self.pkgs.manifest(&spec.package).any(|p| paths.contains(p));
            if touched {
                affected.insert(name.clone());
            }
        }
        // Propagate through declared resource sharing until stable.
        loop {
            let mut grew = false;
            for (name, spec) in &self.apps {
                if affected.contains(name) {
                    continue;
                }
                if spec
                    .shares_with
                    .iter()
                    .any(|other| affected.contains(other))
                {
                    affected.insert(name.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        affected
    }

    /// Returns the names of installed applications.
    pub fn app_names(&self) -> BTreeSet<String> {
        self.apps.keys().cloned().collect()
    }
}

/// Fluent builder for machines.
#[derive(Debug, Default)]
pub struct MachineBuilder {
    machine: Machine,
}

impl MachineBuilder {
    /// Starts building a machine.
    pub fn new(id: impl Into<String>) -> Self {
        MachineBuilder {
            machine: Machine::new(id),
        }
    }

    /// Adds a file directly to the filesystem.
    pub fn file(mut self, file: File) -> Self {
        self.machine.fs.insert(file);
        self
    }

    /// Sets an environment variable.
    pub fn env_var(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.machine.env.insert(name.into(), value.into());
        self
    }

    /// Installs a package (and dependencies) from a repository.
    ///
    /// # Panics
    ///
    /// Panics on resolution failure — machine construction is test/scenario
    /// setup, where failing loudly is correct. Use
    /// [`MachineBuilder::try_install`] in fallible contexts.
    pub fn install(self, repo: &Repository, name: &str, req: VersionReq) -> Self {
        self.try_install(repo, name, req)
            .unwrap_or_else(|e| panic!("install {name}: {e}"))
    }

    /// Fallible package installation.
    pub fn try_install(
        mut self,
        repo: &Repository,
        name: &str,
        req: VersionReq,
    ) -> Result<Self, PkgError> {
        self.machine
            .pkgs
            .install(&mut self.machine.fs, repo, name, req)?;
        Ok(self)
    }

    /// Registers an application.
    pub fn app(mut self, spec: ApplicationSpec) -> Self {
        self.machine.apps.insert(spec.name.clone(), Arc::new(spec));
        self
    }

    /// Applies an arbitrary mutation (escape hatch for scenario builders).
    pub fn mutate(mut self, f: impl FnOnce(&mut Machine)) -> Self {
        f(&mut self.machine);
        self
    }

    /// Finishes the machine.
    pub fn build(self) -> Machine {
        self.machine
    }
}

/// A set of machines participating in deployment.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    machines: Vec<Machine>,
}

impl Fleet {
    /// Creates an empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a fleet from machines.
    pub fn from_machines(machines: Vec<Machine>) -> Self {
        Fleet { machines }
    }

    /// Adds a machine.
    pub fn push(&mut self, machine: Machine) {
        self.machines.push(machine);
    }

    /// Returns the machines in insertion order.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Mutable access to the machines.
    pub fn machines_mut(&mut self) -> &mut [Machine] {
        &mut self.machines
    }

    /// Looks up a machine by id.
    pub fn get(&self, id: &str) -> Option<&Machine> {
        self.machines.iter().find(|m| m.id == id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut Machine> {
        self.machines.iter_mut().find(|m| m.id == id)
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Returns `true` if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Returns all machine ids in fleet order.
    pub fn ids(&self) -> Vec<String> {
        self.machines.iter().map(|m| m.id.clone()).collect()
    }
}

impl FromIterator<Machine> for Fleet {
    fn from_iter<T: IntoIterator<Item = Machine>>(iter: T) -> Self {
        Fleet {
            machines: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::IniDoc;
    use crate::pkg::{Package, Version};

    fn repo() -> Repository {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("mysql", Version::new(4, 1, 22))
                .with_file(File::executable("/usr/sbin/mysqld", "mysqld", 4))
                .with_file(File::library("/usr/lib/libmysql.so", "libmysql", "4.1", 4)),
        );
        repo
    }

    fn mysqld_spec() -> ApplicationSpec {
        ApplicationSpec::new("mysqld", "mysql", "/usr/sbin/mysqld")
            .reads("/usr/lib/libmysql.so")
            .probes("/etc/mysql/my.cnf")
    }

    #[test]
    fn builder_assembles_machine() {
        let m = MachineBuilder::new("ubt-ms4")
            .install(&repo(), "mysql", VersionReq::Any)
            .file(File::config(
                "/etc/mysql/my.cnf",
                IniDoc::new().section("mysqld").key("port", "3306"),
            ))
            .env_var("HOME", "/root")
            .app(mysqld_spec())
            .build();
        assert_eq!(m.id, "ubt-ms4");
        assert!(m.fs.contains("/usr/sbin/mysqld"));
        assert_eq!(
            m.pkgs.installed_version("mysql"),
            Some(Version::new(4, 1, 22))
        );
        assert!(m.apps.contains_key("mysqld"));
        assert_eq!(m.app_names().len(), 1);
    }

    #[test]
    fn run_app_traces() {
        let m = MachineBuilder::new("m")
            .install(&repo(), "mysql", VersionReq::Any)
            .app(mysqld_spec())
            .build();
        let t = m.run_app("mysqld", &RunInput::new("r"), RunId(0));
        assert!(t.succeeded());
        assert!(m
            .try_run_app("nope", &RunInput::new("r"), RunId(0))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "not installed")]
    fn run_missing_app_panics() {
        let m = Machine::new("m");
        let _ = m.run_app("ghost", &RunInput::new("r"), RunId(0));
    }

    #[test]
    fn affected_apps_direct_and_shared() {
        let m = MachineBuilder::new("m")
            .install(&repo(), "mysql", VersionReq::Any)
            .app(mysqld_spec())
            .app(ApplicationSpec::new("php", "php", "/usr/bin/php").reads("/usr/lib/libmysql.so"))
            .app(ApplicationSpec::new("apache", "apache", "/usr/sbin/httpd").sharing_with("php"))
            .app(ApplicationSpec::new("vim", "vim", "/usr/bin/vim"))
            .build();
        let changed: BTreeSet<String> = ["/usr/lib/libmysql.so".to_string()].into();
        let affected = m.apps_affected_by(&changed);
        assert!(affected.contains("mysqld"), "manifest hit");
        assert!(affected.contains("php"), "direct read hit");
        assert!(affected.contains("apache"), "sharing propagation");
        assert!(!affected.contains("vim"));
    }

    #[test]
    fn fleet_lookup() {
        let mut fleet = Fleet::new();
        assert!(fleet.is_empty());
        fleet.push(Machine::new("a"));
        fleet.push(Machine::new("b"));
        assert_eq!(fleet.len(), 2);
        assert!(fleet.get("a").is_some());
        assert!(fleet.get("c").is_none());
        assert_eq!(fleet.ids(), vec!["a", "b"]);
        fleet
            .get_mut("a")
            .unwrap()
            .env
            .insert("X".into(), "1".into());
        assert_eq!(fleet.get("a").unwrap().env["X"], "1");
        let collected: Fleet = vec![Machine::new("z")].into_iter().collect();
        assert_eq!(collected.len(), 1);
    }
}
