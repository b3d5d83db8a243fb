//! The isolated validation sandbox.

use mirage_env::pkg::InstallReport;
use mirage_env::{Machine, PkgError, Repository, Upgrade};
use std::collections::BTreeSet;

/// An isolated copy of a machine for upgrade validation.
///
/// Booting a sandbox copies pointers, not the machine: the filesystem
/// snapshot, the package database and the application table each clone
/// one `Arc` per entry, so every file, installed package and application
/// spec is the live machine's own allocation — the simulated equivalent
/// of the paper's User-Mode Linux instance booted from the host
/// filesystem with copy-on-write. Only the three maps, the id and the
/// environment variables are new. Upgrades applied inside the sandbox
/// replace entries in the sandbox's maps and never touch the live
/// machine; *discarding the sandbox is the rollback*.
#[derive(Debug, Clone)]
pub struct Sandbox {
    /// The isolated machine copy.
    pub machine: Machine,
    base_paths: usize,
}

impl Sandbox {
    /// Boots a sandbox from a live machine.
    pub fn boot(machine: &Machine) -> Self {
        let copy = Machine {
            id: machine.id.clone(),
            fs: machine.fs.snapshot(),
            env: machine.env.clone(),
            pkgs: machine.pkgs.clone(),
            apps: machine.apps.clone(),
        };
        Sandbox {
            base_paths: copy.fs.len(),
            machine: copy,
        }
    }

    /// Applies an upgrade inside the sandbox.
    ///
    /// Returns the install report; the live machine is untouched.
    pub fn apply_upgrade(
        &mut self,
        repo: &Repository,
        upgrade: &Upgrade,
    ) -> Result<InstallReport, PkgError> {
        self.machine
            .pkgs
            .apply_package(&mut self.machine.fs, repo, &upgrade.package)
    }

    /// Returns the paths that differ from the machine the sandbox was
    /// booted from.
    pub fn changed_against(&self, live: &Machine) -> BTreeSet<String> {
        self.machine.fs.changed_paths(&live.fs)
    }

    /// Number of files at boot time (diagnostics).
    pub fn base_file_count(&self) -> usize {
        self.base_paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_env::{ApplicationSpec, File, MachineBuilder, Package, Version, VersionReq};
    use std::sync::Arc;

    fn repo_and_machine() -> (Repository, Machine) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("editor", Version::new(1, 0, 0)).with_file(File::executable(
                "/usr/bin/ed",
                "ed",
                1,
            )),
        );
        repo.publish(
            Package::new("editor", Version::new(2, 0, 0)).with_file(File::executable(
                "/usr/bin/ed",
                "ed",
                2,
            )),
        );
        let machine = MachineBuilder::new("m")
            .install(&repo, "editor", VersionReq::Exact(Version::new(1, 0, 0)))
            .app(ApplicationSpec::new("ed", "editor", "/usr/bin/ed"))
            .build();
        (repo, machine)
    }

    #[test]
    fn sandbox_isolates_upgrades() {
        let (repo, machine) = repo_and_machine();
        let mut sandbox = Sandbox::boot(&machine);
        let upgrade = Upgrade::new(
            repo.get("editor", Version::new(2, 0, 0)).unwrap().clone(),
            vec![],
        );
        let report = sandbox.apply_upgrade(&repo, &upgrade).unwrap();
        assert_eq!(report.installed.len(), 1);
        // Sandbox sees version 2; live machine still has version 1.
        assert_eq!(
            sandbox.machine.pkgs.installed_version("editor"),
            Some(Version::new(2, 0, 0))
        );
        assert_eq!(
            machine.pkgs.installed_version("editor"),
            Some(Version::new(1, 0, 0))
        );
        let changed = sandbox.changed_against(&machine);
        assert_eq!(changed.into_iter().collect::<Vec<_>>(), vec!["/usr/bin/ed"]);
        assert_eq!(sandbox.base_file_count(), 1);
    }

    /// Booting shares every file, package and application spec with the
    /// live machine, and an upgrade in the sandbox leaves the live
    /// machine's package database and filesystem as they were.
    #[test]
    fn boot_shares_and_upgrade_never_writes_through() {
        let (repo, machine) = repo_and_machine();
        let mut sandbox = Sandbox::boot(&machine);
        let live_pkg = machine.pkgs.installed("editor").unwrap();
        let live_file = machine.fs.get("/usr/bin/ed").unwrap();
        assert!(std::ptr::eq(
            sandbox.machine.pkgs.installed("editor").unwrap(),
            live_pkg
        ));
        assert!(std::ptr::eq(
            sandbox.machine.fs.get("/usr/bin/ed").unwrap(),
            live_file
        ));
        assert!(Arc::ptr_eq(
            &sandbox.machine.apps["ed"],
            &machine.apps["ed"]
        ));
        assert_eq!(sandbox.machine.apps.len(), machine.apps.len());

        let upgrade = Upgrade::new(
            repo.get("editor", Version::new(2, 0, 0)).unwrap().clone(),
            vec![],
        );
        sandbox.apply_upgrade(&repo, &upgrade).unwrap();
        assert_eq!(
            sandbox.machine.pkgs.installed_version("editor"),
            Some(Version::new(2, 0, 0))
        );
        assert!(std::ptr::eq(
            machine.pkgs.installed("editor").unwrap(),
            live_pkg
        ));
        assert!(std::ptr::eq(
            machine.fs.get("/usr/bin/ed").unwrap(),
            live_file
        ));
        assert_eq!(live_pkg, repo.get("editor", Version::new(1, 0, 0)).unwrap());
        assert_eq!(live_file, &File::executable("/usr/bin/ed", "ed", 1));
    }

    #[test]
    fn discarding_sandbox_is_rollback() {
        let (repo, machine) = repo_and_machine();
        {
            let mut sandbox = Sandbox::boot(&machine);
            let upgrade = Upgrade::new(
                repo.get("editor", Version::new(2, 0, 0)).unwrap().clone(),
                vec![],
            );
            sandbox.apply_upgrade(&repo, &upgrade).unwrap();
            // Sandbox dropped here.
        }
        assert_eq!(
            machine.pkgs.installed_version("editor"),
            Some(Version::new(1, 0, 0))
        );
    }
}
