//! Typed files.

use mirage_fingerprint::{ResourceData, ResourceKind};

use crate::content::FileContent;

/// One file in a simulated filesystem.
///
/// `truth_env` is the *ground truth* flag used exclusively by the
/// evaluation harness to score the environmental-resource heuristic
/// (Table 1): it says whether a human auditing the application would call
/// this file an environmental resource. The heuristic itself never reads
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct File {
    /// Absolute path.
    pub path: String,
    /// Resource kind (drives parser selection and type-based heuristics).
    pub kind: ResourceKind,
    /// Structured content.
    pub content: FileContent,
    /// Ground-truth environmental-resource flag (evaluation only).
    pub truth_env: bool,
}

impl File {
    /// Creates a file, defaulting the ground-truth flag from the kind.
    ///
    /// Executables, libraries, configuration and preference files default
    /// to environmental resources; data, logs and HTML documents default
    /// to not. Use [`File::env_resource`] to mark the exceptions
    /// to that rule (e.g. database files that double as
    /// configuration, as MySQL's do in the paper).
    pub fn new(path: impl Into<String>, kind: ResourceKind, content: FileContent) -> Self {
        let truth_env = matches!(
            kind,
            ResourceKind::Executable
                | ResourceKind::SharedLibrary
                | ResourceKind::Config
                | ResourceKind::Prefs
                | ResourceKind::Font
                | ResourceKind::Extension
                | ResourceKind::Theme
        );
        File {
            path: path.into(),
            kind,
            content,
            truth_env,
        }
    }

    /// Marks the file as a ground-truth environmental resource.
    pub fn env_resource(mut self) -> Self {
        self.truth_env = true;
        self
    }

    /// Renders the file into the parser-facing resource view.
    pub(crate) fn to_resource(&self) -> ResourceData {
        ResourceData::new(self.path.clone(), self.kind, self.content.render())
    }

    /// Convenience: an executable file.
    pub fn executable(path: impl Into<String>, name: impl Into<String>, build: u64) -> Self {
        File::new(
            path,
            ResourceKind::Executable,
            FileContent::Executable {
                name: name.into(),
                build,
            },
        )
    }

    /// Convenience: a shared library file.
    pub fn library(
        path: impl Into<String>,
        name: impl Into<String>,
        version: impl Into<String>,
        build: u64,
    ) -> Self {
        File::new(
            path,
            ResourceKind::SharedLibrary,
            FileContent::Library {
                name: name.into(),
                version: version.into(),
                build,
            },
        )
    }

    /// Convenience: an INI config file.
    pub fn config(path: impl Into<String>, doc: crate::content::IniDoc) -> Self {
        File::new(path, ResourceKind::Config, FileContent::Ini(doc))
    }

    /// Convenience: a preferences file.
    pub fn prefs(path: impl Into<String>, doc: crate::content::PrefsDoc) -> Self {
        File::new(path, ResourceKind::Prefs, FileContent::Prefs(doc))
    }

    /// Convenience: a data file with opaque binary content.
    pub fn data(path: impl Into<String>, seed: u64, len: usize) -> Self {
        File::new(path, ResourceKind::Data, FileContent::Binary { seed, len })
    }

    /// Convenience: a log file with text content.
    pub fn log(path: impl Into<String>, lines: Vec<String>) -> Self {
        File::new(path, ResourceKind::Log, FileContent::Text(lines))
    }

    /// Convenience: an HTML document.
    pub fn html(path: impl Into<String>, body: impl Into<String>) -> Self {
        File::new(
            path,
            ResourceKind::Html,
            FileContent::Text(vec![format!("<html>{}</html>", body.into())]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_defaults_ground_truth() {
        assert!(File::executable("/bin/x", "x", 0).truth_env);
        assert!(File::library("/lib/y", "y", "1.0", 0).truth_env);
        assert!(!File::data("/var/lib/db", 0, 10).truth_env);
        assert!(!File::log("/var/log/x", vec![]).truth_env);
        assert!(!File::html("/srv/www/index.html", "hi").truth_env);
    }

    #[test]
    fn ground_truth_overrides() {
        let f = File::data("/var/lib/mysql/user.frm", 0, 10).env_resource();
        assert!(f.truth_env);
    }

    #[test]
    fn to_resource_renders_content() {
        let f = File::executable("/usr/bin/php", "php", 3);
        let res = f.to_resource();
        assert_eq!(res.path, "/usr/bin/php");
        assert_eq!(res.kind, ResourceKind::Executable);
        assert!(res.bytes.starts_with(b"EXESIM\0php\0"));
    }
}
