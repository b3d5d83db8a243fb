//! Heuristic configuration.

use std::collections::BTreeSet;

use mirage_fingerprint::{Glob, ResourceKind};

/// Tunables of the identification heuristic.
#[derive(Debug, Clone)]
pub struct HeuristicConfig {
    /// File kinds treated as environmental resources whenever accessed
    /// (the paper's "files of certain types (such as libraries)"). The
    /// vendor can extend this set — e.g. Firefox adds fonts, themes and
    /// extensions.
    pub env_types: BTreeSet<ResourceKind>,
    /// System-wide directories excluded by default (`/tmp`, `/var`).
    pub default_excludes: Vec<Glob>,
}

impl HeuristicConfig {
    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        HeuristicConfig {
            env_types: [ResourceKind::SharedLibrary].into_iter().collect(),
            default_excludes: vec![Glob::new("/tmp/**"), Glob::new("/var/**")],
        }
    }

    /// Returns `true` if `path` falls under a default exclude.
    pub(crate) fn default_excluded(&self, path: &str) -> bool {
        self.default_excludes.iter().any(|g| g.matches(path))
    }
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HeuristicConfig::paper_default();
        assert!(c.env_types.contains(&ResourceKind::SharedLibrary));
        assert!(c.default_excluded("/tmp/sock"));
        assert!(c.default_excluded("/var/log/syslog"));
        assert!(!c.default_excluded("/etc/my.cnf"));
    }

    #[test]
    fn extendable_types() {
        let mut c = HeuristicConfig::paper_default();
        c.env_types.insert(ResourceKind::Font);
        c.env_types.insert(ResourceKind::Theme);
        assert!(c.env_types.contains(&ResourceKind::Font));
        assert!(c.env_types.contains(&ResourceKind::Theme));
        assert_eq!(c.env_types.len(), 3);
    }
}
