//! The vendor include/exclude rule API.
//!
//! "A simple API provided by Mirage allows the vendor to include or
//! exclude files or directories" (paper §3.2.3). Each rule is a glob;
//! includes override every exclusion (vendor intent is explicit), and
//! vendor excludes override the heuristic's positive parts.

use mirage_fingerprint::Glob;

/// One vendor rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Force paths matching the glob to be environmental resources.
    Include(Glob),
    /// Force paths matching the glob to be excluded.
    Exclude(Glob),
}

impl Rule {
    /// Convenience constructor for an include rule.
    pub fn include(pattern: impl Into<String>) -> Self {
        Rule::Include(Glob::new(pattern.into()))
    }

    /// Convenience constructor for an exclude rule.
    pub fn exclude(pattern: impl Into<String>) -> Self {
        Rule::Exclude(Glob::new(pattern.into()))
    }
}

/// An ordered collection of vendor rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

// Nothing asks whether it is empty; `len` is what callers read.
#[allow(clippy::len_without_is_empty)]
impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a rule set from rules.
    pub(crate) fn from_rules(rules: Vec<Rule>) -> Self {
        RuleSet { rules }
    }

    /// Appends an include rule.
    pub fn include(mut self, pattern: impl Into<String>) -> Self {
        self.rules.push(Rule::include(pattern));
        self
    }

    /// Appends an exclude rule.
    pub fn exclude(mut self, pattern: impl Into<String>) -> Self {
        self.rules.push(Rule::exclude(pattern));
        self
    }

    /// Number of rules — the paper's "Required vendor rules" column.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if an include rule matches `path`.
    pub fn includes(&self, path: &str) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r, Rule::Include(g) if g.matches(path)))
    }

    /// Returns `true` if an exclude rule matches `path`.
    pub(crate) fn excludes(&self, path: &str) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r, Rule::Exclude(g) if g.matches(path)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn include_and_exclude_matching() {
        let rules = RuleSet::new()
            .include("/var/lib/mysql/**")
            .exclude("/srv/www/htdocs/**");
        assert_eq!(rules.len(), 2);
        assert_ne!(rules.len(), 0);
        assert!(rules.includes("/var/lib/mysql/user.frm"));
        assert!(!rules.includes("/var/lib/pgsql/x"));
        assert!(rules.excludes("/srv/www/htdocs/index.html"));
        assert!(!rules.excludes("/srv/www/cgi-bin/x"));
    }

    #[test]
    fn empty_ruleset() {
        let rules = RuleSet::new();
        assert_eq!(rules.len(), 0);
        assert!(!rules.includes("/a"));
        assert!(!rules.excludes("/a"));
    }

    #[test]
    fn from_rules_constructor() {
        let rules = RuleSet::from_rules(vec![Rule::include("/a/**"), Rule::exclude("/b/**")]);
        assert!(rules.includes("/a/x"));
        assert!(rules.excludes("/b/x"));
    }
}

/// A rule template expanded per machine.
///
/// "Some files and directories are located at different places on
/// different machines. In this case, the vendor can easily provide a
/// script to automatically extract the correct location of files and
/// directories from relevant configuration files or environment
/// variables and generate the regular expressions locally on each
/// machine" (paper §4.1). A template is a rule pattern containing
/// `$VARIABLE` references that are substituted from the machine's
/// environment before compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTemplate {
    /// Whether the expanded rule includes or excludes.
    pub(crate) include: bool,
    /// Pattern with `$VARIABLE` placeholders (capital letters and
    /// underscores).
    pub(crate) pattern: String,
}

impl RuleTemplate {
    /// An include template.
    pub fn include(pattern: impl Into<String>) -> Self {
        RuleTemplate {
            include: true,
            pattern: pattern.into(),
        }
    }

    /// An exclude template.
    pub fn exclude(pattern: impl Into<String>) -> Self {
        RuleTemplate {
            include: false,
            pattern: pattern.into(),
        }
    }

    /// Expands the template against a machine's environment variables.
    ///
    /// Returns `None` when a referenced variable is unset on this
    /// machine (the rule simply does not apply there).
    pub(crate) fn expand(&self, env: &std::collections::BTreeMap<String, String>) -> Option<Rule> {
        let mut out = String::new();
        let mut chars = self.pattern.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '$' {
                out.push(c);
                continue;
            }
            let mut name = String::new();
            while let Some(&n) = chars.peek() {
                if n.is_ascii_uppercase() || n == '_' {
                    name.push(n);
                    chars.next();
                } else {
                    break;
                }
            }
            if name.is_empty() {
                out.push('$');
                continue;
            }
            out.push_str(env.get(&name)?);
        }
        Some(if self.include {
            Rule::include(out)
        } else {
            Rule::exclude(out)
        })
    }
}

/// Expands a set of templates on one machine, skipping templates whose
/// variables are unset there.
pub fn expand_templates(
    templates: &[RuleTemplate],
    env: &std::collections::BTreeMap<String, String>,
) -> RuleSet {
    RuleSet::from_rules(templates.iter().filter_map(|t| t.expand(env)).collect())
}

#[cfg(test)]
mod template_tests {
    use super::*;
    use std::collections::BTreeMap;

    fn env(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn expansion_substitutes_variables() {
        let t = RuleTemplate::include("$HOME/.my.cnf");
        let rule = t.expand(&env(&[("HOME", "/home/alice")])).unwrap();
        assert_eq!(rule, Rule::include("/home/alice/.my.cnf"));
    }

    #[test]
    fn missing_variable_skips_rule() {
        let t = RuleTemplate::include("$MYSQL_DATADIR/**");
        assert_eq!(t.expand(&env(&[])), None);
    }

    #[test]
    fn literal_dollar_passes_through() {
        let t = RuleTemplate::exclude("/var/$$/cache");
        let rule = t.expand(&env(&[])).unwrap();
        assert_eq!(rule, Rule::exclude("/var/$$/cache"));
    }

    #[test]
    fn expand_templates_builds_per_machine_rulesets() {
        let templates = vec![
            RuleTemplate::include("$HOME/.config/**"),
            RuleTemplate::exclude("$TMPDIR/**"),
            RuleTemplate::include("$UNSET_VAR/x"),
        ];
        let rules = expand_templates(
            &templates,
            &env(&[("HOME", "/home/bob"), ("TMPDIR", "/scratch")]),
        );
        assert_eq!(rules.len(), 2, "unset-variable template skipped");
        assert!(rules.includes("/home/bob/.config/app.toml"));
        assert!(rules.excludes("/scratch/tmpfile"));
    }

    #[test]
    fn different_machines_expand_differently() {
        let t = RuleTemplate::include("$HOME/.my.cnf");
        let alice = t.expand(&env(&[("HOME", "/home/alice")])).unwrap();
        let bob = t.expand(&env(&[("HOME", "/home/bob")])).unwrap();
        assert_ne!(alice, bob);
    }
}
