//! Concrete resource parsers.
//!
//! The Mirage-supplied tier covers executables, shared libraries, plain
//! text, and INI-style system configuration files; the vendor tier is
//! exemplified by [`PrefsParser`], the application-specific preferences
//! parser the paper's Firefox evaluation relies on (it discards irrelevant
//! keys such as timestamps and window coordinates).
//!
//! Simulated binary images carry a small structured header so that parsers
//! have real structure to parse:
//!
//! * executables: `EXESIM\0<name>\0<build-hash-hex>\0<payload>`
//! * shared libraries: `LIBSIM\0<name>\0<version>\0<build-hash-hex>\0<payload>`

use crate::glob::Glob;
use crate::hash::HashValue;
use crate::item::Item;
use crate::parser::{ParseError, ResourceData, ResourceKind, ResourceParser};

/// Splits a NUL-separated header of `n` fields, returning the fields.
fn split_header<'a>(
    resource: &'a ResourceData,
    magic: &str,
    n: usize,
) -> Result<Vec<&'a str>, ParseError> {
    let text = std::str::from_utf8(&resource.bytes).map_err(|_| ParseError::Malformed {
        path: resource.path.clone(),
        reason: format!("missing {magic} header"),
    })?;
    let mut fields = text.splitn(n + 2, '\0');
    let found_magic = fields.next().unwrap_or("");
    if found_magic != magic {
        return Err(ParseError::Malformed {
            path: resource.path.clone(),
            reason: format!("expected {magic} header, found {found_magic:?}"),
        });
    }
    let collected: Vec<&str> = fields.take(n).collect();
    if collected.len() != n {
        return Err(ParseError::Malformed {
            path: resource.path.clone(),
            reason: format!("truncated {magic} header"),
        });
    }
    Ok(collected)
}

/// Mirage-supplied parser for executable images.
///
/// Produces a single `path.exe.FILE_HASH` item: executables are opaque, so
/// finer granularity would be useless (paper §3.2.3).
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecutableParser;

impl ResourceParser for ExecutableParser {
    fn name(&self) -> &str {
        "mirage-executable"
    }

    fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
        split_header(resource, "EXESIM", 2)?;
        let hash = HashValue::of(&resource.bytes);
        Ok(vec![Item::new([
            resource.path.as_str(),
            "exe",
            &hash.short(),
        ])])
    }
}

/// Mirage-supplied parser for shared libraries.
///
/// Produces a single `path.lib.VERSION.HASH` item. Keeping the version as
/// its own segment lets the vendor truncate away the build hash while
/// preserving the version (the libc-compiled-with-different-flags example
/// in the paper).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SharedLibraryParser;

impl ResourceParser for SharedLibraryParser {
    fn name(&self) -> &str {
        "mirage-shared-library"
    }

    fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
        let fields = split_header(resource, "LIBSIM", 3)?;
        let version = fields[1];
        let hash = HashValue::of(&resource.bytes);
        Ok(vec![Item::new([
            resource.path.as_str(),
            "lib",
            version,
            &hash.short(),
        ])])
    }
}

/// Mirage-supplied parser for INI-style configuration files.
///
/// Produces one `path.SECTION.KEY.VALUE_HASH` item per key. Comments
/// (`#` or `;`) and blank lines are discarded — they are irrelevant to
/// application behaviour, and discarding them is exactly what lets the
/// full-parser clustering of Figure 6 place comment-edited machines with
/// their unedited twins.
#[derive(Debug, Default, Clone, Copy)]
pub struct IniConfigParser;

impl ResourceParser for IniConfigParser {
    fn name(&self) -> &str {
        "mirage-ini-config"
    }

    fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
        let text = resource.text()?;
        let mut items = Vec::new();
        let mut section = "global".to_string();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            match line.split_once('=') {
                Some((key, value)) => {
                    items.push(Item::new([
                        resource.path.as_str(),
                        section.as_str(),
                        key.trim(),
                        &HashValue::of_str(value.trim()).short(),
                    ]));
                }
                None => {
                    // Bare directive (e.g. `skip-networking`).
                    if line.contains(char::is_whitespace) {
                        return Err(ParseError::Malformed {
                            path: resource.path.clone(),
                            reason: format!("line {}: not a key=value or directive", lineno + 1),
                        });
                    }
                    items.push(Item::new([
                        resource.path.as_str(),
                        section.as_str(),
                        line,
                        &HashValue::of_str("").short(),
                    ]));
                }
            }
        }
        Ok(items)
    }
}

/// Vendor-supplied parser for browser-style preference files.
///
/// Accepts lines of the form `user_pref("key", value);`, skipping blanks
/// and `//` comments. Keys matching any of the `irrelevant` globs —
/// timestamps, window geometry, and similar user-specific noise — are
/// discarded, which is the vendor's lever for sound clustering in the
/// paper's Figure 8.
#[derive(Debug, Default, Clone)]
pub struct PrefsParser {
    irrelevant: Vec<Glob>,
}

impl PrefsParser {
    /// Creates a parser that discards keys matching any of `patterns`.
    pub fn ignoring<I, S>(patterns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PrefsParser {
            irrelevant: patterns.into_iter().map(|p| Glob::new(p.into())).collect(),
        }
    }

    fn is_irrelevant(&self, key: &str) -> bool {
        self.irrelevant.iter().any(|g| g.matches(key))
    }
}

impl ResourceParser for PrefsParser {
    fn name(&self) -> &str {
        "vendor-prefs"
    }

    fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
        let text = resource.text()?;
        let mut items = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let inner = line
                .strip_prefix("user_pref(")
                .and_then(|l| l.strip_suffix(");"))
                .ok_or_else(|| ParseError::Malformed {
                    path: resource.path.clone(),
                    reason: format!("line {}: not a user_pref statement", lineno + 1),
                })?;
            let (key_part, value_part) =
                inner.split_once(',').ok_or_else(|| ParseError::Malformed {
                    path: resource.path.clone(),
                    reason: format!("line {}: missing value", lineno + 1),
                })?;
            let key = key_part.trim().trim_matches('"');
            let value = value_part.trim();
            if self.is_irrelevant(key) {
                continue;
            }
            items.push(Item::new([
                resource.path.as_str(),
                "pref",
                key,
                &HashValue::of_str(value).short(),
            ]));
        }
        Ok(items)
    }
}

/// Builds a registry preloaded with the Mirage-supplied parsers.
///
/// Mirror of the paper's statement that Mirage itself provides parsers for
/// executables, shared libraries, and system-wide configuration files:
/// the config parser registered here is limited to `/etc/*` (one level),
/// leaving application-owned config files to vendor parsers or chunking.
pub fn mirage_default_registry() -> crate::parser::ParserRegistry {
    let mut reg = crate::parser::ParserRegistry::new();
    reg.register_mirage(ResourceKind::Executable, Box::new(ExecutableParser));
    reg.register_mirage(ResourceKind::SharedLibrary, Box::new(SharedLibraryParser));
    reg.register_mirage_glob(
        ResourceKind::Config,
        Glob::new("/etc/*"),
        Box::new(IniConfigParser),
    );
    reg
}

#[cfg(test)]
mod tests {
    use super::image::{exe_bytes, lib_bytes};
    use super::*;
    use crate::parser::FingerprintSource;

    #[test]
    fn executable_single_item() {
        let res = ResourceData::new(
            "/usr/bin/php",
            ResourceKind::Executable,
            exe_bytes("php", 1),
        );
        let items = ExecutableParser.parse(&res).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].segments()[0], "/usr/bin/php");
        assert_eq!(items[0].segments()[1], "exe");
        // Different build → different item.
        let res2 = ResourceData::new(
            "/usr/bin/php",
            ResourceKind::Executable,
            exe_bytes("php", 2),
        );
        assert_ne!(items, ExecutableParser.parse(&res2).unwrap());
    }

    #[test]
    fn executable_rejects_bad_magic() {
        let res = ResourceData::new("/usr/bin/php", ResourceKind::Executable, b"ELF".to_vec());
        assert!(ExecutableParser.parse(&res).is_err());
    }

    #[test]
    fn library_keeps_version_segment() {
        let res = ResourceData::new(
            "/lib/libc.so.6",
            ResourceKind::SharedLibrary,
            lib_bytes("libc", "2.4", 77),
        );
        let items = SharedLibraryParser.parse(&res).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].segments()[1], "lib");
        assert_eq!(items[0].segments()[2], "2.4");
        // Same version, different flags (build hash) → same truncated item.
        let res2 = ResourceData::new(
            "/lib/libc.so.6",
            ResourceKind::SharedLibrary,
            lib_bytes("libc", "2.4", 78),
        );
        let items2 = SharedLibraryParser.parse(&res2).unwrap();
        assert_ne!(items[0], items2[0]);
        assert_eq!(items[0].truncated(3), items2[0].truncated(3));
    }

    #[test]
    fn text_parser_rejects_binary() {
        let res = ResourceData::new("/etc/motd", ResourceKind::Text, vec![0xff, 0xfe]);
        assert!(res.text().is_err());
        assert!(IniConfigParser.parse(&res).is_err());
    }

    #[test]
    fn ini_parser_discards_comments_and_blanks() {
        let content = b"# a comment\n\n[mysqld]\ndatadir = /var/lib/mysql\nskip-networking\n; more\n[client]\nport = 3306\n";
        let res = ResourceData::new("/etc/mysql/my.cnf", ResourceKind::Config, content.to_vec());
        let items = IniConfigParser.parse(&res).unwrap();
        assert_eq!(items.len(), 3);
        assert!(items
            .iter()
            .any(|i| i.segments()[1] == "mysqld" && i.segments()[2] == "datadir"));
        assert!(items
            .iter()
            .any(|i| i.segments()[1] == "mysqld" && i.segments()[2] == "skip-networking"));
        assert!(items
            .iter()
            .any(|i| i.segments()[1] == "client" && i.segments()[2] == "port"));

        // Comment-only changes leave items untouched.
        let edited =
            b"# different comment entirely\n[mysqld]\ndatadir = /var/lib/mysql\nskip-networking\n[client]\nport = 3306\n";
        let res2 = ResourceData::new("/etc/mysql/my.cnf", ResourceKind::Config, edited.to_vec());
        assert_eq!(items, IniConfigParser.parse(&res2).unwrap());
    }

    #[test]
    fn ini_parser_value_changes_item() {
        let a = ResourceData::new(
            "/etc/my.cnf",
            ResourceKind::Config,
            b"[mysqld]\nport = 3306\n".to_vec(),
        );
        let b = ResourceData::new(
            "/etc/my.cnf",
            ResourceKind::Config,
            b"[mysqld]\nport = 3307\n".to_vec(),
        );
        let ia = IniConfigParser.parse(&a).unwrap();
        let ib = IniConfigParser.parse(&b).unwrap();
        assert_ne!(ia, ib);
        // Key path identical, only the value hash differs.
        assert_eq!(ia[0].truncated(3), ib[0].truncated(3));
    }

    #[test]
    fn ini_parser_keys_before_section_go_to_global() {
        let res = ResourceData::new("/etc/x", ResourceKind::Config, b"a = 1\n".to_vec());
        let items = IniConfigParser.parse(&res).unwrap();
        assert_eq!(items[0].segments()[1], "global");
    }

    #[test]
    fn ini_parser_rejects_garbage_line() {
        let res = ResourceData::new(
            "/etc/x",
            ResourceKind::Config,
            b"this is not a directive\n".to_vec(),
        );
        assert!(IniConfigParser.parse(&res).is_err());
    }

    #[test]
    fn prefs_parser_discards_irrelevant_keys() {
        let content = b"// Mozilla prefs\nuser_pref(\"javascript.enabled\", true);\nuser_pref(\"app.update.lastUpdateTime\", 1161100000);\nuser_pref(\"browser.window.width\", 1024);\n";
        let res = ResourceData::new(
            "/home/u/.mozilla/prefs.js",
            ResourceKind::Prefs,
            content.to_vec(),
        );
        let all = PrefsParser::default().parse(&res).unwrap();
        assert_eq!(all.len(), 3);
        let relevant = PrefsParser::ignoring(["*.lastUpdateTime", "browser.window.*"])
            .parse(&res)
            .unwrap();
        assert_eq!(relevant.len(), 1);
        assert_eq!(relevant[0].segments()[2], "javascript.enabled");
    }

    #[test]
    fn prefs_parser_rejects_malformed() {
        let res = ResourceData::new(
            "/home/u/prefs.js",
            ResourceKind::Prefs,
            b"set_pref(\"a\", 1);\n".to_vec(),
        );
        assert!(PrefsParser::default().parse(&res).is_err());
    }

    #[test]
    fn default_registry_covers_common_kinds() {
        let reg = mirage_default_registry();
        let exe = reg.fingerprint(&ResourceData::new(
            "/usr/bin/x",
            ResourceKind::Executable,
            exe_bytes("x", 0),
        ));
        assert!(matches!(exe.source, FingerprintSource::Parsed));
        // System-wide config parsed...
        let sys = reg.fingerprint(&ResourceData::new(
            "/etc/fstab",
            ResourceKind::Config,
            b"a = 1\n".to_vec(),
        ));
        assert!(matches!(sys.source, FingerprintSource::Parsed));
        // ...but application-owned config (deeper path) falls to chunking.
        let app = reg.fingerprint(&ResourceData::new(
            "/etc/mysql/my.cnf",
            ResourceKind::Config,
            b"a = 1\n".to_vec(),
        ));
        assert!(matches!(app.source, FingerprintSource::ContentBased));
    }
}

/// Builders for simulated binary images (used by the environment model).
pub mod image {
    /// Renders a simulated executable image with a payload derived from the
    /// build hash so that different builds have different bytes.
    pub fn exe_bytes(name: &str, build_hash: u64) -> Vec<u8> {
        format!("EXESIM\0{name}\0{build_hash:016x}\0payload-{build_hash:x}").into_bytes()
    }

    /// Renders a simulated shared library image.
    pub fn lib_bytes(name: &str, version: &str, build_hash: u64) -> Vec<u8> {
        format!("LIBSIM\0{name}\0{version}\0{build_hash:016x}\0payload-{build_hash:x}").into_bytes()
    }
}

/// Vendor-supplied parser for Apache-style directive configuration.
///
/// Parses `httpd.conf`-like files: `Directive arg...` lines, nested
/// `<Section arg>` ... `</Section>` blocks, and `#` comments (discarded).
/// Items take the form `path.SECTION_PATH.DIRECTIVE.ARGS_HASH`, so an
/// added `Include /etc/apache/acl.conf` line — the trigger of the
/// paper's Apache 1.3.24→1.3.26 problem \[3\] — surfaces as exactly one
/// differing item.
#[derive(Debug, Default, Clone, Copy)]
pub struct HttpdConfParser;

impl ResourceParser for HttpdConfParser {
    fn name(&self) -> &str {
        "vendor-httpd-conf"
    }

    fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
        let text = resource.text()?;
        let mut items = Vec::new();
        let mut sections: Vec<String> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(close) = line.strip_prefix("</") {
                let name = close.trim_end_matches('>').trim();
                match sections.last() {
                    Some(open) if open.split(' ').next() == Some(name) => {
                        sections.pop();
                    }
                    _ => {
                        return Err(ParseError::Malformed {
                            path: resource.path.clone(),
                            reason: format!("line {}: mismatched </{name}>", lineno + 1),
                        })
                    }
                }
                continue;
            }
            if let Some(open) = line.strip_prefix('<') {
                let name = open.trim_end_matches('>').trim();
                sections.push(name.to_string());
                continue;
            }
            let mut parts = line.splitn(2, char::is_whitespace);
            let directive = parts.next().unwrap_or_default();
            let args = parts.next().unwrap_or("").trim();
            let section_path = if sections.is_empty() {
                "global".to_string()
            } else {
                sections.join("/")
            };
            items.push(Item::new([
                resource.path.as_str(),
                &section_path,
                directive,
                &HashValue::of_str(args).short(),
            ]));
        }
        if !sections.is_empty() {
            return Err(ParseError::Malformed {
                path: resource.path.clone(),
                reason: format!("unclosed section {}", sections.join("/")),
            });
        }
        Ok(items)
    }
}

#[cfg(test)]
mod httpd_tests {
    use super::*;

    fn conf(content: &str) -> ResourceData {
        ResourceData::new(
            "/etc/apache/httpd.conf",
            ResourceKind::Config,
            content.as_bytes().to_vec(),
        )
    }

    #[test]
    fn directives_and_sections() {
        let res = conf(
            "# Apache config\nServerRoot /srv\n<Directory /srv/www>\nOptions Indexes\n</Directory>\nInclude /etc/apache/acl.conf\n",
        );
        let items = HttpdConfParser.parse(&res).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].segments()[1], "global");
        assert_eq!(items[0].segments()[2], "ServerRoot");
        assert_eq!(items[1].segments()[1], "Directory /srv/www");
        assert_eq!(items[1].segments()[2], "Options");
        assert_eq!(items[2].segments()[2], "Include");
    }

    #[test]
    fn include_line_is_one_item_difference() {
        let base = conf("ServerRoot /srv\n");
        let with_include = conf("ServerRoot /srv\nInclude /etc/apache/acl.conf\n");
        let a: std::collections::BTreeSet<Item> =
            HttpdConfParser.parse(&base).unwrap().into_iter().collect();
        let b: std::collections::BTreeSet<Item> = HttpdConfParser
            .parse(&with_include)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(a.symmetric_difference(&b).count(), 1);
    }

    #[test]
    fn comments_are_discarded() {
        let a = conf("# one comment\nServerRoot /srv\n");
        let b = conf("# a different comment\nServerRoot /srv\n");
        assert_eq!(
            HttpdConfParser.parse(&a).unwrap(),
            HttpdConfParser.parse(&b).unwrap()
        );
    }

    #[test]
    fn mismatched_sections_rejected() {
        assert!(HttpdConfParser.parse(&conf("</Directory>\n")).is_err());
        assert!(HttpdConfParser
            .parse(&conf("<Directory /x>\nOptions None\n"))
            .is_err());
        assert!(HttpdConfParser
            .parse(&conf("<IfModule a>\n</Directory>\n"))
            .is_err());
    }
}
