//! Structured file contents and their byte renderings.
//!
//! Files in the simulated environment carry *structured* content — INI
//! documents, preference lists, library images — that renders to bytes on
//! demand. Mirage's parsers (in `mirage-fingerprint`) then re-parse those
//! bytes, so the full parse path is exercised rather than short-circuited.

use mirage_fingerprint::parsers::image;

/// One line of an INI-style configuration document.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IniLine {
    /// A `[section]` header.
    Section(String),
    /// A `key = value` assignment.
    KeyValue(String, String),
    /// A bare directive such as `skip-networking`.
    Directive(String),
    /// A `# comment`.
    Comment(String),
    /// An empty line.
    Blank,
}

/// An INI-style configuration document (e.g. `my.cnf`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct IniDoc {
    /// Ordered lines.
    pub lines: Vec<IniLine>,
}

impl IniDoc {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section header.
    pub fn section(mut self, name: impl Into<String>) -> Self {
        self.lines.push(IniLine::Section(name.into()));
        self
    }

    /// Appends a key/value assignment.
    pub fn key(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.lines.push(IniLine::KeyValue(key.into(), value.into()));
        self
    }

    /// Appends a bare directive.
    pub fn directive(mut self, directive: impl Into<String>) -> Self {
        self.lines.push(IniLine::Directive(directive.into()));
        self
    }

    /// Appends a comment.
    pub fn comment(mut self, text: impl Into<String>) -> Self {
        self.lines.push(IniLine::Comment(text.into()));
        self
    }

    /// Removes the first assignment or directive whose key is `key`.
    ///
    /// Returns `true` if something was removed.
    pub fn remove_key(&mut self, key: &str) -> bool {
        let pos = self.lines.iter().position(|l| match l {
            IniLine::KeyValue(k, _) | IniLine::Directive(k) => k == key,
            _ => false,
        });
        match pos {
            Some(i) => {
                self.lines.remove(i);
                true
            }
            None => false,
        }
    }

    /// Returns `true` if `key` appears in `section`.
    pub(crate) fn has_key_in(&self, section: &str, key: &str) -> bool {
        let mut current = "global";
        for line in &self.lines {
            match line {
                IniLine::Section(s) => current = s,
                IniLine::KeyValue(k, _) | IniLine::Directive(k)
                    if current == section && k == key =>
                {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Renders the document to bytes.
    pub(crate) fn render(&self) -> Vec<u8> {
        let mut out = String::new();
        for line in &self.lines {
            match line {
                IniLine::Section(s) => out.push_str(&format!("[{s}]\n")),
                IniLine::KeyValue(k, v) => out.push_str(&format!("{k} = {v}\n")),
                IniLine::Directive(d) => out.push_str(&format!("{d}\n")),
                IniLine::Comment(c) => out.push_str(&format!("# {c}\n")),
                IniLine::Blank => out.push('\n'),
            }
        }
        out.into_bytes()
    }
}

/// A browser-style preferences document (e.g. Firefox `prefs.js`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PrefsDoc {
    /// Ordered `(key, value)` preferences. Values are rendered verbatim.
    pub(crate) prefs: Vec<(String, String)>,
}

impl PrefsDoc {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a preference.
    pub fn pref(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.prefs.push((key.into(), value.into()));
        self
    }

    /// Renders the document to bytes.
    pub(crate) fn render(&self) -> Vec<u8> {
        let mut out = String::from("// Mirage simulated preferences file\n");
        for (k, v) in &self.prefs {
            out.push_str(&format!("user_pref(\"{k}\", {v});\n"));
        }
        out.into_bytes()
    }
}

/// The content of a simulated file.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FileContent {
    /// Plain text, one string per line.
    Text(Vec<String>),
    /// An INI-style configuration document.
    Ini(IniDoc),
    /// A preferences document.
    Prefs(PrefsDoc),
    /// An executable image identified by name and build hash.
    Executable {
        /// Program name.
        name: String,
        /// Build identity; different builds have different bytes.
        build: u64,
    },
    /// A shared-library image with an embedded version string.
    Library {
        /// Library name.
        name: String,
        /// Library version (e.g. `"2.4"`).
        version: String,
        /// Build identity; same version, different build ⇒ different hash.
        build: u64,
    },
    /// Deterministic pseudo-random bytes (opaque binary data).
    Binary {
        /// Generator seed.
        seed: u64,
        /// Length in bytes.
        len: usize,
    },
    /// Literal bytes.
    Bytes(Vec<u8>),
}

impl FileContent {
    /// Renders the content to bytes.
    pub fn render(&self) -> Vec<u8> {
        match self {
            FileContent::Text(lines) => {
                let mut out = String::new();
                for l in lines {
                    out.push_str(l);
                    out.push('\n');
                }
                out.into_bytes()
            }
            FileContent::Ini(doc) => doc.render(),
            FileContent::Prefs(doc) => doc.render(),
            FileContent::Executable { name, build } => image::exe_bytes(name, *build),
            FileContent::Library {
                name,
                version,
                build,
            } => image::lib_bytes(name, version, *build),
            FileContent::Binary { seed, len } => pseudo_random_bytes(*seed, *len),
            FileContent::Bytes(b) => b.clone(),
        }
    }

    /// Returns the embedded library version, if this is a library image.
    pub fn library_version(&self) -> Option<&str> {
        match self {
            FileContent::Library { version, .. } => Some(version),
            _ => None,
        }
    }
}

/// Deterministic xorshift byte generator for opaque binary content.
pub(crate) fn pseudo_random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ini_builder_and_render() {
        let doc = IniDoc::new()
            .comment("MySQL config")
            .section("mysqld")
            .key("datadir", "/var/lib/mysql")
            .directive("skip-networking");
        let text = String::from_utf8(doc.render()).unwrap();
        assert_eq!(
            text,
            "# MySQL config\n[mysqld]\ndatadir = /var/lib/mysql\nskip-networking\n"
        );
    }

    #[test]
    fn ini_lookup_and_removal() {
        let mut doc = IniDoc::new()
            .section("mysqld")
            .key("port", "3306")
            .directive("skip-networking");
        assert!(doc.has_key_in("mysqld", "port"));
        assert!(!doc.has_key_in("client", "port"));
        assert!(doc.remove_key("skip-networking"));
        assert!(!doc.remove_key("skip-networking"));
        assert!(!doc.has_key_in("mysqld", "skip-networking"));
    }

    #[test]
    fn prefs_render() {
        let doc = PrefsDoc::new()
            .pref("javascript.enabled", "false")
            .pref("browser.window.width", "800");
        let text = String::from_utf8(doc.render()).unwrap();
        assert!(text.contains("user_pref(\"javascript.enabled\", false);"));
        assert!(text.contains("user_pref(\"browser.window.width\", 800);"));
    }

    #[test]
    fn executable_render_parses_back() {
        use mirage_fingerprint::parsers::ExecutableParser;
        use mirage_fingerprint::{ResourceData, ResourceKind, ResourceParser};
        let bytes = FileContent::Executable {
            name: "mysqld".into(),
            build: 42,
        }
        .render();
        let res = ResourceData::new("/usr/sbin/mysqld", ResourceKind::Executable, bytes);
        assert!(ExecutableParser.parse(&res).is_ok());
    }

    #[test]
    fn library_version_accessor() {
        let lib = FileContent::Library {
            name: "libmysqlclient".into(),
            version: "4.1".into(),
            build: 7,
        };
        assert_eq!(lib.library_version(), Some("4.1"));
        assert_eq!(FileContent::Text(vec![]).library_version(), None);
    }

    #[test]
    fn binary_content_is_deterministic() {
        let a = FileContent::Binary { seed: 9, len: 128 }.render();
        let b = FileContent::Binary { seed: 9, len: 128 }.render();
        let c = FileContent::Binary { seed: 10, len: 128 }.render();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 128);
    }

    #[test]
    fn different_builds_render_differently() {
        let a = FileContent::Executable {
            name: "x".into(),
            build: 1,
        }
        .render();
        let b = FileContent::Executable {
            name: "x".into(),
            build: 2,
        }
        .render();
        assert_ne!(a, b);
    }
}
