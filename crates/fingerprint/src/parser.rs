//! The parser abstraction and registry.
//!
//! A [`ResourceParser`] turns the raw bytes of one environmental resource
//! into fingerprint [`Item`]s. The [`ParserRegistry`] holds two tiers of
//! parsers — Mirage-supplied (common types) and vendor-supplied
//! (application-specific) — and falls back to Rabin content chunking when
//! neither tier claims a resource. Which tier produced an item matters:
//! phase 1 of the clustering algorithm only trusts parser-produced items,
//! while content-based items go through the diameter-bounded phase 2.

use std::fmt;

use crate::glob::Glob;
use crate::item::Item;
use crate::rabin::Chunker;

/// The type of an environmental resource, as known to the packaging system.
///
/// The heuristic also uses kinds for its "files of certain types" rule
/// (e.g. shared libraries loaded after initialisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// An executable image.
    Executable,
    /// A shared library.
    SharedLibrary,
    /// An INI-style configuration file.
    Config,
    /// An application preferences file (e.g. Firefox `prefs.js`).
    Prefs,
    /// A plain text file.
    Text,
    /// An opaque binary file.
    Binary,
    /// A mutable data file (databases, documents).
    Data,
    /// A log file.
    Log,
    /// An HTML document.
    Html,
    /// A font file.
    Font,
    /// A browser-style extension bundle.
    Extension,
    /// A UI theme bundle.
    Theme,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Executable => "executable",
            ResourceKind::SharedLibrary => "shared-library",
            ResourceKind::Config => "config",
            ResourceKind::Prefs => "prefs",
            ResourceKind::Text => "text",
            ResourceKind::Binary => "binary",
            ResourceKind::Data => "data",
            ResourceKind::Log => "log",
            ResourceKind::Html => "html",
            ResourceKind::Font => "font",
            ResourceKind::Extension => "extension",
            ResourceKind::Theme => "theme",
        };
        f.write_str(s)
    }
}

/// The raw view of one environmental resource handed to parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceData {
    /// Absolute path of the resource on the machine.
    pub path: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Raw content bytes.
    pub bytes: Vec<u8>,
}

impl ResourceData {
    /// Creates a resource view.
    pub fn new(path: impl Into<String>, kind: ResourceKind, bytes: Vec<u8>) -> Self {
        ResourceData {
            path: path.into(),
            kind,
            bytes,
        }
    }

    /// Returns the content interpreted as UTF-8, or an error.
    pub(crate) fn text(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.bytes).map_err(|_| ParseError::NotText {
            path: self.path.clone(),
        })
    }
}

/// Errors produced by resource parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The resource is not valid UTF-8 but the parser expected text.
    NotText {
        /// Path of the offending resource.
        path: String,
    },
    /// A structured header or syntax element was malformed.
    Malformed {
        /// Path of the offending resource.
        path: String,
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NotText { path } => write!(f, "{path}: not valid UTF-8 text"),
            ParseError::Malformed { path, reason } => write!(f, "{path}: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parser that converts one resource into fingerprint items.
pub trait ResourceParser: Send + Sync {
    /// Short parser name for diagnostics.
    fn name(&self) -> &str;

    /// Parses `resource` into items.
    fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError>;
}

/// How a resource was fingerprinted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FingerprintSource {
    /// A Mirage- or vendor-supplied parser handled the resource.
    Parsed,
    /// No parser claimed the resource; content chunking was used.
    ContentBased,
}

/// The outcome of fingerprinting one resource.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprinted {
    /// Items produced.
    pub(crate) items: Vec<Item>,
    /// Whether a parser or content chunking produced them.
    pub(crate) source: FingerprintSource,
}

struct Registration {
    kind: Option<ResourceKind>,
    path_glob: Option<Glob>,
    parser: Box<dyn ResourceParser>,
}

impl Registration {
    fn claims(&self, resource: &ResourceData) -> bool {
        if let Some(kind) = self.kind {
            if kind != resource.kind {
                return false;
            }
        }
        if let Some(glob) = &self.path_glob {
            if !glob.matches(&resource.path) {
                return false;
            }
        }
        self.kind.is_some() || self.path_glob.is_some()
    }
}

/// A two-tier parser registry with a Rabin fallback.
///
/// Vendor parsers take precedence over Mirage parsers; within a tier the
/// first registered match wins. Resources claimed by no parser are chunked.
pub struct ParserRegistry {
    mirage: Vec<Registration>,
    vendor: Vec<Registration>,
    chunker: Chunker,
}

impl ParserRegistry {
    /// Creates an empty registry with the paper's default chunker.
    pub(crate) fn new() -> Self {
        ParserRegistry {
            mirage: Vec::new(),
            vendor: Vec::new(),
            chunker: Chunker::paper_default(),
        }
    }

    /// Registers a Mirage-supplied parser for a resource kind.
    pub(crate) fn register_mirage(
        &mut self,
        kind: ResourceKind,
        parser: Box<dyn ResourceParser>,
    ) -> &mut Self {
        self.mirage.push(Registration {
            kind: Some(kind),
            path_glob: None,
            parser,
        });
        self
    }

    /// Registers a Mirage-supplied parser limited to paths matching `glob`.
    pub(crate) fn register_mirage_glob(
        &mut self,
        kind: ResourceKind,
        glob: Glob,
        parser: Box<dyn ResourceParser>,
    ) -> &mut Self {
        self.mirage.push(Registration {
            kind: Some(kind),
            path_glob: Some(glob),
            parser,
        });
        self
    }

    /// Registers a vendor-supplied parser for a resource kind.
    pub fn register_vendor(
        &mut self,
        kind: ResourceKind,
        parser: Box<dyn ResourceParser>,
    ) -> &mut Self {
        self.vendor.push(Registration {
            kind: Some(kind),
            path_glob: None,
            parser,
        });
        self
    }

    /// Registers a vendor-supplied parser for paths matching `glob`
    /// regardless of kind.
    pub fn register_vendor_glob(
        &mut self,
        glob: Glob,
        parser: Box<dyn ResourceParser>,
    ) -> &mut Self {
        self.vendor.push(Registration {
            kind: None,
            path_glob: Some(glob),
            parser,
        });
        self
    }

    /// Fingerprints one resource.
    ///
    /// A parser that errors on a resource (e.g. binary data in a file that
    /// was labelled text) falls through to content chunking rather than
    /// failing the whole machine fingerprint: imprecise beats absent.
    pub(crate) fn fingerprint(&self, resource: &ResourceData) -> Fingerprinted {
        for reg in self.vendor.iter().chain(self.mirage.iter()) {
            if reg.claims(resource) {
                match reg.parser.parse(resource) {
                    Ok(items) => {
                        return Fingerprinted {
                            items,
                            source: FingerprintSource::Parsed,
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        let items = self
            .chunker
            .chunk(&resource.bytes)
            .into_iter()
            .map(|c| Item::new([resource.path.as_str(), "chunk", &c.hash.short()]))
            .collect();
        Fingerprinted {
            items,
            source: FingerprintSource::ContentBased,
        }
    }
}

impl Default for ParserRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ParserRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParserRegistry")
            .field("mirage_parsers", &self.mirage.len())
            .field("vendor_parsers", &self.vendor.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedParser(&'static str);

    impl ResourceParser for FixedParser {
        fn name(&self) -> &str {
            self.0
        }
        fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
            Ok(vec![Item::new([resource.path.as_str(), self.0])])
        }
    }

    struct FailingParser;

    impl ResourceParser for FailingParser {
        fn name(&self) -> &str {
            "failing"
        }
        fn parse(&self, resource: &ResourceData) -> Result<Vec<Item>, ParseError> {
            Err(ParseError::Malformed {
                path: resource.path.clone(),
                reason: "always fails".into(),
            })
        }
    }

    fn res(path: &str, kind: ResourceKind) -> ResourceData {
        ResourceData::new(path, kind, b"content".to_vec())
    }

    /// The name of the `FixedParser` that produced `fp`, or `"rabin"`
    /// for content chunking.
    fn parsed_by(fp: &Fingerprinted) -> &str {
        match fp.source {
            FingerprintSource::Parsed => &fp.items[0].segments()[1],
            FingerprintSource::ContentBased => "rabin",
        }
    }

    #[test]
    fn vendor_parser_takes_precedence() {
        let mut reg = ParserRegistry::new();
        reg.register_mirage(ResourceKind::Config, Box::new(FixedParser("mirage")));
        reg.register_vendor(ResourceKind::Config, Box::new(FixedParser("vendor")));
        let fp = reg.fingerprint(&res("/etc/x.conf", ResourceKind::Config));
        assert_eq!(parsed_by(&fp), "vendor");
        assert_eq!(fp.source as u8, FingerprintSource::Parsed as u8);
    }

    #[test]
    fn unclaimed_resource_falls_back_to_rabin() {
        let reg = ParserRegistry::new();
        let fp = reg.fingerprint(&res("/opt/blob", ResourceKind::Binary));
        assert_eq!(parsed_by(&fp), "rabin");
        assert!(matches!(fp.source, FingerprintSource::ContentBased));
        assert_eq!(fp.items.len(), 1); // "content" is tiny: one chunk
        assert_eq!(fp.items[0].resource(), "/opt/blob");
        assert_eq!(fp.items[0].segments()[1], "chunk");
    }

    #[test]
    fn glob_limited_registration() {
        let mut reg = ParserRegistry::new();
        reg.register_vendor_glob(Glob::new("/etc/mysql/**"), Box::new(FixedParser("mycnf")));
        let hit = reg.fingerprint(&res("/etc/mysql/my.cnf", ResourceKind::Config));
        assert_eq!(parsed_by(&hit), "mycnf");
        let miss = reg.fingerprint(&res("/etc/apache/httpd.conf", ResourceKind::Config));
        assert_eq!(parsed_by(&miss), "rabin");
    }

    #[test]
    fn parser_error_falls_back_to_content() {
        let mut reg = ParserRegistry::new();
        reg.register_mirage(ResourceKind::Text, Box::new(FailingParser));
        let fp = reg.fingerprint(&res("/etc/motd", ResourceKind::Text));
        assert_eq!(parsed_by(&fp), "rabin");
    }

    #[test]
    fn kind_mismatch_is_not_claimed() {
        let mut reg = ParserRegistry::new();
        reg.register_mirage(ResourceKind::Executable, Box::new(FixedParser("exe")));
        let fp = reg.fingerprint(&res("/etc/motd", ResourceKind::Text));
        assert_eq!(parsed_by(&fp), "rabin");
    }
}
