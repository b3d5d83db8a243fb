//! Resource fingerprinting for Mirage.
//!
//! Mirage clusters user machines by comparing compact representations
//! (*fingerprints*) of each environmental resource against a vendor
//! reference. A fingerprint is a set of hierarchical [`Item`]s. Items are
//! produced one of three ways (paper §3.2.3):
//!
//! 1. **Mirage-supplied parsers** for common resource types (executables,
//!    shared libraries, system-wide configuration files, plain text).
//! 2. **Vendor-supplied parsers** for application-specific resources, such
//!    as the Firefox preferences parser in the evaluation. Vendor parsers
//!    can discard user-specific noise (timestamps, window coordinates,
//!    comments) so that only semantically relevant differences survive.
//! 3. **Content-defined chunking** with Rabin fingerprints (4 KB average
//!    chunks) for everything else — precise enough to detect differences
//!    but too coarse to tell relevant differences from irrelevant ones,
//!    which is exactly the imprecision the paper's Figures 7 and 9 explore.
//!
//! The canonical item shapes are:
//!
//! | Resource | Item |
//! |---|---|
//! | Executable | `path.exe.FILE_HASH` |
//! | Shared library | `path.lib.VERSION.HASH` |
//! | Text file | `path.line.LINE#.LINE_HASH` |
//! | Config file | `path.SECTION.KEY.VALUE_HASH` |
//! | Prefs file (vendor) | `path.pref.KEY.VALUE_HASH` |
//! | Unparsed (Rabin) | `path.chunk.CHUNK_HASH` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod glob;
pub mod hash;
pub mod importance;
pub mod intern;
pub mod item;
pub mod parser;
pub mod parsers;
pub mod rabin;
pub mod set;

pub use glob::Glob;
pub use hash::{fnv1a, HashValue};
pub use importance::ImportanceFilter;
pub use intern::{ItemPool, LoweredDiff};
pub use item::{Item, ItemSet};
pub use parser::{ParseError, ParserRegistry, ResourceData, ResourceKind, ResourceParser};
pub use rabin::{Chunk, Chunker, ChunkerParams, RabinHasher};
pub use set::{DiffSet, MachineFingerprint};
