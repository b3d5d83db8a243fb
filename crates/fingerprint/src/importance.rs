//! Vendor item-importance filtering.
//!
//! The vendor "can specify which items it believes to be less important"
//! and "create bigger clusters by removing those items from the set of
//! differing items of each machine", including "discard\[ing\] only a suffix
//! of some of the hierarchical items" (paper §3.2.3). An
//! [`ImportanceFilter`] encodes those directives and is applied to diff
//! sets before clustering.

use crate::item::{Item, ItemSet};
use crate::set::DiffSet;

/// One importance directive.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    /// Drop items whose leading segments equal the given prefix.
    DropPrefix(Vec<String>),
    /// For items whose leading segments equal the prefix, truncate them to
    /// `keep` segments (discarding the suffix) instead of dropping them.
    TruncateSuffix { prefix: Vec<String>, keep: usize },
}

/// A reusable set of vendor importance directives.
///
/// # Examples
///
/// Deploying a non-critical Firefox UI upgrade, the vendor considers libc
/// build differences irrelevant as long as the version matches:
///
/// ```
/// use mirage_fingerprint::{ImportanceFilter, Item};
/// let filter = ImportanceFilter::new()
///     .truncate_suffix(["/lib/libc.so.6", "lib"], 3);
/// let a = Item::new(["/lib/libc.so.6", "lib", "2.4", "aaaa"]);
/// let b = Item::new(["/lib/libc.so.6", "lib", "2.4", "bbbb"]);
/// let fa = filter.apply_item(&a).unwrap();
/// let fb = filter.apply_item(&b).unwrap();
/// assert_eq!(fa, fb); // same version → indistinguishable
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportanceFilter {
    directives: Vec<Directive>,
}

impl ImportanceFilter {
    /// Creates a filter with no directives (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every item under `prefix` (leading segments).
    pub fn drop_prefix<I, S>(mut self, prefix: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.directives.push(Directive::DropPrefix(
            prefix.into_iter().map(Into::into).collect(),
        ));
        self
    }

    /// Truncates items under `prefix` to their first `keep` segments.
    pub fn truncate_suffix<I, S>(mut self, prefix: I, keep: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.directives.push(Directive::TruncateSuffix {
            prefix: prefix.into_iter().map(Into::into).collect(),
            keep,
        });
        self
    }

    /// Returns `true` if the filter has no directives.
    pub fn is_identity(&self) -> bool {
        self.directives.is_empty()
    }

    /// Applies the filter to a single item.
    ///
    /// Returns `None` if the item is dropped, or the (possibly truncated)
    /// item otherwise. The first matching directive wins.
    pub fn apply_item(&self, item: &Item) -> Option<Item> {
        for d in &self.directives {
            match d {
                Directive::DropPrefix(prefix) => {
                    if item.starts_with(prefix) {
                        return None;
                    }
                }
                Directive::TruncateSuffix { prefix, keep } => {
                    if item.starts_with(prefix) {
                        let keep = (*keep).min(item.depth()).max(1);
                        return Some(item.truncated(keep));
                    }
                }
            }
        }
        Some(item.clone())
    }

    /// Applies the filter to an item set.
    pub(crate) fn apply_set(&self, items: &ItemSet) -> ItemSet {
        items.iter().filter_map(|i| self.apply_item(i)).collect()
    }

    /// Applies the filter to a diff set (both provenance categories).
    pub fn apply(&self, diff: &DiffSet) -> DiffSet {
        if self.is_identity() {
            return diff.clone();
        }
        DiffSet {
            machine: diff.machine.clone(),
            parsed: self.apply_set(&diff.parsed),
            content: self.apply_set(&diff.content),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn item(s: &str) -> Item {
        Item::new(s.split('.').collect::<Vec<_>>())
    }

    #[test]
    fn identity_filter_is_noop() {
        let f = ImportanceFilter::new();
        assert!(f.is_identity());
        let i = item("a.b.c");
        assert_eq!(f.apply_item(&i), Some(i));
    }

    #[test]
    fn drop_prefix_removes_matching_items() {
        let f = ImportanceFilter::new().drop_prefix(["/etc/mysql/my.cnf"]);
        assert_eq!(
            f.apply_item(&Item::new(["/etc/mysql/my.cnf", "mysqld", "port", "x"])),
            None
        );
        assert!(f.apply_item(&Item::new(["/etc/other", "a", "b"])).is_some());
    }

    #[test]
    fn first_matching_directive_wins() {
        let f = ImportanceFilter::new()
            .drop_prefix(["a", "b"])
            .truncate_suffix(["a"], 1);
        assert_eq!(f.apply_item(&Item::new(["a", "b", "c"])), None);
        assert_eq!(
            f.apply_item(&Item::new(["a", "x", "c"])),
            Some(Item::new(["a"]))
        );
    }

    #[test]
    fn apply_to_diffset_can_empty_it() {
        let mut parsed = BTreeSet::new();
        parsed.insert(Item::new(["/etc/my.cnf", "mysqld", "port", "x"]));
        parsed.insert(Item::new(["/etc/my.cnf", "mysqld", "socket", "y"]));
        let d = DiffSet {
            machine: "m".into(),
            parsed,
            content: BTreeSet::new(),
        };
        let f = ImportanceFilter::new().drop_prefix(["/etc/my.cnf"]);
        let filtered = f.apply(&d);
        assert!(filtered.is_empty());
        assert_eq!(filtered.machine, "m");
    }

    #[test]
    fn truncation_can_collapse_items() {
        // Two differing items that collapse to the same truncated item.
        let mut content = BTreeSet::new();
        content.insert(Item::new(["f", "chunk", "aaaa"]));
        content.insert(Item::new(["f", "chunk", "bbbb"]));
        let d = DiffSet {
            machine: "m".into(),
            parsed: BTreeSet::new(),
            content,
        };
        let f = ImportanceFilter::new().truncate_suffix(["f", "chunk"], 2);
        assert_eq!(f.apply(&d).content.len(), 1);
    }
}
