//! Hierarchical fingerprint items.
//!
//! An [`Item`] is a hierarchical key — a sequence of string segments such as
//! `/usr/lib/libc.so.6 · lib · 2.4 · a1b2c3d4` — produced by a resource
//! parser or by content chunking. Machines are compared through the sets of
//! items that differ from the vendor reference, so items are kept small,
//! ordered, and cheap to compare.

use std::collections::BTreeSet;
use std::fmt;

/// A hierarchical fingerprint item.
///
/// # Examples
///
/// ```
/// use mirage_fingerprint::Item;
/// let item = Item::new(["/etc/my.cnf", "mysqld", "datadir", "deadbeef"]);
/// assert_eq!(item.to_string(), "/etc/my.cnf.mysqld.datadir.deadbeef");
/// assert!(item.starts_with(&["/etc/my.cnf"]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item {
    segments: Vec<String>,
}

/// A set of fingerprint items.
pub type ItemSet = BTreeSet<Item>;

impl Item {
    /// Builds an item from its segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty: an item must identify a resource.
    pub fn new<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        assert!(!segments.is_empty(), "an item needs at least one segment");
        Item { segments }
    }

    /// Returns the item's segments.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Returns the first segment, which by convention is the resource path.
    pub fn resource(&self) -> &str {
        &self.segments[0]
    }

    /// Returns the number of segments.
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` if the item's leading segments equal `prefix`.
    pub fn starts_with<S: AsRef<str>>(&self, prefix: &[S]) -> bool {
        prefix.len() <= self.segments.len()
            && prefix
                .iter()
                .zip(&self.segments)
                .all(|(p, s)| p.as_ref() == s)
    }

    /// Returns a copy truncated to the first `len` segments.
    ///
    /// Truncation implements the vendor's "discard a suffix of some of the
    /// hierarchical items" control (paper §3.2.3 discussion): e.g. keeping
    /// `libc.lib.2.4` while dropping the build hash merges machines that
    /// run the same version compiled with different flags.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds the item depth.
    pub fn truncated(&self, len: usize) -> Item {
        assert!(len >= 1 && len <= self.segments.len(), "bad truncation");
        Item {
            segments: self.segments[..len].to_vec(),
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.segments.join("."))
    }
}

/// Returns the symmetric difference of two item sets.
///
/// This is the core comparison in Mirage: a user machine reports the set of
/// items that differ from the vendor's list — items present on exactly one
/// of the two sides.
pub(crate) fn symmetric_difference(a: &ItemSet, b: &ItemSet) -> ItemSet {
    a.symmetric_difference(b).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Item::new(["/usr/bin/php", "exe", "cafe"]);
        assert_eq!(i.resource(), "/usr/bin/php");
        assert_eq!(i.depth(), 3);
        assert_eq!(i.segments()[1], "exe");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_item_panics() {
        let _ = Item::new(Vec::<String>::new());
    }

    #[test]
    fn prefix_matching() {
        let i = Item::new(["/lib/libc.so", "lib", "2.4", "beef"]);
        assert!(i.starts_with(&["/lib/libc.so"]));
        assert!(i.starts_with(&["/lib/libc.so", "lib"]));
        assert!(i.starts_with(&["/lib/libc.so", "lib", "2.4", "beef"]));
        assert!(!i.starts_with(&["/lib/libc.so", "exe"]));
        assert!(!i.starts_with(&["/lib/libc.so", "lib", "2.4", "beef", "x"]));
    }

    #[test]
    fn truncation_drops_suffix() {
        let i = Item::new(["/lib/libc.so", "lib", "2.4", "beef"]);
        assert_eq!(i.truncated(3), Item::new(["/lib/libc.so", "lib", "2.4"]));
        assert_eq!(i.truncated(4), i);
    }

    #[test]
    #[should_panic(expected = "bad truncation")]
    fn truncation_bounds_checked() {
        let i = Item::new(["a", "b"]);
        let _ = i.truncated(3);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Item::new(["a", "b"]);
        let b = Item::new(["a", "c"]);
        let c = Item::new(["a"]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn symmetric_difference_works() {
        let a: ItemSet = [Item::new(["x"]), Item::new(["y"])].into_iter().collect();
        let b: ItemSet = [Item::new(["y"]), Item::new(["z"])].into_iter().collect();
        let d = symmetric_difference(&a, &b);
        assert_eq!(d.len(), 2);
        assert!(d.contains(&Item::new(["x"])));
        assert!(d.contains(&Item::new(["z"])));
    }
}
