//! Machine fingerprints and diff sets.
//!
//! The vendor fingerprints its reference machine and publishes the item
//! list; each user machine fingerprints itself, computes the set of items
//! that differ (present on exactly one side), and reports that *diff set*
//! back. Clustering operates entirely on diff sets, which also gives a
//! useful identity: because symmetric difference cancels, the distance
//! between two machines equals the distance between their diff sets.

use std::collections::BTreeSet;

use crate::item::{symmetric_difference, ItemSet};
use crate::parser::{FingerprintSource, ParserRegistry, ResourceData};

/// The complete fingerprint of one machine, split by provenance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineFingerprint {
    /// Machine identifier.
    pub machine: String,
    /// Items produced by (Mirage or vendor) parsers.
    pub parsed: ItemSet,
    /// Items produced by content chunking (no parser available).
    pub content: ItemSet,
}

impl MachineFingerprint {
    /// Creates an empty fingerprint for `machine`.
    pub fn new(machine: impl Into<String>) -> Self {
        MachineFingerprint {
            machine: machine.into(),
            parsed: BTreeSet::new(),
            content: BTreeSet::new(),
        }
    }

    /// Fingerprints a list of resources with `registry`.
    pub fn of_resources(
        machine: impl Into<String>,
        resources: &[ResourceData],
        registry: &ParserRegistry,
    ) -> Self {
        let mut fp = MachineFingerprint::new(machine);
        for res in resources {
            let out = registry.fingerprint(res);
            match out.source {
                FingerprintSource::Parsed => fp.parsed.extend(out.items),
                FingerprintSource::ContentBased => fp.content.extend(out.items),
            }
        }
        fp
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.parsed.len() + self.content.len()
    }

    /// Returns `true` if the fingerprint holds no items.
    pub fn is_empty(&self) -> bool {
        self.parsed.is_empty() && self.content.is_empty()
    }

    /// Computes the diff set of this machine against the vendor reference.
    pub fn diff(&self, reference: &MachineFingerprint) -> DiffSet {
        DiffSet {
            machine: self.machine.clone(),
            parsed: symmetric_difference(&self.parsed, &reference.parsed),
            content: symmetric_difference(&self.content, &reference.content),
        }
    }
}

/// The set of items on which a machine differs from the vendor reference.
///
/// This is what user machines send back to the vendor (paper §3.2.3); it
/// contains items present on the reference but missing locally *and*
/// vice-versa.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffSet {
    /// Machine identifier.
    pub machine: String,
    /// Differing parser-produced items.
    pub parsed: ItemSet,
    /// Differing content-based items.
    pub content: ItemSet,
}

impl DiffSet {
    /// Creates an empty diff set (a machine identical to the reference).
    pub fn empty(machine: impl Into<String>) -> Self {
        DiffSet {
            machine: machine.into(),
            parsed: BTreeSet::new(),
            content: BTreeSet::new(),
        }
    }

    /// Total number of differing items.
    pub fn len(&self) -> usize {
        self.parsed.len() + self.content.len()
    }

    /// Returns `true` if the machine matches the reference exactly.
    pub fn is_empty(&self) -> bool {
        self.parsed.is_empty() && self.content.is_empty()
    }

    /// Manhattan distance to another machine over *content-based* items.
    ///
    /// Because `A Δ V Δ (B Δ V) = A Δ B`, comparing diff sets equals
    /// comparing the machines directly; this is the phase-2 clustering
    /// distance.
    pub fn content_distance(&self, other: &DiffSet) -> usize {
        self.content.symmetric_difference(&other.content).count()
    }

    /// Distance from the vendor reference itself (= size of the diff set).
    pub fn vendor_distance(&self) -> usize {
        self.len()
    }

    /// Returns the union of parsed and content items (for labels).
    pub fn all_items(&self) -> ItemSet {
        self.parsed.union(&self.content).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    fn item(s: &str) -> Item {
        Item::new(s.split('.').collect::<Vec<_>>())
    }

    fn fp(machine: &str, parsed: &[&str], content: &[&str]) -> MachineFingerprint {
        MachineFingerprint {
            machine: machine.into(),
            parsed: parsed.iter().map(|s| item(s)).collect(),
            content: content.iter().map(|s| item(s)).collect(),
        }
    }

    #[test]
    fn diff_is_symmetric_difference() {
        let vendor = fp("vendor", &["a.1", "b.1"], &["c.1"]);
        let user = fp("u1", &["a.1", "b.2"], &["c.1", "d.1"]);
        let d = user.diff(&vendor);
        assert_eq!(d.machine, "u1");
        assert_eq!(d.parsed.len(), 2); // b.1 (vendor only) + b.2 (user only)
        assert_eq!(d.content.len(), 1); // d.1
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn identical_machine_has_empty_diff() {
        let vendor = fp("vendor", &["a.1"], &["c.1"]);
        let user = fp("u", &["a.1"], &["c.1"]);
        assert!(user.diff(&vendor).is_empty());
        assert_eq!(user.diff(&vendor).vendor_distance(), 0);
    }

    #[test]
    fn diffset_distance_equals_machine_distance() {
        let vendor = fp("vendor", &[], &["x.1", "y.1"]);
        let a = fp("a", &[], &["x.1", "y.2"]);
        let b = fp("b", &[], &["x.2", "y.1"]);
        let da = a.diff(&vendor);
        let db = b.diff(&vendor);
        // Direct machine distance: items {x.1,y.2} vs {x.2,y.1} → 4.
        assert_eq!(da.content_distance(&db), 4);
        // Distance to self is zero.
        assert_eq!(da.content_distance(&da), 0);
    }

    #[test]
    fn total_distance_includes_parsed() {
        let da = DiffSet {
            machine: "a".into(),
            parsed: [item("p.1")].into_iter().collect(),
            content: [item("c.1")].into_iter().collect(),
        };
        let db = DiffSet::empty("b");
        assert_eq!(da.vendor_distance(), 2);
        assert_eq!(db.vendor_distance(), 0);
        assert_eq!(da.all_items().len(), 2);
    }

    #[test]
    fn of_resources_splits_by_source() {
        use crate::parser::ResourceKind;
        use crate::parsers::{image, mirage_default_registry};
        let reg = mirage_default_registry();
        let resources = vec![
            ResourceData::new(
                "/usr/bin/app",
                ResourceKind::Executable,
                image::exe_bytes("app", 1),
            ),
            ResourceData::new("/opt/blob.bin", ResourceKind::Binary, vec![1, 2, 3]),
        ];
        let fp = MachineFingerprint::of_resources("m", &resources, &reg);
        assert_eq!(fp.parsed.len(), 1);
        assert_eq!(fp.content.len(), 1);
        assert_eq!(fp.len(), 2);
        assert!(!fp.is_empty());
    }
}
