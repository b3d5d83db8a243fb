//! Clustering data model.

use std::collections::BTreeSet;
use std::fmt;

use mirage_fingerprint::{DiffSet, ItemSet};

/// Identifier of a cluster within one clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Per-machine clustering input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// The machine's diff set against the vendor reference.
    pub diff: DiffSet,
    /// Installed applications whose environmental resources overlap the
    /// application being upgraded (drives the app-overlap split).
    pub overlapping_apps: BTreeSet<String>,
}

impl MachineInfo {
    /// Creates clustering input with no overlapping applications.
    pub fn new(diff: DiffSet) -> Self {
        MachineInfo {
            diff,
            overlapping_apps: BTreeSet::new(),
        }
    }

    /// The machine identifier.
    pub fn id(&self) -> &str {
        &self.diff.machine
    }
}

/// One cluster of deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Cluster identifier.
    pub id: ClusterId,
    /// Member machine ids, sorted.
    pub members: Vec<String>,
    /// The cluster label: the union of members' differing items.
    pub label: ItemSet,
    /// The overlapping-application set shared by all members.
    pub app_set: BTreeSet<String>,
    /// Mean vendor distance of the members (item count).
    pub vendor_distance: f64,
}

impl Cluster {
    /// Number of member machines.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members (never produced by
    /// the engine; useful for tests).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `machine` belongs to this cluster.
    pub fn contains(&self, machine: &str) -> bool {
        self.members.iter().any(|m| m == machine)
    }
}

/// A complete clustering of a machine population.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clustering {
    /// Clusters, in deterministic order.
    pub clusters: Vec<Cluster>,
}

impl Clustering {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` if there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Finds the cluster containing `machine`.
    pub fn cluster_of(&self, machine: &str) -> Option<&Cluster> {
        self.clusters.iter().find(|c| c.contains(machine))
    }

    /// Total number of machines across clusters.
    pub fn machine_count(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }

    /// Verifies the partition property: every machine in exactly one
    /// cluster. Returns the machine ids if valid.
    pub fn validate_partition(&self) -> Result<BTreeSet<String>, String> {
        let mut seen = BTreeSet::new();
        for c in &self.clusters {
            if c.is_empty() {
                return Err(format!("cluster {} is empty", c.id));
            }
            for m in &c.members {
                if !seen.insert(m.clone()) {
                    return Err(format!("machine {m} appears in multiple clusters"));
                }
            }
        }
        Ok(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_fingerprint::Item;

    fn cluster(id: usize, members: &[&str], dist: f64) -> Cluster {
        Cluster {
            id: ClusterId(id),
            members: members.iter().map(|s| s.to_string()).collect(),
            label: [Item::new(["x"])].into_iter().collect(),
            app_set: BTreeSet::new(),
            vendor_distance: dist,
        }
    }

    #[test]
    fn clustering_lookup_and_counts() {
        let clustering = Clustering {
            clusters: vec![cluster(0, &["a", "b"], 2.0), cluster(1, &["c"], 1.0)],
        };
        assert_eq!(clustering.len(), 2);
        assert_eq!(clustering.machine_count(), 3);
        assert_eq!(clustering.cluster_of("b").unwrap().id, ClusterId(0));
        assert!(clustering.cluster_of("z").is_none());
    }

    #[test]
    fn partition_validation() {
        let good = Clustering {
            clusters: vec![cluster(0, &["a"], 0.0), cluster(1, &["b"], 0.0)],
        };
        assert_eq!(good.validate_partition().unwrap().len(), 2);
        let dup = Clustering {
            clusters: vec![cluster(0, &["a"], 0.0), cluster(1, &["a"], 0.0)],
        };
        assert!(dup.validate_partition().is_err());
        let empty = Clustering {
            clusters: vec![cluster(0, &[], 0.0)],
        };
        assert!(empty.validate_partition().is_err());
    }

    #[test]
    fn machine_info_builder() {
        let mut info = MachineInfo::new(DiffSet::empty("m1"));
        info.overlapping_apps.insert("php".into());
        assert_eq!(info.id(), "m1");
        assert!(info.overlapping_apps.contains("php"));
    }
}
