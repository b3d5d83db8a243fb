//! The full clustering pipeline.

use std::collections::BTreeSet;

use mirage_fingerprint::{ImportanceFilter, Item, ItemSet};
use mirage_telemetry::Telemetry;

use crate::cluster::{Cluster, ClusterId, Clustering, MachineInfo};
use crate::phase1::original_clusters;
use crate::qt::qt_cluster_instrumented;
use crate::split::split_by_app_set;

/// A cluster's label: the union of its members' parsed and content
/// items. The union is taken by reference, so each distinct item is
/// cloned once however many members carry it.
pub(crate) fn label_of<'a>(members: impl Iterator<Item = &'a MachineInfo>) -> ItemSet {
    let distinct: BTreeSet<&Item> = members
        .flat_map(|m| m.diff.parsed.iter().chain(&m.diff.content))
        .collect();
    distinct.into_iter().cloned().collect()
}

/// Configuration and entry point for clustering a machine population.
///
/// # Examples
///
/// ```
/// use mirage_cluster::{ClusterEngine, MachineInfo};
/// use mirage_fingerprint::{DiffSet, Item};
///
/// let mut a = DiffSet::empty("a");
/// let b = DiffSet::empty("b");
/// a.parsed.insert(Item::new(["/lib/libc.so", "lib", "2.4", "ff"]));
/// let machines = vec![MachineInfo::new(a), MachineInfo::new(b)];
/// let clustering = ClusterEngine::new(3).cluster(&machines);
/// assert_eq!(clustering.len(), 2); // different parsed diffs → separate
/// ```
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    /// Phase-2 diameter bound `d`.
    pub(crate) diameter: usize,
    /// Vendor importance filter applied to diff sets before clustering.
    pub(crate) importance: ImportanceFilter,
    /// Telemetry handle (no-op by default).
    pub(crate) telemetry: Telemetry,
}

impl ClusterEngine {
    /// Creates an engine with the given diameter and no importance filter.
    pub fn new(diameter: usize) -> Self {
        ClusterEngine {
            diameter,
            importance: ImportanceFilter::new(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Sets the importance filter.
    pub fn with_importance(mut self, filter: ImportanceFilter) -> Self {
        self.importance = filter;
        self
    }

    /// Attaches a telemetry handle timing each pipeline phase and
    /// counting distance evaluations and QT merges.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs the full pipeline: importance filtering → phase 1 → phase 2 →
    /// app-overlap split → labelling.
    pub fn cluster(&self, machines: &[MachineInfo]) -> Clustering {
        let _pipeline = self.telemetry.span("cluster.pipeline");
        self.telemetry
            .counter("cluster.machines_in", machines.len() as u64);

        // Apply the vendor's importance directives up front. An identity
        // filter is short-circuited entirely: the pipeline then borrows
        // the caller's machines instead of copying every diff set and
        // overlapping-app set (the common no-directives case used to
        // clone the whole population). The `cluster.importance_filtered`
        // counter is only emitted when the copying branch runs, which is
        // what the engine tests assert on.
        let filtered: Option<Vec<MachineInfo>> = {
            let _span = self.telemetry.span("importance");
            if self.importance.is_identity() {
                None
            } else {
                self.telemetry
                    .counter("cluster.importance_filtered", machines.len() as u64);
                Some(
                    machines
                        .iter()
                        .map(|m| MachineInfo {
                            diff: self.importance.apply(&m.diff),
                            overlapping_apps: m.overlapping_apps.clone(),
                        })
                        .collect(),
                )
            }
        };
        let refs: Vec<&MachineInfo> = match &filtered {
            Some(filtered) => filtered.iter().collect(),
            None => machines.iter().collect(),
        };

        let originals = {
            let _span = self.telemetry.span("phase1");
            original_clusters(&refs)
        };

        let mut final_groups: Vec<Vec<&MachineInfo>> = Vec::new();
        {
            let _span = self.telemetry.span("phase2");
            for original in originals {
                for sub in qt_cluster_instrumented(&original, self.diameter, &self.telemetry) {
                    for split in split_by_app_set(&sub) {
                        final_groups.push(split);
                    }
                }
            }
        }

        let _span = self.telemetry.span("label");
        self.telemetry
            .counter("cluster.clusters_out", final_groups.len() as u64);
        let clusters = final_groups
            .into_iter()
            .enumerate()
            .map(|(i, group)| {
                let mut members: Vec<String> = group.iter().map(|m| m.id().to_string()).collect();
                members.sort();
                let label = label_of(group.iter().copied());
                let app_set: BTreeSet<String> = group
                    .first()
                    .map(|m| m.overlapping_apps.clone())
                    .unwrap_or_default();
                let vendor_distance = if group.is_empty() {
                    0.0
                } else {
                    group
                        .iter()
                        .map(|m| m.diff.vendor_distance())
                        .sum::<usize>() as f64
                        / group.len() as f64
                };
                Cluster {
                    id: ClusterId(i),
                    members,
                    label,
                    app_set,
                    vendor_distance,
                }
            })
            .collect();
        Clustering { clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_fingerprint::{DiffSet, Item};

    fn machine(id: &str, parsed: &[&str], content: &[&str], apps: &[&str]) -> MachineInfo {
        let mut diff = DiffSet::empty(id);
        diff.parsed = parsed.iter().map(|s| Item::new([*s])).collect();
        diff.content = content.iter().map(|s| Item::new([*s])).collect();
        let mut info = MachineInfo::new(diff);
        info.overlapping_apps = apps.iter().map(|s| s.to_string()).collect();
        info
    }

    #[test]
    fn pipeline_composes_phases() {
        let machines = vec![
            machine("base1", &[], &[], &[]),
            machine("base2", &[], &[], &[]),
            machine("cfg", &[], &["my.cnf-chunk"], &[]),
            machine("libc", &["libc-2.4"], &[], &[]),
            machine("php", &[], &[], &["php"]),
        ];
        // Diameter 0: cfg splits from base; php splits by app set; libc by
        // phase 1.
        let clustering = ClusterEngine::new(0).cluster(&machines);
        assert_eq!(clustering.len(), 4);
        let base = clustering.cluster_of("base1").unwrap();
        assert!(base.contains("base2"));
        assert!(!base.contains("cfg"));
        assert!(!base.contains("php"));
        clustering.validate_partition().unwrap();

        // Diameter 1 merges cfg into base (distance 1), php still split.
        let clustering = ClusterEngine::new(1).cluster(&machines);
        assert_eq!(clustering.len(), 3);
        assert!(clustering.cluster_of("base1").unwrap().contains("cfg"));
    }

    #[test]
    fn importance_filter_merges_phase1_clusters() {
        let machines = vec![
            machine("a", &["libc-build-x"], &[], &[]),
            machine("b", &["libc-build-y"], &[], &[]),
        ];
        let separate = ClusterEngine::new(0).cluster(&machines);
        assert_eq!(separate.len(), 2);
        let merged = ClusterEngine::new(0)
            .with_importance(
                ImportanceFilter::new()
                    .drop_prefix(["libc-build-x"])
                    .drop_prefix(["libc-build-y"]),
            )
            .cluster(&machines);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn labels_and_distances() {
        let machines = vec![
            machine("near", &[], &[], &[]),
            machine("far", &["p1", "p2"], &["c1"], &[]),
        ];
        let clustering = ClusterEngine::new(0).cluster(&machines);
        let near = clustering.cluster_of("near").unwrap();
        let far = clustering.cluster_of("far").unwrap();
        assert_eq!(near.vendor_distance, 0.0);
        assert_eq!(far.vendor_distance, 3.0);
        assert_eq!(far.label.len(), 3);
    }

    #[test]
    fn identity_filter_skips_the_copying_pass() {
        use std::sync::Arc;

        use mirage_telemetry::{Registry, Telemetry};

        let machines = vec![
            machine("a", &["p"], &["c"], &["php"]),
            machine("b", &["p"], &[], &[]),
        ];

        // No directives: the filtering copy must not run (the counter
        // only exists inside the copying branch) and the clustering is
        // unchanged.
        let registry = Arc::new(Registry::new(64));
        let identity = ClusterEngine::new(1)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .cluster(&machines);
        let snap = registry.snapshot();
        assert!(!snap.counters.contains_key("cluster.importance_filtered"));
        // The importance span still brackets the (skipped) phase.
        assert_eq!(snap.spans["cluster.pipeline/importance"].count, 1);
        assert_eq!(identity, ClusterEngine::new(1).cluster(&machines));

        // A real directive takes the copying branch and counts every
        // machine exactly once.
        let registry = Arc::new(Registry::new(64));
        ClusterEngine::new(1)
            .with_importance(ImportanceFilter::new().drop_prefix(["p"]))
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .cluster(&machines);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cluster.importance_filtered"], 2);
    }

    #[test]
    fn empty_population() {
        let clustering = ClusterEngine::new(3).cluster(&[]);
        assert_eq!(clustering.len(), 0);
        assert_eq!(clustering.machine_count(), 0);
    }

    #[test]
    fn telemetry_records_phases_and_counters() {
        use std::sync::Arc;

        use mirage_telemetry::{Registry, Telemetry};

        let machines = vec![
            machine("base1", &[], &[], &[]),
            machine("base2", &[], &[], &[]),
            machine("cfg", &[], &["my.cnf-chunk"], &[]),
        ];
        let registry = Arc::new(Registry::new(64));
        let instrumented = ClusterEngine::new(1)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .cluster(&machines);
        // Instrumentation must not change the clustering.
        let plain = ClusterEngine::new(1).cluster(&machines);
        assert_eq!(instrumented.len(), plain.len());

        let snap = registry.snapshot();
        assert_eq!(snap.counters["cluster.machines_in"], 3);
        assert_eq!(
            snap.counters["cluster.clusters_out"],
            instrumented.len() as u64
        );
        // base1/base2/cfg form one phase-1 cluster: 3 pairwise distances.
        assert_eq!(snap.counters["cluster.distance_evals"], 3);
        assert!(snap.counters["cluster.qt_merges"] >= 1);
        // The engine had no importance directives, so the filtering copy
        // must have been skipped entirely.
        assert!(!snap.counters.contains_key("cluster.importance_filtered"));
        for span in [
            "cluster.pipeline",
            "cluster.pipeline/importance",
            "cluster.pipeline/phase1",
            "cluster.pipeline/phase2",
            "cluster.pipeline/label",
        ] {
            assert_eq!(snap.spans[span].count, 1, "missing span {span}");
        }
    }
}
