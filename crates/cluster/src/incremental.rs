//! Incremental reclustering (the paper's §3.2.3 future work).
//!
//! "A relevant change in a machine's environment can change that
//! machine's cluster", and recomputing the full (quadratic) phase-2
//! clustering on every fleet update does not scale. The move semantics
//! for a *single* machine whose environment changed are:
//!
//! 1. the machine is removed from its current cluster (which is dropped
//!    if it becomes empty);
//! 2. every existing cluster is tested for compatibility — identical
//!    parsed diff set, identical overlapping-application set, and
//!    content distance to *every* member within the diameter (members
//!    already satisfy the bound pairwise, so only the new edges need
//!    checking);
//! 3. the compatible cluster with the smallest mean distance to the
//!    machine adopts it (ties break on cluster order, equivalently
//!    ascending cluster creation); otherwise the machine founds a
//!    singleton cluster whose id is one past the current maximum.
//!
//! The result is always a valid clustering (partition + diameter bound +
//! phase-1/app-set agreement). It may be *coarser-grained* than a full
//! re-run — greedy QT could have reshuffled other machines too — which
//! is the classic incremental-maintenance trade-off; a periodic full
//! recluster restores the canonical partition.
//!
//! [`recluster_one`] moves one machine per call over plain `BTreeMap`s
//! and owned `Cluster`s. No campaign calls it: the paper leaves
//! incremental re-clustering to future work, and `tests/extensions.rs`
//! demonstrates it after a configuration edit.

use std::collections::BTreeMap;

use mirage_fingerprint::{ItemPool, LoweredDiff};

use crate::cluster::{Cluster, ClusterId, Clustering, MachineInfo};
use crate::engine::label_of;

/// Moves `updated` to its best cluster after an environment change.
///
/// `machines` must hold the clustering inputs of every machine in
/// `clustering` *except* possibly a stale entry for `updated.id()`,
/// which is replaced.
///
/// # Panics
///
/// Panics if a clustering member other than the updated machine is
/// missing from `machines`.
pub fn recluster_one(
    clustering: &Clustering,
    machines: &BTreeMap<String, MachineInfo>,
    updated: MachineInfo,
    diameter: usize,
) -> Clustering {
    let updated_id = updated.id().to_string();
    let info_of = |m: &str| -> &MachineInfo {
        machines
            .get(m)
            .unwrap_or_else(|| panic!("machine {m} missing from inputs"))
    };

    // All content distances in this function involve the updated
    // machine, so they run on the interned kernel: lower the updated
    // diff once, lower each candidate member's diff at most once, and
    // compare sorted u32 ids instead of `BTreeSet<Item>` strings. The
    // kernel distance equals `DiffSet::content_distance` exactly.
    let mut pool = ItemPool::new();
    let updated_lowered = pool.lower(&updated.diff.content);
    let mut lowered: BTreeMap<String, LoweredDiff> = BTreeMap::new();

    // 1. Remove the machine from its old cluster.
    let mut clusters: Vec<Cluster> = Vec::new();
    for c in &clustering.clusters {
        if c.contains(&updated_id) {
            if c.members.len() > 1 {
                let mut remaining = c.clone();
                remaining.members.retain(|m| m != &updated_id);
                recompute_derived(&mut remaining, &info_of);
                clusters.push(remaining);
            }
            // Empty cluster dropped.
        } else {
            clusters.push(c.clone());
        }
    }

    // 2. Find the best compatible cluster. The scan short-circuits at
    // the first incompatible member, and the per-member distances are
    // summed as they are checked so the mean needs no second pass.
    let mut best: Option<(f64, usize)> = None;
    for (idx, cluster) in clusters.iter().enumerate() {
        let mut sum = 0usize;
        let mut compatible = true;
        for m in &cluster.members {
            let info = info_of(m);
            if info.diff.parsed != updated.diff.parsed
                || info.overlapping_apps != updated.overlapping_apps
            {
                compatible = false;
                break;
            }
            let d = lowered
                .entry(m.clone())
                .or_insert_with(|| pool.lower(&info.diff.content))
                .distance(&updated_lowered);
            if d > diameter {
                compatible = false;
                break;
            }
            sum += d;
        }
        if !compatible {
            continue;
        }
        let mean = if cluster.members.is_empty() {
            0.0
        } else {
            sum as f64 / cluster.members.len() as f64
        };
        if best.map(|(b, _)| mean < b).unwrap_or(true) {
            best = Some((mean, idx));
        }
    }

    // 3. Adopt or found.
    match best {
        Some((_, idx)) => {
            clusters[idx].members.push(updated_id.clone());
            clusters[idx].members.sort();
            // Derived fields are recomputed from the borrowed inputs
            // plus the updated machine — no O(fleet) map clone.
            let info_of2 = |m: &str| -> &MachineInfo {
                if m == updated_id.as_str() {
                    &updated
                } else {
                    info_of(m)
                }
            };
            recompute_derived(&mut clusters[idx], &info_of2);
        }
        None => {
            let next_id = clusters.iter().map(|c| c.id.0 + 1).max().unwrap_or(0);
            clusters.push(Cluster {
                id: ClusterId(next_id),
                members: vec![updated_id],
                label: updated.diff.all_items(),
                app_set: updated.overlapping_apps.clone(),
                vendor_distance: updated.diff.vendor_distance() as f64,
            });
        }
    }
    Clustering { clusters }
}

/// Recomputes a cluster's label (the union of its members' items) and
/// vendor distance (their mean) from its members' inputs.
fn recompute_derived<'a, F>(cluster: &mut Cluster, info_of: &F)
where
    F: Fn(&str) -> &'a MachineInfo,
{
    cluster.label = label_of(cluster.members.iter().map(|m| info_of(m)));
    let total: usize = cluster
        .members
        .iter()
        .map(|m| info_of(m).diff.vendor_distance())
        .sum();
    cluster.vendor_distance = total as f64 / cluster.members.len() as f64;
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::engine::ClusterEngine;
    use mirage_fingerprint::{DiffSet, Item};

    fn machine(id: &str, parsed: &[&str], content: &[&str]) -> MachineInfo {
        let mut diff = DiffSet::empty(id);
        diff.parsed = parsed.iter().map(|s| Item::new([*s])).collect();
        diff.content = content.iter().map(|s| Item::new([*s])).collect();
        MachineInfo::new(diff)
    }

    fn setup() -> (Clustering, BTreeMap<String, MachineInfo>) {
        let infos = vec![
            machine("a", &["x"], &[]),
            machine("b", &["x"], &[]),
            machine("c", &["y"], &[]),
        ];
        let clustering = ClusterEngine::new(1).cluster(&infos);
        let map = infos.into_iter().map(|i| (i.id().to_string(), i)).collect();
        (clustering, map)
    }

    #[test]
    fn machine_moves_to_matching_cluster() {
        let (clustering, machines) = setup();
        assert_eq!(clustering.len(), 2);
        // Machine b's environment changes to match c.
        let updated = machine("b", &["y"], &[]);
        let next = recluster_one(&clustering, &machines, updated, 1);
        next.validate_partition().unwrap();
        assert_eq!(next.len(), 2);
        let c_cluster = next.cluster_of("c").unwrap();
        assert!(c_cluster.contains("b"));
        assert!(!next.cluster_of("a").unwrap().contains("b"));
    }

    #[test]
    fn unique_environment_founds_singleton() {
        let (clustering, machines) = setup();
        let updated = machine("b", &["z"], &[]);
        let next = recluster_one(&clustering, &machines, updated, 1);
        next.validate_partition().unwrap();
        assert_eq!(next.len(), 3);
        let b_cluster = next.cluster_of("b").unwrap();
        assert_eq!(b_cluster.members, vec!["b"]);
        // The fresh cluster received an unused id.
        let ids: std::collections::BTreeSet<usize> = next.clusters.iter().map(|c| c.id.0).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn emptied_cluster_disappears() {
        let (clustering, machines) = setup();
        // c (a singleton) changes to match the {a, b} cluster.
        let updated = machine("c", &["x"], &[]);
        let next = recluster_one(&clustering, &machines, updated, 1);
        next.validate_partition().unwrap();
        assert_eq!(next.len(), 1);
        assert_eq!(next.clusters[0].members, vec!["a", "b", "c"]);
    }

    #[test]
    fn diameter_blocks_adoption() {
        let infos = vec![machine("a", &[], &["c1"]), machine("b", &[], &["c1"])];
        let clustering = ClusterEngine::new(0).cluster(&infos);
        assert_eq!(clustering.len(), 1);
        let machines: BTreeMap<String, MachineInfo> =
            infos.into_iter().map(|i| (i.id().to_string(), i)).collect();
        // Same parsed diff but content now differs: at d = 0 the
        // machine cannot rejoin and must found a singleton.
        let updated = machine("b", &[], &["c2"]);
        let next = recluster_one(&clustering, &machines, updated, 0);
        assert_eq!(next.len(), 2);
    }

    #[test]
    fn derived_fields_stay_consistent() {
        let (clustering, machines) = setup();
        let updated = machine("b", &["y"], &["extra"]);
        let mut with_updated = machines.clone();
        with_updated.insert("b".into(), updated.clone());
        let next = recluster_one(&clustering, &machines, updated, 5);
        let cluster = next.cluster_of("b").unwrap();
        // Label is the union of member items.
        assert!(cluster.label.contains(&Item::new(["y"])));
        assert!(cluster.label.contains(&Item::new(["extra"])));
        // Vendor distance is the member mean: c has 1 item, b has 2.
        assert!((cluster.vendor_distance - 1.5).abs() < 1e-9);
    }

    #[test]
    fn no_change_is_stable() {
        let (clustering, machines) = setup();
        let same = machines["a"].clone();
        let next = recluster_one(&clustering, &machines, same, 1);
        next.validate_partition().unwrap();
        assert_eq!(next.len(), clustering.len());
        assert!(next.cluster_of("a").unwrap().contains("b"));
    }
}
