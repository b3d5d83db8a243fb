//! The deployment plan: clusters, representatives, distances.
//!
//! A plan carries the [`MachineTable`] that maps machine names to dense
//! [`MachineId`]s; cluster membership is stored as id vectors so that
//! protocols and the simulator never touch strings on the hot path.
//! The table's names are shared, not owned: cloning a plan — into a
//! protocol, a rollout plan, a controller — copies the id vectors and
//! takes another handle on the one table, whatever the fleet size.

use mirage_cluster::Clustering;

use crate::ids::{MachineId, MachineTable};

/// One cluster as seen by a deployment protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployCluster {
    /// Cluster index within the plan.
    pub id: usize,
    /// All member machine ids (representatives included).
    pub members: Vec<MachineId>,
    /// Representative machine ids (a prefix subset of `members`).
    pub reps: Vec<MachineId>,
    /// Vendor↔cluster distance (environment dissimilarity).
    pub distance: f64,
}

impl DeployCluster {
    /// Non-representative member ids.
    pub fn non_reps(&self) -> Vec<MachineId> {
        self.members
            .iter()
            .filter(|m| !self.reps.contains(m))
            .copied()
            .collect()
    }

    /// Number of member machines.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A complete deployment plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeployPlan {
    /// Machine name ↔ id interner; ids are dense and follow plan order
    /// (cluster 0's members first, then cluster 1's, …). Clones of the
    /// plan share its storage.
    pub machines: MachineTable,
    /// Clusters in plan order (ids are indexes into this vector).
    pub clusters: Vec<DeployCluster>,
}

impl DeployPlan {
    /// Builds a plan from named clusters: each spec is `(member names,
    /// representative count, distance)`. Representatives are the first
    /// `reps` members.
    pub fn from_named<M, S>(specs: impl IntoIterator<Item = (M, usize, f64)>) -> Self
    where
        M: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut machines = MachineTable::new();
        let clusters = specs
            .into_iter()
            .enumerate()
            .map(|(id, (members, reps, distance))| {
                let members: Vec<MachineId> = members
                    .into_iter()
                    .map(|m| machines.intern(m.as_ref()))
                    .collect();
                let reps = members.iter().take(reps).copied().collect();
                DeployCluster {
                    id,
                    members,
                    reps,
                    distance,
                }
            })
            .collect();
        DeployPlan { machines, clusters }
    }

    /// Builds a plan from a clustering, electing the first
    /// `reps_per_cluster` members (sorted order) of each cluster as
    /// representatives.
    ///
    /// The paper assumes representatives are always online and willing to
    /// test (perhaps under a financial arrangement with the vendor);
    /// election strategy is orthogonal, so "first k members" keeps the
    /// plan deterministic.
    pub fn from_clustering(clustering: &Clustering, reps_per_cluster: usize) -> Self {
        DeployPlan::from_named(clustering.clusters.iter().map(|c| {
            let reps = reps_per_cluster.max(1).min(c.members.len());
            (
                c.members.iter().map(String::as_str),
                reps,
                c.vendor_distance,
            )
        }))
    }

    /// Cluster ids ordered by ascending distance (ties by id).
    pub fn order_by_distance_asc(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.clusters.len()).collect();
        ids.sort_by(|&a, &b| {
            self.clusters[a]
                .distance
                .partial_cmp(&self.clusters[b].distance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        ids
    }

    /// Cluster ids ordered by descending distance (ties by id).
    pub fn order_by_distance_desc(&self) -> Vec<usize> {
        let mut ids = self.order_by_distance_asc();
        ids.reverse();
        ids
    }

    /// Total machine count (sum of cluster sizes).
    pub fn machine_count(&self) -> usize {
        self.clusters.iter().map(DeployCluster::len).sum()
    }

    /// All machine ids across clusters, in plan order.
    pub fn all_machines(&self) -> Vec<MachineId> {
        self.clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect()
    }

    /// Looks up the cluster containing a machine.
    ///
    /// On the layout [`DeployPlan::from_named`] produces — cluster `k`
    /// holds the consecutive ids right after cluster `k - 1`'s — this is
    /// a binary search over the clusters' first ids plus one offset
    /// probe, `O(log clusters)` with nothing stored beside the plan.
    /// The probe *verifies* the hit, so a plan edited through its `pub`
    /// fields into another layout falls back to the scan; only a
    /// malformed plan listing one machine in several clusters can get a
    /// later cluster than the first the scan would find.
    pub fn cluster_of(&self, machine: MachineId) -> Option<&DeployCluster> {
        let after = self
            .clusters
            .partition_point(|c| c.members.first().is_none_or(|&first| first <= machine));
        let dense = self.clusters[..after].last().filter(|c| {
            c.members
                .first()
                .and_then(|first| machine.index().checked_sub(first.index()))
                .and_then(|offset| c.members.get(offset))
                == Some(&machine)
        });
        dense.or_else(|| self.clusters.iter().find(|c| c.members.contains(&machine)))
    }

    /// The name behind a machine id (boundary helper).
    pub fn machine_name(&self, id: MachineId) -> &str {
        self.machines.name(id)
    }

    /// The id behind a machine name (boundary helper).
    pub fn machine_id(&self, name: &str) -> Option<MachineId> {
        self.machines.id(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic plan: each tuple is (members, reps, distance).
    fn plan(specs: &[(&[&str], usize, f64)]) -> DeployPlan {
        DeployPlan::from_named(
            specs
                .iter()
                .map(|(members, reps, distance)| (members.iter().copied(), *reps, *distance)),
        )
    }

    #[test]
    fn non_reps_and_counts() {
        let p = plan(&[(&["a", "b", "c"], 1, 0.0)]);
        assert_eq!(p.clusters[0].reps, vec![MachineId(0)]);
        assert_eq!(p.clusters[0].non_reps(), vec![MachineId(1), MachineId(2)]);
        assert_eq!(p.machine_count(), 3);
        assert_eq!(p.all_machines().len(), 3);
        assert!(!p.clusters[0].is_empty());
        // Names round-trip through the table in plan order.
        assert_eq!(p.machine_name(MachineId(1)), "b");
        assert_eq!(p.machine_id("c"), Some(MachineId(2)));
        assert_eq!(p.machine_id("zzz"), None);
    }

    #[test]
    fn distance_orders() {
        let p = plan(&[
            (&["a"], 1, 5.0),
            (&["b"], 1, 1.0),
            (&["c"], 1, 3.0),
            (&["d"], 1, 1.0),
        ]);
        assert_eq!(p.order_by_distance_asc(), vec![1, 3, 2, 0]);
        assert_eq!(p.order_by_distance_desc(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn cluster_lookup() {
        let p = plan(&[(&["a", "b"], 1, 0.0), (&["c"], 1, 1.0)]);
        let c = p.machine_id("c").unwrap();
        assert_eq!(p.cluster_of(c).unwrap().id, 1);
        assert!(p.cluster_of(MachineId(99)).is_none());
    }

    /// `cluster_of` as the scan it replaced defines it: the first
    /// cluster whose members contain the id.
    fn scanned(p: &DeployPlan, machine: MachineId) -> Option<usize> {
        p.clusters.iter().position(|c| c.members.contains(&machine))
    }

    fn assert_matches_scan(p: &DeployPlan, context: &str) {
        // Two ids past the end of the table: no cluster holds them.
        for id in 0..p.machines.len() as u32 + 2 {
            let machine = MachineId(id);
            assert_eq!(
                p.cluster_of(machine).map(|c| c.id),
                scanned(p, machine),
                "{context}: {machine}"
            );
        }
    }

    #[test]
    fn cluster_of_agrees_with_the_scan_on_random_plans() {
        for seed in 1..=300u64 {
            let mut state = seed;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            // Uneven sizes: mostly small, a third single-member, now
            // and then an empty cluster or a wide one.
            let sizes: Vec<usize> = (0..1 + next(12))
                .map(|_| match next(9) {
                    0 => 0,
                    1..=3 => 1,
                    4 => 40 + next(60) as usize,
                    _ => 2 + next(6) as usize,
                })
                .collect();
            let mut p = DeployPlan::from_named(sizes.iter().enumerate().map(|(k, &size)| {
                let names = (0..size).map(move |i| format!("c{k}-{i}"));
                (names, 1, k as f64)
            }));
            assert_matches_scan(&p, &format!("seed {seed}, sizes {sizes:?}"));
            // A plan edited through its `pub` fields leaves the dense
            // layout: a machine interned late joins an early cluster.
            let ghost = p.machines.intern("ghost");
            let host = next(p.clusters.len() as u64) as usize;
            p.clusters[host].members.push(ghost);
            assert_eq!(p.cluster_of(ghost).map(|c| c.id), Some(host));
            assert_matches_scan(&p, &format!("seed {seed}, ghost in {host}"));
        }
    }

    #[test]
    fn from_clustering_elects_reps() {
        use mirage_cluster::{Cluster, ClusterId};
        use std::collections::BTreeSet;
        let clustering = Clustering {
            clusters: vec![Cluster {
                id: ClusterId(0),
                members: vec!["x".into(), "y".into(), "z".into()],
                label: Default::default(),
                app_set: BTreeSet::new(),
                vendor_distance: 2.5,
            }],
        };
        let p = DeployPlan::from_clustering(&clustering, 2);
        assert_eq!(
            p.clusters[0].reps,
            vec![p.machine_id("x").unwrap(), p.machine_id("y").unwrap()]
        );
        assert_eq!(p.clusters[0].distance, 2.5);
        // Rep count is clamped to the cluster size and floored at one.
        let p = DeployPlan::from_clustering(&clustering, 0);
        assert_eq!(p.clusters[0].reps.len(), 1);
        let p = DeployPlan::from_clustering(&clustering, 10);
        assert_eq!(p.clusters[0].reps.len(), 3);
    }
}
