//! Clustering quality metrics (paper §4.2).
//!
//! A clustering is scored against the ground-truth *behaviour* of each
//! machine with respect to a particular upgrade: either `"ok"` or the
//! identifier of the problem the machine exhibits. Two metrics:
//!
//! * `C` — unnecessarily created clusters: the number of clusters beyond
//!   one per distinct behaviour (`p + 1` when all problems and correct
//!   behaviour occur);
//! * `w` — wrongly-placed machines: machines that behave differently from
//!   the rest (majority) of their cluster.
//!
//! `w = 0, C = 0` is *ideal*; `w = 0, C ≥ 0` is *sound*; `w > 0` is
//! *imperfect*.

use std::collections::BTreeMap;

use crate::cluster::Clustering;

/// Qualitative class of a clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterQuality {
    /// One cluster per behaviour, no misplacements.
    Ideal,
    /// No misplacements, but extra clusters.
    Sound,
    /// At least one machine behaves differently from its cluster.
    Imperfect,
}

/// The score of a clustering against ground-truth behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteringScore {
    /// Number of clusters.
    pub clusters: usize,
    /// Number of distinct behaviours among scored machines.
    pub(crate) behaviors: usize,
    /// Unnecessarily created clusters (`C`), `clusters - behaviors`,
    /// floored at zero.
    pub unnecessary_clusters: usize,
    /// Wrongly-placed machines (`w`).
    pub misplaced: usize,
}

impl ClusteringScore {
    /// Scores `clustering` against the behaviour map
    /// (machine id → behaviour label, e.g. `"ok"` / `"php-crash"`).
    ///
    /// Machines missing from `behavior` are treated as `"ok"`.
    pub fn compute(clustering: &Clustering, behavior: &BTreeMap<String, String>) -> Self {
        let label = |m: &str| -> &str { behavior.get(m).map(String::as_str).unwrap_or("ok") };
        let mut distinct: BTreeMap<&str, ()> = BTreeMap::new();
        let mut misplaced = 0usize;
        for cluster in &clustering.clusters {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for m in &cluster.members {
                let l = label(m);
                *counts.entry(l).or_insert(0) += 1;
                distinct.insert(l, ());
            }
            let majority = counts.values().copied().max().unwrap_or(0);
            misplaced += cluster.members.len() - majority;
        }
        let behaviors = distinct.len();
        ClusteringScore {
            clusters: clustering.len(),
            behaviors,
            unnecessary_clusters: clustering.len().saturating_sub(behaviors),
            misplaced,
        }
    }

    /// Returns the qualitative class.
    pub fn quality(&self) -> ClusterQuality {
        if self.misplaced > 0 {
            ClusterQuality::Imperfect
        } else if self.unnecessary_clusters > 0 {
            ClusterQuality::Sound
        } else {
            ClusterQuality::Ideal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterId};
    use std::collections::BTreeSet;

    fn clustering(groups: &[&[&str]]) -> Clustering {
        Clustering {
            clusters: groups
                .iter()
                .enumerate()
                .map(|(i, g)| Cluster {
                    id: ClusterId(i),
                    members: g.iter().map(|s| s.to_string()).collect(),
                    label: Default::default(),
                    app_set: BTreeSet::new(),
                    vendor_distance: 0.0,
                })
                .collect(),
        }
    }

    fn behavior(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(m, b)| (m.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn ideal_clustering() {
        let c = clustering(&[&["a", "b"], &["p1", "p2"]]);
        let b = behavior(&[("p1", "problem"), ("p2", "problem")]);
        let score = ClusteringScore::compute(&c, &b);
        assert_eq!(score.clusters, 2);
        assert_eq!(score.behaviors, 2);
        assert_eq!(score.unnecessary_clusters, 0);
        assert_eq!(score.misplaced, 0);
        assert_eq!(score.quality(), ClusterQuality::Ideal);
    }

    #[test]
    fn sound_clustering_has_extra_clusters() {
        // Same behaviours split across extra clusters, no mixing.
        let c = clustering(&[&["a"], &["b"], &["p1"]]);
        let b = behavior(&[("p1", "problem")]);
        let score = ClusteringScore::compute(&c, &b);
        assert_eq!(score.unnecessary_clusters, 1);
        assert_eq!(score.misplaced, 0);
        assert_eq!(score.quality(), ClusterQuality::Sound);
    }

    #[test]
    fn imperfect_counts_minority_members() {
        // Cluster mixes one problematic machine with two healthy ones.
        let c = clustering(&[&["a", "b", "p1"]]);
        let b = behavior(&[("p1", "problem")]);
        let score = ClusteringScore::compute(&c, &b);
        assert_eq!(score.misplaced, 1);
        assert_eq!(score.quality(), ClusterQuality::Imperfect);
    }

    #[test]
    fn tie_counts_all_but_one_side() {
        // 3 ok + 3 problem in one cluster → w = 3 (the paper's Figure 9
        // right-hand case).
        let c = clustering(&[&["a", "b", "c", "p1", "p2", "p3"]]);
        let b = behavior(&[("p1", "x"), ("p2", "x"), ("p3", "x")]);
        let score = ClusteringScore::compute(&c, &b);
        assert_eq!(score.misplaced, 3);
    }

    #[test]
    fn unknown_machines_default_to_ok() {
        let c = clustering(&[&["a", "b"]]);
        let score = ClusteringScore::compute(&c, &BTreeMap::new());
        assert_eq!(score.behaviors, 1);
        assert_eq!(score.misplaced, 0);
        assert_eq!(score.quality(), ClusterQuality::Ideal);
    }

    #[test]
    fn more_behaviors_than_clusters_floors_c() {
        let c = clustering(&[&["a", "p1"]]);
        let b = behavior(&[("p1", "problem")]);
        let score = ClusteringScore::compute(&c, &b);
        assert_eq!(score.unnecessary_clusters, 0);
        assert_eq!(score.misplaced, 1);
    }
}
