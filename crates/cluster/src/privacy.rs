//! Privacy-preserving cluster membership (paper §3.5, "Deployment").
//!
//! The plain protocol stores every machine's differing items — including
//! file names — at the vendor, which "could be used by an attacker to
//! quickly identify the targets of a known vulnerability". The paper
//! sketches a mitigation for parser-aided clustering, implemented here:
//!
//! 1. each machine compares its items against the vendor's published
//!    reference list *locally* and communicates only a single
//!    cryptographic hash of its diff-item set;
//! 2. the vendor groups machines by that opaque hash (phase-1 equality
//!    clustering commutes with hashing), learning cluster *sizes* but no
//!    item contents;
//! 3. to run a staged deployment, the vendor publicly advertises the
//!    hash of the cluster currently being tested; each machine decides
//!    locally whether it belongs.
//!
//! The trade-off, faithfully preserved: phase 2 (content-based QT
//! clustering) requires pairwise distances and therefore cannot run on
//! opaque hashes — private clustering only covers resources with
//! parsers, which is one more reason for vendors to supply them.

use std::collections::BTreeMap;

use mirage_fingerprint::{DiffSet, HashValue, ItemSet};

/// The opaque token a machine reports instead of its diff items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterToken(pub u64);

impl std::fmt::Display for ClusterToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "token:{:016x}", self.0)
    }
}

/// Computes the machine-side token: a hash over the canonical (sorted)
/// rendering of the parsed diff items.
///
/// Runs entirely on the user machine; only the token leaves it.
pub(crate) fn token_of(items: &ItemSet) -> ClusterToken {
    // Items are stored sorted (BTreeSet), so the rendering is canonical.
    let mut rendering = String::new();
    for item in items {
        rendering.push_str(&item.to_string());
        rendering.push('\n');
    }
    ClusterToken(HashValue::of_str(&rendering).0)
}

/// Computes a machine's token from its diff set (parsed items only —
/// content-based items cannot participate, see the module docs).
pub fn machine_token(diff: &DiffSet) -> ClusterToken {
    token_of(&diff.parsed)
}

/// The vendor-side view of a privately clustered fleet: token → count.
///
/// The vendor can size clusters and advance a staged deployment, but
/// holds no environmental information.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrivateClustering {
    /// Members per token (machine identities intentionally absent; the
    /// count is what deployment pacing needs).
    pub cluster_sizes: BTreeMap<ClusterToken, usize>,
}

impl PrivateClustering {
    /// Aggregates the tokens reported by a fleet.
    pub fn from_tokens(tokens: impl IntoIterator<Item = ClusterToken>) -> Self {
        let mut cluster_sizes = BTreeMap::new();
        for t in tokens {
            *cluster_sizes.entry(t).or_insert(0) += 1;
        }
        PrivateClustering { cluster_sizes }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Returns `true` when no tokens were reported.
    pub fn is_empty(&self) -> bool {
        self.cluster_sizes.is_empty()
    }

    /// Total machines.
    pub fn machine_count(&self) -> usize {
        self.cluster_sizes.values().sum()
    }

    /// The deployment schedule: tokens ordered by ascending cluster size
    /// (small clusters are cheap to test first), ties by token value.
    pub fn schedule(&self) -> Vec<ClusterToken> {
        let mut tokens: Vec<(ClusterToken, usize)> =
            self.cluster_sizes.iter().map(|(t, c)| (*t, *c)).collect();
        tokens.sort_by_key(|(t, c)| (*c, *t));
        tokens.into_iter().map(|(t, _)| t).collect()
    }
}

/// The machine-side membership check: "the vendor advertised `current`;
/// is that me?".
pub fn is_my_turn(my_diff: &DiffSet, current: ClusterToken) -> bool {
    machine_token(my_diff) == current
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_fingerprint::Item;

    fn diff(machine: &str, parsed: &[&str], content: &[&str]) -> DiffSet {
        let mut d = DiffSet::empty(machine);
        d.parsed = parsed.iter().map(|s| Item::new([*s])).collect();
        d.content = content.iter().map(|s| Item::new([*s])).collect();
        d
    }

    #[test]
    fn equal_parsed_diffs_share_tokens() {
        let a = diff("a", &["libc-2.4", "php"], &["noise-1"]);
        let b = diff("b", &["libc-2.4", "php"], &["noise-2"]);
        let c = diff("c", &["libc-2.5"], &[]);
        assert_eq!(machine_token(&a), machine_token(&b));
        assert_ne!(machine_token(&a), machine_token(&c));
    }

    #[test]
    fn token_ignores_insertion_order() {
        let mut x = DiffSet::empty("x");
        x.parsed.insert(Item::new(["b"]));
        x.parsed.insert(Item::new(["a"]));
        let mut y = DiffSet::empty("y");
        y.parsed.insert(Item::new(["a"]));
        y.parsed.insert(Item::new(["b"]));
        assert_eq!(machine_token(&x), machine_token(&y));
    }

    #[test]
    fn private_clustering_matches_phase1_structure() {
        use crate::cluster::MachineInfo;
        use crate::phase1::original_clusters;
        let diffs = [
            diff("a", &["x"], &[]),
            diff("b", &["x"], &[]),
            diff("c", &["y"], &[]),
            diff("d", &[], &[]),
        ];
        // The vendor's private view.
        let private = PrivateClustering::from_tokens(diffs.iter().map(machine_token));
        // The plain phase-1 view.
        let infos: Vec<MachineInfo> = diffs.iter().cloned().map(MachineInfo::new).collect();
        let refs: Vec<&MachineInfo> = infos.iter().collect();
        let plain = original_clusters(&refs);
        assert_eq!(private.len(), plain.len());
        assert_eq!(private.machine_count(), 4);
        let mut private_sizes: Vec<usize> = private.cluster_sizes.values().copied().collect();
        let mut plain_sizes: Vec<usize> = plain.iter().map(Vec::len).collect();
        private_sizes.sort_unstable();
        plain_sizes.sort_unstable();
        assert_eq!(private_sizes, plain_sizes);
    }

    #[test]
    fn staged_advance_via_advertised_tokens() {
        let fleet = [
            diff("a", &["x"], &[]),
            diff("b", &["x"], &[]),
            diff("c", &["y"], &[]),
        ];
        let private = PrivateClustering::from_tokens(fleet.iter().map(machine_token));
        let schedule = private.schedule();
        assert_eq!(schedule.len(), 2);
        // The vendor advertises the first token; exactly the singleton
        // cluster's machine answers.
        let responders: Vec<&str> = fleet
            .iter()
            .filter(|d| is_my_turn(d, schedule[0]))
            .map(|d| d.machine.as_str())
            .collect();
        assert_eq!(responders, vec!["c"], "smallest cluster goes first");
        let responders: Vec<&str> = fleet
            .iter()
            .filter(|d| is_my_turn(d, schedule[1]))
            .map(|d| d.machine.as_str())
            .collect();
        assert_eq!(responders, vec!["a", "b"]);
    }

    #[test]
    fn empty_fleet() {
        let private = PrivateClustering::from_tokens(std::iter::empty());
        assert!(private.is_empty());
        assert!(private.schedule().is_empty());
    }
}
