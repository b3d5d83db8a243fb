//! The retained string-keyed Upgrade Report Repository.
//!
//! This is the original prototype, preserved (modulo module paths) as
//! the live correctness baseline for the production [`crate::Urr`],
//! following the reference-plane convention established by the
//! clustering and simulator rebuilds: a single `RwLock<Vec<Report>>`,
//! string-keyed `BTreeMap` aggregation, and full-scan queries. The
//! seeded `urr_reference_equivalence` property (in
//! `tests/proptests.rs`) proves the interned repository produces
//! identical [`UrrStats`] / [`FailureGroup`] / [`ReleaseSummary`]
//! results across random report streams, and `repro urr-perf` benches
//! the two side by side so the committed speedup figure is measured
//! against *this* code, not a stale constant.

use std::collections::BTreeMap;
use std::sync::RwLock;

use crate::report::{Report, ReportOutcome};
use crate::urr::{FailureGroup, ReleaseSummary, UrrStats};

/// The string-keyed reference repository: thread-safe, queryable — and
/// deliberately naive.
///
/// # Examples
///
/// ```
/// use mirage_report::{reference, Report, ReportImage};
/// let urr = reference::Urr::new();
/// urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
/// urr.deposit(Report::failure(
///     "m2", 1, "mysql", "5.0.27", "php/crash", "crash", ReportImage::default(),
/// ));
/// assert_eq!(urr.stats().failures, 1);
/// assert_eq!(urr.failure_groups().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Urr {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    reports: Vec<Report>,
    next_seq: u64,
}

impl Urr {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposits a report, assigning its sequence number.
    ///
    /// Returns the assigned sequence number.
    pub fn deposit(&self, mut report: Report) -> u64 {
        let mut inner = self.inner.write().expect("urr poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        report.seq = seq;
        inner.reports.push(report);
        seq
    }

    /// Returns a snapshot of all reports (in deposit order).
    pub fn all(&self) -> Vec<Report> {
        self.inner.read().expect("urr poisoned").reports.clone()
    }

    /// Returns the reports for one package version.
    pub fn for_version(&self, package: &str, version: &str) -> Vec<Report> {
        self.inner
            .read()
            .expect("urr poisoned")
            .reports
            .iter()
            .filter(|r| r.package == package && r.version == version)
            .cloned()
            .collect()
    }

    /// Returns the reports from one cluster.
    pub fn for_cluster(&self, cluster: usize) -> Vec<Report> {
        self.inner
            .read()
            .expect("urr poisoned")
            .reports
            .iter()
            .filter(|r| r.cluster == cluster)
            .cloned()
            .collect()
    }

    /// Groups failure reports by signature — the vendor's deduplicated
    /// problem list, in discovery order.
    pub fn failure_groups(&self) -> Vec<FailureGroup> {
        let inner = self.inner.read().expect("urr poisoned");
        let mut groups: BTreeMap<&str, FailureGroup> = BTreeMap::new();
        for r in &inner.reports {
            if let ReportOutcome::Failure { signature, .. } = &r.outcome {
                let group = groups
                    .entry(signature.as_str())
                    .or_insert_with(|| FailureGroup {
                        signature: signature.clone(),
                        count: 0,
                        machines: Vec::new(),
                        clusters: Vec::new(),
                        first_seen: r.seq,
                    });
                group.count += 1;
                group.first_seen = group.first_seen.min(r.seq);
                if !group.machines.contains(&r.machine) {
                    group.machines.push(r.machine.clone());
                }
                if !group.clusters.contains(&r.cluster) {
                    group.clusters.push(r.cluster);
                }
            }
        }
        let mut result: Vec<FailureGroup> = groups.into_values().collect();
        result.sort_by_key(|g| g.first_seen);
        result
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> UrrStats {
        let inner = self.inner.read().expect("urr poisoned");
        let mut stats = UrrStats {
            total: inner.reports.len(),
            ..Default::default()
        };
        let mut signatures = std::collections::BTreeSet::new();
        for r in &inner.reports {
            match &r.outcome {
                ReportOutcome::Success => stats.successes += 1,
                ReportOutcome::Failure { signature, .. } => {
                    stats.failures += 1;
                    signatures.insert(signature.clone());
                }
            }
            if let Some(img) = &r.image {
                stats.image_bytes += img.byte_size();
            }
        }
        stats.distinct_failures = signatures.len();
        stats
    }

    /// Summarises outcomes per `(package, version)`, in first-seen order.
    ///
    /// A vendor watching a staged deployment reads this as the health of
    /// each release it has shipped: the original upgrade accumulating
    /// failures, the corrected releases accumulating successes.
    pub fn release_summaries(&self) -> Vec<ReleaseSummary> {
        let inner = self.inner.read().expect("urr poisoned");
        let mut order: Vec<(String, String)> = Vec::new();
        let mut map: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
        for r in &inner.reports {
            let key = (r.package.clone(), r.version.clone());
            if !map.contains_key(&key) {
                order.push(key.clone());
            }
            let entry = map.entry(key).or_insert((0, 0));
            match &r.outcome {
                ReportOutcome::Success => entry.0 += 1,
                ReportOutcome::Failure { .. } => entry.1 += 1,
            }
        }
        order
            .into_iter()
            .map(|(package, version)| {
                let (successes, failures) = map[&(package.clone(), version.clone())];
                ReleaseSummary {
                    package,
                    version,
                    successes,
                    failures,
                }
            })
            .collect()
    }

    /// The debugging front-loading profile: for each distinct failure,
    /// the fraction of all reports that had been deposited when it was
    /// *first* seen. Values near 0 mean the vendor learned about the
    /// problem early (FrontLoading's goal); values near 1 mean late.
    pub fn discovery_profile(&self) -> Vec<(String, f64)> {
        let total = self.inner.read().expect("urr poisoned").reports.len();
        if total == 0 {
            return Vec::new();
        }
        self.failure_groups()
            .into_iter()
            .map(|g| (g.signature, g.first_seen as f64 / total as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ReportImage;

    fn failure(machine: &str, cluster: usize, sig: &str) -> Report {
        Report::failure(
            machine,
            cluster,
            "mysql",
            "5.0.27",
            sig,
            "detail",
            ReportImage::new("digest", vec!["ctx".into()], vec![], vec![]),
        )
    }

    #[test]
    fn deposit_assigns_sequence() {
        let urr = Urr::new();
        assert_eq!(urr.deposit(Report::success("a", 0, "p", "1.0.0")), 0);
        assert_eq!(urr.deposit(Report::success("b", 0, "p", "1.0.0")), 1);
        let all = urr.all();
        assert_eq!(all[0].seq, 0);
        assert_eq!(all[1].seq, 1);
    }

    #[test]
    fn failure_groups_deduplicate() {
        let urr = Urr::new();
        urr.deposit(failure("m1", 0, "php/crash"));
        urr.deposit(failure("m2", 0, "php/crash"));
        urr.deposit(failure("m2", 0, "php/crash")); // same machine again
        urr.deposit(failure("m3", 1, "mycnf/fail"));
        urr.deposit(Report::success("m4", 2, "mysql", "5.0.27"));
        let groups = urr.failure_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].signature, "php/crash");
        assert_eq!(groups[0].count, 3);
        assert_eq!(groups[0].machines, vec!["m1", "m2"]);
        assert_eq!(groups[0].clusters, vec![0]);
        assert_eq!(groups[1].signature, "mycnf/fail");
    }

    #[test]
    fn queries_filter_correctly() {
        let urr = Urr::new();
        urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
        urr.deposit(Report::success("m2", 1, "mysql", "5.0.28"));
        urr.deposit(Report::success("m3", 1, "firefox", "2.0.0"));
        assert_eq!(urr.for_version("mysql", "5.0.27").len(), 1);
        assert_eq!(urr.for_cluster(1).len(), 2);
    }

    #[test]
    fn stats_aggregate() {
        let urr = Urr::new();
        urr.deposit(Report::success("m1", 0, "p", "1.0.0"));
        urr.deposit(failure("m2", 0, "sig"));
        let stats = urr.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.successes, 1);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.distinct_failures, 1);
        assert!(stats.image_bytes > 0);
    }

    #[test]
    fn concurrent_deposits() {
        use std::sync::Arc;
        let urr = Arc::new(Urr::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let urr = Arc::clone(&urr);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        urr.deposit(Report::success(format!("m{i}-{j}"), i, "p", "1.0.0"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let all = urr.all();
        assert_eq!(all.len(), 400);
        // Sequence numbers are unique.
        let seqs: std::collections::BTreeSet<u64> = all.iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), 400);
    }

    #[test]
    fn release_summaries_track_versions_in_order() {
        let urr = Urr::new();
        urr.deposit(Report::failure(
            "m1",
            0,
            "app",
            "2.0.0",
            "sig",
            "d",
            ReportImage::default(),
        ));
        urr.deposit(Report::success("m2", 0, "app", "2.0.0"));
        urr.deposit(Report::success("m1", 0, "app", "2.0.1"));
        urr.deposit(Report::success("m3", 1, "app", "2.0.1"));
        let summaries = urr.release_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].version, "2.0.0");
        assert_eq!((summaries[0].successes, summaries[0].failures), (1, 1));
        assert_eq!(summaries[1].version, "2.0.1");
        assert_eq!((summaries[1].successes, summaries[1].failures), (2, 0));
    }

    #[test]
    fn discovery_profile_measures_front_loading() {
        let urr = Urr::new();
        // Early discovery: failure is the very first report.
        urr.deposit(Report::failure(
            "rep1",
            0,
            "app",
            "2.0.0",
            "early-problem",
            "d",
            ReportImage::default(),
        ));
        for i in 0..8 {
            urr.deposit(Report::success(format!("m{i}"), 0, "app", "2.0.0"));
        }
        // Late discovery: a second problem shows up at the end.
        urr.deposit(Report::failure(
            "m9",
            3,
            "app",
            "2.0.0",
            "late-problem",
            "d",
            ReportImage::default(),
        ));
        let profile = urr.discovery_profile();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].0, "early-problem");
        assert!(profile[0].1 < 0.1, "discovered at the very start");
        assert_eq!(profile[1].0, "late-problem");
        assert!(profile[1].1 > 0.8, "discovered at the very end");
    }

    #[test]
    fn empty_urr_analytics() {
        let urr = Urr::new();
        assert!(urr.release_summaries().is_empty());
        assert!(urr.discovery_profile().is_empty());
    }
}
