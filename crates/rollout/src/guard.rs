//! The URR health guard: live repository queries → a lattice verdict.
//!
//! The guard is the sensing half of the closed loop. Each controller
//! tick it interrogates the Upgrade Report Repository the fleet is
//! already depositing into — per-cluster failure rates and the size of
//! the largest failure group, two scalar queries that render no machine
//! name — and folds every observation into one `RolloutHealth` verdict
//! via the monotone lattice, so the verdict is independent of cluster
//! iteration order.
//!
//! The guard only *senses*; hysteresis (how many consecutive unhealthy
//! verdicts trigger a rollback, how many healthy ones permit a widen)
//! lives in the controller, which owns the decision clock.

use std::sync::Arc;

use mirage_report::Urr;

use crate::status::{RolloutHealth, RolloutStatusReason};

/// Thresholds for the URR guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardSettings {
    /// A cluster whose cumulative failure rate exceeds this fraction
    /// is unhealthy (subject to `min_reports`).
    pub max_cluster_failure_rate: f64,
    /// A single failure signature whose report population reaches this
    /// count marks the rollout unhealthy regardless of per-cluster
    /// rates — the wide-but-shallow regression a rate threshold can
    /// miss when every cluster contributes only a few reports.
    /// `usize::MAX` disables the check.
    pub max_failure_population: usize,
    /// Clusters with fewer total reports than this are skipped: a lone
    /// failing representative should trigger a fix, not an abort.
    pub min_reports: usize,
    /// Consecutive unhealthy ticks required before rolling back.
    pub unhealthy_ticks: u32,
    /// Consecutive healthy ticks required before widening.
    pub healthy_ticks: u32,
}

impl Default for GuardSettings {
    fn default() -> Self {
        GuardSettings {
            max_cluster_failure_rate: 0.5,
            max_failure_population: usize::MAX,
            min_reports: 5,
            unhealthy_ticks: 2,
            healthy_ticks: 1,
        }
    }
}

/// A live health sensor over a shared [`Urr`].
#[derive(Debug, Clone)]
pub struct UrrGuard {
    urr: Arc<Urr>,
    /// The thresholds this guard applies.
    pub(crate) settings: GuardSettings,
}

impl UrrGuard {
    /// Builds a guard over `urr` with `settings`.
    pub fn new(urr: Arc<Urr>, settings: GuardSettings) -> Self {
        UrrGuard { urr, settings }
    }

    /// One sensing pass: queries the repository and joins every
    /// observation into a single verdict.
    pub(crate) fn assess(&self) -> RolloutHealth {
        let mut health = RolloutHealth::clean();
        for cluster in self.urr.cluster_failure_rates() {
            if cluster.successes + cluster.failures < self.settings.min_reports {
                continue;
            }
            if cluster.rate() > self.settings.max_cluster_failure_rate {
                health = health.combine(RolloutHealth::from_reason(
                    RolloutStatusReason::FailureRateExceeded,
                ));
            }
        }
        if self.settings.max_failure_population != usize::MAX
            && self
                .urr
                .largest_failure_count()
                .is_some_and(|count| count >= self.settings.max_failure_population)
        {
            health = health.combine(RolloutHealth::from_reason(
                RolloutStatusReason::RegressionPopulation,
            ));
        }
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::RolloutStatus;
    use mirage_report::{Report, ReportImage};

    fn failing(machine: &str, cluster: usize, sig: &str) -> Report {
        Report::failure(
            machine,
            cluster,
            "upgrade",
            "r0",
            sig,
            "detail",
            ReportImage::new("digest", vec![], vec![], vec![]),
        )
    }

    fn passing(machine: &str, cluster: usize) -> Report {
        Report::success(machine, cluster, "upgrade", "r0")
    }

    #[test]
    fn clean_repository_is_clean() {
        let urr = Arc::new(Urr::new());
        for i in 0..10 {
            urr.deposit(passing(&format!("m{i}"), 0));
        }
        let guard = UrrGuard::new(urr, GuardSettings::default());
        assert_eq!(guard.assess(), RolloutHealth::clean());
    }

    #[test]
    fn min_reports_shields_a_lone_failing_rep() {
        let urr = Arc::new(Urr::new());
        urr.deposit(failing("rep", 3, "crash"));
        let guard = UrrGuard::new(Arc::clone(&urr), GuardSettings::default());
        // One report (rate 1.0) but below the evidence floor.
        assert!(!guard.assess().failed());
        // Four more failures from the same cluster clear the floor.
        for i in 0..4 {
            urr.deposit(failing(&format!("m{i}"), 3, "crash"));
        }
        let verdict = guard.assess();
        assert_eq!(verdict.status, RolloutStatus::Failed);
        assert_eq!(verdict.reason, RolloutStatusReason::FailureRateExceeded);
    }

    #[test]
    fn healthy_majority_keeps_rate_below_threshold() {
        let urr = Arc::new(Urr::new());
        for i in 0..8 {
            urr.deposit(passing(&format!("m{i}"), 0));
        }
        urr.deposit(failing("m8", 0, "crash"));
        urr.deposit(failing("m9", 0, "crash"));
        let guard = UrrGuard::new(urr, GuardSettings::default());
        // 2/10 = 0.2 < 0.5.
        assert!(!guard.assess().failed());
    }

    #[test]
    fn population_ceiling_catches_wide_shallow_regressions() {
        let urr = Arc::new(Urr::new());
        // One failure in each of 10 clusters: every per-cluster rate is
        // below the evidence floor, but the signature population is 10.
        for c in 0..10 {
            urr.deposit(failing(&format!("m{c}"), c, "crash"));
        }
        let lenient = UrrGuard::new(Arc::clone(&urr), GuardSettings::default());
        assert!(!lenient.assess().failed(), "rate check alone misses it");
        let guard = UrrGuard::new(
            urr,
            GuardSettings {
                max_failure_population: 10,
                ..GuardSettings::default()
            },
        );
        let verdict = guard.assess();
        assert_eq!(verdict.reason, RolloutStatusReason::RegressionPopulation);
        assert!(verdict.failed());
    }
}
