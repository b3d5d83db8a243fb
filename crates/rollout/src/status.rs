//! The rollout health lattice.
//!
//! A rollout's health is assessed from many independent observations
//! (one per reporting cluster, plus fleet-wide regression queries).
//! Rather than branching on observation *order*, assessments form a
//! join-semilattice: `RolloutHealth::combine` takes the worse of two
//! verdicts, so folding any permutation of the same observations yields
//! the same overall verdict, and adding evidence can only hold a
//! verdict steady or worsen it — never improve it mid-evaluation.

/// Overall rollout status, ordered by severity (derived `Ord`: later
/// variants are strictly worse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum RolloutStatus {
    /// No adverse evidence; the rollout may widen.
    #[default]
    Clean,
    /// The rollout is mid-flight (widening, baking, or holding) but
    /// nothing warrants an abort.
    InProgress,
    /// The guard tripped: the release is considered bad and must be
    /// rolled back (or already was).
    Failed,
}

impl RolloutStatus {
    /// Monotone join: the worse of the two statuses.
    pub(crate) fn combine(self, other: RolloutStatus) -> RolloutStatus {
        self.max(other)
    }
}

/// Why a rollout carries its current status, ordered by severity so
/// the most damning reason wins a `RolloutHealth::combine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum RolloutStatusReason {
    /// Nothing to report.
    #[default]
    Clean,
    /// Cohorts remain to be notified.
    Widening,
    /// The frontier cohort passed but its bake timer has not elapsed.
    Baking,
    /// The guard is holding the frontier until a healthy streak
    /// accumulates (hysteresis).
    Holding,
    /// A cluster's failure rate exceeded the guard threshold.
    FailureRateExceeded,
    /// A single failure signature's population exceeded the guard's
    /// regression ceiling (largest-group query).
    RegressionPopulation,
    /// The rollout was aborted and the fleet reverted.
    RolledBack,
}

impl RolloutStatusReason {
    /// The status a reason implies on its own.
    pub fn status(self) -> RolloutStatus {
        match self {
            RolloutStatusReason::Clean => RolloutStatus::Clean,
            RolloutStatusReason::Widening
            | RolloutStatusReason::Baking
            | RolloutStatusReason::Holding => RolloutStatus::InProgress,
            RolloutStatusReason::FailureRateExceeded
            | RolloutStatusReason::RegressionPopulation
            | RolloutStatusReason::RolledBack => RolloutStatus::Failed,
        }
    }

    /// Stable lowercase name for reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RolloutStatusReason::Clean => "clean",
            RolloutStatusReason::Widening => "widening",
            RolloutStatusReason::Baking => "baking",
            RolloutStatusReason::Holding => "holding",
            RolloutStatusReason::FailureRateExceeded => "failure_rate_exceeded",
            RolloutStatusReason::RegressionPopulation => "regression_population",
            RolloutStatusReason::RolledBack => "rolled_back",
        }
    }
}

/// A `(status, reason)` verdict; the lattice element the guard and
/// controller fold observations into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RolloutHealth {
    /// Overall status.
    pub status: RolloutStatus,
    /// Most severe contributing reason.
    pub reason: RolloutStatusReason,
}

impl RolloutHealth {
    /// The bottom element: clean with no reason.
    pub fn clean() -> Self {
        RolloutHealth::default()
    }

    /// A verdict from a single reason (status implied).
    pub(crate) fn from_reason(reason: RolloutStatusReason) -> Self {
        RolloutHealth {
            status: reason.status(),
            reason,
        }
    }

    /// Monotone join: worse status wins; on equal status the more
    /// severe reason wins.
    pub(crate) fn combine(self, other: RolloutHealth) -> RolloutHealth {
        RolloutHealth {
            status: self.status.combine(other.status),
            reason: self.reason.max(other.reason),
        }
    }

    /// `true` when the verdict calls for an abort.
    pub fn failed(self) -> bool {
        self.status == RolloutStatus::Failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REASONS: [RolloutStatusReason; 7] = [
        RolloutStatusReason::Clean,
        RolloutStatusReason::Widening,
        RolloutStatusReason::Baking,
        RolloutStatusReason::Holding,
        RolloutStatusReason::FailureRateExceeded,
        RolloutStatusReason::RegressionPopulation,
        RolloutStatusReason::RolledBack,
    ];

    #[test]
    fn combine_is_commutative_associative_idempotent() {
        for a in REASONS {
            for b in REASONS {
                let ha = RolloutHealth::from_reason(a);
                let hb = RolloutHealth::from_reason(b);
                assert_eq!(ha.combine(hb), hb.combine(ha), "commutative");
                assert_eq!(ha.combine(ha), ha, "idempotent");
                for c in REASONS {
                    let hc = RolloutHealth::from_reason(c);
                    assert_eq!(
                        ha.combine(hb).combine(hc),
                        ha.combine(hb.combine(hc)),
                        "associative"
                    );
                }
            }
        }
    }

    #[test]
    fn combine_is_monotone() {
        // Joining never improves either component.
        for a in REASONS {
            for b in REASONS {
                let joined = RolloutHealth::from_reason(a).combine(RolloutHealth::from_reason(b));
                assert!(joined.status >= a.status() && joined.status >= b.status());
                assert!(joined.reason >= a && joined.reason >= b);
            }
        }
    }

    #[test]
    fn reason_status_mapping() {
        assert_eq!(RolloutStatusReason::Clean.status(), RolloutStatus::Clean);
        assert_eq!(
            RolloutStatusReason::Baking.status(),
            RolloutStatus::InProgress
        );
        assert!(RolloutHealth::from_reason(RolloutStatusReason::FailureRateExceeded).failed());
        assert!(!RolloutHealth::clean().failed());
    }

    #[test]
    fn reason_names_are_stable() {
        let names: Vec<&str> = REASONS.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "clean",
                "widening",
                "baking",
                "holding",
                "failure_rate_exceeded",
                "regression_population",
                "rolled_back"
            ]
        );
    }
}
