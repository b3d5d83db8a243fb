//! The 50-administrator upgrade survey (paper §2, Figures 1–3).
//!
//! The paper characterises software upgrades through an online survey of
//! 50 system administrators. The raw responses were never published, so
//! this module carries a *deterministic synthetic dataset* constructed to
//! match every aggregate the paper reports:
//!
//! * 82 % with more than five years of experience; 78 % managing more
//!   than 20 machines; 48 Linux/UNIX, 29 Windows, 12 macOS
//!   administrators (multi-select);
//! * Figure 1 — 90 % upgrade at least monthly;
//! * reason ranks: security 1.6, bug fix 2.2, user request 3.3, new
//!   feature 3.5;
//! * Figure 2 — 70 % refrain from installing upgrades, 70 % have a
//!   testing strategy (25 testing environment, 6 staged roll-out,
//!   4 identical-configuration testbeds, 2 rely on Internet reports);
//! * Figure 3 — failure-rate histogram with average 8.6 %, median 5 %,
//!   66 % answering 5–10 %;
//! * failure-cause ranks: broken dependency 2.5, removed behaviour 2.5,
//!   buggy upgrade 2.6, legacy configuration 3.1, improper packaging
//!   3.2;
//! * 48 % hit problems that passed initial testing, 18 % experienced
//!   catastrophic failures, 50 % consistently report problems, 86 % use
//!   the OS-packaged upgrade tooling.
//!
//! The aggregation code below regenerates Figures 1–3 from the rows, so
//! the figures are *computed*, not transcribed.

use std::collections::BTreeMap;

/// Administration experience buckets (Figure 1 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Experience {
    /// 0–2 years.
    Y0to2,
    /// 2–5 years.
    Y2to5,
    /// 5–10 years.
    Y5to10,
    /// More than 10 years.
    Y10plus,
}

impl Experience {
    /// All buckets in legend order.
    pub const ALL: [Experience; 4] = [
        Experience::Y0to2,
        Experience::Y2to5,
        Experience::Y5to10,
        Experience::Y10plus,
    ];

    /// Returns `true` for more than five years of experience.
    pub(crate) fn more_than_five_years(self) -> bool {
        matches!(self, Experience::Y5to10 | Experience::Y10plus)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Experience::Y0to2 => "0-2",
            Experience::Y2to5 => "2-5",
            Experience::Y5to10 => "5-10",
            Experience::Y10plus => "more than 10",
        }
    }
}

/// Upgrade frequency buckets (Figure 1 y-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Frequency {
    /// More than once a week.
    MoreThanWeekly,
    /// Once a week.
    Weekly,
    /// Once every couple of weeks.
    BiWeekly,
    /// Once a month.
    Monthly,
    /// Once per quarter.
    Quarterly,
    /// Once per semester.
    SemiAnnually,
    /// Once a year.
    Annually,
    /// Not even once a year.
    LessThanAnnually,
}

impl Frequency {
    /// All buckets in Figure 1 order.
    pub const ALL: [Frequency; 8] = [
        Frequency::MoreThanWeekly,
        Frequency::Weekly,
        Frequency::BiWeekly,
        Frequency::Monthly,
        Frequency::Quarterly,
        Frequency::SemiAnnually,
        Frequency::Annually,
        Frequency::LessThanAnnually,
    ];

    /// Returns `true` for at least monthly.
    pub(crate) fn at_least_monthly(self) -> bool {
        matches!(
            self,
            Frequency::MoreThanWeekly
                | Frequency::Weekly
                | Frequency::BiWeekly
                | Frequency::Monthly
        )
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Frequency::MoreThanWeekly => "More than once a week",
            Frequency::Weekly => "Once a week",
            Frequency::BiWeekly => "Once every couple of weeks",
            Frequency::Monthly => "Once a month",
            Frequency::Quarterly => "Once per quarter",
            Frequency::SemiAnnually => "Once per semester",
            Frequency::Annually => "Once a year",
            Frequency::LessThanAnnually => "Not even once a year",
        }
    }
}

/// Testing strategy kinds (§2.2 "Testing strategies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// No strategy at all.
    None,
    /// A dedicated testing environment.
    TestingEnvironment {
        /// Whether the testbed mirrors production configurations.
        identical_config: bool,
    },
    /// Test on a few machines, then widen (manual staging).
    StagedRollout,
    /// Rely on reports of successful upgrades on the Internet.
    InternetReports,
    /// Some other strategy.
    Other,
}

/// Per-reason importance ranks (1 = most important, 5 = least).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReasonRanks {
    /// Bug fixes.
    pub bug_fix: u8,
    /// Security patches.
    pub security: u8,
    /// New features.
    pub new_feature: u8,
    /// User requests.
    pub user_request: u8,
}

/// Per-cause prevalence ranks (1 = most prevalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CauseRanks {
    /// Broken dependencies.
    pub broken_dependency: u8,
    /// Removed or altered behaviour.
    pub removed_behavior: u8,
    /// Bugs in the upgrade itself.
    pub buggy_upgrade: u8,
    /// Incompatibility with legacy configurations.
    pub legacy_config: u8,
    /// Improper packaging.
    pub improper_packaging: u8,
}

/// One survey respondent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Respondent {
    /// Respondent index (0–49).
    pub id: usize,
    /// Administration experience.
    pub experience: Experience,
    /// Manages more than 20 machines.
    pub manages_over_20: bool,
    /// Administers Linux or another UNIX-like system.
    pub os_linux: bool,
    /// Administers Windows systems.
    pub os_windows: bool,
    /// Administers macOS systems.
    pub os_mac: bool,
    /// How often they upgrade.
    pub frequency: Frequency,
    /// Reason importance ranks.
    pub(crate) reasons: ReasonRanks,
    /// Refrains from installing upgrades.
    pub refrains: bool,
    /// Testing strategy.
    pub(crate) strategy: Strategy,
    /// Perceived upgrade failure rate (percent).
    pub failure_rate_pct: u8,
    /// Experienced problems that passed initial testing.
    pub problems_past_testing: bool,
    /// Experienced a catastrophic upgrade failure.
    pub catastrophic_failure: bool,
    /// Consistently reports problems to the vendor.
    pub reports_to_vendor: bool,
    /// Uses the OS-packaged software to install upgrades.
    pub uses_os_packaging: bool,
    /// Failure-cause prevalence ranks.
    pub causes: CauseRanks,
}

/// Figure 1 cell counts: `frequency → [count per experience bucket]`.
fn figure1_matrix() -> Vec<(Frequency, [usize; 4])> {
    vec![
        (Frequency::MoreThanWeekly, [0, 1, 4, 3]),
        (Frequency::Weekly, [1, 1, 4, 4]),
        (Frequency::BiWeekly, [1, 1, 5, 5]),
        (Frequency::Monthly, [2, 2, 5, 6]),
        (Frequency::Quarterly, [0, 0, 2, 1]),
        (Frequency::SemiAnnually, [0, 0, 1, 0]),
        (Frequency::Annually, [0, 0, 0, 1]),
        (Frequency::LessThanAnnually, [0, 0, 0, 0]),
    ]
}

/// Figure 3 histogram: `(percent, count)`.
fn figure3_histogram() -> Vec<(u8, usize)> {
    vec![
        (1, 10),
        (5, 20),
        (10, 13),
        (20, 2),
        (25, 2),
        (30, 2),
        (40, 1),
        (50, 0),
        (60, 0),
        (80, 0),
        (90, 0),
        (100, 0),
    ]
}

fn nth_from_counts<T: Copy>(counts: &[(T, usize)], n: usize) -> T {
    let mut remaining = n;
    for (value, count) in counts {
        if remaining < *count {
            return *value;
        }
        remaining -= count;
    }
    counts.last().expect("non-empty counts").0
}

/// Builds the deterministic 50-respondent dataset.
pub fn dataset() -> Vec<Respondent> {
    // Flatten the Figure 1 matrix into per-respondent (freq, exp) pairs.
    let mut freq_exp: Vec<(Frequency, Experience)> = Vec::new();
    for (freq, by_exp) in figure1_matrix() {
        for (e, count) in Experience::ALL.iter().zip(by_exp) {
            for _ in 0..count {
                freq_exp.push((freq, *e));
            }
        }
    }
    assert_eq!(freq_exp.len(), 50);

    // Figure 3 failure-rate values, one per respondent.
    let fig3 = figure3_histogram();

    // Reason ranks chosen so the averages are exactly 1.6 / 2.2 / 3.5 /
    // 3.3 (security / bug fix / new feature / user request).
    let security_rank = |i: usize| -> u8 {
        // 25×1 + 20×2 + 5×3 = 80 → 1.6.
        if i < 25 {
            1
        } else if i < 45 {
            2
        } else {
            3
        }
    };
    let bug_fix_rank = |i: usize| -> u8 {
        // 10×1 + 25×2 + 10×3 + 5×4 = 110 → 2.2.
        if i < 10 {
            1
        } else if i < 35 {
            2
        } else if i < 45 {
            3
        } else {
            4
        }
    };
    let user_request_rank = |i: usize| -> u8 {
        // 5×2 + 25×3 + 20×4 = 165 → 3.3.
        if i < 5 {
            2
        } else if i < 30 {
            3
        } else {
            4
        }
    };
    let new_feature_rank = |i: usize| -> u8 {
        // 25×3 + 25×4 = 175 → 3.5.
        if i < 25 {
            3
        } else {
            4
        }
    };
    // Cause ranks: 2.5 / 2.5 / 2.6 / 3.1 / 3.2.
    let broken_dep_rank = |i: usize| -> u8 {
        if i < 25 {
            2
        } else {
            3
        }
    }; // 125
    let removed_rank = |i: usize| -> u8 {
        if i < 25 {
            3
        } else {
            2
        }
    }; // 125
    let buggy_rank = |i: usize| -> u8 {
        if i < 20 {
            2
        } else {
            3
        }
    }; // 130
    let legacy_rank = |i: usize| -> u8 {
        // 20×2 + 5×3 + 25×4 = 155 → 3.1.
        if i < 20 {
            2
        } else if i < 25 {
            3
        } else {
            4
        }
    };
    let packaging_rank = |i: usize| -> u8 {
        // 10×2 + 20×3 + 20×4 = 160 → 3.2.
        if i < 10 {
            2
        } else if i < 30 {
            3
        } else {
            4
        }
    };

    // Figure 2 cross-tab: refrain ∧ strategy 25, refrain ∧ none 10,
    // eager ∧ strategy 10, eager ∧ none 5.
    let refrains = |i: usize| i < 35;
    // Strategy presence: indexes 0..25 and 35..45 (see the cross-tab above).

    // Strategy kinds among the 35 with one: 25 testing environment
    // (4 of them with identical configs), 6 staged, 2 internet, 2 other.
    let strategy = |i: usize| -> Strategy {
        // Indexes with a strategy, in order: 0..25, 35..45.
        let strategists: Vec<usize> = (0..25).chain(35..45).collect();
        match strategists.iter().position(|&s| s == i) {
            None => Strategy::None,
            Some(pos) => {
                if pos < 25 {
                    Strategy::TestingEnvironment {
                        identical_config: pos < 4,
                    }
                } else if pos < 31 {
                    Strategy::StagedRollout
                } else if pos < 33 {
                    Strategy::InternetReports
                } else {
                    Strategy::Other
                }
            }
        }
    };

    (0..50)
        .map(|i| {
            let (frequency, experience) = freq_exp[i];
            Respondent {
                id: i,
                experience,
                manages_over_20: i < 39, // 78 %
                os_linux: i < 48,        // 48 respondents
                os_windows: i % 50 < 29, // 29 respondents
                os_mac: i >= 38,         // 12 respondents
                frequency,
                reasons: ReasonRanks {
                    bug_fix: bug_fix_rank(i),
                    security: security_rank(i),
                    new_feature: new_feature_rank(i),
                    user_request: user_request_rank(i),
                },
                refrains: refrains(i),
                strategy: strategy(i),
                failure_rate_pct: nth_from_counts(&fig3, i),
                problems_past_testing: i % 25 < 12, // 24 = 48 %
                catastrophic_failure: i % 50 < 9,   // 18 %
                reports_to_vendor: i % 2 == 0,      // 50 %
                uses_os_packaging: i < 43,          // 86 %
                causes: CauseRanks {
                    broken_dependency: broken_dep_rank(i),
                    removed_behavior: removed_rank(i),
                    buggy_upgrade: buggy_rank(i),
                    legacy_config: legacy_rank(i),
                    improper_packaging: packaging_rank(i),
                },
            }
        })
        .collect()
}

/// Figure 1: upgrade-frequency counts, stacked by experience.
pub fn figure1(rows: &[Respondent]) -> Vec<(Frequency, [usize; 4])> {
    Frequency::ALL
        .iter()
        .map(|f| {
            let mut per_exp = [0usize; 4];
            for r in rows.iter().filter(|r| r.frequency == *f) {
                let idx = Experience::ALL
                    .iter()
                    .position(|e| *e == r.experience)
                    .expect("bucket");
                per_exp[idx] += 1;
            }
            (*f, per_exp)
        })
        .collect()
}

/// Figure 2: `(refrains, has strategy) → count`.
pub fn figure2(rows: &[Respondent]) -> BTreeMap<(bool, bool), usize> {
    let mut table = BTreeMap::new();
    for r in rows {
        let has = !matches!(r.strategy, Strategy::None);
        *table.entry((r.refrains, has)).or_insert(0) += 1;
    }
    table
}

/// Figure 3: failure-rate histogram `(percent, count)` over the paper's
/// x-axis buckets.
pub fn figure3(rows: &[Respondent]) -> Vec<(u8, usize)> {
    const BUCKETS: [u8; 12] = [1, 5, 10, 20, 25, 30, 40, 50, 60, 80, 90, 100];
    BUCKETS
        .iter()
        .map(|b| (*b, rows.iter().filter(|r| r.failure_rate_pct == *b).count()))
        .collect()
}

/// Average reason ranks `(security, bug fix, user request, new feature)`.
pub fn reason_rank_averages(rows: &[Respondent]) -> (f64, f64, f64, f64) {
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.reasons.security as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.reasons.bug_fix as f64).sum::<f64>() / n,
        rows.iter()
            .map(|r| r.reasons.user_request as f64)
            .sum::<f64>()
            / n,
        rows.iter()
            .map(|r| r.reasons.new_feature as f64)
            .sum::<f64>()
            / n,
    )
}

/// Average cause ranks in the paper's order: broken dependency, removed
/// behaviour, buggy upgrade, legacy configuration, improper packaging.
pub fn cause_rank_averages(rows: &[Respondent]) -> [f64; 5] {
    let n = rows.len() as f64;
    [
        rows.iter()
            .map(|r| r.causes.broken_dependency as f64)
            .sum::<f64>()
            / n,
        rows.iter()
            .map(|r| r.causes.removed_behavior as f64)
            .sum::<f64>()
            / n,
        rows.iter()
            .map(|r| r.causes.buggy_upgrade as f64)
            .sum::<f64>()
            / n,
        rows.iter()
            .map(|r| r.causes.legacy_config as f64)
            .sum::<f64>()
            / n,
        rows.iter()
            .map(|r| r.causes.improper_packaging as f64)
            .sum::<f64>()
            / n,
    ]
}

/// Headline survey statistics (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyStats {
    /// Respondent count.
    pub respondents: usize,
    /// Fraction with more than five years of experience.
    pub experienced_fraction: f64,
    /// Fraction managing more than 20 machines.
    pub large_fleet_fraction: f64,
    /// Linux/UNIX administrator count.
    pub linux_admins: usize,
    /// Windows administrator count.
    pub windows_admins: usize,
    /// macOS administrator count.
    pub mac_admins: usize,
    /// Fraction upgrading at least monthly.
    pub monthly_or_more: f64,
    /// Fraction that refrain from upgrading.
    pub refrain_fraction: f64,
    /// Fraction with a testing strategy.
    pub strategy_fraction: f64,
    /// Average perceived failure rate (percent).
    pub failure_rate_avg: f64,
    /// Median perceived failure rate (percent).
    pub failure_rate_median: f64,
    /// Fraction answering 5–10 % failure rate.
    pub failure_rate_5_to_10: f64,
    /// Fraction with problems past initial testing.
    pub problems_past_testing: f64,
    /// Fraction with catastrophic failures.
    pub catastrophic: f64,
    /// Fraction consistently reporting to the vendor.
    pub reports_to_vendor: f64,
    /// Fraction using OS-packaged upgrade tooling.
    pub uses_os_packaging: f64,
}

/// Computes the headline statistics.
pub fn stats(rows: &[Respondent]) -> SurveyStats {
    let n = rows.len();
    let frac = |count: usize| count as f64 / n as f64;
    let mut rates: Vec<u8> = rows.iter().map(|r| r.failure_rate_pct).collect();
    rates.sort_unstable();
    let median = if n.is_multiple_of(2) {
        (rates[n / 2 - 1] as f64 + rates[n / 2] as f64) / 2.0
    } else {
        rates[n / 2] as f64
    };
    SurveyStats {
        respondents: n,
        experienced_fraction: frac(
            rows.iter()
                .filter(|r| r.experience.more_than_five_years())
                .count(),
        ),
        large_fleet_fraction: frac(rows.iter().filter(|r| r.manages_over_20).count()),
        linux_admins: rows.iter().filter(|r| r.os_linux).count(),
        windows_admins: rows.iter().filter(|r| r.os_windows).count(),
        mac_admins: rows.iter().filter(|r| r.os_mac).count(),
        monthly_or_more: frac(
            rows.iter()
                .filter(|r| r.frequency.at_least_monthly())
                .count(),
        ),
        refrain_fraction: frac(rows.iter().filter(|r| r.refrains).count()),
        strategy_fraction: frac(
            rows.iter()
                .filter(|r| !matches!(r.strategy, Strategy::None))
                .count(),
        ),
        failure_rate_avg: rows.iter().map(|r| r.failure_rate_pct as f64).sum::<f64>() / n as f64,
        failure_rate_median: median,
        failure_rate_5_to_10: frac(
            rows.iter()
                .filter(|r| (5..=10).contains(&r.failure_rate_pct))
                .count(),
        ),
        problems_past_testing: frac(rows.iter().filter(|r| r.problems_past_testing).count()),
        catastrophic: frac(rows.iter().filter(|r| r.catastrophic_failure).count()),
        reports_to_vendor: frac(rows.iter().filter(|r| r.reports_to_vendor).count()),
        uses_os_packaging: frac(rows.iter().filter(|r| r.uses_os_packaging).count()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64) {
        assert!(
            (actual - expected).abs() < 1e-9,
            "expected {expected}, got {actual}"
        );
    }

    #[test]
    fn dataset_matches_demographics() {
        let rows = dataset();
        let s = stats(&rows);
        assert_eq!(s.respondents, 50);
        assert_close(s.experienced_fraction, 0.82);
        assert_close(s.large_fleet_fraction, 0.78);
        assert_eq!(s.linux_admins, 48);
        assert_eq!(s.windows_admins, 29);
        assert_eq!(s.mac_admins, 12);
    }

    #[test]
    fn figure1_matches_paper() {
        let rows = dataset();
        let fig = figure1(&rows);
        let total: usize = fig.iter().map(|(_, c)| c.iter().sum::<usize>()).sum();
        assert_eq!(total, 50);
        assert_close(stats(&rows).monthly_or_more, 0.90);
        // Spot-check a cell against the construction matrix.
        assert_eq!(fig[0].0, Frequency::MoreThanWeekly);
        assert_eq!(fig[0].1.iter().sum::<usize>(), 8);
    }

    #[test]
    fn reason_ranks_match_paper() {
        let rows = dataset();
        let (security, bug_fix, user_request, new_feature) = reason_rank_averages(&rows);
        assert_close(security, 1.6);
        assert_close(bug_fix, 2.2);
        assert_close(user_request, 3.3);
        assert_close(new_feature, 3.5);
    }

    #[test]
    fn figure2_matches_paper() {
        let rows = dataset();
        let fig = figure2(&rows);
        assert_eq!(fig[&(true, true)], 25);
        assert_eq!(fig[&(true, false)], 10);
        assert_eq!(fig[&(false, true)], 10);
        assert_eq!(fig[&(false, false)], 5);
        let s = stats(&rows);
        assert_close(s.refrain_fraction, 0.70);
        assert_close(s.strategy_fraction, 0.70);
    }

    #[test]
    fn strategies_match_paper_counts() {
        let rows = dataset();
        let env = rows
            .iter()
            .filter(|r| matches!(r.strategy, Strategy::TestingEnvironment { .. }))
            .count();
        let identical = rows
            .iter()
            .filter(|r| {
                matches!(
                    r.strategy,
                    Strategy::TestingEnvironment {
                        identical_config: true
                    }
                )
            })
            .count();
        let staged = rows
            .iter()
            .filter(|r| matches!(r.strategy, Strategy::StagedRollout))
            .count();
        let internet = rows
            .iter()
            .filter(|r| matches!(r.strategy, Strategy::InternetReports))
            .count();
        assert_eq!(env, 25);
        assert_eq!(identical, 4);
        assert_eq!(staged, 6);
        assert_eq!(internet, 2);
    }

    #[test]
    fn figure3_matches_paper() {
        let rows = dataset();
        let s = stats(&rows);
        assert_close(s.failure_rate_avg, 8.6);
        assert_close(s.failure_rate_median, 5.0);
        assert_close(s.failure_rate_5_to_10, 0.66);
        let fig = figure3(&rows);
        assert_eq!(fig.iter().map(|(_, c)| c).sum::<usize>(), 50);
        assert_eq!(fig[1], (5, 20));
    }

    #[test]
    fn cause_ranks_match_paper() {
        let rows = dataset();
        let [broken, removed, buggy, legacy, packaging] = cause_rank_averages(&rows);
        assert_close(broken, 2.5);
        assert_close(removed, 2.5);
        assert_close(buggy, 2.6);
        assert_close(legacy, 3.1);
        assert_close(packaging, 3.2);
    }

    #[test]
    fn remaining_headline_stats() {
        let s = stats(&dataset());
        assert_close(s.problems_past_testing, 0.48);
        assert_close(s.catastrophic, 0.18);
        assert_close(s.reports_to_vendor, 0.50);
        assert_close(s.uses_os_packaging, 0.86);
    }

    #[test]
    fn dataset_is_deterministic() {
        assert_eq!(dataset(), dataset());
    }
}
