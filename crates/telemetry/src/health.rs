//! Per-wave / per-cluster health rollups over the campaign journal.
//!
//! The rollup engine folds a [`crate::journal::Journal`] timeline into
//! [`WaveHealth`] frames — one per deployment wave — each carrying the
//! signals a rollback/abort loop needs: convergence-lag percentiles
//! (notify → pass, exact, computed by sorting on the export path),
//! failure rate, retry amplification, fault-counter deltas, and waiver
//! counts, plus a per-cluster breakdown. A threshold watchdog
//! ([`WatchdogConfig`]) classifies every frame as `Healthy`,
//! `Degraded`, or `Unhealthy`; this is the exact signal surface the
//! planned canary/rolling abort loop consumes.
//!
//! Wave boundaries come from the journal itself: frame 0 opens at time
//! 0 (the global-representatives stage for staged protocols, or the
//! whole run for unstaged ones) and a new frame opens at every
//! [`crate::journal::JournalEvent::WaveAdvance`] entry. Work is
//! attributed to the frame in which it *started*: a machine notified in
//! wave 2 that converges during wave 3 contributes its lag to wave 2's
//! percentiles.

use crate::journal::{FaultKind, JournalEntry, JournalEvent, NO_PROBLEM};
use crate::json::Value;

/// A frame's watchdog verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// All signals within thresholds.
    Healthy,
    /// At least one signal crossed its degraded threshold.
    Degraded,
    /// At least one signal crossed its unhealthy threshold.
    Unhealthy,
}

impl HealthStatus {
    /// The status's stable name.
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }
}

/// Watchdog thresholds for classifying a frame.
///
/// Failure rate is `failed / (passed + failed)` tests; retry
/// amplification is `retries / notifies` (0 when nothing was notified).
/// Any waiver marks a frame at least [`HealthStatus::Degraded`]: a
/// waived representative means the protocol gave up waiting on a
/// cluster's canary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Failure rate at which a frame is degraded.
    pub degraded_failure_rate: f64,
    /// Failure rate at which a frame is unhealthy.
    pub unhealthy_failure_rate: f64,
    /// Retry amplification at which a frame is degraded.
    pub degraded_retry_amplification: f64,
    /// Retry amplification at which a frame is unhealthy.
    pub unhealthy_retry_amplification: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            degraded_failure_rate: 0.05,
            unhealthy_failure_rate: 0.25,
            degraded_retry_amplification: 0.25,
            unhealthy_retry_amplification: 2.0,
        }
    }
}

impl WatchdogConfig {
    fn classify(&self, failure_rate: f64, retry_amplification: f64, waivers: u64) -> HealthStatus {
        if failure_rate >= self.unhealthy_failure_rate
            || retry_amplification >= self.unhealthy_retry_amplification
        {
            HealthStatus::Unhealthy
        } else if failure_rate >= self.degraded_failure_rate
            || retry_amplification >= self.degraded_retry_amplification
            || waivers > 0
        {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        }
    }
}

/// Health signals for one cluster within one wave frame.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterHealth {
    /// Cluster id.
    pub cluster: u32,
    /// Machines notified in this frame.
    pub notified: u64,
    /// Tests passed in this frame.
    pub passed: u64,
    /// Tests failed in this frame.
    pub failed: u64,
    /// Retries sent in this frame.
    pub retries: u64,
    /// `failed / (passed + failed)`, 0 when no tests finished.
    pub failure_rate: f64,
    /// Watchdog verdict for this cluster slice.
    pub status: HealthStatus,
}

/// Health signals for one deployment wave.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveHealth {
    /// Wave index (0 = the initial stage before any advance).
    pub wave: u32,
    /// Cluster the wave advanced to (`None` for the initial stage).
    pub cluster: Option<u32>,
    /// Sim time at which the frame opened.
    pub start: u64,
    /// Sim time at which the frame closed (run end for the last one).
    pub end: u64,
    /// Machines notified in this frame.
    pub notified: u64,
    /// Tests passed in this frame.
    pub tests_passed: u64,
    /// Tests failed in this frame.
    pub tests_failed: u64,
    /// Vendor-received reports in this frame.
    pub reports: u64,
    /// Retries sent in this frame.
    pub retries: u64,
    /// Representatives waived in this frame.
    pub waivers: u64,
    /// Messages the fault injector dropped in this frame.
    pub faults_lost: u64,
    /// Messages the fault injector duplicated in this frame.
    pub faults_duplicated: u64,
    /// Reports deposited into the URR in this frame.
    pub urr_deposits: u64,
    /// Number of machines notified in this frame that converged (ever).
    pub converged: u64,
    /// Median notify → pass lag of machines notified in this frame.
    pub lag_p50: u64,
    /// 90th-percentile notify → pass lag.
    pub lag_p90: u64,
    /// 99th-percentile notify → pass lag.
    pub lag_p99: u64,
    /// `tests_failed / (tests_passed + tests_failed)`.
    pub failure_rate: f64,
    /// `retries / notified`.
    pub retry_amplification: f64,
    /// Watchdog verdict.
    pub status: HealthStatus,
    /// Per-cluster breakdown (clusters active in this frame, ascending
    /// id).
    pub(crate) clusters: Vec<ClusterHealth>,
}

impl WaveHealth {
    /// Serialises the frame (nested cluster breakdown included).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("wave", Value::from(self.wave)),
            ("cluster", self.cluster.map_or(Value::Null, Value::from)),
            ("start", Value::from(self.start)),
            ("end", Value::from(self.end)),
            ("notified", Value::from(self.notified)),
            ("tests_passed", Value::from(self.tests_passed)),
            ("tests_failed", Value::from(self.tests_failed)),
            ("reports", Value::from(self.reports)),
            ("retries", Value::from(self.retries)),
            ("waivers", Value::from(self.waivers)),
            ("faults_lost", Value::from(self.faults_lost)),
            ("faults_duplicated", Value::from(self.faults_duplicated)),
            ("urr_deposits", Value::from(self.urr_deposits)),
            ("converged", Value::from(self.converged)),
            ("lag_p50", Value::from(self.lag_p50)),
            ("lag_p90", Value::from(self.lag_p90)),
            ("lag_p99", Value::from(self.lag_p99)),
            ("failure_rate", Value::from(self.failure_rate)),
            ("retry_amplification", Value::from(self.retry_amplification)),
            ("status", Value::str(self.status.name())),
            (
                "clusters",
                Value::Arr(
                    self.clusters
                        .iter()
                        .map(|c| {
                            Value::obj([
                                ("cluster", Value::from(c.cluster)),
                                ("notified", Value::from(c.notified)),
                                ("passed", Value::from(c.passed)),
                                ("failed", Value::from(c.failed)),
                                ("retries", Value::from(c.retries)),
                                ("failure_rate", Value::from(c.failure_rate)),
                                ("status", Value::str(c.status.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact quantile of a **sorted** lag sample (nearest-rank).
fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[derive(Default)]
struct FrameAccum {
    notified: u64,
    passed: u64,
    failed: u64,
    reports: u64,
    retries: u64,
    waivers: u64,
    faults_lost: u64,
    faults_duplicated: u64,
    urr_deposits: u64,
    lags: Vec<u64>,
    clusters: std::collections::BTreeMap<u32, (u64, u64, u64, u64)>, // notified, passed, failed, retries
}

/// Folds a journal timeline into per-wave [`WaveHealth`] frames.
///
/// `machine_cluster` maps dense machine index → cluster id (the same
/// table the URR sink interns); machines outside the table are counted
/// in the wave totals but skipped in the per-cluster breakdown.
/// `run_end` closes the final frame (pass the simulation's completion
/// time, or the last journal timestamp).
pub fn rollup(
    entries: &[JournalEntry],
    machine_cluster: &[u32],
    run_end: u64,
    config: &WatchdogConfig,
) -> Vec<WaveHealth> {
    // Journal insertion order is only near-chronological (batched
    // drivers interleave with direct recorders), and the fold below is
    // a single chronological pass — restore strict (time, seq) order
    // first.
    let mut sorted: Vec<JournalEntry> = entries.to_vec();
    sorted.sort_unstable_by_key(|e| (e.time, e.seq));
    let entries = &sorted[..];
    // Frame boundaries: frame 0 opens at 0; each WaveAdvance opens the
    // next one.
    let mut boundaries: Vec<(u64, Option<u32>)> = vec![(0, None)];
    for e in entries {
        if let JournalEvent::WaveAdvance { cluster, .. } = e.event {
            boundaries.push((e.time, Some(cluster)));
        }
    }
    let mut frames: Vec<FrameAccum> = Vec::with_capacity(boundaries.len());
    frames.resize_with(boundaries.len(), FrameAccum::default);

    // Frame index for a timestamp: the last boundary at or before it.
    // Entries arrive in nondecreasing time order, so track a cursor.
    let mut cursor = 0usize;
    let frame_of = |cursor: &mut usize, time: u64, boundaries: &[(u64, Option<u32>)]| {
        while *cursor + 1 < boundaries.len() && boundaries[*cursor + 1].0 <= time {
            *cursor += 1;
        }
        *cursor
    };

    // First-notify frame/time per machine, for lag attribution.
    let max_machine = entries
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::Notify { machine, .. } => Some(machine as usize),
            _ => None,
        })
        .max()
        .map_or(0, |m| m + 1);
    let mut first_notify: Vec<Option<(u64, u32)>> = vec![None; max_machine];
    let mut first_pass: Vec<bool> = vec![false; max_machine];

    for e in entries {
        let f = frame_of(&mut cursor, e.time, &boundaries);
        match e.event {
            JournalEvent::Notify { machine, .. } => {
                frames[f].notified += 1;
                let m = machine as usize;
                if first_notify[m].is_none() {
                    first_notify[m] = Some((e.time, f as u32));
                }
                if let Some(c) = machine_cluster.get(m) {
                    frames[f].clusters.entry(*c).or_default().0 += 1;
                }
            }
            JournalEvent::Test {
                machine, problem, ..
            } => {
                let m = machine as usize;
                if problem == NO_PROBLEM {
                    frames[f].passed += 1;
                    if let Some(c) = machine_cluster.get(m) {
                        frames[f].clusters.entry(*c).or_default().1 += 1;
                    }
                    // Attribute convergence lag to the notifying frame.
                    if m < first_notify.len() && !first_pass[m] {
                        first_pass[m] = true;
                        if let Some((t0, f0)) = first_notify[m] {
                            frames[f0 as usize].lags.push(e.time.saturating_sub(t0));
                        }
                    }
                } else {
                    frames[f].failed += 1;
                    if let Some(c) = machine_cluster.get(m) {
                        frames[f].clusters.entry(*c).or_default().2 += 1;
                    }
                }
            }
            JournalEvent::Report { .. } => frames[f].reports += 1,
            JournalEvent::WaveAdvance { .. } => {}
            JournalEvent::Retry { machine, .. } => {
                frames[f].retries += 1;
                if let Some(c) = machine_cluster.get(machine as usize) {
                    frames[f].clusters.entry(*c).or_default().3 += 1;
                }
            }
            JournalEvent::Waiver { .. } => frames[f].waivers += 1,
            JournalEvent::Fault { fault, .. } => match fault {
                FaultKind::Loss => frames[f].faults_lost += 1,
                FaultKind::Duplication => frames[f].faults_duplicated += 1,
            },
            JournalEvent::UrrDeposit { .. } => frames[f].urr_deposits += 1,
            // Rollout decisions are campaign-scoped, not wave-scoped;
            // the rollup keys frames off WaveAdvance markers only.
            JournalEvent::Rollout { .. } => {}
        }
    }

    boundaries
        .iter()
        .enumerate()
        .zip(frames)
        .map(|((i, &(start, cluster)), mut acc)| {
            let end = boundaries
                .get(i + 1)
                .map_or_else(|| run_end.max(start), |b| b.0);
            acc.lags.sort_unstable();
            let failure_rate = rate(acc.failed, acc.passed + acc.failed);
            let retry_amplification = rate(acc.retries, acc.notified);
            let clusters = acc
                .clusters
                .iter()
                .map(|(&cid, &(notified, passed, failed, retries))| {
                    let failure_rate = rate(failed, passed + failed);
                    ClusterHealth {
                        cluster: cid,
                        notified,
                        passed,
                        failed,
                        retries,
                        failure_rate,
                        status: config.classify(failure_rate, rate(retries, notified), 0),
                    }
                })
                .collect();
            WaveHealth {
                wave: i as u32,
                cluster,
                start,
                end,
                notified: acc.notified,
                tests_passed: acc.passed,
                tests_failed: acc.failed,
                reports: acc.reports,
                retries: acc.retries,
                waivers: acc.waivers,
                faults_lost: acc.faults_lost,
                faults_duplicated: acc.faults_duplicated,
                urr_deposits: acc.urr_deposits,
                converged: acc.lags.len() as u64,
                lag_p50: sorted_quantile(&acc.lags, 0.50),
                lag_p90: sorted_quantile(&acc.lags, 0.90),
                lag_p99: sorted_quantile(&acc.lags, 0.99),
                failure_rate,
                retry_amplification,
                status: config.classify(failure_rate, retry_amplification, acc.waivers),
                clusters,
            }
        })
        .collect()
}

/// Serialises a rollup as a health report document:
/// `{"frames": [...], "worst": "<status>"}`.
pub fn health_report_json(frames: &[WaveHealth]) -> Value {
    let worst = frames
        .iter()
        .map(|f| f.status)
        .max()
        .unwrap_or(HealthStatus::Healthy);
    Value::obj([
        ("worst", Value::str(worst.name())),
        (
            "frames",
            Value::Arr(frames.iter().map(WaveHealth::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(time: u64, seq: u64, event: JournalEvent) -> JournalEntry {
        JournalEntry { time, seq, event }
    }

    fn notify(time: u64, seq: u64, machine: u32) -> JournalEntry {
        entry(
            time,
            seq,
            JournalEvent::Notify {
                machine,
                release: 0,
            },
        )
    }

    fn pass(time: u64, seq: u64, machine: u32) -> JournalEntry {
        entry(
            time,
            seq,
            JournalEvent::Test {
                machine,
                release: 0,
                problem: NO_PROBLEM,
            },
        )
    }

    fn fail(time: u64, seq: u64, machine: u32) -> JournalEntry {
        entry(
            time,
            seq,
            JournalEvent::Test {
                machine,
                release: 0,
                problem: 0,
            },
        )
    }

    #[test]
    fn single_frame_without_waves() {
        let entries = [
            notify(0, 0, 0),
            notify(0, 1, 1),
            pass(10, 2, 0),
            pass(30, 3, 1),
        ];
        let frames = rollup(&entries, &[0, 0], 100, &WatchdogConfig::default());
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!((f.wave, f.cluster), (0, None));
        assert_eq!((f.start, f.end), (0, 100));
        assert_eq!(f.notified, 2);
        assert_eq!(f.tests_passed, 2);
        assert_eq!(f.converged, 2);
        assert_eq!((f.lag_p50, f.lag_p99), (10, 30));
        assert_eq!(f.status, HealthStatus::Healthy);
        assert_eq!(f.clusters.len(), 1);
        assert_eq!(f.clusters[0].notified, 2);
    }

    #[test]
    fn wave_advances_open_frames_and_lag_attributes_to_notify_frame() {
        let entries = [
            notify(0, 0, 0),
            entry(
                50,
                1,
                JournalEvent::WaveAdvance {
                    wave: 0,
                    cluster: 1,
                },
            ),
            notify(50, 2, 1),
            // Machine 0 converges during wave 1; lag belongs to frame 0.
            pass(60, 3, 0),
            pass(70, 4, 1),
        ];
        let frames = rollup(&entries, &[0, 1], 200, &WatchdogConfig::default());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].cluster, None);
        assert_eq!((frames[0].start, frames[0].end), (0, 50));
        assert_eq!(frames[0].notified, 1);
        assert_eq!(frames[0].converged, 1);
        assert_eq!(frames[0].lag_p50, 60);
        assert_eq!(frames[1].cluster, Some(1));
        assert_eq!((frames[1].start, frames[1].end), (50, 200));
        assert_eq!(frames[1].notified, 1);
        assert_eq!(frames[1].lag_p50, 20);
        // The wave-1 pass of machine 0 still counts as a test there.
        assert_eq!(frames[1].tests_passed, 2);
    }

    #[test]
    fn watchdog_flags_failure_rate_and_retry_amplification() {
        let cfg = WatchdogConfig::default();
        // 1 failure / 2 tests = 50% failure rate -> unhealthy.
        let entries = [notify(0, 0, 0), pass(5, 1, 0), fail(6, 2, 1)];
        let frames = rollup(&entries, &[0, 0], 10, &cfg);
        assert_eq!(frames[0].status, HealthStatus::Unhealthy);

        // Retry amplification 1.0 with clean tests -> degraded.
        let entries = [
            notify(0, 0, 0),
            entry(
                5,
                1,
                JournalEvent::Retry {
                    machine: 0,
                    release: 0,
                    attempt: 0,
                },
            ),
            pass(9, 2, 0),
        ];
        let frames = rollup(&entries, &[0], 10, &cfg);
        assert_eq!(frames[0].retry_amplification, 1.0);
        assert_eq!(frames[0].status, HealthStatus::Degraded);

        // A waiver alone degrades the frame.
        let entries = [
            notify(0, 0, 0),
            pass(5, 1, 0),
            entry(
                8,
                2,
                JournalEvent::Waiver {
                    machine: 0,
                    release: 0,
                },
            ),
        ];
        let frames = rollup(&entries, &[0], 10, &cfg);
        assert_eq!(frames[0].status, HealthStatus::Degraded);
    }

    #[test]
    fn fault_deltas_and_report_counts() {
        let entries = [
            notify(0, 0, 0),
            entry(
                1,
                1,
                JournalEvent::Fault {
                    fault: FaultKind::Loss,
                    machine: 0,
                },
            ),
            entry(
                2,
                2,
                JournalEvent::Fault {
                    fault: FaultKind::Duplication,
                    machine: 0,
                },
            ),
            pass(5, 3, 0),
            entry(
                6,
                4,
                JournalEvent::Report {
                    machine: 0,
                    release: 0,
                    passed: true,
                },
            ),
            entry(
                6,
                5,
                JournalEvent::UrrDeposit {
                    machine: 0,
                    release: 0,
                    problem: NO_PROBLEM,
                },
            ),
        ];
        let frames = rollup(&entries, &[0], 10, &WatchdogConfig::default());
        let f = &frames[0];
        assert_eq!((f.faults_lost, f.faults_duplicated), (1, 1));
        assert_eq!(f.reports, 1);
        assert_eq!(f.urr_deposits, 1);
    }

    #[test]
    fn empty_journal_yields_one_quiet_frame() {
        let frames = rollup(&[], &[], 0, &WatchdogConfig::default());
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].status, HealthStatus::Healthy);
        assert_eq!(frames[0].notified, 0);
        let report = health_report_json(&frames);
        assert_eq!(report.get("worst").unwrap().as_str(), Some("healthy"));
    }

    #[test]
    fn report_json_parses_and_tracks_worst() {
        let entries = [notify(0, 0, 0), fail(5, 1, 0), fail(6, 2, 0)];
        let frames = rollup(&entries, &[0], 10, &WatchdogConfig::default());
        let doc = health_report_json(&frames);
        let text = doc.to_pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.get("worst").unwrap().as_str(), Some("unhealthy"));
        let arr = back.get("frames").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("status").unwrap().as_str(), Some("unhealthy"));
    }
}
