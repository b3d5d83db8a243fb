//! Simulation metrics: latency CDFs and upgrade overhead.
//!
//! Metrics are id-indexed: per-machine pass times live in a dense
//! [`TimeColumn`] keyed by [`MachineId`], and discovered problems are
//! [`ProblemId`]s. Name-keyed views are available at the boundary via
//! the `*_named` helpers, which take the plan/table that owns the names.

use std::fmt;

use mirage_deploy::{ceil_threshold, DeployPlan, MachineId, ProblemId};

use crate::engine::SimTime;

/// One optional time per machine, 8 bytes each: what a
/// `Vec<Option<SimTime>>` holds, in half its size.
///
/// A slot keeps `time + 1`, and 0 means "never". The clock never
/// reaches `SimTime::MAX` (it marks a machine that crashed for good, and
/// any event scheduled past it would overflow first), so every time it
/// does reach has a slot value. A fresh column is all zeros, which the
/// allocator hands out without writing: a run touches the pages of the
/// machines it records and no others. `Debug` renders the column exactly
/// as the `Vec<Option<SimTime>>` with the same values, which is what the
/// recorded reference runs digest, and two columns are equal exactly
/// when those vectors are.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TimeColumn(Vec<SimTime>);

impl TimeColumn {
    /// A column of `n` machines, none of them timed.
    pub(crate) fn new(n: usize) -> Self {
        TimeColumn(vec![0; n])
    }

    /// Number of machines in the column.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the column has no machines at all (not: no times).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The time of machine `i`; `None` if it has none or `i` is past the
    /// end of the column.
    #[inline]
    pub fn get(&self, i: usize) -> Option<SimTime> {
        self.0.get(i).and_then(|&slot| slot.checked_sub(1))
    }

    /// Records `time` for machine `i` unless it already has one; returns
    /// whether it was recorded.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `time` is `SimTime::MAX`.
    #[inline]
    pub(crate) fn set_first(&mut self, i: usize, time: SimTime) -> bool {
        let slot = &mut self.0[i];
        let fresh = *slot == 0;
        if fresh {
            *slot = time
                .checked_add(1)
                .expect("the clock never reaches SimTime::MAX");
        }
        fresh
    }

    /// Every machine's time, in machine order.
    pub fn iter(&self) -> impl Iterator<Item = Option<SimTime>> + '_ {
        self.0.iter().map(|&slot| slot.checked_sub(1))
    }
}

impl fmt::Debug for TimeColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<Option<SimTime>>> for TimeColumn {
    fn eq(&self, other: &Vec<Option<SimTime>>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

/// Per-cluster upgrade latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLatency {
    /// Cluster id.
    pub cluster: usize,
    /// Time when the cluster's threshold fraction of machines had
    /// integrated the upgrade, or `None` if it never did.
    pub time: Option<SimTime>,
}

/// Aggregate results of one simulation run.
///
/// Derives `PartialEq`/`Eq` so determinism and equivalence tests can
/// assert that two runs (e.g. instrumented vs uninstrumented, or the
/// driver vs the sequential oracle) produced identical results; its
/// `Debug` rendering is what the recorded reference runs digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// First successful-integration time per machine, indexed by
    /// [`MachineId`] (`None` = the machine never passed).
    pub machine_pass_time: TimeColumn,
    /// Number of failed tests — the paper's *upgrade overhead* (each
    /// failure is a machine inconvenienced by a faulty upgrade).
    pub failed_tests: usize,
    /// Total tests executed (downloads + validations).
    pub total_tests: usize,
    /// Number of corrected releases the vendor shipped.
    pub releases_shipped: u32,
    /// Time the protocol reported completion (all machines passed).
    pub completion_time: Option<SimTime>,
    /// Distinct problems discovered, in discovery order.
    pub(crate) problems_discovered: Vec<ProblemId>,
    /// Faulty integrations that escaped detection (imperfect testing).
    pub escaped_problems: usize,
    /// Messages (notifications or reports) dropped by the fault
    /// injector. Zero on the reliable-channel fast path.
    pub msgs_dropped: u64,
    /// Messages duplicated in flight by the fault injector.
    pub msgs_duplicated: u64,
    /// Re-notifications the vendor sent after missing a report.
    pub retries_sent: u64,
    /// Machines the protocol waived after its rep-timeout expired.
    pub rep_timeouts: u64,
    /// Revert-confirmation time per machine after a rollback, indexed
    /// by [`MachineId`]. Empty unless a rollout controller rolled the
    /// campaign back (so runs without rollback compare bit-identical
    /// to pre-rollout metrics).
    pub machine_revert_time: TimeColumn,
}

impl SimMetrics {
    /// Number of machines that passed at least once.
    pub fn passed_count(&self) -> usize {
        self.machine_pass_time.iter().flatten().count()
    }

    /// Number of machines whose revert to the prior release was
    /// confirmed after a rollback.
    pub fn reverted_count(&self) -> usize {
        self.machine_revert_time.iter().flatten().count()
    }

    /// True when every machine in a fleet of `total` passed at least
    /// once. Under fault injection this is the convergence criterion:
    /// churned machines count once they rejoin and pass, waived
    /// machines only if a late report eventually lands.
    pub fn converged(&self, total: usize) -> bool {
        self.passed_count() == total
    }

    /// Pass time of a single machine id, if it passed.
    #[inline]
    pub fn pass_time(&self, machine: MachineId) -> Option<SimTime> {
        self.machine_pass_time.get(machine.index())
    }

    /// The latest pass time across the fleet, if any machine passed.
    pub fn max_pass_time(&self) -> Option<SimTime> {
        self.machine_pass_time.iter().flatten().max()
    }

    /// Computes each cluster's latency: the time the threshold fraction
    /// of its members first had the upgrade integrated, counted by the
    /// rule wave advancement uses ([`ceil_threshold`]; an empty cluster
    /// never gets a latency).
    ///
    /// This is the quantity plotted in the paper's Figures 10 and 11
    /// ("fraction of clusters" vs time); note clusters are scored against
    /// the *reference* plan even for protocols (NoStaging) that ignore
    /// cluster structure.
    pub fn cluster_latencies(&self, plan: &DeployPlan, threshold: f64) -> Vec<ClusterLatency> {
        plan.clusters
            .iter()
            .map(|c| {
                let needed = ceil_threshold(c.members.len(), threshold).max(1);
                let mut times: Vec<SimTime> = c
                    .members
                    .iter()
                    .filter_map(|&m| self.pass_time(m))
                    .collect();
                times.sort_unstable();
                ClusterLatency {
                    cluster: c.id,
                    time: times.get(needed - 1).copied(),
                }
            })
            .collect()
    }
}

/// Turns cluster latencies into CDF points `(time, fraction)`.
///
/// Clusters that never completed are omitted (the CDF then tops out
/// below 1.0).
pub fn latency_cdf(latencies: &[ClusterLatency]) -> Vec<(SimTime, f64)> {
    let total = latencies.len();
    if total == 0 {
        return Vec::new();
    }
    let mut times: Vec<SimTime> = latencies.iter().filter_map(|l| l.time).collect();
    times.sort_unstable();
    let mut points = Vec::new();
    for (i, t) in times.iter().enumerate() {
        let fraction = (i + 1) as f64 / total as f64;
        // Collapse duplicate timestamps to the highest fraction.
        if let Some(last) = points.last_mut() {
            let (lt, lf): &mut (SimTime, f64) = last;
            if *lt == *t {
                *lf = fraction;
                continue;
            }
        }
        points.push((*t, fraction));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_deploy::ProblemTable;

    fn plan2() -> DeployPlan {
        DeployPlan::from_named([
            (["a", "b"].as_slice(), 1usize, 0.0),
            (["c", "d"].as_slice(), 1usize, 1.0),
        ])
    }

    /// Metrics with pass times set for the named machines.
    fn metrics(plan: &DeployPlan, passes: &[(&str, SimTime)]) -> SimMetrics {
        let mut m = SimMetrics {
            machine_pass_time: TimeColumn::new(plan.machine_count()),
            ..SimMetrics::default()
        };
        for (name, t) in passes {
            let id = plan.machine_id(name).unwrap();
            m.machine_pass_time.set_first(id.index(), *t);
        }
        m
    }

    #[test]
    fn cluster_latency_takes_threshold_member() {
        let p = plan2();
        let m = metrics(&p, &[("a", 10), ("b", 30), ("c", 20)]);
        // d never passed.
        let lat = m.cluster_latencies(&p, 1.0);
        assert_eq!(lat[0].time, Some(30));
        assert_eq!(lat[1].time, None, "cluster 1 incomplete at threshold 1.0");
        let lat = m.cluster_latencies(&p, 0.5);
        assert_eq!(lat[0].time, Some(10));
        assert_eq!(lat[1].time, Some(20));
    }

    #[test]
    fn cluster_latency_of_empty_cluster_is_none() {
        // An empty cluster can never reach any threshold: the `needed`
        // floor of one member has nobody to satisfy it.
        let p =
            DeployPlan::from_named([(vec!["a"], 1usize, 0.0), (Vec::<&str>::new(), 1usize, 1.0)]);
        let m = metrics(&p, &[("a", 5)]);
        let lat = m.cluster_latencies(&p, 1.0);
        assert_eq!(lat[0].time, Some(5));
        assert_eq!(lat[1].time, None, "empty cluster never completes");
        let lat = m.cluster_latencies(&p, 0.0);
        assert_eq!(lat[1].time, None, "even at threshold 0.0 (floored to one)");
    }

    #[test]
    fn cluster_latency_with_never_passing_machine() {
        // Threshold 1.0 requires everyone; a single never-passing member
        // holds the whole cluster at None forever.
        let p = DeployPlan::from_named([(["a", "b", "c"], 1usize, 0.0)]);
        let m = metrics(&p, &[("a", 10), ("c", 40)]);
        assert_eq!(m.cluster_latencies(&p, 1.0)[0].time, None);
        // But lower thresholds are satisfied by the passers alone.
        assert_eq!(m.cluster_latencies(&p, 0.5)[0].time, Some(40));
        assert_eq!(m.cluster_latencies(&p, 0.25)[0].time, Some(10));
    }

    #[test]
    fn cluster_latency_threshold_ceil() {
        // 4 members at threshold 0.75 → ceil(3.0) = 3 needed; at 1.0 →
        // 4 needed. The ceil keeps fractional thresholds conservative.
        let p = DeployPlan::from_named([(["a", "b", "c", "d"], 1usize, 0.0)]);
        let m = metrics(&p, &[("a", 10), ("b", 20), ("c", 30), ("d", 100)]);
        assert_eq!(m.cluster_latencies(&p, 0.75)[0].time, Some(30));
        assert_eq!(m.cluster_latencies(&p, 1.0)[0].time, Some(100));
        // 0.70 of 4 = 2.8 → ceil 3: same as 0.75.
        assert_eq!(m.cluster_latencies(&p, 0.70)[0].time, Some(30));
    }

    #[test]
    fn boundary_helpers_render_names() {
        let p = plan2();
        let m = metrics(&p, &[("b", 30), ("c", 20)]);
        assert_eq!(m.passed_count(), 2);
        let named = |name: &str| m.pass_time(p.machine_id(name)?);
        assert_eq!(named("b"), Some(30));
        assert_eq!(named("a"), None);
        assert_eq!(named("zzz"), None);
        assert_eq!(named("c"), Some(20));
        assert_eq!(m.max_pass_time(), Some(30));

        let mut problems = ProblemTable::new();
        let prev = problems.intern("prevalent");
        let m = SimMetrics {
            problems_discovered: vec![prev],
            ..SimMetrics::default()
        };
        let discovered: Vec<&str> = m
            .problems_discovered
            .iter()
            .map(|&p| problems.name(p))
            .collect();
        assert_eq!(discovered, ["prevalent"]);
    }

    #[test]
    fn time_column_reads_as_the_vector_of_options() {
        // The largest time the clock reaches: `SimTime::MAX` marks a
        // crash and is never a clock reading.
        let last = SimTime::MAX - 1;
        let columns: [Vec<Option<SimTime>>; 6] = [
            vec![],
            vec![None],
            vec![Some(0)],
            vec![Some(last)],
            vec![None, Some(0), Some(7), Some(last), None],
            vec![None, Some(0), Some(7), Some(last), Some(0)],
        ];
        let column_of = |times: &[Option<SimTime>]| {
            let mut column = TimeColumn::new(times.len());
            for (i, time) in times.iter().enumerate() {
                if let Some(time) = *time {
                    column.set_first(i, time);
                }
            }
            column
        };
        for a in &columns {
            let column = column_of(a);
            assert_eq!(format!("{column:?}"), format!("{a:?}"));
            assert_eq!(format!("{column:#?}"), format!("{a:#?}"));
            assert_eq!(column.iter().collect::<Vec<_>>(), *a);
            assert!(column == *a);
            for b in &columns {
                let other = column_of(b);
                assert_eq!(column == other, a == b, "{a:?} vs {b:?}");
            }
        }
        // A first time sticks; a time past the end reads as none.
        let mut column = TimeColumn::new(2);
        assert!(column.set_first(1, last));
        assert!(!column.set_first(1, 3));
        assert_eq!(
            (column.get(0), column.get(1), column.get(2)),
            (None, Some(last), None)
        );
    }

    #[test]
    #[should_panic(expected = "never reaches")]
    fn time_column_refuses_the_crash_sentinel() {
        TimeColumn::new(1).set_first(0, SimTime::MAX);
    }

    #[test]
    fn cdf_shape() {
        let lat = vec![
            ClusterLatency {
                cluster: 0,
                time: Some(10),
            },
            ClusterLatency {
                cluster: 1,
                time: Some(10),
            },
            ClusterLatency {
                cluster: 2,
                time: Some(40),
            },
            ClusterLatency {
                cluster: 3,
                time: None,
            },
        ];
        let cdf = latency_cdf(&lat);
        assert_eq!(cdf, vec![(10, 0.5), (40, 0.75)]);
        assert!(latency_cdf(&[]).is_empty());
    }
}
