//! The retained string-keyed protocol implementations.
//!
//! This module preserves the pre-interning deployment data plane —
//! `String` machine names, `BTreeMap` protocol state, `BTreeSet<String>`
//! fixed-sets — exactly as it worked before the id migration, so the
//! equivalence property tests (and the `repro sim-perf` benchmark's
//! *reference* rows) can compare the interned hot path against the
//! original behaviour. Nothing here is used on the hot path.
//!
//! The types mirror [`crate::protocol`] with names in place of ids:
//! [`NamedCommand`], [`NamedReport`], [`NamedOutcome`], and the
//! [`NamedProtocol`] trait; [`NamedPlan`] mirrors
//! [`DeployPlan`] and is constructed from one via
//! [`NamedPlan::from_plan`].

use std::collections::{BTreeMap, BTreeSet};

use crate::dispatch::{seeded_shuffle, ProtocolChoice};
use crate::plan::DeployPlan;
use crate::protocol::{MachineStatus, Release, SimTime};

/// One cluster with string membership (pre-interning shape).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NamedCluster {
    /// Cluster index within the plan.
    pub(crate) id: usize,
    /// All member machine names (representatives included).
    pub(crate) members: Vec<String>,
    /// Representative machine names (a prefix subset of `members`).
    pub(crate) reps: Vec<String>,
    /// Vendor↔cluster distance.
    pub(crate) distance: f64,
}

impl NamedCluster {
    /// Non-representative member names.
    pub(crate) fn non_reps(&self) -> Vec<String> {
        self.members
            .iter()
            .filter(|m| !self.reps.contains(m))
            .cloned()
            .collect()
    }
}

/// A deployment plan with string membership (pre-interning shape).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NamedPlan {
    /// Clusters in plan order.
    pub(crate) clusters: Vec<NamedCluster>,
}

impl NamedPlan {
    /// Renders an interned plan back to names.
    pub fn from_plan(plan: &DeployPlan) -> Self {
        NamedPlan {
            clusters: plan
                .clusters
                .iter()
                .map(|c| NamedCluster {
                    id: c.id,
                    members: c
                        .members
                        .iter()
                        .map(|&m| plan.machine_name(m).to_string())
                        .collect(),
                    reps: c
                        .reps
                        .iter()
                        .map(|&m| plan.machine_name(m).to_string())
                        .collect(),
                    distance: c.distance,
                })
                .collect(),
        }
    }

    /// Cluster ids ordered by ascending distance (ties by id).
    pub(crate) fn order_by_distance_asc(&self) -> Vec<usize> {
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
    pub(crate) fn order_by_distance_desc(&self) -> Vec<usize> {
        let mut ids = self.order_by_distance_asc();
        ids.reverse();
        ids
    }

    /// All machine names across clusters, in plan order.
    pub(crate) fn all_machines(&self) -> Vec<String> {
        self.clusters
            .iter()
            .flat_map(|c| c.members.iter().cloned())
            .collect()
    }

    /// Total machine count (sum of cluster sizes).
    pub fn machine_count(&self) -> usize {
        self.clusters.iter().map(|c| c.members.len()).sum()
    }
}

/// The outcome of one machine testing one release (string-keyed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamedOutcome {
    /// The upgrade integrated and behaved identically.
    Pass,
    /// Testing failed; the failure signature identifies the problem.
    Fail {
        /// Failure signature (problem name).
        problem: String,
    },
}

/// A test report keyed by machine name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedReport {
    /// Reporting machine name.
    pub machine: String,
    /// Release that was tested.
    pub release: Release,
    /// Outcome.
    pub outcome: NamedOutcome,
}

/// A command emitted by a string-keyed protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamedCommand {
    /// Notify these machines that `release` is available.
    Notify {
        /// Machines to notify, in protocol-determined order.
        machines: Vec<String>,
        /// Release to test.
        release: Release,
    },
    /// Deployment finished: every machine passed.
    Complete,
}

/// The string-keyed protocol interface (pre-interning shape).
///
/// Mirrors [`crate::Protocol`] hook-for-hook — including the
/// unreliable-channel additions ([`NamedProtocol::on_tick`],
/// [`NamedProtocol::rep_timeouts`]) — so the equivalence property
/// tests drive both planes through one interface shape.
pub trait NamedProtocol {
    /// Protocol name for reporting.
    fn name(&self) -> &'static str;
    /// Begins deployment of release 0.
    fn start(&mut self) -> Vec<NamedCommand>;
    /// Handles a test report.
    fn on_report(&mut self, report: &NamedReport) -> Vec<NamedCommand>;
    /// Handles the vendor shipping a corrected release; `fixed` is the
    /// cumulative set of fixed problem names.
    fn on_release(&mut self, release: Release, fixed: &BTreeSet<String>) -> Vec<NamedCommand>;
    /// Periodic timer callback (mirror of [`crate::Protocol::on_tick`]
    /// without a stall budget); the reference plane is only exercised on
    /// reliable channels, so the default no-op is also the only
    /// implementation.
    fn on_tick(&mut self, _now: SimTime) -> Vec<NamedCommand> {
        Vec::new()
    }
    /// Mirror of [`crate::Protocol::rep_timeouts`].
    fn rep_timeouts(&self) -> u64 {
        0
    }
    /// Returns `true` once every machine has passed.
    fn done(&self) -> bool;
}

/// The oracle's copy of [`crate::ceil_threshold`]: rounds
/// `total × threshold` up after shaving off decimal-fraction error,
/// at least one pass for a non-empty cluster.
fn ceil_threshold(total: usize, threshold: f64) -> usize {
    if total == 0 {
        return 0;
    }
    (((total as f64) * threshold - 1e-9).ceil() as usize).max(1)
}

/// String-keyed NoStaging (retained pre-interning implementation).
#[derive(Debug, Clone)]
pub struct NamedNoStaging {
    status: BTreeMap<String, MachineStatus>,
    failed_problem: BTreeMap<String, String>,
    /// Release each machine was most recently notified for (absent ⇒
    /// release 0); the stale-duplicate guard, mirroring the interned
    /// plane's hardening.
    notified_release: BTreeMap<String, u32>,
    passed: usize,
    release: Release,
    completed: bool,
}

impl NamedNoStaging {
    /// Creates the protocol over a plan (cluster structure is ignored).
    pub fn new(plan: NamedPlan) -> Self {
        let status = plan
            .all_machines()
            .into_iter()
            .map(|m| (m, MachineStatus::Idle))
            .collect();
        NamedNoStaging {
            status,
            failed_problem: BTreeMap::new(),
            notified_release: BTreeMap::new(),
            passed: 0,
            release: Release(0),
            completed: false,
        }
    }

    fn completion(&mut self) -> Vec<NamedCommand> {
        if !self.completed && self.done() {
            self.completed = true;
            vec![NamedCommand::Complete]
        } else {
            Vec::new()
        }
    }
}

impl NamedProtocol for NamedNoStaging {
    fn name(&self) -> &'static str {
        "NoStaging"
    }

    fn start(&mut self) -> Vec<NamedCommand> {
        let machines: Vec<String> = self.status.keys().cloned().collect();
        for m in &machines {
            self.status.insert(m.clone(), MachineStatus::Testing);
        }
        if machines.is_empty() {
            self.completed = true;
            return vec![NamedCommand::Complete];
        }
        vec![NamedCommand::Notify {
            machines,
            release: self.release,
        }]
    }

    fn on_report(&mut self, report: &NamedReport) -> Vec<NamedCommand> {
        // Unreliable-channel idempotence (mirrors the interned plane):
        // drop reports for a release older than the machine's latest
        // notification, and never demote a machine that already passed.
        let notified = self
            .notified_release
            .get(&report.machine)
            .copied()
            .unwrap_or(0);
        if report.release.0 < notified
            || self.status.get(&report.machine) == Some(&MachineStatus::Passed)
        {
            return Vec::new();
        }
        let status = match &report.outcome {
            NamedOutcome::Pass => MachineStatus::Passed,
            NamedOutcome::Fail { problem } => {
                self.failed_problem
                    .insert(report.machine.clone(), problem.clone());
                MachineStatus::Failed
            }
        };
        let previous = self.status.insert(report.machine.clone(), status);
        if status == MachineStatus::Passed && previous != Some(MachineStatus::Passed) {
            self.passed += 1;
        }
        self.completion()
    }

    fn on_release(&mut self, release: Release, fixed: &BTreeSet<String>) -> Vec<NamedCommand> {
        self.release = release;
        let failed: Vec<String> = self
            .status
            .iter()
            .filter(|(m, s)| {
                **s == MachineStatus::Failed
                    && self
                        .failed_problem
                        .get(*m)
                        .map(|p| fixed.contains(p))
                        .unwrap_or(true)
            })
            .map(|(m, _)| m.clone())
            .collect();
        for m in &failed {
            self.status.insert(m.clone(), MachineStatus::Testing);
            self.notified_release.insert(m.clone(), release.0);
        }
        if failed.is_empty() {
            return self.completion();
        }
        vec![NamedCommand::Notify {
            machines: failed,
            release,
        }]
    }

    fn done(&self) -> bool {
        self.passed == self.status.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    GlobalReps,
    Cluster(usize),
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterStage {
    Reps,
    NonReps,
}

/// String-keyed staged engine (retained pre-interning implementation).
#[derive(Debug, Clone)]
struct NamedStagedEngine {
    plan: NamedPlan,
    order: Vec<usize>,
    threshold: f64,
    global_rep_phase: bool,
    status: BTreeMap<String, MachineStatus>,
    cluster_of: BTreeMap<String, usize>,
    cluster_passed: Vec<usize>,
    reps_passed: usize,
    total_reps: usize,
    total_passed: usize,
    total_machines: usize,
    release: Release,
    phase: Phase,
    stage: ClusterStage,
    failed_problem: BTreeMap<String, String>,
    /// Release each machine was most recently notified for (absent ⇒
    /// release 0); the stale-duplicate guard, mirroring the interned
    /// plane's hardening.
    notified_release: BTreeMap<String, u32>,
    completed: bool,
}

impl NamedStagedEngine {
    fn new(plan: NamedPlan, order: Vec<usize>, threshold: f64, global_rep_phase: bool) -> Self {
        assert_eq!(
            order.len(),
            plan.clusters.len(),
            "order must cover every cluster exactly once"
        );
        let status: BTreeMap<String, MachineStatus> = plan
            .all_machines()
            .into_iter()
            .map(|m| (m, MachineStatus::Idle))
            .collect();
        let mut cluster_of = BTreeMap::new();
        for (i, c) in plan.clusters.iter().enumerate() {
            for m in &c.members {
                cluster_of.insert(m.clone(), i);
            }
        }
        let total_reps = plan.clusters.iter().map(|c| c.reps.len()).sum();
        let total_machines = status.len();
        let cluster_passed = vec![0; plan.clusters.len()];
        NamedStagedEngine {
            plan,
            order,
            threshold,
            global_rep_phase,
            status,
            cluster_of,
            cluster_passed,
            reps_passed: 0,
            total_reps,
            total_passed: 0,
            total_machines,
            release: Release(0),
            phase: if global_rep_phase {
                Phase::GlobalReps
            } else {
                Phase::Cluster(0)
            },
            stage: ClusterStage::Reps,
            failed_problem: BTreeMap::new(),
            notified_release: BTreeMap::new(),
            completed: false,
        }
    }

    fn notify(&mut self, machines: Vec<String>, out: &mut Vec<NamedCommand>) {
        let fresh: Vec<String> = machines
            .into_iter()
            .filter(|m| {
                matches!(
                    self.status.get(m),
                    Some(MachineStatus::Idle) | Some(MachineStatus::Failed)
                )
            })
            .collect();
        if fresh.is_empty() {
            return;
        }
        for m in &fresh {
            self.status.insert(m.clone(), MachineStatus::Testing);
            self.notified_release.insert(m.clone(), self.release.0);
        }
        out.push(NamedCommand::Notify {
            machines: fresh,
            release: self.release,
        });
    }

    fn all_passed(&self, machines: &[String]) -> bool {
        machines
            .iter()
            .all(|m| self.status.get(m) == Some(&MachineStatus::Passed))
    }

    fn all_reps(&self) -> Vec<String> {
        self.plan
            .clusters
            .iter()
            .flat_map(|c| c.reps.iter().cloned())
            .collect()
    }

    fn step(&mut self, out: &mut Vec<NamedCommand>) {
        loop {
            match self.phase {
                Phase::GlobalReps => {
                    if self.reps_passed == self.total_reps {
                        self.phase = Phase::Cluster(0);
                        self.stage = ClusterStage::NonReps;
                        if let Some(&cid) = self.order.first() {
                            let non_reps = self.plan.clusters[cid].non_reps();
                            self.notify(non_reps, out);
                        }
                        continue;
                    }
                    break;
                }
                Phase::Cluster(i) => {
                    let Some(&cid) = self.order.get(i) else {
                        self.phase = Phase::Draining;
                        continue;
                    };
                    let cluster = &self.plan.clusters[cid];
                    match self.stage {
                        ClusterStage::Reps => {
                            let reps = cluster.reps.clone();
                            if self.all_passed(&reps) {
                                self.stage = ClusterStage::NonReps;
                                let non_reps = cluster.non_reps();
                                self.notify(non_reps, out);
                                continue;
                            }
                            break;
                        }
                        ClusterStage::NonReps => {
                            let needed = ceil_threshold(cluster.members.len(), self.threshold);
                            if self.cluster_passed[cid] >= needed {
                                if i + 1 < self.order.len() {
                                    self.phase = Phase::Cluster(i + 1);
                                    let next = self.order[i + 1];
                                    if self.global_rep_phase {
                                        self.stage = ClusterStage::NonReps;
                                        let non_reps = self.plan.clusters[next].non_reps();
                                        self.notify(non_reps, out);
                                    } else {
                                        self.stage = ClusterStage::Reps;
                                        let reps = self.plan.clusters[next].reps.clone();
                                        self.notify(reps, out);
                                    }
                                } else {
                                    self.phase = Phase::Draining;
                                }
                                continue;
                            }
                            break;
                        }
                    }
                }
                Phase::Draining => break,
            }
        }
        if !self.completed && self.done() {
            self.completed = true;
            out.push(NamedCommand::Complete);
        }
    }

    fn start(&mut self) -> Vec<NamedCommand> {
        let mut out = Vec::new();
        if self.plan.machine_count() == 0 {
            self.completed = true;
            return vec![NamedCommand::Complete];
        }
        if self.global_rep_phase {
            let reps = self.all_reps();
            self.notify(reps, &mut out);
        } else if let Some(&cid) = self.order.first() {
            let reps = self.plan.clusters[cid].reps.clone();
            self.notify(reps, &mut out);
        }
        self.step(&mut out);
        out
    }

    fn on_report(&mut self, report: &NamedReport) -> Vec<NamedCommand> {
        // Unreliable-channel idempotence (mirrors the interned plane):
        // drop reports for a release older than the machine's latest
        // notification, and never demote a machine that already passed.
        let notified = self
            .notified_release
            .get(&report.machine)
            .copied()
            .unwrap_or(0);
        if report.release.0 < notified
            || self.status.get(&report.machine) == Some(&MachineStatus::Passed)
        {
            return Vec::new();
        }
        let status = match &report.outcome {
            NamedOutcome::Pass => MachineStatus::Passed,
            NamedOutcome::Fail { problem } => {
                self.failed_problem
                    .insert(report.machine.clone(), problem.clone());
                MachineStatus::Failed
            }
        };
        let previous = self.status.insert(report.machine.clone(), status);
        if status == MachineStatus::Passed && previous != Some(MachineStatus::Passed) {
            self.total_passed += 1;
            if let Some(&cid) = self.cluster_of.get(&report.machine) {
                self.cluster_passed[cid] += 1;
                if self.plan.clusters[cid]
                    .reps
                    .iter()
                    .any(|r| r == &report.machine)
                {
                    self.reps_passed += 1;
                }
            }
        }
        let mut out = Vec::new();
        self.step(&mut out);
        out
    }

    fn on_release(&mut self, release: Release, fixed: &BTreeSet<String>) -> Vec<NamedCommand> {
        self.release = release;
        let failed: Vec<String> = self
            .status
            .iter()
            .filter(|(m, s)| {
                **s == MachineStatus::Failed
                    && self
                        .failed_problem
                        .get(*m)
                        .map(|p| fixed.contains(p))
                        .unwrap_or(true)
            })
            .map(|(m, _)| m.clone())
            .collect();
        let mut out = Vec::new();
        self.notify(failed, &mut out);
        self.step(&mut out);
        out
    }

    fn done(&self) -> bool {
        self.total_passed == self.total_machines
    }
}

/// String-keyed Balanced (retained pre-interning implementation).
#[derive(Debug, Clone)]
pub struct NamedBalanced {
    engine: NamedStagedEngine,
    name: &'static str,
}

impl NamedBalanced {
    /// Creates a Balanced deployment (ascending-distance order).
    pub fn new(plan: NamedPlan, threshold: f64) -> Self {
        let order = plan.order_by_distance_asc();
        NamedBalanced {
            engine: NamedStagedEngine::new(plan, order, threshold, false),
            name: "Balanced",
        }
    }

    /// Creates a staged deployment with an explicit cluster order.
    pub(crate) fn with_order(plan: NamedPlan, order: Vec<usize>, threshold: f64) -> Self {
        NamedBalanced {
            engine: NamedStagedEngine::new(plan, order, threshold, false),
            name: "RandomStaging",
        }
    }
}

impl NamedProtocol for NamedBalanced {
    fn name(&self) -> &'static str {
        self.name
    }
    fn start(&mut self) -> Vec<NamedCommand> {
        self.engine.start()
    }
    fn on_report(&mut self, report: &NamedReport) -> Vec<NamedCommand> {
        self.engine.on_report(report)
    }
    fn on_release(&mut self, release: Release, fixed: &BTreeSet<String>) -> Vec<NamedCommand> {
        self.engine.on_release(release, fixed)
    }
    fn done(&self) -> bool {
        self.engine.done()
    }
}

/// String-keyed FrontLoading (retained pre-interning implementation).
#[derive(Debug, Clone)]
pub struct NamedFrontLoading {
    engine: NamedStagedEngine,
}

impl NamedFrontLoading {
    /// Creates a FrontLoading deployment.
    pub fn new(plan: NamedPlan, threshold: f64) -> Self {
        let order = plan.order_by_distance_desc();
        NamedFrontLoading {
            engine: NamedStagedEngine::new(plan, order, threshold, true),
        }
    }
}

impl NamedProtocol for NamedFrontLoading {
    fn name(&self) -> &'static str {
        "FrontLoading"
    }
    fn start(&mut self) -> Vec<NamedCommand> {
        self.engine.start()
    }
    fn on_report(&mut self, report: &NamedReport) -> Vec<NamedCommand> {
        self.engine.on_report(report)
    }
    fn on_release(&mut self, release: Release, fixed: &BTreeSet<String>) -> Vec<NamedCommand> {
        self.engine.on_release(release, fixed)
    }
    fn done(&self) -> bool {
        self.engine.done()
    }
}

/// Enum dispatch over the string-keyed reference protocols — the
/// oracle for [`crate::Staging`], built from the same
/// [`ProtocolChoice`] so equivalence tests construct both planes from
/// one value.
#[derive(Debug, Clone)]
pub enum AnyNamedProtocol {
    /// See [`NamedNoStaging`].
    NoStaging(NamedNoStaging),
    /// See [`NamedBalanced`] (also the RandomStaging baseline).
    Balanced(NamedBalanced),
    /// See [`NamedFrontLoading`].
    FrontLoading(NamedFrontLoading),
}

impl NamedProtocol for AnyNamedProtocol {
    fn name(&self) -> &'static str {
        match self {
            AnyNamedProtocol::NoStaging(p) => p.name(),
            AnyNamedProtocol::Balanced(p) => p.name(),
            AnyNamedProtocol::FrontLoading(p) => p.name(),
        }
    }
    fn start(&mut self) -> Vec<NamedCommand> {
        match self {
            AnyNamedProtocol::NoStaging(p) => p.start(),
            AnyNamedProtocol::Balanced(p) => p.start(),
            AnyNamedProtocol::FrontLoading(p) => p.start(),
        }
    }
    fn on_report(&mut self, report: &NamedReport) -> Vec<NamedCommand> {
        match self {
            AnyNamedProtocol::NoStaging(p) => p.on_report(report),
            AnyNamedProtocol::Balanced(p) => p.on_report(report),
            AnyNamedProtocol::FrontLoading(p) => p.on_report(report),
        }
    }
    fn on_release(&mut self, release: Release, fixed: &BTreeSet<String>) -> Vec<NamedCommand> {
        match self {
            AnyNamedProtocol::NoStaging(p) => p.on_release(release, fixed),
            AnyNamedProtocol::Balanced(p) => p.on_release(release, fixed),
            AnyNamedProtocol::FrontLoading(p) => p.on_release(release, fixed),
        }
    }
    fn done(&self) -> bool {
        match self {
            AnyNamedProtocol::NoStaging(p) => p.done(),
            AnyNamedProtocol::Balanced(p) => p.done(),
            AnyNamedProtocol::FrontLoading(p) => p.done(),
        }
    }
}

impl ProtocolChoice {
    /// Builds the string-keyed reference twin of [`ProtocolChoice::build`]
    /// over a [`NamedPlan`] — same protocol, same order (RandomStaging
    /// uses the identical seeded shuffle), pre-interning data plane.
    pub fn build_named(self, plan: NamedPlan, threshold: f64) -> AnyNamedProtocol {
        match self {
            ProtocolChoice::NoStaging => AnyNamedProtocol::NoStaging(NamedNoStaging::new(plan)),
            ProtocolChoice::Balanced => {
                AnyNamedProtocol::Balanced(NamedBalanced::new(plan, threshold))
            }
            ProtocolChoice::FrontLoading => {
                AnyNamedProtocol::FrontLoading(NamedFrontLoading::new(plan, threshold))
            }
            ProtocolChoice::RandomStaging { seed } => {
                let mut order: Vec<usize> = (0..plan.clusters.len()).collect();
                seeded_shuffle(&mut order, seed);
                AnyNamedProtocol::Balanced(NamedBalanced::with_order(plan, order, threshold))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(specs: &[(&[&str], usize, f64)]) -> NamedPlan {
        NamedPlan {
            clusters: specs
                .iter()
                .enumerate()
                .map(|(id, (members, reps, distance))| NamedCluster {
                    id,
                    members: members.iter().map(|s| s.to_string()).collect(),
                    reps: members.iter().take(*reps).map(|s| s.to_string()).collect(),
                    distance: *distance,
                })
                .collect(),
        }
    }

    fn notified(cmds: &[NamedCommand]) -> Vec<String> {
        cmds.iter()
            .flat_map(|c| match c {
                NamedCommand::Notify { machines, .. } => machines.clone(),
                NamedCommand::Complete => vec![],
            })
            .collect()
    }

    fn pass(machine: &str, release: u32) -> NamedReport {
        NamedReport {
            machine: machine.into(),
            release: Release(release),
            outcome: NamedOutcome::Pass,
        }
    }

    fn fail(machine: &str, release: u32, problem: &str) -> NamedReport {
        NamedReport {
            machine: machine.into(),
            release: Release(release),
            outcome: NamedOutcome::Fail {
                problem: problem.into(),
            },
        }
    }

    #[test]
    fn from_plan_round_trips_names() {
        let p = DeployPlan::from_named([(["a", "b"], 1, 0.5), (["c", "d"], 2, 1.5)]);
        let named = NamedPlan::from_plan(&p);
        assert_eq!(named.clusters.len(), 2);
        assert_eq!(named.clusters[0].members, vec!["a", "b"]);
        assert_eq!(named.clusters[0].reps, vec!["a"]);
        assert_eq!(named.clusters[0].non_reps(), vec!["b"]);
        assert_eq!(named.clusters[1].reps, vec!["c", "d"]);
        assert_eq!(named.clusters[1].distance, 1.5);
        assert_eq!(named.machine_count(), 4);
        assert_eq!(named.order_by_distance_desc(), vec![1, 0]);
    }

    #[test]
    fn named_nostaging_behaves_like_the_old_implementation() {
        let mut p = NamedNoStaging::new(plan(&[(&["a", "b"], 1, 0.0), (&["c"], 1, 1.0)]));
        let cmds = p.start();
        // BTreeMap iteration: lexicographic name order.
        assert_eq!(notified(&cmds), vec!["a", "b", "c"]);
        p.on_report(&pass("a", 0));
        p.on_report(&fail("b", 0, "p1"));
        p.on_report(&pass("c", 0));
        assert!(!p.done());
        let fixed: BTreeSet<String> = ["p1".to_string()].into();
        let cmds = p.on_release(Release(1), &fixed);
        assert_eq!(notified(&cmds), vec!["b"]);
        let cmds = p.on_report(&pass("b", 1));
        assert_eq!(cmds, vec![NamedCommand::Complete]);
    }

    #[test]
    fn named_balanced_walks_distance_order() {
        let mut p = NamedBalanced::new(
            plan(&[(&["f1", "f2"], 1, 5.0), (&["n1", "n2"], 1, 1.0)]),
            1.0,
        );
        assert_eq!(p.name(), "Balanced");
        assert_eq!(notified(&p.start()), vec!["n1"]);
        assert_eq!(notified(&p.on_report(&pass("n1", 0))), vec!["n2"]);
        assert_eq!(notified(&p.on_report(&pass("n2", 0))), vec!["f1"]);
        assert_eq!(notified(&p.on_report(&pass("f1", 0))), vec!["f2"]);
        assert_eq!(p.on_report(&pass("f2", 0)), vec![NamedCommand::Complete]);
    }

    #[test]
    fn named_frontloading_reps_first() {
        let mut p = NamedFrontLoading::new(
            plan(&[(&["a1", "a2"], 1, 1.0), (&["b1", "b2"], 1, 5.0)]),
            1.0,
        );
        assert_eq!(p.name(), "FrontLoading");
        let mut reps = notified(&p.start());
        reps.sort();
        assert_eq!(reps, vec!["a1", "b1"]);
        assert!(notified(&p.on_report(&pass("a1", 0))).is_empty());
        // Farthest cluster's non-reps first in phase 2.
        assert_eq!(notified(&p.on_report(&pass("b1", 0))), vec!["b2"]);
    }

    #[test]
    fn named_with_order_is_random_staging() {
        let mut p =
            NamedBalanced::with_order(plan(&[(&["a"], 1, 1.0), (&["b"], 1, 2.0)]), vec![1, 0], 1.0);
        assert_eq!(p.name(), "RandomStaging");
        assert_eq!(notified(&p.start()), vec!["b"]);
    }

    /// Regression (unreliable channels): replaying an already-delivered
    /// report to any reference protocol must be a strict no-op — no
    /// commands, no `done()` flapping, and no re-notifications that
    /// would inflate `deploy.machines_notified` on the interned twin.
    #[test]
    fn duplicate_reports_are_no_ops_in_all_reference_protocols() {
        let specs: &[(&[&str], usize, f64)] = &[(&["a", "b"], 1, 1.0), (&["c", "d"], 1, 2.0)];
        let protos: Vec<Box<dyn NamedProtocol>> = vec![
            Box::new(NamedNoStaging::new(plan(specs))),
            Box::new(NamedBalanced::new(plan(specs), 1.0)),
            Box::new(NamedFrontLoading::new(plan(specs), 1.0)),
        ];
        for mut p in protos {
            let name = p.name();
            let first = notified(&p.start());
            // Duplicate Pass: second delivery emits nothing new.
            let target = first.first().expect("start notifies someone").clone();
            let once = p.on_report(&pass(&target, 0));
            let again = p.on_report(&pass(&target, 0));
            assert!(
                again.is_empty(),
                "{name}: duplicate pass re-emitted {again:?}"
            );
            // A duplicated *fail* for the same (now passed) machine must
            // not demote it either.
            let demote = p.on_report(&fail(&target, 0, "ghost"));
            assert!(demote.is_empty(), "{name}: late fail demoted a pass");
            let _ = once;
        }
    }

    /// Stale reports for a superseded release are dropped: a machine
    /// re-notified for release 1 ignores a replayed release-0 failure.
    #[test]
    fn stale_release_reports_are_dropped() {
        let mut p = NamedNoStaging::new(plan(&[(&["a", "b"], 1, 0.0)]));
        p.start();
        p.on_report(&fail("a", 0, "p1"));
        p.on_report(&pass("b", 0));
        let fixed: BTreeSet<String> = ["p1".to_string()].into();
        let cmds = p.on_release(Release(1), &fixed);
        assert_eq!(notified(&cmds), vec!["a"]);
        // The channel replays the old release-0 failure: ignored.
        assert!(p.on_report(&fail("a", 0, "p1")).is_empty());
        assert!(!p.done());
        // The genuine release-1 pass still lands.
        let cmds = p.on_report(&pass("a", 1));
        assert_eq!(cmds, vec![NamedCommand::Complete]);
        assert!(p.done());
    }

    #[test]
    fn build_named_mirrors_protocol_choice() {
        let dp = DeployPlan::from_named([(["a", "b"], 1, 1.0), (["c", "d"], 1, 2.0)]);
        let named = NamedPlan::from_plan(&dp);
        for choice in [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 9 },
        ] {
            let mut p = choice.build_named(named.clone(), 1.0);
            assert_eq!(p.name(), choice.name());
            assert!(!p.start().is_empty());
            assert_eq!(p.rep_timeouts(), 0);
            assert!(p.on_tick(10).is_empty(), "reference plane never ticks");
        }
    }
}
