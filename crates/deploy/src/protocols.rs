//! The staged deployment engine behind all four protocols.
//!
//! All protocol state is indexed by dense [`MachineId`]s: per-machine
//! status and failure signatures live in flat `Vec`s, representative
//! membership in a [`MachineSet`] bitset, and the cumulative fixed-set
//! consulted on each release is a [`ProblemSet`]. A report is handled
//! with a handful of array indexings — no string hashing, no tree
//! walks, no allocation. The string-keyed implementations are retained
//! in [`crate::reference`] for equivalence testing.

use mirage_telemetry::{FlightEvent, JournalEvent, Telemetry};

use crate::ids::{MachineId, MachineSet, ProblemId, ProblemSet};
use crate::plan::DeployPlan;
use crate::protocol::{
    Command, MachineStatus, Protocol, Release, SimTime, TestOutcome, TestReport,
};

/// Sentinel progress marker meaning "no tick observed yet".
const NO_MARKER: (usize, u32) = (usize::MAX, u32::MAX);

/// How many members of a `total`-machine cluster must pass before the
/// deployment wave advances, at pass-fraction `threshold`.
///
/// Clamped to at least one machine for non-empty clusters — a
/// `threshold` of `0.0` must not let a wave skip a cluster nobody has
/// tested (this mirrors the `.max(1.0)` in `mirage-sim`'s latency
/// accounting, keeping protocol advancement and latency scoring
/// consistent). Empty clusters need zero passes.
fn ceil_threshold(total: usize, threshold: f64) -> usize {
    if total == 0 {
        return 0;
    }
    (((total as f64) * threshold).ceil() as usize).max(1)
}

/// Deduplicated machine list in plan order (== ascending id order,
/// because the plan's table interns members front to back).
fn unique_machines(plan: &DeployPlan) -> Vec<MachineId> {
    let mut machines = Vec::with_capacity(plan.machines.len());
    let mut seen = MachineSet::new();
    for m in plan.all_machines() {
        if seen.insert(m) {
            machines.push(m);
        }
    }
    machines
}

/// Who tests in phase 1, in parallel, before the first cluster wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Front {
    /// Nobody: wave 0 opens with the first cluster's representatives.
    None,
    /// Every representative of every cluster (FrontLoading). The waves
    /// then notify non-representatives only.
    Reps,
    /// Every machine: one giant cluster, everyone a representative
    /// (NoStaging). Paired with an empty cluster order.
    Everyone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Phase 1: the front tests in parallel.
    Front,
    /// Sequential deployment at position `i` of the order.
    Cluster(usize),
    /// All clusters advanced; waiting for stragglers.
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterStage {
    Reps,
    NonReps,
}

/// Sentinel for "machine belongs to no cluster" in the dense
/// machine→cluster index.
const NO_CLUSTER: u32 = u32::MAX;

/// A staged deployment (paper §3.2, §4.3): a phase-1 *front* tests in
/// parallel, then clusters deploy one at a time in a fixed *order* —
/// representatives first, non-representatives once every representative
/// passed — and the wave advances once `threshold` of a cluster passed.
///
/// NoStaging, Balanced, RandomStaging and FrontLoading are four
/// configurations of this one engine;
/// [`ProtocolChoice::build`](crate::ProtocolChoice::build) is its only
/// constructor and holds the table.
#[derive(Debug, Clone)]
pub struct Staging {
    name: &'static str,
    plan: DeployPlan,
    front: Front,
    order: Vec<usize>,
    threshold: f64,
    /// Per-machine status, indexed by [`MachineId`].
    status: Vec<MachineStatus>,
    /// Deduplicated machine list in plan (== id) order.
    machines: Vec<MachineId>,
    /// Machine → cluster index (last containing cluster wins), for O(1)
    /// counter updates. [`NO_CLUSTER`] when unclustered.
    cluster_of: Vec<u32>,
    /// Machines that count as representatives *of their own cluster*
    /// (per `cluster_of`), so `reps_passed` matches the rep definition
    /// the wave logic uses.
    counted_rep: MachineSet,
    /// Passed-machine count per cluster index.
    cluster_passed: Vec<usize>,
    /// Passed representatives (fleet-wide).
    reps_passed: usize,
    total_reps: usize,
    total_passed: usize,
    release: Release,
    phase: Phase,
    stage: ClusterStage,
    /// Last failure signature per machine, for targeted re-notification.
    failed_problem: Vec<Option<ProblemId>>,
    /// Release each machine was most recently notified for; reports
    /// carrying an older release are stale duplicates and ignored.
    notified_release: Vec<u32>,
    /// Machines waived by timeout-based degradation; disjoint from
    /// `Passed` machines (a report un-waives).
    waived: MachineSet,
    /// Waived-machine count per cluster index (mirrors
    /// `cluster_passed` in the wave-advancement arithmetic).
    cluster_waived: Vec<usize>,
    /// Waived counted representatives (mirrors `reps_passed`).
    waived_reps: usize,
    /// Cumulative waived-machine count (`deploy.rep_timeouts`).
    timeouts: u64,
    /// Stall detector state: last `(passed + waived, release)` marker
    /// and when it last moved.
    last_marker: (usize, u32),
    last_change: SimTime,
    completed: bool,
    telemetry: Telemetry,
}

impl Staging {
    /// One row of [`crate::ProtocolChoice::build`]'s table: `order`
    /// lists cluster indexes (every one once, or none behind
    /// [`Front::Everyone`]).
    pub(crate) fn new(
        name: &'static str,
        plan: DeployPlan,
        front: Front,
        order: Vec<usize>,
        threshold: f64,
    ) -> Self {
        let n = plan.machines.len();
        let machines = unique_machines(&plan);
        let mut cluster_of = vec![NO_CLUSTER; n];
        for (i, c) in plan.clusters.iter().enumerate() {
            for &m in &c.members {
                assert!(m.index() < n, "cluster member {m} outside machine table");
                cluster_of[m.index()] = i as u32;
            }
        }
        let mut counted_rep = MachineSet::new();
        for (i, c) in plan.clusters.iter().enumerate() {
            for &r in &c.reps {
                if cluster_of[r.index()] == i as u32 {
                    counted_rep.insert(r);
                }
            }
        }
        let total_reps = plan.clusters.iter().map(|c| c.reps.len()).sum();
        let cluster_count = plan.clusters.len();
        Staging {
            name,
            plan,
            front,
            order,
            threshold,
            status: vec![MachineStatus::Idle; n],
            machines,
            cluster_of,
            counted_rep,
            cluster_passed: vec![0; cluster_count],
            reps_passed: 0,
            total_reps,
            total_passed: 0,
            release: Release(0),
            phase: if front == Front::None {
                Phase::Cluster(0)
            } else {
                Phase::Front
            },
            stage: ClusterStage::Reps,
            failed_problem: vec![None; n],
            notified_release: vec![0; n],
            waived: MachineSet::new(),
            cluster_waived: vec![0; cluster_count],
            waived_reps: 0,
            timeouts: 0,
            last_marker: NO_MARKER,
            last_change: 0,
            completed: false,
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle recording notification counters and
    /// wave-advance events.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn notify(&mut self, machines: Vec<MachineId>, out: &mut Vec<Command>) {
        let fresh: Vec<MachineId> = machines
            .into_iter()
            .filter(|m| {
                matches!(
                    self.status[m.index()],
                    MachineStatus::Idle | MachineStatus::Failed
                )
            })
            .collect();
        if fresh.is_empty() {
            return;
        }
        for &m in &fresh {
            self.status[m.index()] = MachineStatus::Testing;
            self.notified_release[m.index()] = self.release.0;
        }
        self.telemetry.counter("deploy.notify_commands", 1);
        self.telemetry
            .counter("deploy.machines_notified", fresh.len() as u64);
        out.push(Command::Notify {
            machines: fresh,
            release: self.release,
        });
    }

    fn all_passed(&self, machines: &[MachineId]) -> bool {
        machines
            .iter()
            .all(|m| self.status[m.index()] == MachineStatus::Passed || self.waived.contains(*m))
    }

    /// Phase 1's machines, in notification order.
    fn front_machines(&self) -> Vec<MachineId> {
        match self.front {
            Front::None => Vec::new(),
            Front::Reps => self
                .plan
                .clusters
                .iter()
                .flat_map(|c| c.reps.iter().copied())
                .collect(),
            Front::Everyone => self.machines.clone(),
        }
    }

    /// Phase 1's `(passed + waived, members)`: it ends when they meet.
    fn front_progress(&self) -> (usize, usize) {
        match self.front {
            Front::Reps => (self.reps_passed + self.waived_reps, self.total_reps),
            Front::None | Front::Everyone => {
                (self.total_passed + self.waived.len(), self.machines.len())
            }
        }
    }

    /// Moves the wave to position `wave` of the order and notifies its
    /// first stage — non-representatives straight away when a front
    /// already tested the representatives — or drains past the end.
    fn open_wave(&mut self, wave: usize, out: &mut Vec<Command>) {
        let Some(&cid) = self.order.get(wave) else {
            self.phase = Phase::Draining;
            return;
        };
        self.phase = Phase::Cluster(wave);
        self.telemetry.counter("deploy.waves_advanced", 1);
        self.telemetry
            .event(FlightEvent::WaveAdvanced { wave, cluster: cid });
        self.telemetry.journal(JournalEvent::WaveAdvance {
            wave: wave as u32,
            cluster: cid as u32,
        });
        let cluster = &self.plan.clusters[cid];
        let machines = if self.front == Front::None {
            self.stage = ClusterStage::Reps;
            cluster.reps.clone()
        } else {
            self.stage = ClusterStage::NonReps;
            cluster.non_reps()
        };
        self.notify(machines, out);
    }

    /// Runs phase/stage transitions until quiescent, collecting commands.
    fn step(&mut self, out: &mut Vec<Command>) {
        loop {
            match self.phase {
                Phase::Front => {
                    let (settled, members) = self.front_progress();
                    if settled < members {
                        break;
                    }
                    self.open_wave(0, out);
                }
                Phase::Cluster(i) => {
                    let Some(&cid) = self.order.get(i) else {
                        self.phase = Phase::Draining;
                        continue;
                    };
                    let cluster = &self.plan.clusters[cid];
                    match self.stage {
                        ClusterStage::Reps => {
                            if !self.all_passed(&cluster.reps) {
                                break;
                            }
                            self.stage = ClusterStage::NonReps;
                            let non_reps = cluster.non_reps();
                            self.notify(non_reps, out);
                        }
                        ClusterStage::NonReps => {
                            let needed = ceil_threshold(cluster.members.len(), self.threshold);
                            if self.cluster_passed[cid] + self.cluster_waived[cid] < needed {
                                break;
                            }
                            self.open_wave(i + 1, out);
                        }
                    }
                }
                Phase::Draining => break,
            }
        }
        if !self.completed && self.done() {
            self.completed = true;
            out.push(Command::Complete);
        }
    }
}

impl Protocol for Staging {
    fn name(&self) -> &'static str {
        self.name
    }

    fn start(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        if self.machines.is_empty() {
            self.completed = true;
            return vec![Command::Complete];
        }
        let first = match (self.front, self.order.first()) {
            (Front::None, Some(&cid)) => self.plan.clusters[cid].reps.clone(),
            _ => self.front_machines(),
        };
        self.notify(first, &mut out);
        self.step(&mut out);
        out
    }

    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        let idx = report.machine.index();
        // Unreliable-channel idempotence: drop stale reports for a
        // release older than the machine's latest notification, and
        // never demote a machine that already passed (a duplicated
        // delivery must be a strict no-op).
        if report.release.0 < self.notified_release[idx]
            || self.status[idx] == MachineStatus::Passed
        {
            return Vec::new();
        }
        // Any report proves the machine is alive: un-waive it (and back
        // out its virtual-pass contribution) so the wave arithmetic
        // waits for its real outcome instead.
        if self.waived.remove(report.machine) {
            let cid = self.cluster_of[idx];
            if cid != NO_CLUSTER {
                self.cluster_waived[cid as usize] -= 1;
                if self.counted_rep.contains(report.machine) {
                    self.waived_reps -= 1;
                }
            }
        }
        let status = match report.outcome {
            TestOutcome::Pass => MachineStatus::Passed,
            TestOutcome::Fail { problem } => {
                self.failed_problem[idx] = Some(problem);
                MachineStatus::Failed
            }
        };
        let previous = std::mem::replace(&mut self.status[idx], status);
        if status == MachineStatus::Passed && previous != MachineStatus::Passed {
            self.total_passed += 1;
            let cid = self.cluster_of[idx];
            if cid != NO_CLUSTER {
                self.cluster_passed[cid as usize] += 1;
                if self.counted_rep.contains(report.machine) {
                    self.reps_passed += 1;
                }
            }
        }
        let mut out = Vec::new();
        self.step(&mut out);
        out
    }

    /// Applies the longest prefix of pass reports whose individual
    /// `on_report` calls would all have been silent — no waiver
    /// back-out, no wave advance, no completion — and stops at the
    /// first report that needs the full path.
    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        let mut absorbed = 0;
        for &(m, r) in reports {
            let idx = m.index();
            if r.0 < self.notified_release[idx] || self.status[idx] == MachineStatus::Passed {
                // Stale or duplicated delivery: a strict no-op.
                absorbed += 1;
                continue;
            }
            if self.waived.contains(m) {
                // Un-waiving backs out wave arithmetic — slow path.
                break;
            }
            let cid = self.cluster_of[idx];
            let is_rep = cid != NO_CLUSTER && self.counted_rep.contains(m);
            // `step()` ran to quiescence after the previous mutation, so
            // the only transition this pass could trigger is the one its
            // own counter bump feeds. Stop one short of that bound.
            match self.phase {
                Phase::Front => {
                    let (settled, members) = self.front_progress();
                    let counts = self.front == Front::Everyone || is_rep;
                    if counts && settled + 1 == members {
                        break;
                    }
                }
                Phase::Cluster(i) => {
                    let Some(&active) = self.order.get(i) else {
                        break;
                    };
                    match self.stage {
                        ClusterStage::Reps => {
                            if self.plan.clusters[active].reps.contains(&m) {
                                // Could be the last rep the stage waits
                                // for (the stage checks the literal reps
                                // list, not `counted_rep`); let
                                // `on_report` decide.
                                break;
                            }
                        }
                        ClusterStage::NonReps => {
                            if cid == active as u32 {
                                let needed = ceil_threshold(
                                    self.plan.clusters[active].members.len(),
                                    self.threshold,
                                );
                                if self.cluster_passed[active] + 1 + self.cluster_waived[active]
                                    >= needed
                                {
                                    break;
                                }
                            }
                        }
                    }
                }
                Phase::Draining => {}
            }
            if !self.completed && self.total_passed + 1 + self.waived.len() == self.machines.len() {
                break;
            }
            // Mirror of `on_report`'s pass path, transitions excluded.
            self.status[idx] = MachineStatus::Passed;
            self.total_passed += 1;
            if cid != NO_CLUSTER {
                self.cluster_passed[cid as usize] += 1;
                if is_rep {
                    self.reps_passed += 1;
                }
            }
            absorbed += 1;
        }
        absorbed
    }

    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        self.release = release;
        let failed: Vec<MachineId> = self
            .machines
            .iter()
            .copied()
            .filter(|m| {
                self.status[m.index()] == MachineStatus::Failed
                    && self.failed_problem[m.index()].is_none_or(|p| fixed.contains(p))
            })
            .collect();
        let mut out = Vec::new();
        self.notify(failed, &mut out);
        self.step(&mut out);
        out
    }

    /// Timeout-based stage advancement (paper §5's offline-machine
    /// degradation): when the `(passed + waived, release)` progress
    /// marker has not moved for `stall_budget` ticks, the machines
    /// blocking the *current* phase that are still marked `Testing` are
    /// waived — their reports (and the driver's retries) would have
    /// arrived by now if they were coming — and the wave advances.
    fn on_tick(&mut self, now: SimTime, stall_budget: Option<SimTime>) -> Vec<Command> {
        let Some(budget) = stall_budget else {
            return Vec::new();
        };
        if self.completed {
            return Vec::new();
        }
        let marker = (self.total_passed + self.waived.len(), self.release.0);
        if marker != self.last_marker {
            self.last_marker = marker;
            self.last_change = now;
            return Vec::new();
        }
        if now.saturating_sub(self.last_change) < budget {
            return Vec::new();
        }
        let targets: Vec<MachineId> = match self.phase {
            Phase::Front => self.front_machines(),
            Phase::Cluster(i) => {
                let cluster = &self.plan.clusters[self.order[i]];
                match self.stage {
                    ClusterStage::Reps => cluster.reps.clone(),
                    ClusterStage::NonReps => cluster.members.clone(),
                }
            }
            Phase::Draining => self.machines.clone(),
        };
        let mut waived_any = false;
        for m in targets {
            let idx = m.index();
            if self.status[idx] == MachineStatus::Testing && self.waived.insert(m) {
                self.timeouts += 1;
                self.telemetry.journal(JournalEvent::Waiver {
                    machine: m.index() as u32,
                    release: self.release.0,
                });
                let cid = self.cluster_of[idx];
                if cid != NO_CLUSTER {
                    self.cluster_waived[cid as usize] += 1;
                    if self.counted_rep.contains(m) {
                        self.waived_reps += 1;
                    }
                }
                waived_any = true;
            }
        }
        self.last_change = now;
        let mut out = Vec::new();
        if waived_any {
            self.step(&mut out);
        }
        out
    }

    fn rep_timeouts(&self) -> u64 {
        self.timeouts
    }

    fn done(&self) -> bool {
        self.total_passed + self.waived.len() == self.machines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ProtocolChoice;
    use crate::protocol::TestOutcome;

    fn plan(specs: &[(&[&str], usize, f64)]) -> DeployPlan {
        DeployPlan::from_named(
            specs
                .iter()
                .map(|(members, reps, distance)| (members.iter().copied(), *reps, *distance)),
        )
    }

    /// Renders notified machines back to names via the plan's table.
    fn notified(plan: &DeployPlan, cmds: &[Command]) -> Vec<String> {
        cmds.iter()
            .flat_map(|c| match c {
                Command::Notify { machines, .. } => machines
                    .iter()
                    .map(|&m| plan.machine_name(m).to_string())
                    .collect(),
                Command::Complete => Vec::new(),
            })
            .collect()
    }

    fn pass(plan: &DeployPlan, machine: &str, release: u32) -> TestReport {
        TestReport {
            machine: plan.machine_id(machine).expect("machine in plan"),
            release: Release(release),
            outcome: TestOutcome::Pass,
        }
    }

    fn fail(plan: &DeployPlan, machine: &str, release: u32, problem: u16) -> TestReport {
        TestReport {
            machine: plan.machine_id(machine).expect("machine in plan"),
            release: Release(release),
            outcome: TestOutcome::Fail {
                problem: ProblemId(problem),
            },
        }
    }

    fn fixed(problems: &[u16]) -> ProblemSet {
        let mut s = ProblemSet::new();
        for &p in problems {
            s.insert(ProblemId(p));
        }
        s
    }

    #[test]
    fn nostaging_notifies_everyone_then_retries_failures() {
        let pl = plan(&[(&["a", "b"], 1, 0.0), (&["c"], 1, 1.0)]);
        let mut p = ProtocolChoice::NoStaging.build(pl.clone(), 1.0);
        let cmds = p.start();
        let mut all = notified(&pl, &cmds);
        all.sort();
        assert_eq!(all, vec!["a", "b", "c"]);
        assert!(p.on_report(&pass(&pl, "a", 0)).is_empty());
        assert!(p.on_report(&fail(&pl, "b", 0, 1)).is_empty());
        assert!(p.on_report(&pass(&pl, "c", 0)).is_empty());
        assert!(!p.done());
        // Fixed release: only the failed machine is re-notified.
        let cmds = p.on_release(Release(1), &fixed(&[0, 1]));
        assert_eq!(notified(&pl, &cmds), vec!["b"]);
        let cmds = p.on_report(&pass(&pl, "b", 1));
        assert_eq!(cmds, vec![Command::Complete]);
        assert!(p.done());
    }

    #[test]
    fn nostaging_skips_failures_whose_problem_is_still_open() {
        let pl = plan(&[(&["a", "b"], 1, 0.0)]);
        let mut p = ProtocolChoice::NoStaging.build(pl.clone(), 1.0);
        p.start();
        p.on_report(&fail(&pl, "a", 0, 7));
        p.on_report(&fail(&pl, "b", 0, 8));
        // Release fixing only problem 7 re-notifies only "a".
        let cmds = p.on_release(Release(1), &fixed(&[7]));
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
    }

    #[test]
    fn balanced_walks_clusters_in_distance_order() {
        // near (distance 1) then far (distance 5).
        let pl = plan(&[(&["f1", "f2"], 1, 5.0), (&["n1", "n2"], 1, 1.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 1.0);
        // Start: reps of the nearest cluster only.
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["n1"]);
        // Rep passes → non-reps of that cluster.
        let cmds = p.on_report(&pass(&pl, "n1", 0));
        assert_eq!(notified(&pl, &cmds), vec!["n2"]);
        // Cluster complete → next cluster's rep.
        let cmds = p.on_report(&pass(&pl, "n2", 0));
        assert_eq!(notified(&pl, &cmds), vec!["f1"]);
        let cmds = p.on_report(&pass(&pl, "f1", 0));
        assert_eq!(notified(&pl, &cmds), vec!["f2"]);
        let cmds = p.on_report(&pass(&pl, "f2", 0));
        assert_eq!(cmds, vec![Command::Complete]);
    }

    #[test]
    fn balanced_rep_failure_stalls_until_release() {
        let pl = plan(&[(&["a", "b"], 1, 0.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        // Rep fails: nothing moves.
        assert!(p.on_report(&fail(&pl, "a", 0, 1)).is_empty());
        // Fix ships: rep re-notified.
        let cmds = p.on_release(Release(1), &fixed(&[0, 1]));
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        // Rep passes → non-rep notified with the *fixed* release.
        let cmds = p.on_report(&pass(&pl, "a", 1));
        match &cmds[0] {
            Command::Notify { machines, release } => {
                assert_eq!(machines, &vec![pl.machine_id("b").unwrap()]);
                assert_eq!(*release, Release(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmds = p.on_report(&pass(&pl, "b", 1));
        assert_eq!(cmds, vec![Command::Complete]);
    }

    #[test]
    fn threshold_advances_past_stragglers() {
        // threshold 0.5: cluster advances once half its machines passed.
        let pl = plan(&[(&["a", "b", "c", "d"], 1, 0.0), (&["z"], 1, 9.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 0.5);
        p.start();
        let cmds = p.on_report(&pass(&pl, "a", 0));
        assert_eq!(notified(&pl, &cmds), vec!["b", "c", "d"]);
        // 2/4 passed (a + b) → threshold met → next cluster despite c, d
        // still testing.
        let cmds = p.on_report(&pass(&pl, "b", 0));
        assert!(notified(&pl, &cmds).contains(&"z".to_string()));
        assert!(p.on_report(&fail(&pl, "c", 0, 1)).is_empty());
        // The straggler still gets the fix later.
        p.on_report(&pass(&pl, "d", 0));
        p.on_report(&pass(&pl, "z", 0));
        assert!(!p.done());
        let cmds = p.on_release(Release(1), &fixed(&[0, 1]));
        assert_eq!(notified(&pl, &cmds), vec!["c"]);
        let cmds = p.on_report(&pass(&pl, "c", 1));
        assert_eq!(cmds, vec![Command::Complete]);
    }

    #[test]
    fn frontloading_tests_all_reps_first() {
        let pl = plan(&[(&["a1", "a2"], 1, 1.0), (&["b1", "b2"], 1, 5.0)]);
        let mut p = ProtocolChoice::FrontLoading.build(pl.clone(), 1.0);
        // Phase 1: all reps in parallel.
        let cmds = p.start();
        let mut reps = notified(&pl, &cmds);
        reps.sort();
        assert_eq!(reps, vec!["a1", "b1"]);
        // One rep fails; the other passes. Phase 2 must not start.
        assert!(p.on_report(&fail(&pl, "b1", 0, 1)).is_empty());
        assert!(p.on_report(&pass(&pl, "a1", 0)).is_empty());
        // Fix ships; failed rep re-tests.
        let cmds = p.on_release(Release(1), &fixed(&[0, 1]));
        assert_eq!(notified(&pl, &cmds), vec!["b1"]);
        // All reps passed → phase 2 starts at the *farthest* cluster (b).
        let cmds = p.on_report(&pass(&pl, "b1", 1));
        assert_eq!(notified(&pl, &cmds), vec!["b2"]);
        let cmds = p.on_report(&pass(&pl, "b2", 1));
        assert_eq!(notified(&pl, &cmds), vec!["a2"]);
        let cmds = p.on_report(&pass(&pl, "a2", 1));
        assert_eq!(cmds, vec![Command::Complete]);
    }

    #[test]
    fn random_staging_uses_given_order() {
        let pl = plan(&[(&["a"], 1, 1.0), (&["b"], 1, 2.0), (&["c"], 1, 3.0)]);
        let mut p = Staging::new("RandomStaging", pl.clone(), Front::None, vec![2, 0, 1], 1.0);
        assert_eq!(p.name(), "RandomStaging");
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["c"]);
        let cmds = p.on_report(&pass(&pl, "c", 0));
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        let cmds = p.on_report(&pass(&pl, "a", 0));
        assert_eq!(notified(&pl, &cmds), vec!["b"]);
    }

    #[test]
    fn empty_plan_completes_immediately() {
        let mut p = ProtocolChoice::NoStaging.build(DeployPlan::default(), 1.0);
        assert_eq!(p.start(), vec![Command::Complete]);
        let mut p = ProtocolChoice::Balanced.build(DeployPlan::default(), 1.0);
        assert_eq!(p.start(), vec![Command::Complete]);
        let mut p = ProtocolChoice::FrontLoading.build(DeployPlan::default(), 1.0);
        assert_eq!(p.start(), vec![Command::Complete]);
    }

    #[test]
    fn single_member_clusters_cascade() {
        // Clusters whose only member is the rep: non-rep stage is empty
        // and must cascade to the next cluster without extra reports.
        let pl = plan(&[(&["a"], 1, 1.0), (&["b"], 1, 2.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        let cmds = p.on_report(&pass(&pl, "a", 0));
        assert_eq!(notified(&pl, &cmds), vec!["b"]);
        let cmds = p.on_report(&pass(&pl, "b", 0));
        assert_eq!(cmds, vec![Command::Complete]);
        assert!(p.done());
    }

    #[test]
    fn ceil_threshold_clamps_to_one_for_nonempty_clusters() {
        // Empty clusters need zero passes.
        assert_eq!(ceil_threshold(0, 0.0), 0);
        assert_eq!(ceil_threshold(0, 1.0), 0);
        // A zero threshold must still require one pass.
        assert_eq!(ceil_threshold(4, 0.0), 1);
        assert_eq!(ceil_threshold(1, 0.0), 1);
        // Ordinary fractions round up.
        assert_eq!(ceil_threshold(4, 0.5), 2);
        assert_eq!(ceil_threshold(5, 0.5), 3);
        assert_eq!(ceil_threshold(4, 1.0), 4);
        // Tiny thresholds on large clusters clamp up to one, not zero.
        assert_eq!(ceil_threshold(1_000, 0.0), 1);
    }

    #[test]
    fn zero_threshold_waits_for_first_pass() {
        // With threshold 0.0 the wave must not skip a cluster before at
        // least one of its machines (the rep) has passed.
        let pl = plan(&[(&["a", "b"], 1, 1.0), (&["z"], 1, 9.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 0.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        // Only once the rep passes does the wave advance (threshold met
        // by that single pass) — and the non-rep is still notified.
        let cmds = p.on_report(&pass(&pl, "a", 0));
        let mut next = notified(&pl, &cmds);
        next.sort();
        assert_eq!(next, vec!["b", "z"]);
    }

    #[test]
    fn empty_cluster_in_plan_is_skipped() {
        // A degenerate plan containing an empty cluster must cascade
        // straight through it rather than stalling forever.
        let pl = plan(&[(&["a"], 1, 0.0), (&[], 1, 1.0), (&["c"], 1, 2.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        // Passing "a" advances through the empty cluster to "c".
        let cmds = p.on_report(&pass(&pl, "a", 0));
        assert_eq!(notified(&pl, &cmds), vec!["c"]);
        let cmds = p.on_report(&pass(&pl, "c", 0));
        assert_eq!(cmds, vec![Command::Complete]);
        assert!(p.done());
    }

    /// Timeout-based degradation: a representative that never reports is
    /// waived after the quiet-time budget, the wave advances, and the
    /// `rep_timeouts` counter records the waiver. A late report from the
    /// resurrected machine un-waives it and counts its real outcome.
    #[test]
    fn rep_timeout_waives_crashed_rep_and_advances() {
        let pl = plan(&[(&["a", "b"], 1, 1.0), (&["z"], 1, 9.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        // Without a budget a tick never waives.
        assert!(p.on_tick(1_000, None).is_empty());
        // First tick records the progress marker; the second is inside
        // the budget; the third crosses it and waives the silent rep.
        assert!(p.on_tick(10, Some(100)).is_empty());
        assert!(p.on_tick(50, Some(100)).is_empty());
        let cmds = p.on_tick(120, Some(100));
        assert_eq!(notified(&pl, &cmds), vec!["b"], "waiver advanced the wave");
        assert_eq!(p.rep_timeouts(), 1);
        // Threshold 1.0 over {a, b}: the waived rep plus b's pass meet
        // the wave-advance arithmetic.
        let cmds = p.on_report(&pass(&pl, "b", 0));
        assert!(notified(&pl, &cmds).contains(&"z".to_string()));
        let cmds = p.on_report(&pass(&pl, "z", 0));
        assert_eq!(cmds, vec![Command::Complete]);
        assert!(p.done());
        // The "crashed" rep resurrects with a late pass: un-waived and
        // counted for real; the deployment stays done.
        p.on_report(&pass(&pl, "a", 0));
        assert!(p.done());
        assert_eq!(p.rep_timeouts(), 1, "cumulative counter never decrements");
    }

    /// NoStaging's front is the whole fleet: a stall waives every
    /// machine still testing and completes around them.
    #[test]
    fn nostaging_stall_waives_every_silent_machine() {
        let pl = plan(&[(&["a", "b"], 1, 1.0), (&["z"], 1, 9.0)]);
        let mut p = ProtocolChoice::NoStaging.build(pl.clone(), 1.0);
        p.start();
        assert!(p.on_report(&pass(&pl, "a", 0)).is_empty());
        assert!(p.on_tick(10, Some(100)).is_empty());
        assert_eq!(p.on_tick(110, Some(100)), vec![Command::Complete]);
        assert_eq!(p.rep_timeouts(), 2, "b and z were waived");
        assert!(p.done());
    }

    /// Regression (unreliable channels): replaying an already-delivered
    /// report must not change `deploy.machines_notified` — a duplicated
    /// Pass/Fail delivery is a strict no-op and triggers no
    /// re-notification wave.
    #[test]
    fn replayed_reports_leave_machines_notified_unchanged() {
        use std::sync::Arc;

        use mirage_telemetry::Registry;

        let pl = plan(&[(&["a", "b"], 1, 1.0), (&["z"], 1, 9.0)]);
        for choice in [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
        ] {
            let name = choice.name();
            let registry = Arc::new(Registry::new(64));
            let mut p = choice
                .build(pl.clone(), 1.0)
                .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
            let cmds = p.start();
            let first = match &cmds[0] {
                Command::Notify { machines, .. } => machines[0],
                other => panic!("{name}: unexpected {other:?}"),
            };
            let report = TestReport {
                machine: first,
                release: Release(0),
                outcome: TestOutcome::Pass,
            };
            p.on_report(&report);
            let before = registry.snapshot().counters["deploy.machines_notified"];
            // Replay the same report three times: counters must not move
            // and no commands may be emitted.
            for _ in 0..3 {
                assert!(
                    p.on_report(&report).is_empty(),
                    "{name}: replayed report emitted commands"
                );
            }
            let after = registry.snapshot().counters["deploy.machines_notified"];
            assert_eq!(before, after, "{name}: replay changed machines_notified");
        }
    }

    /// The batch fast path must be observationally identical to the
    /// per-report path: drive the same pass storm through `on_report`
    /// alone and through `absorb_passes` + `on_report` fallback, and
    /// compare every emitted command stream.
    #[test]
    fn absorb_passes_matches_on_report() {
        let pl = plan(&[
            (&["a0", "a1", "a2", "a3"], 1, 1.0),
            (&["b0", "b1", "b2", "b3"], 2, 2.0),
        ]);
        for choice in [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 5 },
        ] {
            for threshold in [1.0, 0.75, 0.5] {
                let mut slow = choice.build(pl.clone(), threshold);
                let mut fast = choice.build(pl.clone(), threshold);
                let mut slow_cmds = slow.start();
                assert_eq!(slow_cmds, fast.start());
                // Keep delivering passes for whatever was notified until
                // both complete, replaying each report once (duplicate).
                for round in 0..8 {
                    let notified: Vec<(MachineId, Release)> = slow_cmds
                        .iter()
                        .flat_map(|c| match c {
                            Command::Notify { machines, release } => {
                                machines.iter().map(|&m| (m, *release)).collect()
                            }
                            Command::Complete => Vec::new(),
                        })
                        .collect();
                    if notified.is_empty() {
                        break;
                    }
                    // Duplicate every other report to exercise the
                    // stale/duplicate absorption arm.
                    let mut reports = Vec::new();
                    for (i, &r) in notified.iter().enumerate() {
                        reports.push(r);
                        if i % 2 == 1 {
                            reports.push(r);
                        }
                    }
                    slow_cmds = Vec::new();
                    for &(m, release) in &reports {
                        slow_cmds.extend(slow.on_report(&TestReport {
                            machine: m,
                            release,
                            outcome: TestOutcome::Pass,
                        }));
                    }
                    let mut fast_cmds = Vec::new();
                    let mut rest: &[(MachineId, Release)] = &reports;
                    while !rest.is_empty() {
                        let k = fast.absorb_passes(rest);
                        rest = &rest[k..];
                        if let Some(&(m, release)) = rest.first() {
                            fast_cmds.extend(fast.on_report(&TestReport {
                                machine: m,
                                release,
                                outcome: TestOutcome::Pass,
                            }));
                            rest = &rest[1..];
                        }
                    }
                    assert_eq!(
                        slow_cmds,
                        fast_cmds,
                        "{} t={threshold} round {round}",
                        choice.name()
                    );
                }
                assert_eq!(slow.done(), fast.done(), "{}", choice.name());
                assert!(slow.done(), "{} never completed", choice.name());
            }
        }
    }

    #[test]
    fn telemetry_counts_notifications_and_waves() {
        use std::sync::Arc;

        use mirage_telemetry::Registry;

        let registry = Arc::new(Registry::new(64));
        let t = Telemetry::from_registry(Arc::clone(&registry));
        let pl = plan(&[(&["a", "b"], 1, 1.0), (&["z"], 1, 9.0)]);
        let mut p = ProtocolChoice::Balanced
            .build(pl.clone(), 1.0)
            .with_telemetry(t);
        p.start();
        p.on_report(&pass(&pl, "a", 0));
        p.on_report(&pass(&pl, "b", 0));
        p.on_report(&pass(&pl, "z", 0));
        let snap = registry.snapshot();
        // start→a, a→b, cluster advance→z: three Notify commands.
        assert_eq!(snap.counters["deploy.notify_commands"], 3);
        assert_eq!(snap.counters["deploy.machines_notified"], 3);
        assert_eq!(snap.counters["deploy.waves_advanced"], 1);
        assert_eq!(snap.event_counts["wave_advanced"], 1);
    }
}

#[cfg(test)]
mod multi_rep_tests {
    use super::*;
    use crate::dispatch::ProtocolChoice;
    use crate::protocol::TestOutcome;

    fn plan(specs: &[(&[&str], usize, f64)]) -> DeployPlan {
        DeployPlan::from_named(
            specs
                .iter()
                .map(|(members, reps, distance)| (members.iter().copied(), *reps, *distance)),
        )
    }

    fn pass(plan: &DeployPlan, machine: &str) -> TestReport {
        pass_at(plan, machine, 0)
    }

    fn pass_at(plan: &DeployPlan, machine: &str, release: u32) -> TestReport {
        TestReport {
            machine: plan.machine_id(machine).expect("machine in plan"),
            release: Release(release),
            outcome: TestOutcome::Pass,
        }
    }

    fn fail(plan: &DeployPlan, machine: &str, problem: u16) -> TestReport {
        TestReport {
            machine: plan.machine_id(machine).expect("machine in plan"),
            release: Release(0),
            outcome: TestOutcome::Fail {
                problem: ProblemId(problem),
            },
        }
    }

    fn notified(plan: &DeployPlan, cmds: &[Command]) -> Vec<String> {
        cmds.iter()
            .flat_map(|c| match c {
                Command::Notify { machines, .. } => machines
                    .iter()
                    .map(|&m| plan.machine_name(m).to_string())
                    .collect(),
                Command::Complete => Vec::new(),
            })
            .collect()
    }

    /// Non-representatives wait for *all* representatives: one passing
    /// rep is not enough (the paper's marginal-improvement argument for
    /// multiple representatives).
    #[test]
    fn all_reps_must_pass_before_non_reps() {
        let pl = plan(&[(&["r1", "r2", "n1", "n2"], 2, 0.0)]);
        let mut p = ProtocolChoice::Balanced.build(pl.clone(), 1.0);
        let cmds = p.start();
        let mut first = notified(&pl, &cmds);
        first.sort();
        assert_eq!(first, vec!["r1", "r2"]);
        // One rep passes: nothing happens yet.
        assert!(notified(&pl, &p.on_report(&pass(&pl, "r1"))).is_empty());
        // Second rep fails: still nothing.
        assert!(notified(&pl, &p.on_report(&fail(&pl, "r2", 0))).is_empty());
        // Fix ships: only the failed rep retests.
        let mut fixed = ProblemSet::new();
        fixed.insert(ProblemId(0));
        assert_eq!(notified(&pl, &p.on_release(Release(1), &fixed)), vec!["r2"]);
        // Now the non-reps go out (the retest reports the fixed release;
        // a stale release-0 report would be dropped as a duplicate).
        let mut nonreps = notified(&pl, &p.on_report(&pass_at(&pl, "r2", 1)));
        nonreps.sort();
        assert_eq!(nonreps, vec!["n1", "n2"]);
    }

    /// FrontLoading's phase 1 likewise waits for every representative of
    /// every cluster, even when failures interleave with passes.
    #[test]
    fn frontloading_phase1_with_multiple_reps() {
        let pl = plan(&[(&["a1", "a2", "a3"], 2, 0.0), (&["b1", "b2"], 1, 1.0)]);
        let mut p = ProtocolChoice::FrontLoading.build(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds).len(), 3, "all three reps in parallel");
        assert!(notified(&pl, &p.on_report(&pass(&pl, "a1"))).is_empty());
        assert!(notified(&pl, &p.on_report(&pass(&pl, "b1"))).is_empty());
        // The last rep's pass opens phase 2 at the farthest cluster.
        let cmds = p.on_report(&pass(&pl, "a2"));
        assert_eq!(notified(&pl, &cmds), vec!["b2"]);
    }
}
