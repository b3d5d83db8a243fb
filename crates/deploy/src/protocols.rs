//! The concrete deployment protocols.
//!
//! All protocol state is indexed by dense [`MachineId`]s: per-machine
//! status and failure signatures live in flat `Vec`s, representative
//! membership in a [`MachineSet`] bitset, and the cumulative fixed-set
//! consulted on each release is a [`ProblemSet`]. A report is handled
//! with a handful of array indexings — no string hashing, no tree
//! walks, no allocation. The previous string-keyed implementations are
//! retained in [`crate::reference`] for equivalence testing.

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

/// The NoStaging baseline: one giant cluster, everyone a representative.
///
/// Promotes deployment speed at the cost of maximum upgrade overhead —
/// every machine affected by a problem tests the faulty upgrade. The
/// vendor would use this for simple, urgent upgrades such as security
/// patches.
#[derive(Debug, Clone)]
pub struct NoStaging {
    /// Per-machine status, indexed by [`MachineId`].
    status: Vec<MachineStatus>,
    /// Deduplicated machine list in plan (== id) order.
    machines: Vec<MachineId>,
    /// Last failure signature per machine, for targeted re-notification.
    failed_problem: Vec<Option<ProblemId>>,
    /// Release each machine was most recently notified for; reports
    /// carrying an older release are stale duplicates and ignored.
    notified_release: Vec<u32>,
    /// Machines waived by timeout-based degradation (see
    /// [`Protocol::on_tick`]); disjoint from `Passed` machines.
    waived: MachineSet,
    /// Quiet-time budget before waiving blockers; `None` disables the
    /// stall detector (the reliable-channel default).
    rep_timeout: Option<SimTime>,
    /// Cumulative waived-machine count (`deploy.rep_timeouts`).
    timeouts: u64,
    /// Stall detector state: last observed `(passed, release)` marker
    /// and when it last moved.
    last_marker: (usize, u32),
    last_change: SimTime,
    passed: usize,
    release: Release,
    completed: bool,
    telemetry: Telemetry,
}

impl NoStaging {
    /// Creates the protocol over a plan (cluster structure is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the plan's clusters reference ids outside its
    /// [`MachineTable`](crate::MachineTable) (impossible for plans built
    /// via [`DeployPlan::from_named`] / [`DeployPlan::from_clustering`]).
    pub fn new(plan: DeployPlan) -> Self {
        let n = plan.machines.len();
        let machines = unique_machines(&plan);
        for &m in &machines {
            assert!(m.index() < n, "cluster member {m} outside machine table");
        }
        NoStaging {
            status: vec![MachineStatus::Idle; n],
            machines,
            failed_problem: vec![None; n],
            notified_release: vec![0; n],
            waived: MachineSet::new(),
            rep_timeout: None,
            timeouts: 0,
            last_marker: NO_MARKER,
            last_change: 0,
            passed: 0,
            release: Release(0),
            completed: false,
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle recording notification counters.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables timeout-based degradation: when no progress is observed
    /// for `timeout` ticks, machines still testing are waived so the
    /// deployment can complete around crashed fleet members.
    pub fn with_rep_timeout(mut self, timeout: SimTime) -> Self {
        self.rep_timeout = Some(timeout);
        self
    }

    fn completion(&mut self) -> Vec<Command> {
        if !self.completed && self.done() {
            self.completed = true;
            vec![Command::Complete]
        } else {
            Vec::new()
        }
    }
}

impl Protocol for NoStaging {
    fn name(&self) -> &'static str {
        "NoStaging"
    }

    fn start(&mut self) -> Vec<Command> {
        let machines = self.machines.clone();
        for &m in &machines {
            self.status[m.index()] = MachineStatus::Testing;
        }
        if machines.is_empty() {
            self.completed = true;
            return vec![Command::Complete];
        }
        self.telemetry.counter("deploy.notify_commands", 1);
        self.telemetry
            .counter("deploy.machines_notified", machines.len() as u64);
        vec![Command::Notify {
            machines,
            release: self.release,
        }]
    }

    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        let idx = report.machine.index();
        // Unreliable-channel idempotence: ignore stale reports for a
        // release older than the machine's latest notification, and
        // never demote a machine that already passed (a duplicated
        // delivery must be a strict no-op).
        if report.release.0 < self.notified_release[idx]
            || self.status[idx] == MachineStatus::Passed
        {
            return Vec::new();
        }
        // Any report proves the machine is alive: un-waive it so
        // completion waits for its real outcome.
        self.waived.remove(report.machine);
        let status = match report.outcome {
            TestOutcome::Pass => MachineStatus::Passed,
            TestOutcome::Fail { problem } => {
                self.failed_problem[idx] = Some(problem);
                MachineStatus::Failed
            }
        };
        let previous = std::mem::replace(&mut self.status[idx], status);
        if status == MachineStatus::Passed && previous != MachineStatus::Passed {
            self.passed += 1;
        }
        self.completion()
    }

    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        let total = self.machines.len();
        let mut absorbed = 0;
        for &(m, r) in reports {
            let idx = m.index();
            if r.0 < self.notified_release[idx] || self.status[idx] == MachineStatus::Passed {
                // Stale or duplicated delivery: `on_report` is a strict
                // no-op, so absorbing it is free.
                absorbed += 1;
                continue;
            }
            // Applying this pass must not flip `done()` — the Complete
            // command has to come out of the full `on_report` path.
            let waived_here = usize::from(self.waived.contains(m));
            if !self.completed && self.passed + 1 + self.waived.len() - waived_here >= total {
                break;
            }
            self.waived.remove(m);
            self.status[idx] = MachineStatus::Passed;
            self.passed += 1;
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
        for &m in &failed {
            self.status[m.index()] = MachineStatus::Testing;
            self.notified_release[m.index()] = release.0;
        }
        if failed.is_empty() {
            return self.completion();
        }
        self.telemetry.counter("deploy.notify_commands", 1);
        self.telemetry
            .counter("deploy.machines_notified", failed.len() as u64);
        vec![Command::Notify {
            machines: failed,
            release,
        }]
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Command> {
        let Some(timeout) = self.rep_timeout else {
            return Vec::new();
        };
        if self.completed {
            return Vec::new();
        }
        let marker = (self.passed + self.waived.len(), self.release.0);
        if marker != self.last_marker {
            self.last_marker = marker;
            self.last_change = now;
            return Vec::new();
        }
        if now.saturating_sub(self.last_change) < timeout {
            return Vec::new();
        }
        // Stalled past the budget: waive every machine still testing —
        // its report (and the driver's retries) would have landed by
        // now if it were coming.
        let mut newly_waived = Vec::new();
        for (idx, st) in self.status.iter().enumerate() {
            if *st == MachineStatus::Testing && self.waived.insert(MachineId(idx as u32)) {
                self.timeouts += 1;
                newly_waived.push(idx as u32);
            }
        }
        for machine in newly_waived {
            self.telemetry.journal(JournalEvent::Waiver {
                machine,
                release: self.release.0,
            });
        }
        self.last_change = now;
        self.completion()
    }

    fn rep_timeouts(&self) -> u64 {
        self.timeouts
    }

    fn done(&self) -> bool {
        self.passed + self.waived.len() == self.machines.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// FrontLoading phase 1: all representatives in parallel.
    GlobalReps,
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

/// The shared engine behind [`Balanced`] and [`FrontLoading`].
#[derive(Debug, Clone)]
struct StagedEngine {
    plan: DeployPlan,
    order: Vec<usize>,
    threshold: f64,
    global_rep_phase: bool,
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
    /// Quiet-time budget before waiving the current phase's blockers;
    /// `None` disables the stall detector (reliable-channel default).
    rep_timeout: Option<SimTime>,
    /// Cumulative waived-machine count (`deploy.rep_timeouts`).
    timeouts: u64,
    /// Stall detector state: last `(passed + waived, release)` marker
    /// and when it last moved.
    last_marker: (usize, u32),
    last_change: SimTime,
    completed: bool,
    telemetry: Telemetry,
}

impl StagedEngine {
    fn new(plan: DeployPlan, order: Vec<usize>, threshold: f64, global_rep_phase: bool) -> Self {
        assert_eq!(
            order.len(),
            plan.clusters.len(),
            "order must cover every cluster exactly once"
        );
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
        let cluster_passed = vec![0; cluster_count];
        StagedEngine {
            plan,
            order,
            threshold,
            global_rep_phase,
            status: vec![MachineStatus::Idle; n],
            machines,
            cluster_of,
            counted_rep,
            cluster_passed,
            reps_passed: 0,
            total_reps,
            total_passed: 0,
            release: Release(0),
            phase: if global_rep_phase {
                Phase::GlobalReps
            } else {
                Phase::Cluster(0)
            },
            stage: ClusterStage::Reps,
            failed_problem: vec![None; n],
            notified_release: vec![0; n],
            waived: MachineSet::new(),
            cluster_waived: vec![0; cluster_count],
            waived_reps: 0,
            rep_timeout: None,
            timeouts: 0,
            last_marker: NO_MARKER,
            last_change: 0,
            completed: false,
            telemetry: Telemetry::noop(),
        }
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

    fn all_reps(&self) -> Vec<MachineId> {
        self.plan
            .clusters
            .iter()
            .flat_map(|c| c.reps.iter().copied())
            .collect()
    }

    /// Runs phase/stage transitions until quiescent, collecting commands.
    fn step(&mut self, out: &mut Vec<Command>) {
        loop {
            match self.phase {
                Phase::GlobalReps => {
                    if self.reps_passed + self.waived_reps == self.total_reps {
                        self.phase = Phase::Cluster(0);
                        self.stage = ClusterStage::NonReps;
                        if let Some(&cid) = self.order.first() {
                            self.telemetry.counter("deploy.waves_advanced", 1);
                            self.telemetry.event(FlightEvent::WaveAdvanced {
                                wave: 0,
                                cluster: cid,
                            });
                            self.telemetry.journal(JournalEvent::WaveAdvance {
                                wave: 0,
                                cluster: cid as u32,
                            });
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
                            if self.all_passed(&cluster.reps) {
                                self.stage = ClusterStage::NonReps;
                                let non_reps = cluster.non_reps();
                                self.notify(non_reps, out);
                                continue;
                            }
                            break;
                        }
                        ClusterStage::NonReps => {
                            let needed = ceil_threshold(cluster.members.len(), self.threshold);
                            if self.cluster_passed[cid] + self.cluster_waived[cid] >= needed {
                                // Advance to the next cluster.
                                if i + 1 < self.order.len() {
                                    self.phase = Phase::Cluster(i + 1);
                                    let next = self.order[i + 1];
                                    self.telemetry.counter("deploy.waves_advanced", 1);
                                    self.telemetry.event(FlightEvent::WaveAdvanced {
                                        wave: i + 1,
                                        cluster: next,
                                    });
                                    self.telemetry.journal(JournalEvent::WaveAdvance {
                                        wave: (i + 1) as u32,
                                        cluster: next as u32,
                                    });
                                    if self.global_rep_phase {
                                        // Representatives already passed in
                                        // phase 1; go straight to non-reps.
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
            out.push(Command::Complete);
        }
    }

    fn start(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        if self.machines.is_empty() {
            self.completed = true;
            return vec![Command::Complete];
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

    /// Batch pass-absorption (see [`Protocol::absorb_passes`]): applies
    /// the longest prefix of pass reports whose individual `on_report`
    /// calls would all have been silent — no waiver back-out, no wave
    /// advance, no completion — and stops at the first report that
    /// needs the full path.
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
                Phase::GlobalReps => {
                    if is_rep && self.reps_passed + 1 + self.waived_reps == self.total_reps {
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
    /// marker has not moved for `rep_timeout` ticks, the machines
    /// blocking the *current* phase that are still marked `Testing` are
    /// waived — their reports (and the driver's retries) would have
    /// arrived by now if they were coming — and the wave advances.
    fn on_tick(&mut self, now: SimTime) -> Vec<Command> {
        let Some(timeout) = self.rep_timeout else {
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
        if now.saturating_sub(self.last_change) < timeout {
            return Vec::new();
        }
        let targets: Vec<MachineId> = match self.phase {
            Phase::GlobalReps => self.all_reps(),
            Phase::Cluster(i) => {
                let cid = self.order[i];
                let cluster = &self.plan.clusters[cid];
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

    fn done(&self) -> bool {
        self.total_passed + self.waived.len() == self.machines.len()
    }
}

/// The Balanced protocol (paper §4.3): clusters in ascending vendor
/// distance; within each cluster, representatives before
/// non-representatives.
///
/// Low overhead with good latency: clusters most similar to the vendor —
/// the least likely to break — integrate early, and debugging is spread
/// across the deployment.
#[derive(Debug, Clone)]
pub struct Balanced {
    engine: StagedEngine,
    name: &'static str,
}

impl Balanced {
    /// Creates a Balanced deployment (ascending-distance order).
    pub fn new(plan: DeployPlan, threshold: f64) -> Self {
        let order = plan.order_by_distance_asc();
        Balanced {
            engine: StagedEngine::new(plan, order, threshold, false),
            name: "Balanced",
        }
    }

    /// Creates a staged deployment with an explicit cluster order — the
    /// paper's RandomStaging baseline when the order is shuffled.
    pub fn with_order(plan: DeployPlan, order: Vec<usize>, threshold: f64) -> Self {
        Balanced {
            engine: StagedEngine::new(plan, order, threshold, false),
            name: "RandomStaging",
        }
    }

    /// Attaches a telemetry handle recording notification counters and
    /// wave-advance events.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.engine.telemetry = telemetry;
        self
    }

    /// Enables timeout-based stage advancement (see
    /// [`NoStaging::with_rep_timeout`]).
    pub fn with_rep_timeout(mut self, timeout: SimTime) -> Self {
        self.engine.rep_timeout = Some(timeout);
        self
    }
}

impl Protocol for Balanced {
    fn name(&self) -> &'static str {
        self.name
    }
    fn start(&mut self) -> Vec<Command> {
        self.engine.start()
    }
    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        self.engine.on_report(report)
    }
    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        self.engine.absorb_passes(reports)
    }
    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        self.engine.on_release(release, fixed)
    }
    fn on_tick(&mut self, now: SimTime) -> Vec<Command> {
        self.engine.on_tick(now)
    }
    fn rep_timeouts(&self) -> u64 {
        self.engine.timeouts
    }
    fn done(&self) -> bool {
        self.engine.done()
    }
}

/// The FrontLoading protocol (paper §4.3).
///
/// Phase 1 notifies the representatives of *all* clusters in parallel and
/// iterates fix/re-test rounds until no representative fails, giving the
/// vendor the full problem picture up front. Phase 2 then deploys to
/// non-representatives one cluster at a time in *descending* distance
/// order (the most vendor-dissimilar — most problem-prone — clusters
/// first).
#[derive(Debug, Clone)]
pub struct FrontLoading {
    engine: StagedEngine,
}

impl FrontLoading {
    /// Creates a FrontLoading deployment.
    pub fn new(plan: DeployPlan, threshold: f64) -> Self {
        let order = plan.order_by_distance_desc();
        FrontLoading {
            engine: StagedEngine::new(plan, order, threshold, true),
        }
    }

    /// Attaches a telemetry handle recording notification counters and
    /// wave-advance events.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.engine.telemetry = telemetry;
        self
    }

    /// Enables timeout-based stage advancement (see
    /// [`NoStaging::with_rep_timeout`]).
    pub fn with_rep_timeout(mut self, timeout: SimTime) -> Self {
        self.engine.rep_timeout = Some(timeout);
        self
    }
}

impl Protocol for FrontLoading {
    fn name(&self) -> &'static str {
        "FrontLoading"
    }
    fn start(&mut self) -> Vec<Command> {
        self.engine.start()
    }
    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        self.engine.on_report(report)
    }
    fn absorb_passes(&mut self, reports: &[(MachineId, Release)]) -> usize {
        self.engine.absorb_passes(reports)
    }
    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        self.engine.on_release(release, fixed)
    }
    fn on_tick(&mut self, now: SimTime) -> Vec<Command> {
        self.engine.on_tick(now)
    }
    fn rep_timeouts(&self) -> u64 {
        self.engine.timeouts
    }
    fn done(&self) -> bool {
        self.engine.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut p = NoStaging::new(pl.clone());
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
        let mut p = NoStaging::new(pl.clone());
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
        let mut p = Balanced::new(pl.clone(), 1.0);
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
        let mut p = Balanced::new(pl.clone(), 1.0);
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
        let mut p = Balanced::new(pl.clone(), 0.5);
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
        let mut p = FrontLoading::new(pl.clone(), 1.0);
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
        let mut p = Balanced::with_order(pl.clone(), vec![2, 0, 1], 1.0);
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
        let mut p = NoStaging::new(DeployPlan::default());
        assert_eq!(p.start(), vec![Command::Complete]);
        let mut p = Balanced::new(DeployPlan::default(), 1.0);
        assert_eq!(p.start(), vec![Command::Complete]);
        let mut p = FrontLoading::new(DeployPlan::default(), 1.0);
        assert_eq!(p.start(), vec![Command::Complete]);
    }

    #[test]
    fn single_member_clusters_cascade() {
        // Clusters whose only member is the rep: non-rep stage is empty
        // and must cascade to the next cluster without extra reports.
        let pl = plan(&[(&["a"], 1, 1.0), (&["b"], 1, 2.0)]);
        let mut p = Balanced::new(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        let cmds = p.on_report(&pass(&pl, "a", 0));
        assert_eq!(notified(&pl, &cmds), vec!["b"]);
        let cmds = p.on_report(&pass(&pl, "b", 0));
        assert_eq!(cmds, vec![Command::Complete]);
        assert!(p.done());
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn mismatched_order_panics() {
        let _ = Balanced::with_order(plan(&[(&["a"], 1, 1.0)]), vec![0, 1], 1.0);
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
        let mut p = Balanced::new(pl.clone(), 0.0);
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
        let mut p = Balanced::new(pl.clone(), 1.0);
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
        let mut p = Balanced::new(pl.clone(), 1.0).with_rep_timeout(100);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds), vec!["a"]);
        // First tick records the progress marker; the second is inside
        // the budget; the third crosses it and waives the silent rep.
        assert!(p.on_tick(10).is_empty());
        assert!(p.on_tick(50).is_empty());
        let cmds = p.on_tick(120);
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

    /// Regression (unreliable channels): replaying an already-delivered
    /// report must not change `deploy.machines_notified` — a duplicated
    /// Pass/Fail delivery is a strict no-op and triggers no
    /// re-notification wave.
    #[test]
    fn replayed_reports_leave_machines_notified_unchanged() {
        use std::sync::Arc;

        use mirage_telemetry::Registry;

        use crate::dispatch::ProtocolChoice;

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
        use crate::dispatch::ProtocolChoice;

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
        let mut p = Balanced::new(pl.clone(), 1.0).with_telemetry(t);
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
        let mut p = Balanced::new(pl.clone(), 1.0);
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
        let mut p = FrontLoading::new(pl.clone(), 1.0);
        let cmds = p.start();
        assert_eq!(notified(&pl, &cmds).len(), 3, "all three reps in parallel");
        assert!(notified(&pl, &p.on_report(&pass(&pl, "a1"))).is_empty());
        assert!(notified(&pl, &p.on_report(&pass(&pl, "b1"))).is_empty());
        // The last rep's pass opens phase 2 at the farthest cluster.
        let cmds = p.on_report(&pass(&pl, "a2"));
        assert_eq!(notified(&pl, &cmds), vec!["b2"]);
    }
}
