//! The staged deployment engine behind every protocol and rollout
//! strategy.
//!
//! All protocol state is indexed by dense [`MachineId`]s: per-machine
//! status and failure signatures live in flat `Vec`s, representative
//! membership in a [`MachineSet`] bitset, and the cumulative fixed-set
//! consulted on each release is a [`ProblemSet`]. A report is handled
//! with a handful of array indexings — no string hashing, no tree
//! walks, no allocation. The string-keyed implementations are retained
//! in [`crate::reference`] for equivalence testing.

use mirage_telemetry::journal::RolloutStep;
use mirage_telemetry::{JournalEvent, Telemetry};

use crate::ids::{MachineId, MachineSet, ProblemId, ProblemSet};
use crate::plan::{DeployCluster, DeployPlan};
use crate::protocol::{
    Command, MachineStatus, Protocol, Release, SimTime, TestOutcome, TestReport,
};

/// Sentinel progress marker meaning "no tick observed yet".
const NO_MARKER: (usize, u32) = (usize::MAX, u32::MAX);

/// How many of a `total`-machine wave must pass (or be waived) before
/// the deployment moves past it, at pass-fraction `threshold`.
///
/// `total × threshold` is rounded up after shaving off the error a
/// decimal fraction carries in binary (0.55 × 100 evaluates to
/// 55.000000000000007, and must ask for 55 passes, not 56). Clamped to
/// at least one machine for non-empty waves — a `threshold` of `0.0`
/// must not let the deployment skip a wave nobody has tested. Empty
/// waves need zero passes. `mirage-sim` scores cluster latency with
/// this same rule, so latency and wave advancement agree.
pub fn ceil_threshold(total: usize, threshold: f64) -> usize {
    if total == 0 {
        return 0;
    }
    (((total as f64) * threshold - 1e-9).ceil() as usize).max(1)
}

/// Who tests in phase 1, in parallel, before the first wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Front {
    /// Nobody: the first wave opens with its representatives.
    None,
    /// Every representative of every wave (FrontLoading). The waves
    /// then notify non-representatives only.
    Reps,
    /// Every machine: one giant cluster, everyone a representative
    /// (NoStaging). Paired with an empty wave order.
    Everyone,
}

/// A run of machines deployed together, the first `reps` of them its
/// representatives (notified first): a plan cluster, or a rollout
/// cohort with no representatives.
#[derive(Debug, Clone)]
struct Wave {
    machines: Vec<MachineId>,
    reps: usize,
}

impl Wave {
    fn reps(&self) -> &[MachineId] {
        &self.machines[..self.reps]
    }

    fn non_reps(&self) -> &[MachineId] {
        &self.machines[self.reps..]
    }
}

impl From<DeployCluster> for Wave {
    /// The members as they are: a cluster's representatives lead them.
    fn from(cluster: DeployCluster) -> Wave {
        assert!(
            cluster.members.starts_with(&cluster.reps),
            "cluster {}'s representatives must lead its members",
            cluster.id
        );
        Wave {
            reps: cluster.reps.len(),
            machines: cluster.members,
        }
    }
}

/// When a wave that met its threshold opens the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// At once, on the report that met it (the paper's protocols).
    Report,
    /// On a decision tick, `bake_time` after the first tick that saw the
    /// threshold met, and only while the caller allows a widen (rollout
    /// cohorts).
    Tick { bake_time: SimTime },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Phase 1: the front tests in parallel.
    Front,
    /// Sequential deployment at position `i` of the order.
    Wave(usize),
    /// Every wave opened; waiting for stragglers.
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Reps,
    NonReps,
}

/// Sentinel for "machine belongs to no wave" in the dense
/// machine→wave index.
const NO_WAVE: u32 = u32::MAX;

/// A staged deployment (paper §3.2, §4.3): a phase-1 *front* tests in
/// parallel, then waves deploy one at a time in a fixed *order* —
/// representatives first, the rest once every representative passed —
/// and the deployment moves on once `threshold` of a wave passed.
///
/// NoStaging, Balanced, RandomStaging and FrontLoading are four
/// report-gated configurations over the plan's clusters;
/// [`ProtocolChoice::build`](crate::ProtocolChoice::build) holds that
/// table. [`Staging::cohorts`] is the tick-gated row the rollout
/// strategies run on.
#[derive(Debug, Clone)]
pub struct Staging {
    name: &'static str,
    front: Front,
    /// Every wave (a cluster's index is its wave's), and the positions
    /// they deploy in.
    waves: Vec<Wave>,
    order: Vec<usize>,
    gate: Gate,
    threshold: f64,
    /// Per-machine status, indexed by [`MachineId`].
    status: Vec<MachineStatus>,
    /// Machine → wave (last containing wave wins), for O(1) counter
    /// updates. [`NO_WAVE`] when in none.
    wave_of: Vec<u32>,
    /// Distinct machines across the waves.
    machine_count: usize,
    /// Machines that count as representatives *of their own wave* (per
    /// `wave_of`), so `reps_passed` matches the rep definition the wave
    /// logic uses.
    counted_rep: MachineSet,
    /// Passed-machine count per wave.
    wave_passed: Vec<usize>,
    /// Passed representatives (fleet-wide).
    reps_passed: usize,
    total_reps: usize,
    total_passed: usize,
    release: Release,
    phase: Phase,
    stage: Stage,
    /// Last failure signature per machine, for targeted re-notification.
    failed_problem: Vec<Option<ProblemId>>,
    /// Release each machine was most recently notified for; reports
    /// carrying an older release are stale duplicates and ignored.
    notified_release: Vec<u32>,
    /// Machines waived by timeout-based degradation; disjoint from
    /// `Passed` machines (a report un-waives).
    waived: MachineSet,
    /// Waived-machine count per wave (mirrors `wave_passed` in the
    /// wave-advancement arithmetic).
    wave_waived: Vec<usize>,
    /// Waived counted representatives (mirrors `reps_passed`).
    waived_reps: usize,
    /// Cumulative waived-machine count (`deploy.rep_timeouts`).
    timeouts: u64,
    /// Stall detector state: last `(passed + waived, release)` marker
    /// and when it last moved.
    last_marker: (usize, u32),
    last_change: SimTime,
    /// The first tick that saw the frontier wave meet its threshold
    /// (the tick gate's bake clock); cleared by each widen.
    ready_since: Option<SimTime>,
    /// Waves the tick gate opened.
    widens: usize,
    completed: bool,
    telemetry: Telemetry,
}

impl Staging {
    /// One row of [`crate::ProtocolChoice::build`]'s table: each plan
    /// cluster is a wave, and `order` lists cluster indexes (every one
    /// once, or none behind [`Front::Everyone`]).
    pub(crate) fn new(
        name: &'static str,
        plan: DeployPlan,
        front: Front,
        order: Vec<usize>,
        threshold: f64,
    ) -> Self {
        let n = plan.machines.len();
        let waves = plan.clusters.into_iter().map(Wave::from).collect();
        Staging::build(name, n, front, waves, order, Gate::Report, threshold)
    }

    /// Rollout cohorts over `plan`'s machines: `cohorts` deploy in
    /// sequence with no representatives, each opened by a decision tick
    /// ([`Staging::tick`]) once the one before met `threshold` and
    /// `bake_time` has passed since the first tick that saw it. The
    /// engine keeps the cohorts and none of the plan.
    pub fn cohorts(
        name: &'static str,
        plan: DeployPlan,
        cohorts: Vec<Vec<MachineId>>,
        threshold: f64,
        bake_time: SimTime,
    ) -> Self {
        let order = (0..cohorts.len()).collect();
        let waves = cohorts
            .into_iter()
            .map(|machines| Wave { machines, reps: 0 })
            .collect();
        let (n, gate) = (plan.machines.len(), Gate::Tick { bake_time });
        Staging::build(name, n, Front::None, waves, order, gate, threshold)
    }

    fn build(
        name: &'static str,
        n: usize,
        front: Front,
        waves: Vec<Wave>,
        order: Vec<usize>,
        gate: Gate,
        threshold: f64,
    ) -> Self {
        let mut wave_of = vec![NO_WAVE; n];
        for (w, wave) in waves.iter().enumerate() {
            for &m in &wave.machines {
                assert!(m.index() < n, "wave member {m} outside machine table");
                wave_of[m.index()] = w as u32;
            }
        }
        let mut counted_rep = MachineSet::new();
        for (w, wave) in waves.iter().enumerate() {
            for &r in wave.reps() {
                if wave_of[r.index()] == w as u32 {
                    counted_rep.insert(r);
                }
            }
        }
        Staging {
            name,
            front,
            total_reps: waves.iter().map(|w| w.reps).sum(),
            wave_passed: vec![0; waves.len()],
            wave_waived: vec![0; waves.len()],
            waves,
            order,
            gate,
            threshold,
            status: vec![MachineStatus::Idle; n],
            machine_count: wave_of.iter().filter(|&&w| w != NO_WAVE).count(),
            wave_of,
            counted_rep,
            reps_passed: 0,
            total_passed: 0,
            release: Release(0),
            phase: if front == Front::None {
                Phase::Wave(0)
            } else {
                Phase::Front
            },
            stage: Stage::Reps,
            failed_problem: vec![None; n],
            notified_release: vec![0; n],
            waived: MachineSet::new(),
            waived_reps: 0,
            timeouts: 0,
            last_marker: NO_MARKER,
            last_change: 0,
            ready_since: None,
            widens: 0,
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

    /// Waves the tick gate has opened past the first (the position of
    /// the frontier cohort); always zero on a report-gated engine.
    pub fn widens(&self) -> usize {
        self.widens
    }

    /// A decision tick: the stall check of [`Protocol::on_tick`], then,
    /// on tick-gated waves, the gate, which opens the next wave only
    /// while `widen_allowed`. [`Protocol::on_tick`] is this with the
    /// widen allowed.
    pub fn tick(
        &mut self,
        now: SimTime,
        stall_budget: Option<SimTime>,
        widen_allowed: bool,
    ) -> Vec<Command> {
        let mut out = Vec::new();
        if self.completed {
            return out;
        }
        if let Some(budget) = stall_budget {
            self.waive_stalled(now, budget, &mut out);
        }
        if let Gate::Tick { bake_time } = self.gate {
            self.widen(now, bake_time, widen_allowed, &mut out);
        }
        out
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

    /// Passes (or waivers) wave `w` still lacks before the deployment
    /// may move past it.
    fn short_of(&self, w: usize) -> usize {
        let needed = ceil_threshold(self.waves[w].machines.len(), self.threshold);
        needed.saturating_sub(self.wave_passed[w] + self.wave_waived[w])
    }

    /// Every machine in some wave, in id (== plan) order.
    fn members(&self) -> Vec<MachineId> {
        (0..self.wave_of.len())
            .filter(|&i| self.wave_of[i] != NO_WAVE)
            .map(|i| MachineId(i as u32))
            .collect()
    }

    /// Phase 1's machines, in notification order.
    fn front_machines(&self) -> Vec<MachineId> {
        match self.front {
            Front::None => Vec::new(),
            Front::Reps => self
                .waves
                .iter()
                .flat_map(|w| w.reps().iter().copied())
                .collect(),
            Front::Everyone => self.members(),
        }
    }

    /// Phase 1's `(passed + waived, members)`: it ends when they meet.
    fn front_progress(&self) -> (usize, usize) {
        match self.front {
            Front::Reps => (self.reps_passed + self.waived_reps, self.total_reps),
            Front::None | Front::Everyone => {
                (self.total_passed + self.waived.len(), self.machine_count)
            }
        }
    }

    /// Moves the deployment to position `wave` of the order and
    /// notifies its first stage — non-representatives straight away
    /// when a front already tested the representatives — or drains past
    /// the end.
    fn open_wave(&mut self, wave: usize, out: &mut Vec<Command>) {
        let Some(&w) = self.order.get(wave) else {
            self.phase = Phase::Draining;
            return;
        };
        self.phase = Phase::Wave(wave);
        self.telemetry.counter("deploy.waves_advanced", 1);
        self.telemetry.journal(JournalEvent::WaveAdvance {
            wave: wave as u32,
            cluster: w as u32,
        });
        let wave = &self.waves[w];
        let machines = if self.front == Front::None {
            self.stage = Stage::Reps;
            wave.reps().to_vec()
        } else {
            self.stage = Stage::NonReps;
            wave.non_reps().to_vec()
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
                Phase::Wave(i) => {
                    let Some(&w) = self.order.get(i) else {
                        self.phase = Phase::Draining;
                        continue;
                    };
                    match self.stage {
                        Stage::Reps => {
                            if !self.all_passed(self.waves[w].reps()) {
                                break;
                            }
                            self.stage = Stage::NonReps;
                            let non_reps = self.waves[w].non_reps().to_vec();
                            self.notify(non_reps, out);
                        }
                        Stage::NonReps => {
                            // A tick-gated wave waits for the decision
                            // tick; past the last one there is nothing
                            // to gate.
                            let gated = self.gate != Gate::Report && i + 1 < self.order.len();
                            if gated || self.short_of(w) > 0 {
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

    /// Timeout-based stage advancement (paper §5's offline-machine
    /// degradation): when the `(passed + waived, release)` progress
    /// marker has not moved for `budget` ticks, the machines blocking the
    /// *current* phase that are still marked `Testing` are waived — their
    /// reports (and the driver's retries) would have arrived by now if
    /// they were coming — and the deployment advances.
    fn waive_stalled(&mut self, now: SimTime, budget: SimTime, out: &mut Vec<Command>) {
        let marker = (self.total_passed + self.waived.len(), self.release.0);
        if marker != self.last_marker {
            self.last_marker = marker;
            self.last_change = now;
            return;
        }
        if now.saturating_sub(self.last_change) < budget {
            return;
        }
        let targets: Vec<MachineId> = match self.phase {
            Phase::Front => self.front_machines(),
            Phase::Wave(i) => {
                let wave = &self.waves[self.order[i]];
                match self.stage {
                    Stage::Reps => wave.reps().to_vec(),
                    Stage::NonReps => wave.machines.clone(),
                }
            }
            Phase::Draining => self.members(),
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
                let w = self.wave_of[idx];
                if w != NO_WAVE {
                    self.wave_waived[w as usize] += 1;
                    if self.counted_rep.contains(m) {
                        self.waived_reps += 1;
                    }
                }
                waived_any = true;
            }
        }
        self.last_change = now;
        if waived_any {
            self.step(out);
        }
    }

    /// The tick gate: opens the next wave once the frontier met its
    /// threshold, `bake_time` has passed since the first tick that saw
    /// it, and `allowed`. A frontier that is ready but held by the dwell
    /// or the caller counts a `rollout.holds`.
    fn widen(&mut self, now: SimTime, bake_time: SimTime, allowed: bool, out: &mut Vec<Command>) {
        let Phase::Wave(i) = self.phase else {
            return;
        };
        let (Some(&w), Some(&next)) = (self.order.get(i), self.order.get(i + 1)) else {
            return;
        };
        if self.stage != Stage::NonReps || self.short_of(w) > 0 {
            return;
        }
        let since = *self.ready_since.get_or_insert(now);
        if now < since.saturating_add(bake_time) || !allowed {
            self.telemetry.counter("rollout.holds", 1);
            return;
        }
        self.telemetry.counter("rollout.widens", 1);
        self.telemetry.journal_timed(&[(
            now,
            JournalEvent::Rollout {
                step: RolloutStep::Widen,
                cohort: (i + 1) as u32,
                machines: self.waves[next].machines.len() as u32,
            },
        )]);
        self.widens += 1;
        self.ready_since = None;
        // The new wave gets a whole stall budget to report in.
        self.last_change = now;
        self.open_wave(i + 1, out);
        self.step(out);
    }
}

impl Protocol for Staging {
    fn name(&self) -> &'static str {
        self.name
    }

    fn start(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        if self.machine_count == 0 {
            self.completed = true;
            return vec![Command::Complete];
        }
        let first = match (self.front, self.order.first()) {
            (Front::None, Some(&w)) => self.waves[w].reps().to_vec(),
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
            let w = self.wave_of[idx];
            if w != NO_WAVE {
                self.wave_waived[w as usize] -= 1;
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
            let w = self.wave_of[idx];
            if w != NO_WAVE {
                self.wave_passed[w as usize] += 1;
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
            let w = self.wave_of[idx];
            let is_rep = w != NO_WAVE && self.counted_rep.contains(m);
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
                Phase::Wave(i) => {
                    let Some(&active) = self.order.get(i) else {
                        break;
                    };
                    let bound = match self.stage {
                        // Could be the last rep the stage waits for (the
                        // stage checks the literal reps, not
                        // `counted_rep`); let `on_report` decide.
                        Stage::Reps => self.waves[active].reps().contains(&m),
                        Stage::NonReps => w == active as u32 && self.short_of(active) <= 1,
                    };
                    if bound {
                        break;
                    }
                }
                Phase::Draining => {}
            }
            if !self.completed && self.total_passed + 1 + self.waived.len() == self.machine_count {
                break;
            }
            // Mirror of `on_report`'s pass path, transitions excluded.
            self.status[idx] = MachineStatus::Passed;
            self.total_passed += 1;
            if w != NO_WAVE {
                self.wave_passed[w as usize] += 1;
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
        let failed: Vec<MachineId> = (0..self.status.len())
            .filter(|&i| {
                self.status[i] == MachineStatus::Failed
                    && self.failed_problem[i].is_none_or(|p| fixed.contains(p))
            })
            .map(|i| MachineId(i as u32))
            .collect();
        let mut out = Vec::new();
        self.notify(failed, &mut out);
        self.step(&mut out);
        out
    }

    fn on_tick(&mut self, now: SimTime, stall_budget: Option<SimTime>) -> Vec<Command> {
        self.tick(now, stall_budget, true)
    }

    fn rep_timeouts(&self) -> u64 {
        self.timeouts
    }

    fn wants_ticks(&self) -> bool {
        self.gate != Gate::Report
    }

    fn done(&self) -> bool {
        self.total_passed + self.waived.len() == self.machine_count
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
        // Decimal fractions whose binary product lands just above the
        // integer do not round up past it.
        assert_eq!(ceil_threshold(100, 0.55), 55);
        assert_eq!(ceil_threshold(100, 0.07), 7);
        assert_eq!(ceil_threshold(50, 0.14), 7);
        // The sweeps' products are exact.
        assert_eq!(ceil_threshold(5_000, 0.9), 4_500);
        assert_eq!(ceil_threshold(125, 0.9), 113);
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
    /// alone and through `absorb_passes` + `on_report` fallback, with a
    /// decision tick after every round, and compare every emitted
    /// command stream. The four protocol rows are report-gated (the
    /// tick does nothing); the Rolling-, Canary- and BlueGreen-shaped
    /// cohort rows are tick-gated.
    #[test]
    fn absorb_passes_matches_on_report() {
        let pl = plan(&[
            (&["a0", "a1", "a2", "a3"], 1, 1.0),
            (&["b0", "b1", "b2", "b3"], 2, 2.0),
        ]);
        let ids = |names: &[&str]| -> Vec<MachineId> {
            names.iter().map(|n| pl.machine_id(n).unwrap()).collect()
        };
        let cohort_rows: Vec<(&str, Vec<Vec<MachineId>>, SimTime)> = vec![
            (
                "Rolling",
                vec![
                    ids(&["a0", "a1", "a2"]),
                    ids(&["a3", "b0", "b1"]),
                    ids(&["b2", "b3"]),
                ],
                0,
            ),
            (
                "Canary",
                vec![
                    ids(&["a0", "a1"]),
                    ids(&["a2", "a3", "b0", "b1", "b2", "b3"]),
                ],
                50,
            ),
            (
                "BlueGreen",
                vec![
                    ids(&["a0", "b0", "b1"]),
                    ids(&["a1", "a2", "a3", "b2", "b3"]),
                ],
                0,
            ),
        ];
        /// A protocol row: its name and how to build it at a threshold.
        type Row = (&'static str, Box<dyn Fn(f64) -> Staging>);
        let mut rows: Vec<Row> = Vec::new();
        for choice in [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 5 },
        ] {
            let pl = pl.clone();
            rows.push((
                choice.name(),
                Box::new(move |t| choice.build(pl.clone(), t)),
            ));
        }
        for (name, runs, bake_time) in cohort_rows {
            let pl = pl.clone();
            rows.push((
                name,
                Box::new(move |t| Staging::cohorts(name, pl.clone(), runs.clone(), t, bake_time)),
            ));
        }
        for (name, build) in &rows {
            for threshold in [1.0, 0.75, 0.5] {
                let mut slow = build(threshold);
                let mut fast = build(threshold);
                let mut slow_cmds = slow.start();
                assert_eq!(slow_cmds, fast.start());
                // Keep delivering passes for whatever was notified until
                // both complete, replaying each report once (duplicate).
                for round in 0..16u64 {
                    if slow.done() {
                        break;
                    }
                    let notified: Vec<(MachineId, Release)> = slow_cmds
                        .iter()
                        .flat_map(|c| match c {
                            Command::Notify { machines, release } => {
                                machines.iter().map(|&m| (m, *release)).collect()
                            }
                            Command::Complete => Vec::new(),
                        })
                        .collect();
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
                    // The decision tick between rounds.
                    let now = 25 * (round + 1);
                    slow_cmds.extend(slow.on_tick(now, None));
                    fast_cmds.extend(fast.on_tick(now, None));
                    assert_eq!(slow_cmds, fast_cmds, "{name} t={threshold} round {round}");
                }
                assert_eq!(slow.done(), fast.done(), "{name}");
                assert!(slow.done(), "{name} t={threshold} never completed");
                assert_eq!(slow.widens(), fast.widens(), "{name}");
                if slow.wants_ticks() {
                    assert!(slow.widens() > 0, "{name} t={threshold} never widened");
                }
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
        assert_eq!(snap.journal_counts["wave_advance"], 1);
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
