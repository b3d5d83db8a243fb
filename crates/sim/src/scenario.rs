//! Simulation scenarios: cluster structure, timings, problem placement.
//!
//! Scenarios are fully *interned*: problem placement, offline windows,
//! and missed-detection flags are dense per-machine vectors indexed by
//! [`MachineId`], so the simulator's inner loop never touches a string
//! or a tree map. Names exist only at the boundaries, through the
//! plan's machine table and the scenario's [`ProblemTable`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use mirage_deploy::{
    DeployCluster, DeployPlan, MachineId, MachineSet, MachineTable, ProblemId, ProblemTable,
    ProtocolChoice,
};
use mirage_report::{DurableUrr, Urr};
use mirage_rollout::{GuardSettings, RolloutController, RolloutPlan, RolloutStrategy, UrrGuard};
use mirage_telemetry::Telemetry;

use crate::engine::SimTime;
use crate::faults::{FaultPlan, FaultSpec};

/// The three time constants of the paper's simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timings {
    /// Time for a machine to download an upgrade.
    pub download: u64,
    /// Time for a machine to test an upgrade.
    pub test: u64,
    /// Time for the vendor to debug and fix one problem.
    pub fix: u64,
}

impl Timings {
    /// The paper's configuration: download 5, test 10, fix 500 — chosen
    /// to mimic minutes of download/test against a day of debugging.
    pub fn paper_default() -> Self {
        Timings {
            download: 5,
            test: 10,
            fix: 500,
        }
    }

    /// Round-trip for one machine: download + test.
    pub fn machine_cycle(&self) -> u64 {
        self.download + self.test
    }
}

/// A complete simulation scenario.
///
/// All per-machine state is stored in dense vectors indexed by
/// [`MachineId`]; use the name-based helpers
/// ([`Scenario::problem_populations`], …) at boundaries.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The deployment plan (clusters, reps, distances). Owns the
    /// machine name ↔ id table.
    pub plan: DeployPlan,
    /// Problem name ↔ id table for this scenario.
    pub problems: ProblemTable,
    /// Per-machine problem assignment (`None` = healthy): a machine
    /// fails any release in which its problem is not yet fixed.
    pub machine_problem: Vec<Option<ProblemId>>,
    /// Time constants.
    pub timings: Timings,
    /// Fraction of a cluster's machines that must pass before staged
    /// protocols advance.
    pub threshold: f64,
    /// Per-machine offline horizon (`0` = always online): a
    /// notification delivered while offline is acted on when the
    /// machine comes back (the paper's "late arrivals", which motivate
    /// the threshold).
    pub offline_until: Vec<SimTime>,
    /// Machines whose user-machine testing *misses* their problem: the
    /// faulty upgrade passes testing and integrates — the survey's
    /// "problems that pass initial testing" phenomenon. The paper's
    /// simulations assume perfect testing; this knob relaxes that.
    pub missed_detection: MachineSet,
    /// The fault-injection plan for this run. [`FaultPlan::none`] (the
    /// default) keeps the original reliable-channel fast path and is
    /// bit-identical to the pre-fault simulator.
    pub faults: FaultPlan,
    /// Optional Upgrade Report Repository: when attached (via
    /// [`ScenarioBuilder::with_urr`]) every vendor-received test outcome
    /// is also deposited as a structured report. `None` (the default)
    /// keeps the simulator bit-identical to the unwired driver.
    pub urr: Option<Arc<Urr>>,
    /// Optional durable wrapper around [`Scenario::urr`] (set via
    /// [`ScenarioBuilder::with_durable_urr`]): when present, the
    /// simulator's repository deposits are journaled through
    /// [`mirage_report::DurableUrr`] — every flushed batch hits the
    /// write-ahead log before it is applied, so a campaign's repository
    /// survives a vendor crash and can be recovered and re-queried.
    pub durable: Option<Arc<DurableUrr>>,
    /// Optional rollout strategy (set via
    /// [`ScenarioBuilder::with_strategy`]): how
    /// [`Scenario::rollout_controller`] partitions the fleet into
    /// cohorts. It does not choose a driver: the controller is a
    /// protocol like any other.
    pub strategy: Option<RolloutStrategy>,
    /// Optional URR guard thresholds (set via
    /// [`ScenarioBuilder::with_guard`]): requires [`Scenario::urr`];
    /// the controller [`Scenario::rollout_controller`] builds then
    /// evaluates live repository health each tick and rolls back
    /// automatically when the guard trips.
    pub guard: Option<GuardSettings>,
}

impl Scenario {
    /// Starts a healthy scenario over an existing plan (paper-default
    /// timings, threshold 1.0, everyone online, perfect testing).
    pub fn from_plan(plan: DeployPlan) -> Self {
        let n = plan.machines.len();
        Scenario {
            plan,
            problems: ProblemTable::new(),
            machine_problem: vec![None; n],
            timings: Timings::paper_default(),
            threshold: 1.0,
            offline_until: vec![0; n],
            missed_detection: MachineSet::new(),
            faults: FaultPlan::none(),
            urr: None,
            durable: None,
            strategy: None,
            guard: None,
        }
    }

    /// Total machine count.
    pub fn machine_count(&self) -> usize {
        self.plan.machine_count()
    }

    /// The rollout controller this scenario describes: its fleet
    /// partitioned into cohorts by its [`Scenario::strategy`] (default:
    /// single-wave `Staged`), with `telemetry` attached (decision
    /// counters, journal events and the `rollout.state` gauge land in
    /// the registry the driver records into; pass [`Telemetry::noop`]
    /// for an unobserved run).
    ///
    /// `choice` selects the staging protocol a `Staged` strategy runs;
    /// cohort strategies (`Canary`/`Rolling`/`BlueGreen`) run their
    /// cohorts on the same engine and ignore it. When the scenario
    /// carries both a repository
    /// ([`ScenarioBuilder::with_urr`]) and guard thresholds
    /// ([`ScenarioBuilder::with_guard`]), the controller assesses live
    /// repository health on every decision tick and rolls the fleet
    /// back to the prior release when the guard trips.
    ///
    /// The controller is a [`mirage_deploy::Protocol`]: run it with
    /// [`crate::Simulation`], then read
    /// [`RolloutController::outcome`].
    pub fn rollout_controller(
        &self,
        choice: ProtocolChoice,
        telemetry: Telemetry,
    ) -> RolloutController {
        let strategy = self
            .strategy
            .unwrap_or(RolloutStrategy::Staged { waves: 1 });
        let plan = RolloutPlan::new(self.plan.clone(), strategy);
        let controller =
            RolloutController::new(plan, choice, self.threshold).with_telemetry(telemetry);
        match (self.guard, &self.urr) {
            (Some(settings), Some(urr)) => {
                controller.with_guard(UrrGuard::new(Arc::clone(urr), settings))
            }
            _ => controller,
        }
    }

    /// The problem carried by a machine, if any (hot-path accessor).
    #[inline]
    pub(crate) fn problem_of(&self, machine: MachineId) -> Option<ProblemId> {
        self.machine_problem.get(machine.index()).copied().flatten()
    }

    /// Resolves a machine name, panicking with a uniform message.
    fn must_id(&self, machine: &str) -> MachineId {
        self.plan
            .machine_id(machine)
            .unwrap_or_else(|| panic!("unknown machine {machine:?}"))
    }

    /// Assigns `problem` to the named machine (internal lowering hook
    /// for [`ScenarioBuilder::problem_on_machine`]).
    fn place_problem(&mut self, machine: &str, problem: &str) {
        let m = self.must_id(machine);
        let p = self.problems.intern(problem);
        self.machine_problem[m.index()] = Some(p);
    }

    /// Number of machines carrying any problem.
    pub fn problem_machine_count(&self) -> usize {
        self.machine_problem.iter().filter(|p| p.is_some()).count()
    }

    /// Number of machines carrying each problem, keyed by problem name.
    pub fn problem_populations(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for p in self.machine_problem.iter().flatten() {
            *counts
                .entry(self.problems.name(*p).to_string())
                .or_insert(0usize) += 1;
        }
        counts
    }
}

/// Builder for synthetic scenarios like the paper's §4.3 setup.
///
/// # Examples
///
/// The paper's sound-clustering scenario: 100 000 machines in 20 equal
/// clusters, one prevalent problem in three clusters, two non-prevalent
/// problems in one cluster each:
///
/// ```
/// use mirage_sim::ScenarioBuilder;
/// let scenario = ScenarioBuilder::new()
///     .clusters(20, 5_000, 1)
///     .problem_in_clusters("prevalent", &[14, 15, 16])
///     .problem_in_clusters("rare-a", &[17])
///     .problem_in_clusters("rare-b", &[18])
///     .build();
/// assert_eq!(scenario.machine_count(), 100_000);
/// assert_eq!(scenario.problem_populations()["prevalent"], 15_000);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    base_plan: Option<DeployPlan>,
    cluster_count: usize,
    cluster_size: usize,
    reps_per_cluster: usize,
    problems: Vec<(String, Vec<usize>)>,
    misplaced: Vec<(usize, String)>,
    offline: Vec<(usize, usize, SimTime)>,
    missed: Vec<(usize, usize)>,
    named_problems: Vec<(String, String)>,
    faults: Option<FaultSpec>,
    urr: Option<Arc<Urr>>,
    durable: Option<Arc<DurableUrr>>,
    timings: Timings,
    threshold: f64,
    strategy: Option<RolloutStrategy>,
    guard: Option<GuardSettings>,
}

impl ScenarioBuilder {
    /// Starts a builder with paper-default timings and threshold 1.0.
    pub fn new() -> Self {
        ScenarioBuilder {
            base_plan: None,
            cluster_count: 0,
            cluster_size: 0,
            reps_per_cluster: 1,
            problems: Vec::new(),
            misplaced: Vec::new(),
            offline: Vec::new(),
            missed: Vec::new(),
            named_problems: Vec::new(),
            faults: None,
            urr: None,
            durable: None,
            timings: Timings::paper_default(),
            threshold: 1.0,
            strategy: None,
            guard: None,
        }
    }

    /// Builds the scenario over an existing, hand-constructed plan
    /// instead of synthetic `c00-m00000`-style clusters.
    ///
    /// Use the name-based directive [`Self::problem_on_machine`] with
    /// this entry point; cluster-index directives also work as long as
    /// the indexes exist in the plan.
    pub fn over_plan(plan: DeployPlan) -> Self {
        let mut b = Self::new();
        b.base_plan = Some(plan);
        b
    }

    /// Assigns `problem` to one named machine of the plan.
    pub fn problem_on_machine(mut self, machine: &str, problem: &str) -> Self {
        self.named_problems.push((machine.into(), problem.into()));
        self
    }

    /// Attaches a fault-injection spec; it is lowered against the final
    /// plan in [`Self::build`]. Without this call the scenario keeps
    /// [`FaultPlan::none`] and the reliable-channel fast path.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Attaches an Upgrade Report Repository: every test outcome the
    /// vendor receives during the run is also deposited into `urr` as a
    /// structured report (paper §3.4 closing the loop with §4.3).
    /// Without this call the scenario carries no repository and the
    /// simulation loop is bit-identical to the unwired driver.
    pub fn with_urr(mut self, urr: Arc<Urr>) -> Self {
        self.urr = Some(urr);
        self
    }

    /// Attaches a *durable* Upgrade Report Repository: like
    /// [`Self::with_urr`], but deposits are journaled through the
    /// storage layer's write-ahead log, so the campaign's repository
    /// survives a vendor crash ([`mirage_report::DurableUrr::recover`])
    /// with every query surface intact. The durable handle's live
    /// repository is attached as [`Scenario::urr`], so guards and
    /// queries work unchanged.
    pub fn with_durable_urr(mut self, durable: Arc<DurableUrr>) -> Self {
        self.urr = Some(Arc::clone(durable.urr()));
        self.durable = Some(durable);
        self
    }

    /// Sets `count` equal-size clusters of `size` machines with
    /// `reps` representatives each.
    ///
    /// Cluster `i` is given vendor distance `i as f64` — deployment-order
    /// position doubles as distance, so `problem_in_clusters` indexes are
    /// also positions in the Balanced order.
    pub fn clusters(mut self, count: usize, size: usize, reps: usize) -> Self {
        self.cluster_count = count;
        self.cluster_size = size;
        self.reps_per_cluster = reps;
        self
    }

    /// Makes every machine of the given clusters exhibit `problem`.
    pub fn problem_in_clusters(mut self, problem: &str, clusters: &[usize]) -> Self {
        self.problems.push((problem.into(), clusters.to_vec()));
        self
    }

    /// Injects one misplaced machine: a *non-representative* of
    /// `cluster` that exhibits `problem` although the rest of its cluster
    /// does not (the paper's imperfect-clustering experiment).
    pub fn misplaced_machine(mut self, cluster: usize, problem: &str) -> Self {
        self.misplaced.push((cluster, problem.into()));
        self
    }

    /// Takes `count` non-representative machines of `cluster` offline
    /// until `until`: they miss notifications delivered in the meantime
    /// and catch up once back online.
    pub fn offline_machines(mut self, cluster: usize, count: usize, until: SimTime) -> Self {
        self.offline.push((cluster, count, until));
        self
    }

    /// Makes testing on `count` problem-carrying machines of `cluster`
    /// miss the problem (it integrates anyway).
    pub fn missed_detections(mut self, cluster: usize, count: usize) -> Self {
        self.missed.push((cluster, count));
        self
    }

    /// Overrides the time constants.
    pub fn timings(mut self, timings: Timings) -> Self {
        self.timings = timings;
        self
    }

    /// Overrides the advancement threshold.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Selects a rollout strategy for this scenario:
    /// [`Scenario::rollout_controller`] then partitions the fleet into
    /// cohorts accordingly. Without this call it builds a single-wave
    /// `Staged` rollout, a pass-through to the staging protocol.
    pub fn with_strategy(mut self, strategy: RolloutStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Attaches URR guard thresholds: the rollout controller assesses
    /// live repository health on each decision tick and rolls the
    /// campaign back automatically when the guard trips. Requires
    /// [`Self::with_urr`] to take effect.
    pub fn with_guard(mut self, guard: GuardSettings) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Builds the scenario.
    ///
    /// # Panics
    ///
    /// Panics if a problem or misplaced-machine directive references a
    /// cluster that does not exist, if a misplaced machine is asked
    /// for in a cluster with no non-representatives, or if a name-based
    /// directive references a machine missing from the plan.
    pub fn build(self) -> Scenario {
        let plan = match self.base_plan {
            Some(plan) => plan,
            None => synthetic_plan(self.cluster_count, self.cluster_size, self.reps_per_cluster),
        };

        let mut scenario = Scenario::from_plan(plan);
        scenario.timings = self.timings;
        scenario.threshold = self.threshold;

        for (problem, cluster_ids) in &self.problems {
            let p = scenario.problems.intern(problem);
            for &cid in cluster_ids {
                let cluster = scenario
                    .plan
                    .clusters
                    .get(cid)
                    .unwrap_or_else(|| panic!("problem references missing cluster {cid}"));
                for &m in &cluster.members {
                    scenario.machine_problem[m.index()] = Some(p);
                }
            }
        }
        for (cid, problem) in &self.misplaced {
            let p = scenario.problems.intern(problem);
            let cluster = scenario
                .plan
                .clusters
                .get(*cid)
                .unwrap_or_else(|| panic!("misplaced machine in missing cluster {cid}"));
            let victim = cluster
                .non_reps()
                .into_iter()
                .next()
                .unwrap_or_else(|| panic!("cluster {cid} has no non-representatives"));
            scenario.machine_problem[victim.index()] = Some(p);
        }

        for (cid, count, until) in &self.offline {
            let cluster = scenario
                .plan
                .clusters
                .get(*cid)
                .unwrap_or_else(|| panic!("offline directive for missing cluster {cid}"));
            // Skip the first non-rep: misplaced_machine may have used it.
            for m in cluster.non_reps().into_iter().skip(1).take(*count) {
                scenario.offline_until[m.index()] = *until;
            }
        }
        for (cid, count) in &self.missed {
            let cluster =
                scenario.plan.clusters.get(*cid).unwrap_or_else(|| {
                    panic!("missed-detection directive for missing cluster {cid}")
                });
            let victims: Vec<MachineId> = cluster
                .members
                .iter()
                .filter(|m| scenario.machine_problem[m.index()].is_some())
                .take(*count)
                .copied()
                .collect();
            for m in victims {
                scenario.missed_detection.insert(m);
            }
        }

        for (machine, problem) in &self.named_problems {
            scenario.place_problem(machine, problem);
        }

        if let Some(spec) = &self.faults {
            scenario.faults = spec.lower(&scenario.plan);
        }
        scenario.urr = self.urr;
        scenario.durable = self.durable;
        scenario.strategy = self.strategy;
        scenario.guard = self.guard;
        scenario
    }
}

/// The synthetic fleet of [`ScenarioBuilder::clusters`]: `count`
/// clusters of `size` machines named `c{cluster}-m{index}`, cluster `c`
/// at distance `c`. Same plan as [`DeployPlan::from_named`] over those
/// names, but the table is sized for the whole fleet up front — the
/// longest name is the last one — and every name is formatted into one
/// reused buffer.
fn synthetic_plan(count: usize, size: usize, reps: usize) -> DeployPlan {
    let longest = format!(
        "c{:02}-m{:05}",
        count.saturating_sub(1),
        size.saturating_sub(1)
    )
    .len();
    let mut machines = MachineTable::with_capacity(count * size, count * size * longest);
    let mut name = String::new();
    let clusters = (0..count)
        .map(|id| {
            let members: Vec<MachineId> = (0..size)
                .map(|i| {
                    name.clear();
                    write!(name, "c{id:02}-m{i:05}").expect("writing to a String cannot fail");
                    machines.intern(&name)
                })
                .collect();
            let reps = members.iter().take(reps.max(1)).copied().collect();
            DeployCluster {
                id,
                members,
                reps,
                distance: id as f64,
            }
        })
        .collect();
    DeployPlan { machines, clusters }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The problem assigned to the named machine, if any.
    fn problem_name_of<'a>(s: &'a Scenario, machine: &str) -> Option<&'a str> {
        s.problem_of(s.plan.machine_id(machine)?)
            .map(|p| s.problems.name(p))
    }

    #[test]
    fn builder_constructs_plan() {
        let s = ScenarioBuilder::new().clusters(3, 10, 2).build();
        assert_eq!(s.plan.clusters.len(), 3);
        assert_eq!(s.machine_count(), 30);
        assert_eq!(s.plan.clusters[1].reps.len(), 2);
        assert_eq!(s.plan.clusters[2].distance, 2.0);
        assert_eq!(s.problem_machine_count(), 0);
        assert_eq!(s.threshold, 1.0);
    }

    #[test]
    fn problems_cover_whole_clusters() {
        let s = ScenarioBuilder::new()
            .clusters(4, 5, 1)
            .problem_in_clusters("p", &[1, 3])
            .build();
        assert_eq!(s.problem_populations()["p"], 10);
        // A machine in cluster 0 is healthy.
        assert_eq!(problem_name_of(&s, "c00-m00000"), None);
        assert_eq!(problem_name_of(&s, "c01-m00000"), Some("p"));
    }

    #[test]
    fn misplaced_machine_is_a_non_rep() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .misplaced_machine(0, "odd")
            .build();
        let odd = s.problems.id("odd").unwrap();
        let victims: Vec<MachineId> = s
            .machine_problem
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == Some(odd))
            .map(|(i, _)| MachineId(i as u32))
            .collect();
        assert_eq!(victims.len(), 1);
        assert!(!s.plan.clusters[0].reps.contains(&victims[0]));
        assert!(s.plan.clusters[0].members.contains(&victims[0]));
    }

    #[test]
    #[should_panic(expected = "missing cluster")]
    fn bad_cluster_reference_panics() {
        let _ = ScenarioBuilder::new()
            .clusters(1, 2, 1)
            .problem_in_clusters("p", &[5])
            .build();
    }

    #[test]
    fn timings_accessors() {
        let t = Timings::paper_default();
        assert_eq!(t.machine_cycle(), 15);
        assert_eq!(t.fix, 500);
    }

    #[test]
    fn over_plan_with_named_directives() {
        let plan =
            DeployPlan::from_named([(vec!["a", "b", "c"], 1, 0.0), (vec!["d", "e"], 1, 1.0)]);
        let s = ScenarioBuilder::over_plan(plan)
            .problem_on_machine("b", "p")
            .threshold(0.75)
            .build();
        assert_eq!(s.machine_count(), 5);
        assert_eq!(problem_name_of(&s, "b"), Some("p"));
        assert_eq!(problem_name_of(&s, "a"), None);
        assert_eq!(s.problem_machine_count(), 1);
        assert_eq!(s.threshold, 0.75);
        assert!(s.faults.is_none());
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn over_plan_unknown_machine_panics() {
        let plan = DeployPlan::from_named([(["a"], 1, 0.0)]);
        let _ = ScenarioBuilder::over_plan(plan)
            .problem_on_machine("nope", "p")
            .build();
    }

    #[test]
    fn faults_spec_is_lowered_against_the_final_plan() {
        let s = ScenarioBuilder::new()
            .clusters(2, 4, 1)
            .faults(
                FaultSpec::new(0xFA17)
                    .loss(0.2)
                    .duplication(0.1)
                    .churn(1, 2, 30, 200),
            )
            .build();
        assert!(!s.faults.is_none());
        assert_eq!(s.faults.seed, 0xFA17);
        assert_eq!(s.faults.loss, 0.2);
        assert_eq!(s.faults.churn.len(), 2);
        // Churned machines are non-reps of cluster 1.
        for &(m, leave, rejoin) in &s.faults.churn {
            assert!(s.plan.clusters[1].members.contains(&m));
            assert!(!s.plan.clusters[1].reps.contains(&m));
            assert_eq!((leave, rejoin), (30, 200));
        }
    }
}
