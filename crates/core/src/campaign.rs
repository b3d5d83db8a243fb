//! End-to-end deployment campaigns over a fleet.
//!
//! A campaign runs in two halves:
//!
//! * **Planning** ([`Campaign::rollout_plan`]) clusters the fleet and
//!   shapes the resulting [`DeployPlan`] into a strategy-carrying
//!   [`RolloutPlan`] — a pure value, no side effects.
//! * **Driving** ([`Campaign::drive`]) pumps a
//!   [`RolloutController`] over the live fleet through the generic
//!   [`mirage_rollout::drive()`] loop. The fleet side (sandbox
//!   validation, URR deposits, vendor diagnose-and-fix) lives in a
//!   private [`WaveExecutor`]; the protocol conversation and rollback
//!   authority live in the controller.
//!
//! A campaign with [guard settings](Campaign::with_guard) attached runs
//! closed-loop: every decision tick the controller assesses the
//! campaign's own Upgrade Report Repository and can abort the rollout,
//! re-notifying every enrolled machine with
//! [`PRIOR_RELEASE`] and recording a [`RollbackInfo`] on the
//! [`CampaignResult`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mirage_cluster::{Clustering, MachineInfo};
use mirage_deploy::{
    DeployPlan, MachineId, ProblemSet, ProblemTable, ProtocolChoice, Release, TestOutcome,
    TestReport, PRIOR_RELEASE,
};
use mirage_env::{ProblemId, Upgrade, UpgradeId, Urgency};
use mirage_fingerprint::MachineFingerprint;
use mirage_report::{InternedOutcome, InternedReport, MachineRef, Report, Urr};
use mirage_rollout::{
    GuardSettings, RollbackInfo, RolloutController, RolloutPlan, RolloutStrategy, UrrGuard,
    WaveExecutor, WaveOutcome,
};
use mirage_telemetry::{JournalEvent, Telemetry, NO_PROBLEM};

use crate::agent::UserAgent;
use crate::fleet::fleet_inputs;
use crate::vendor::Vendor;

/// The vendor's protocol choice for an upgrade's urgency (§3.2.2):
/// urgent high-confidence upgrades bypass staging entirely; major
/// releases go slowly with front-loaded debugging; everything else
/// uses Balanced.
pub fn choice_for_urgency(urgency: Urgency) -> ProtocolChoice {
    match urgency {
        Urgency::Urgent => ProtocolChoice::NoStaging,
        Urgency::Major => ProtocolChoice::FrontLoading,
        Urgency::Routine => ProtocolChoice::Balanced,
    }
}

/// The outcome of a campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Every release shipped (release 0 is the original upgrade).
    pub releases: Vec<UpgradeId>,
    /// Machines that integrated the upgrade, with the release they
    /// integrated. A rolled-back machine is *removed* again: after an
    /// abort this holds only machines still on a forward release.
    pub integrated: BTreeMap<String, u32>,
    /// Number of failed validations (upgrade overhead).
    pub failed_validations: usize,
    /// Logical rounds executed.
    pub rounds: usize,
    /// The rollback, if the campaign's guard aborted the rollout.
    pub rollback: Option<RollbackInfo>,
}

impl CampaignResult {
    /// Returns `true` if every machine integrated some release.
    pub fn converged(&self, fleet_size: usize) -> bool {
        self.integrated.len() == fleet_size
    }
}

/// A deployment campaign: a vendor, a fleet of user agents, and a URR.
pub struct Campaign {
    /// The vendor.
    pub vendor: Vendor,
    /// The fleet.
    pub agents: Vec<UserAgent>,
    /// The upgrade report repository. Shared (`Arc`) so a rollout
    /// guard can assess it live while the campaign deposits into it.
    pub urr: Arc<Urr>,
    /// Telemetry handle (no-op by default).
    pub(crate) telemetry: Telemetry,
    /// URR guard thresholds armed on every drive (closed-loop
    /// rollback). `None` runs open-loop.
    pub(crate) guard: Option<GuardSettings>,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(vendor: Vendor, agents: Vec<UserAgent>) -> Self {
        Campaign {
            vendor,
            agents,
            urr: Arc::new(Urr::new()),
            telemetry: Telemetry::noop(),
            guard: None,
        }
    }

    /// Attaches a telemetry handle to the campaign *and* its vendor, so
    /// planning spans, clustering counters, the drive's journal and
    /// protocol wave events all land in one recorder.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.vendor.telemetry = telemetry.clone();
        self.telemetry = telemetry;
        self
    }

    /// Arms the URR guard: every subsequent [`Campaign::drive`] runs
    /// closed-loop against the campaign's repository with these
    /// thresholds and may roll the fleet back.
    pub fn with_guard(mut self, settings: GuardSettings) -> Self {
        self.guard = Some(settings);
        self
    }

    /// Computes every agent's clustering input, in agent order: the
    /// heuristic, the parsers and the diff run once per distinct
    /// environment, on every core (see [`fleet_inputs`]).
    pub fn fleet_inputs(&self, app: &str, reference: &MachineFingerprint) -> Vec<MachineInfo> {
        let _span = self.telemetry.span("campaign.fleet_inputs");
        self.telemetry
            .counter("campaign.fleet_size", self.agents.len() as u64);
        fleet_inputs(&self.agents, app, &self.vendor, reference)
    }

    /// Clusters the fleet for `app` and shapes the deployment into a
    /// strategy-carrying [`RolloutPlan`] — the pure planning half of a
    /// campaign. Drive it with [`Campaign::drive`].
    pub fn rollout_plan(
        &self,
        app: &str,
        reference: &MachineFingerprint,
        reps_per_cluster: usize,
        strategy: RolloutStrategy,
    ) -> (Clustering, RolloutPlan) {
        let _span = self.telemetry.span("campaign.plan");
        let inputs = self.fleet_inputs(app, reference);
        let clustering = self.vendor.cluster(&inputs);
        let deploy = DeployPlan::from_clustering(&clustering, reps_per_cluster);
        (clustering, RolloutPlan::new(deploy, strategy))
    }

    /// Runs a full strategy-driven deployment of `upgrade` in logical
    /// time.
    ///
    /// A [`RolloutController`] over `plan` issues the notification
    /// waves; each wave validates the current release on the notified
    /// machines (real sandbox validation), deposits reports in the URR,
    /// lets the vendor diagnose failures from the report images and
    /// ship corrected releases, and continues until the controller
    /// completes or stalls. `choice` selects the staging protocol a
    /// `Staged` strategy runs; the cohort strategies (`Canary` /
    /// `Rolling` / `BlueGreen`) ignore it.
    ///
    /// With [guard settings](Campaign::with_guard) armed, the
    /// controller assesses the campaign's URR on every decision tick
    /// and aborts on sustained regression: every enrolled machine is
    /// re-notified with [`PRIOR_RELEASE`] and the abort is recorded on
    /// [`CampaignResult::rollback`].
    pub fn drive(
        &mut self,
        upgrade: Upgrade,
        plan: &RolloutPlan,
        choice: ProtocolChoice,
        threshold: f64,
    ) -> CampaignResult {
        let _deploy_span = self.telemetry.span("campaign.deploy");
        let mut controller = RolloutController::new(plan.clone().with_choice(choice), threshold)
            .with_telemetry(self.telemetry.clone());
        if let Some(settings) = self.guard {
            controller = controller.with_guard(UrrGuard::new(Arc::clone(&self.urr), settings));
        }
        let mut executor = FleetExecutor::new(
            &self.vendor,
            &mut self.agents,
            &self.urr,
            self.telemetry.clone(),
            &plan.deploy,
            upgrade,
        );
        let rounds = mirage_rollout::drive(&mut controller, &mut executor, &self.telemetry);
        self.telemetry.counter("campaign.rounds", rounds as u64);
        CampaignResult {
            releases: executor.releases.iter().map(Upgrade::id).collect(),
            integrated: executor.integrated,
            failed_validations: executor.failed_validations,
            rounds,
            rollback: controller.rollback().copied(),
        }
    }

    /// Drives with the protocol recommended for the upgrade's urgency
    /// (§3.2.2): urgent → NoStaging, major → FrontLoading, routine →
    /// Balanced.
    pub fn drive_auto(
        &mut self,
        upgrade: Upgrade,
        plan: &RolloutPlan,
        threshold: f64,
    ) -> CampaignResult {
        let choice = choice_for_urgency(upgrade.urgency);
        self.drive(upgrade, plan, choice, threshold)
    }
}

/// The fleet-shaped half of a campaign: executes one notification wave
/// against the live agents — sandbox validation, URR deposits, vendor
/// diagnose-and-fix — and reports what came back. The protocol
/// conversation lives entirely in [`mirage_rollout::drive()`].
///
/// The executor works in [`MachineId`]: the plan owns the one name ↔ id
/// table, which the URR adopts once per drive, and a name is rendered
/// only where an owned one is stored — [`CampaignResult::integrated`]
/// and a failure [`Report`]. A wave's passes reach the URR as one
/// interned batch, flushed before any failure is deposited, so the
/// sequence order is the order of validation. It journals what
/// the simulator journals for the same transitions — `Notify`, `Test`
/// and `UrrDeposit` — over the same dense ids, stamped with the drive's
/// tick clock.
struct FleetExecutor<'a> {
    vendor: &'a Vendor,
    agents: &'a mut [UserAgent],
    /// `MachineId::index()` → index into `agents`, built once per drive
    /// from the plan's table. `None` is a planned machine with no agent
    /// (skipped); of agents sharing an id the first holds the slot; an
    /// agent outside the plan has no slot and is never notified.
    agent_of: Vec<Option<usize>>,
    urr: &'a Urr,
    /// `MachineId::index()` → the machine's ref in `urr`; `None` when
    /// the ref is the id ([`Urr::intern_fleet`]).
    machine_refs: Option<Vec<MachineRef>>,
    /// The current wave's passes, not yet deposited.
    passes: Vec<InternedReport>,
    telemetry: Telemetry,
    plan: &'a DeployPlan,
    /// Every release shipped so far; index = `Release.0`.
    releases: Vec<Upgrade>,
    integrated: BTreeMap<String, u32>,
    failed_validations: usize,
    fixed: BTreeSet<String>,
    /// Failure *signatures* are the campaign's problem namespace for
    /// the protocol: intern them so the (id-keyed) protocol sees dense
    /// `ProblemId`s at the boundary.
    signatures: ProblemTable,
}

impl<'a> FleetExecutor<'a> {
    fn new(
        vendor: &'a Vendor,
        agents: &'a mut [UserAgent],
        urr: &'a Urr,
        telemetry: Telemetry,
        plan: &'a DeployPlan,
        upgrade: Upgrade,
    ) -> Self {
        let mut agent_of = vec![None; plan.machines.len()];
        for (idx, agent) in agents.iter().enumerate() {
            if let Some(id) = plan.machine_id(&agent.machine.id) {
                agent_of[id.index()].get_or_insert(idx);
            }
        }
        FleetExecutor {
            vendor,
            agents,
            agent_of,
            urr,
            machine_refs: urr.intern_fleet(Arc::clone(plan.machines.shared())),
            passes: Vec::new(),
            telemetry,
            plan,
            releases: vec![upgrade],
            integrated: BTreeMap::new(),
            failed_validations: 0,
            fixed: BTreeSet::new(),
            signatures: ProblemTable::new(),
        }
    }

    /// Executes a rollback wave: un-integrates each machine and
    /// confirms the revert with a `Pass` at [`PRIOR_RELEASE`]. The
    /// package-level downgrade is outside the campaign model (the
    /// pre-upgrade image is not snapshotted); what rolls back is the
    /// campaign's integration record, which is what
    /// [`CampaignResult::converged`] measures.
    fn revert(&mut self, machines: &[MachineId]) -> WaveOutcome {
        let plan = self.plan;
        let mut reports = Vec::with_capacity(machines.len());
        for &machine in machines {
            if self.agent_of[machine.index()].is_none() {
                continue;
            }
            self.telemetry.counter("campaign.reverts", 1);
            self.telemetry.journal(JournalEvent::Notify {
                machine: machine.index() as u32,
                release: PRIOR_RELEASE.0,
            });
            self.integrated.remove(plan.machine_name(machine));
            reports.push(TestReport {
                machine,
                release: PRIOR_RELEASE,
                outcome: TestOutcome::Pass,
            });
        }
        WaveOutcome {
            reports,
            shipped: None,
        }
    }

    /// Journals one validation and the deposit of its report; `problem`
    /// is the interned failure signature, or [`NO_PROBLEM`] on a pass.
    fn journal_validation(&self, machine: u32, release: Release, problem: u16) {
        let release = release.0;
        self.telemetry.journal(JournalEvent::Test {
            machine,
            release,
            problem,
        });
        self.telemetry.journal(JournalEvent::UrrDeposit {
            machine,
            release,
            problem,
        });
    }

    /// Ships one corrected release fixing every newly diagnosed
    /// problem, and gathers the cumulative fixed-signature set for the
    /// protocol's re-notification decision.
    fn ship_fix(&mut self, new_problems: Vec<ProblemId>) -> (Release, ProblemSet) {
        let latest = self.releases.last().expect("at least the original");
        let next = latest.fix_all(new_problems.iter());
        for p in &new_problems {
            self.fixed.insert(p.0.clone());
        }
        self.releases.push(next);
        self.telemetry.counter("campaign.releases_shipped", 1);
        // The protocol matches failure *signatures* (app/detail
        // strings), while fixes are tracked by problem id. A corrected
        // release here fixes every diagnosed problem, so every known
        // failure signature is addressed: re-notify all failed
        // machines.
        let mut all_sigs = ProblemSet::new();
        for g in self.urr.failure_groups() {
            all_sigs.insert(self.signatures.intern(&g.signature));
        }
        (Release((self.releases.len() - 1) as u32), all_sigs)
    }
}

impl WaveExecutor for FleetExecutor<'_> {
    fn notify(&mut self, machines: &[MachineId], release: Release) -> WaveOutcome {
        if release == PRIOR_RELEASE {
            return self.revert(machines);
        }
        let plan = self.plan;
        let mut new_problems: Vec<ProblemId> = Vec::new();
        let mut reports: Vec<TestReport> = Vec::new();
        let mut release_ref = None;
        for &machine in machines {
            let Some(agent_idx) = self.agent_of[machine.index()] else {
                continue;
            };
            // Reports are filed per cluster, so a machine the plan
            // names but places in no cluster cannot be validated: count
            // it and leave it out, never file it under a made-up
            // cluster.
            let Some(cluster) = plan.cluster_of(machine).map(|c| c.id) else {
                self.telemetry.counter("campaign.unplanned_machines", 1);
                continue;
            };
            // Boundary: the name reports carry, borrowed from the
            // plan's table.
            let machine_name = plan.machine_name(machine);
            let id = machine.index() as u32;
            self.telemetry.journal(JournalEvent::Notify {
                machine: id,
                release: release.0,
            });
            let current = &self.releases[release.0 as usize];
            let validation = self.agents[agent_idx].upgrade(&self.vendor.repo, current);
            self.telemetry.counter("campaign.validations", 1);
            if validation.passed() {
                self.integrated.insert(machine_name.to_string(), release.0);
                let release_ref = *release_ref.get_or_insert_with(|| {
                    let package = &current.package;
                    (self.urr).intern_release(&package.name, &package.version.to_string())
                });
                let machine_ref = match &self.machine_refs {
                    Some(refs) => refs[machine.index()],
                    None => MachineRef(machine.index() as u32),
                };
                self.passes.push(InternedReport {
                    machine: machine_ref,
                    cluster: cluster as u32,
                    release: release_ref,
                    outcome: InternedOutcome::Success,
                });
                self.journal_validation(id, release, NO_PROBLEM);
                reports.push(TestReport {
                    machine,
                    release,
                    outcome: TestOutcome::Pass,
                });
            } else {
                self.failed_validations += 1;
                self.telemetry.counter("campaign.failed_validations", 1);
                let agent = &self.agents[agent_idx];
                let (app, kind) = validation.first_failure().expect("failed validation");
                let signature = format!("{app}/{kind}");
                let image = agent.report_image(&validation);
                flush_passes(self.urr, &mut self.passes);
                self.urr.deposit(Report::failure(
                    machine_name,
                    cluster,
                    &current.package.name,
                    current.package.version.to_string(),
                    &signature,
                    kind.to_string(),
                    image,
                ));
                let problem = self.signatures.intern(&signature);
                self.journal_validation(id, release, problem.0);
                // Vendor reproduces the failure from the image and
                // identifies the underlying problems.
                for pid in self.vendor.diagnose(current, &agent.machine) {
                    if !self.fixed.contains(&pid) && !new_problems.iter().any(|p| p.0 == pid) {
                        self.telemetry.counter("campaign.problems_discovered", 1);
                        new_problems.push(ProblemId(pid));
                    }
                }
                reports.push(TestReport {
                    machine,
                    release,
                    outcome: TestOutcome::Fail { problem },
                });
            }
        }
        flush_passes(self.urr, &mut self.passes);
        let shipped = if new_problems.is_empty() {
            None
        } else {
            Some(self.ship_fix(new_problems))
        };
        WaveOutcome { reports, shipped }
    }
}

/// Deposits the passes a wave gathered so far as one batch.
fn flush_passes(urr: &Urr, passes: &mut Vec<InternedReport>) {
    if !passes.is_empty() {
        urr.deposit_interned_batch(passes);
        passes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_env::{
        ApplicationSpec, EnvPredicate, File, MachineBuilder, Package, ProblemEffect, ProblemSpec,
        Repository, RunInput, Version, VersionReq,
    };

    fn staged() -> RolloutStrategy {
        RolloutStrategy::Staged { waves: 1 }
    }

    /// A little world: app v1 installed everywhere; two machines carry a
    /// legacy config that breaks the v2 upgrade.
    fn build_campaign() -> (Campaign, Upgrade, MachineFingerprint) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("app", Version::new(1, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                1,
            )),
        );
        let spec =
            || ApplicationSpec::new("app", "app", "/usr/bin/app").probes("/etc/app-legacy.conf");
        let reference = MachineBuilder::new("vendor-ref")
            .install(&repo, "app", VersionReq::Any)
            .app(spec())
            .build();

        let mut agents = Vec::new();
        for i in 0..6 {
            let mut b = MachineBuilder::new(format!("u{i}"))
                .install(&repo, "app", VersionReq::Any)
                .app(spec());
            if i >= 4 {
                b = b.file(File::config(
                    "/etc/app-legacy.conf",
                    mirage_env::IniDoc::new().key("legacy", "yes"),
                ));
            }
            let mut agent = UserAgent::new(b.build());
            agent.collect("app", RunInput::new("w1"));
            agent.collect("app", RunInput::new("w2"));
            agents.push(agent);
        }

        let v2 = Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
            "/usr/bin/app",
            "app",
            2,
        ));
        let upgrade = Upgrade::new(
            v2,
            vec![ProblemSpec::new(
                "legacy-conf",
                "v2 breaks on legacy config",
                EnvPredicate::FileExists("/etc/app-legacy.conf".into()),
                ProblemEffect::CrashOnStart { app: "app".into() },
            )],
        );

        let vendor = Vendor::new(reference, repo).with_diameter(0);
        let c = vendor.classify_reference("app", &[RunInput::new("w1"), RunInput::new("w2")]);
        let ref_fp = vendor.reference_fingerprint(&c);
        (Campaign::new(vendor, agents), upgrade, ref_fp)
    }

    /// A v2 with no problem in it.
    fn clean_upgrade() -> Upgrade {
        Upgrade::new(
            Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                2,
            )),
            vec![],
        )
    }

    #[test]
    fn clustering_separates_legacy_machines() {
        let (campaign, _, ref_fp) = build_campaign();
        let (clustering, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        assert_eq!(clustering.len(), 2);
        let legacy_cluster = clustering.cluster_of("u4").unwrap();
        assert!(legacy_cluster.contains("u5"));
        assert!(!legacy_cluster.contains("u0"));
        assert_eq!(plan.deploy.clusters.len(), 2);
    }

    #[test]
    fn balanced_campaign_converges_with_one_rep_failure() {
        let (mut campaign, upgrade, ref_fp) = build_campaign();
        let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
        assert!(result.converged(6), "integrated: {:?}", result.integrated);
        assert!(result.rollback.is_none());
        // Exactly one machine (the legacy cluster's representative)
        // tested the faulty release.
        assert_eq!(result.failed_validations, 1);
        // Two releases: the original and the fix.
        assert_eq!(result.releases.len(), 2);
        // URR has one failure group with one machine.
        let groups = campaign.urr.failure_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].machines.len(), 1);
        // Healthy machines integrated release 0; legacy machines the fix.
        assert_eq!(result.integrated["u0"], 0);
        assert_eq!(result.integrated["u4"], 1);
        assert_eq!(result.integrated["u5"], 1);
        // Live machines actually upgraded.
        let u4 = campaign
            .agents
            .iter()
            .find(|a| a.machine.id == "u4")
            .unwrap();
        assert_eq!(
            u4.machine.pkgs.installed_version("app"),
            Some(Version::new(2, 0, 1))
        );
    }

    #[test]
    fn nostaging_campaign_fails_everywhere_at_once() {
        let (mut campaign, upgrade, ref_fp) = build_campaign();
        let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        let result = campaign.drive(upgrade, &plan, ProtocolChoice::NoStaging, 1.0);
        assert!(result.converged(6));
        // Both legacy machines tested the faulty release.
        assert_eq!(result.failed_validations, 2);
    }

    #[test]
    fn frontloading_campaign_converges() {
        let (mut campaign, upgrade, ref_fp) = build_campaign();
        let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        let result = campaign.drive(upgrade, &plan, ProtocolChoice::FrontLoading, 1.0);
        assert!(result.converged(6));
        assert_eq!(result.failed_validations, 1);
    }

    #[test]
    fn telemetry_records_campaign_flight() {
        use mirage_telemetry::health::{self, WatchdogConfig};
        use mirage_telemetry::json::Value;
        use mirage_telemetry::trace_export::{chrome_trace, TraceConfig};
        use mirage_telemetry::{Registry, Telemetry};

        let (campaign, upgrade, ref_fp) = build_campaign();
        let registry = Arc::new(Registry::new(1024));
        let mut campaign = campaign.with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
        let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
        assert!(result.converged(6));

        let snap = registry.snapshot();
        // Campaign counters.
        assert_eq!(snap.counters["campaign.fleet_size"], 6);
        assert_eq!(snap.counters["campaign.rounds"], result.rounds as u64);
        assert_eq!(snap.counters["campaign.failed_validations"], 1);
        assert_eq!(snap.counters["campaign.problems_discovered"], 1);
        assert_eq!(snap.counters["campaign.releases_shipped"], 1);
        assert!(snap.counters["campaign.validations"] >= 6);
        // Clustering counters flow through the vendor's engine.
        assert_eq!(snap.counters["cluster.machines_in"], 6);
        // Protocol counters flow through the deploy crate.
        assert!(snap.counters["deploy.machines_notified"] >= 6);
        // Spans nest: plan wraps fleet_inputs wraps the cluster pipeline.
        for span in [
            "campaign.plan",
            "campaign.plan/campaign.fleet_inputs",
            "campaign.plan/cluster.pipeline",
            "campaign.deploy",
        ] {
            assert!(snap.spans.contains_key(span), "missing span {span}");
        }
        assert_eq!(
            snap.spans["campaign.deploy/round"].count,
            result.rounds as u64
        );
        // The drive journals what the simulator journals: a Notify per
        // notification, a Test and a URR deposit per validation.
        let journal = &snap.journal_counts;
        assert!(journal["notify"] >= 6);
        assert_eq!(journal["test"], snap.counters["campaign.validations"]);
        assert_eq!(journal["urr_deposit"], journal["test"]);
        assert!(journal["wave_advance"] >= 1);
        let entries = registry.journal().entries();
        let failing = entries
            .iter()
            .filter(
                |e| matches!(e.event, JournalEvent::Test { problem, .. } if problem != NO_PROBLEM),
            )
            .count();
        assert_eq!(failing, 1);

        // The simulator's consumers read the live journal as they are.
        let mut machine_cluster = vec![0; plan.deploy.machines.len()];
        for cluster in &plan.deploy.clusters {
            for m in &cluster.members {
                machine_cluster[m.index()] = cluster.id as u32;
            }
        }
        let run_end = registry.journal().now();
        let frames = health::rollup(
            &entries,
            &machine_cluster,
            run_end,
            &WatchdogConfig::default(),
        );
        let failures: u64 = frames.iter().map(|f| f.tests_failed).sum();
        assert_eq!(failures, result.failed_validations as u64);
        let trace = chrome_trace(
            &entries,
            run_end,
            &|m| plan.deploy.machine_name(MachineId(m)).to_string(),
            &|p| format!("problem {p}"),
            &TraceConfig::default(),
        );
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let count = |field: &str, value: &str| {
            events
                .iter()
                .filter(|e| e.get(field).and_then(Value::as_str) == Some(value))
                .count()
        };
        assert_eq!(count("cat", "failure"), 1);
        assert_eq!(count("name", "thread_name"), 6, "a track per machine");
    }

    #[test]
    fn healthy_upgrade_ships_single_release() {
        let (mut campaign, _, ref_fp) = build_campaign();
        let clean = clean_upgrade();
        let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        let result = campaign.drive(clean, &plan, ProtocolChoice::Balanced, 1.0);
        assert!(result.converged(6));
        assert_eq!(result.failed_validations, 0);
        assert_eq!(result.releases.len(), 1);
        assert_eq!(campaign.urr.stats().failures, 0);
    }

    /// The executor `Campaign::drive` builds, for waves issued by hand.
    fn executor<'a>(
        campaign: &'a mut Campaign,
        plan: &'a DeployPlan,
        upgrade: Upgrade,
    ) -> FleetExecutor<'a> {
        FleetExecutor::new(
            &campaign.vendor,
            &mut campaign.agents,
            &campaign.urr,
            campaign.telemetry.clone(),
            plan,
            upgrade,
        )
    }

    /// A revert wave un-integrates the machines it names and no other.
    #[test]
    fn revert_unintegrates_only_the_named_machines() {
        let (mut campaign, _, ref_fp) = build_campaign();
        let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
        let all = plan.deploy.all_machines();
        let mut fleet = executor(&mut campaign, &plan.deploy, clean_upgrade());
        let wave = fleet.notify(&all, Release(0));
        assert_eq!(wave.reports.len(), 6);
        assert_eq!(fleet.integrated.len(), 6);

        let exposed = [all[4], all[1]];
        let wave = fleet.notify(&exposed, PRIOR_RELEASE);
        let confirmed = exposed.map(|machine| TestReport {
            machine,
            release: PRIOR_RELEASE,
            outcome: TestOutcome::Pass,
        });
        assert_eq!(wave.reports, confirmed);
        assert!(wave.shipped.is_none());
        let kept: Vec<&str> = all
            .iter()
            .filter(|m| !exposed.contains(m))
            .map(|&m| plan.deploy.machine_name(m))
            .collect();
        assert_eq!(fleet.integrated.keys().collect::<Vec<_>>(), kept);
    }

    /// A machine the plan names but places in no cluster is counted and
    /// left out; nothing is filed under a made-up cluster.
    #[test]
    fn machine_in_no_cluster_is_counted_not_validated() {
        use mirage_telemetry::Registry;

        let (campaign, _, _) = build_campaign();
        let registry = Arc::new(Registry::new(64));
        let mut campaign = campaign.with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
        let mut deploy = DeployPlan::from_named([(["u0"], 1, 0.0)]);
        let planned = deploy.machine_id("u0").expect("interned");
        let stray = deploy.machines.intern("u1");
        let mut fleet = executor(&mut campaign, &deploy, clean_upgrade());
        let wave = fleet.notify(&[stray, planned], Release(0));
        assert_eq!(wave.reports.len(), 1);
        assert_eq!(wave.reports[0].machine, planned);
        assert_eq!(fleet.integrated.keys().collect::<Vec<_>>(), ["u0"]);
        assert_eq!(campaign.urr.stats().total, 1);
        assert_eq!(campaign.urr.for_cluster(0)[0].machine, "u0");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["campaign.unplanned_machines"], 1);
        assert_eq!(snap.counters["campaign.validations"], 1);
        assert_eq!(snap.journal_counts["notify"], 1);
        assert_eq!(snap.journal_counts["test"], 1);
    }

    /// `fleet_inputs` answers in agent order on a fleet one past a
    /// multiple of the thread count.
    #[test]
    fn fleet_inputs_keeps_agent_order_on_an_uneven_fleet() {
        let (mut campaign, _, ref_fp) = build_campaign();
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        let template = campaign.agents[0].clone();
        campaign.agents = (0..threads * 2 + 1)
            .map(|i| {
                let mut agent = template.clone();
                agent.machine.id = format!("n{i:03}");
                agent
            })
            .collect();
        let inputs = campaign.fleet_inputs("app", &ref_fp);
        let ids: Vec<&str> = inputs.iter().map(|m| m.id()).collect();
        let agents: Vec<&str> = campaign
            .agents
            .iter()
            .map(|a| a.machine.id.as_str())
            .collect();
        assert_eq!(ids, agents);
    }

    /// Agents are found through the plan's table, not by position: a
    /// shuffled fleet drives to the same result, and of two agents
    /// answering to one id the first is the one the campaign upgrades.
    #[test]
    fn agent_order_and_duplicate_ids_leave_the_result_alone() {
        let run = |rearrange: fn(&mut Vec<UserAgent>), threshold: f64| {
            let (mut campaign, upgrade, ref_fp) = build_campaign();
            rearrange(&mut campaign.agents);
            let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
            let result = campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, threshold);
            (campaign, result)
        };
        let outcome = |r: &CampaignResult| {
            (
                r.integrated.clone(),
                r.failed_validations,
                r.releases.clone(),
                r.rounds,
            )
        };
        let (_, in_order) = run(|_| {}, 1.0);
        assert!(in_order.converged(6));
        assert_eq!((in_order.failed_validations, in_order.rounds), (1, 6));

        let (_, shuffled) = run(
            |agents| {
                let mut order: Vec<usize> = (0..agents.len()).collect();
                mirage_deploy::seeded_shuffle(&mut order, 11);
                assert_ne!(order, (0..agents.len()).collect::<Vec<_>>());
                *agents = order.iter().map(|&i| agents[i].clone()).collect();
            },
            1.0,
        );
        assert_eq!(outcome(&shuffled), outcome(&in_order));

        // The plan lists the doubled id twice, so its cluster tops out
        // at four passes of five: drive at a threshold that lets it by.
        let (campaign, doubled) = run(|agents| agents.push(agents[2].clone()), 0.75);
        assert_eq!(outcome(&doubled), outcome(&in_order));
        let versions: Vec<_> = campaign
            .agents
            .iter()
            .filter(|a| a.machine.id == "u2")
            .map(|a| a.machine.pkgs.installed_version("app"))
            .collect();
        assert_eq!(
            versions,
            [Some(Version::new(2, 0, 0)), Some(Version::new(1, 0, 0))]
        );
    }

    /// The drive files every report in the order it validated the
    /// machines, passes batched and failures by name alike, and the
    /// repository reads the same whether it adopted the plan's machine
    /// table or had to intern the names one at a time.
    #[test]
    fn reports_are_filed_in_validation_order_whatever_the_table() {
        use mirage_report::ReportOutcome;
        use mirage_telemetry::Registry;

        let run = |stranger: bool| {
            let (campaign, upgrade, ref_fp) = build_campaign();
            let registry = Arc::new(Registry::new(1024));
            let mut campaign =
                campaign.with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
            if stranger {
                campaign.urr.intern_machine("stranger");
            }
            let (_, plan) = campaign.rollout_plan("app", &ref_fp, 1, staged());
            // NoStaging validates the whole fleet in one wave: passes
            // and both failures.
            let result = campaign.drive(upgrade, &plan, ProtocolChoice::NoStaging, 1.0);
            assert_eq!(result.failed_validations, 2);
            let validated: Vec<(String, bool)> = (registry.journal().entries().iter())
                .filter_map(|e| match e.event {
                    JournalEvent::UrrDeposit {
                        machine, problem, ..
                    } => Some((
                        plan.deploy.machine_name(MachineId(machine)).to_string(),
                        problem == NO_PROBLEM,
                    )),
                    _ => None,
                })
                .collect();
            let filed: Vec<(String, bool)> = (campaign.urr.all().into_iter())
                .map(|r| (r.machine, r.outcome == ReportOutcome::Success))
                .collect();
            assert_eq!(filed, validated);
            assert!(
                filed.windows(2).any(|w| w[0].1 && !w[1].1),
                "a pass before a failure"
            );
            campaign.urr
        };
        let (adopted, interned) = (run(false), run(true));
        assert_eq!(adopted.stats(), interned.stats());
        assert_eq!(adopted.failure_groups(), interned.failure_groups());
        assert_eq!(adopted.release_summaries(), interned.release_summaries());
        assert_eq!(adopted.next_seq(), interned.next_seq());
        assert_eq!(adopted.all(), interned.all());
    }
}

#[cfg(test)]
mod urgency_tests {
    use super::*;
    use crate::vendor::Vendor;
    use mirage_env::{
        ApplicationSpec, File, MachineBuilder, Package, Repository, RunInput, Version, VersionReq,
    };

    fn tiny_campaign() -> (Campaign, mirage_fingerprint::MachineFingerprint) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("app", Version::new(1, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                1,
            )),
        );
        let spec = || ApplicationSpec::new("app", "app", "/usr/bin/app");
        let reference = MachineBuilder::new("ref")
            .install(&repo, "app", VersionReq::Any)
            .app(spec())
            .build();
        let vendor = Vendor::new(reference, repo).with_diameter(0);
        let mut agents = Vec::new();
        for i in 0..4 {
            let mut agent = UserAgent::new(
                MachineBuilder::new(format!("u{i}"))
                    .install(&vendor.repo, "app", VersionReq::Any)
                    .app(spec())
                    .build(),
            );
            agent.collect("app", RunInput::new("w"));
            agents.push(agent);
        }
        let c = vendor.classify_reference("app", &[RunInput::new("w")]);
        let fp = vendor.reference_fingerprint(&c);
        (Campaign::new(vendor, agents), fp)
    }

    fn clean_v2() -> Upgrade {
        Upgrade::new(
            Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                2,
            )),
            vec![],
        )
    }

    #[test]
    fn random_staging_is_deterministic_and_converges() {
        let (mut campaign, fp) = tiny_campaign();
        let (_, plan) = campaign.rollout_plan("app", &fp, 1, RolloutStrategy::Staged { waves: 1 });
        let result = campaign.drive(
            clean_v2(),
            &plan,
            ProtocolChoice::RandomStaging { seed: 42 },
            1.0,
        );
        assert!(result.converged(4));
        assert_eq!(result.failed_validations, 0);
    }

    #[test]
    fn seeded_shuffle_is_a_permutation() {
        use mirage_deploy::seeded_shuffle;
        let mut order: Vec<usize> = (0..10).collect();
        seeded_shuffle(&mut order, 7);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        // Deterministic for equal seeds, different across seeds.
        let mut again: Vec<usize> = (0..10).collect();
        seeded_shuffle(&mut again, 7);
        assert_eq!(order, again);
        let mut other: Vec<usize> = (0..10).collect();
        seeded_shuffle(&mut other, 8);
        assert_ne!(order, other);
    }

    /// Every cohort strategy converges the clean release end-to-end on
    /// the live fleet, not just in the simulator.
    #[test]
    fn all_strategies_converge_live() {
        for strategy in [
            RolloutStrategy::Staged { waves: 2 },
            RolloutStrategy::Canary {
                percentage: 25.0,
                bake_time: 0,
            },
            RolloutStrategy::Rolling { batch_size: 2 },
            RolloutStrategy::BlueGreen,
        ] {
            let (mut campaign, fp) = tiny_campaign();
            let (_, plan) = campaign.rollout_plan("app", &fp, 1, strategy);
            let result = campaign.drive(clean_v2(), &plan, ProtocolChoice::Balanced, 1.0);
            assert!(
                result.converged(4),
                "{}: integrated {:?}",
                strategy.name(),
                result.integrated
            );
            assert!(result.rollback.is_none(), "{}", strategy.name());
        }
    }
}

#[cfg(test)]
mod frontloading_analytics_tests {
    use super::*;
    use crate::vendor::Vendor;
    use mirage_env::{
        ApplicationSpec, EnvPredicate, File, IniDoc, MachineBuilder, Package, ProblemEffect,
        ProblemSpec, Repository, RunInput, Version, VersionReq,
    };

    /// A fleet with several environment groups; the "exotic" group (far
    /// from the vendor) breaks the upgrade.
    fn campaign() -> (Campaign, mirage_fingerprint::MachineFingerprint, Upgrade) {
        let mut repo = Repository::new();
        repo.publish(
            Package::new("app", Version::new(1, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                1,
            )),
        );
        let spec = || ApplicationSpec::new("app", "app", "/usr/bin/app").probes("/etc/app.conf");
        let reference = MachineBuilder::new("ref")
            .install(&repo, "app", VersionReq::Any)
            .app(spec())
            .build();
        let vendor = Vendor::new(reference, repo).with_diameter(0);
        let mut agents = Vec::new();
        for i in 0..12 {
            let mut b = MachineBuilder::new(format!("u{i:02}"))
                .install(&vendor.repo, "app", VersionReq::Any)
                .app(spec());
            // Three groups: vanilla (0-5), tuned (6-9), exotic (10-11).
            if (6..10).contains(&i) {
                b = b.file(File::config(
                    "/etc/app.conf",
                    IniDoc::new().key("tuning", "aggressive"),
                ));
            } else if i >= 10 {
                b = b.file(File::config(
                    "/etc/app.conf",
                    IniDoc::new().key("mode", "exotic").key("compat", "legacy"),
                ));
            }
            let mut agent = UserAgent::new(b.build());
            agent.collect("app", RunInput::new("w"));
            agents.push(agent);
        }
        let upgrade = Upgrade::new(
            Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                2,
            )),
            vec![ProblemSpec::new(
                "exotic-break",
                "v2 breaks exotic configurations",
                EnvPredicate::ConfigHasKey {
                    path: "/etc/app.conf".into(),
                    section: "global".into(),
                    key: "compat".into(),
                },
                ProblemEffect::CrashOnStart { app: "app".into() },
            )],
        );
        let c = vendor.classify_reference("app", &[RunInput::new("w")]);
        let fp = vendor.reference_fingerprint(&c);
        (Campaign::new(vendor, agents), fp, upgrade)
    }

    /// FrontLoading discovers the exotic problem among its first reports
    /// (all representatives test first); Balanced discovers it only when
    /// the deployment reaches the distant cluster.
    #[test]
    fn frontloading_front_loads_discovery() {
        let staged = RolloutStrategy::Staged { waves: 1 };
        let (mut fl_campaign, fp, upgrade) = campaign();
        let (_, plan) = fl_campaign.rollout_plan("app", &fp, 1, staged);
        let result = fl_campaign.drive(upgrade.clone(), &plan, ProtocolChoice::FrontLoading, 1.0);
        assert!(result.converged(12));
        let fl_profile = fl_campaign.urr.discovery_profile();
        assert_eq!(fl_profile.len(), 1);

        let (mut b_campaign, fp, upgrade) = campaign();
        let (_, plan) = b_campaign.rollout_plan("app", &fp, 1, staged);
        let result = b_campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0);
        assert!(result.converged(12));
        let b_profile = b_campaign.urr.discovery_profile();
        assert_eq!(b_profile.len(), 1);

        assert!(
            fl_profile[0].1 < b_profile[0].1,
            "FrontLoading ({:.2}) must discover earlier than Balanced ({:.2})",
            fl_profile[0].1,
            b_profile[0].1
        );
        // Release summaries show the broken release healing.
        let summaries = fl_campaign.urr.release_summaries();
        assert_eq!(summaries.len(), 2);
        assert!(summaries[0].failures >= 1);
        assert_eq!(summaries[1].failures, 0);
    }
}
