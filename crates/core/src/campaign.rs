//! End-to-end deployment campaigns over a fleet.
//!
//! The campaign API splits the old monolithic deploy loop in two:
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
use mirage_report::{Report, Urr};
use mirage_rollout::{
    GuardSettings, RollbackInfo, RolloutController, RolloutPlan, RolloutStrategy, UrrGuard,
    WaveExecutor, WaveOutcome,
};
use mirage_telemetry::{FlightEvent, Telemetry};

use crate::agent::UserAgent;
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
    /// The deployment plan (clusters + representatives).
    pub plan: DeployPlan,
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
    pub telemetry: Telemetry,
    /// URR guard thresholds armed on every drive (closed-loop
    /// rollback). `None` runs open-loop.
    pub guard: Option<GuardSettings>,
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
    /// planning spans, clustering counters, per-round flight events, and
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

    /// Computes every agent's clustering input in parallel.
    ///
    /// The per-machine work (tracing, classification, fingerprinting,
    /// diffing) is independent, so it fans out across OS threads.
    pub fn fleet_inputs(&self, app: &str, reference: &MachineFingerprint) -> Vec<MachineInfo> {
        let _span = self.telemetry.span("campaign.fleet_inputs");
        self.telemetry
            .counter("campaign.fleet_size", self.agents.len() as u64);
        let vendor = &self.vendor;
        let chunk = chunk_len(self.agents.len(), num_threads());
        let mut results: Vec<Option<MachineInfo>> = vec![None; self.agents.len()];
        std::thread::scope(|scope| {
            for (agents, outs) in self.agents.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (agent, out) in agents.iter().zip(outs.iter_mut()) {
                        *out = Some(agent.clustering_input(app, vendor, reference));
                    }
                });
            }
        });
        results.into_iter().map(|o| o.expect("filled")).collect()
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
    /// `Staged` strategy delegates to; cohort strategies (`Canary` /
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
        let mut controller = RolloutController::new(plan.clone(), choice, threshold)
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
            plan: plan.deploy.clone(),
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
/// table, and a name is rendered only where an owned one is stored —
/// [`CampaignResult::integrated`], a URR [`Report`], a flight event.
struct FleetExecutor<'a> {
    vendor: &'a Vendor,
    agents: &'a mut [UserAgent],
    /// `MachineId::index()` → index into `agents`, built once per drive
    /// from the plan's table. `None` is a planned machine with no agent
    /// (skipped); of agents sharing an id the first holds the slot; an
    /// agent outside the plan has no slot and is never notified.
    agent_of: Vec<Option<usize>>,
    urr: &'a Urr,
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
            let machine_name = plan.machine_name(machine);
            self.telemetry.counter("campaign.reverts", 1);
            self.telemetry.event_with(|| FlightEvent::MachineNotified {
                machine: machine_name.to_string(),
                release: PRIOR_RELEASE.0,
            });
            self.integrated.remove(machine_name);
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
        self.telemetry.event_with(|| FlightEvent::ReleaseShipped {
            release: (self.releases.len() - 1) as u32,
        });
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
            // Boundary: the name reports and flight events carry,
            // borrowed from the plan's table.
            let machine_name = plan.machine_name(machine);
            self.telemetry.event_with(|| FlightEvent::MachineNotified {
                machine: machine_name.to_string(),
                release: release.0,
            });
            let current = &self.releases[release.0 as usize];
            let validation = self.agents[agent_idx].test_upgrade(&self.vendor.repo, current);
            self.telemetry.counter("campaign.validations", 1);
            if validation.passed() {
                self.telemetry.event_with(|| FlightEvent::TestPassed {
                    machine: machine_name.to_string(),
                    release: release.0,
                });
                self.agents[agent_idx].integrate(&self.vendor.repo, current);
                self.integrated.insert(machine_name.to_string(), release.0);
                self.urr.deposit(Report::success(
                    machine_name,
                    cluster,
                    &current.package.name,
                    current.package.version.to_string(),
                ));
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
                self.telemetry.event_with(|| FlightEvent::TestFailed {
                    machine: machine_name.to_string(),
                    release: release.0,
                    problem: signature.clone(),
                });
                let image = agent.report_image(&validation);
                self.urr.deposit(Report::failure(
                    machine_name,
                    cluster,
                    &current.package.name,
                    current.package.version.to_string(),
                    &signature,
                    kind.to_string(),
                    image,
                ));
                // Vendor reproduces the failure from the image and
                // identifies the underlying problems.
                for pid in self.vendor.diagnose(current, &agent.machine) {
                    if !self.fixed.contains(&pid) && !new_problems.iter().any(|p| p.0 == pid) {
                        self.telemetry.counter("campaign.problems_discovered", 1);
                        self.telemetry
                            .event_with(|| FlightEvent::ProblemDiscovered {
                                problem: pid.clone(),
                            });
                        new_problems.push(ProblemId(pid));
                    }
                }
                reports.push(TestReport {
                    machine,
                    release,
                    outcome: TestOutcome::Fail {
                        problem: self.signatures.intern(&signature),
                    },
                });
            }
        }
        let shipped = if new_problems.is_empty() {
            None
        } else {
            Some(self.ship_fix(new_problems))
        };
        WaveOutcome { reports, shipped }
    }
}

/// Agents per `fleet_inputs` thread: the smallest chunk that covers
/// `len` agents in at most `threads` chunks.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads).max(1)
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
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
        // Flight events: every kind of campaign event appears.
        for kind in [
            "machine_notified",
            "test_passed",
            "test_failed",
            "problem_discovered",
            "release_shipped",
            "wave_advanced",
        ] {
            assert!(
                snap.event_counts.get(kind).copied().unwrap_or(0) >= 1,
                "missing flight event kind {kind}"
            );
        }
        assert_eq!(snap.event_counts["test_failed"], 1);
        assert_eq!(snap.event_counts["release_shipped"], 1);
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

    /// A fleet-wide regression under a guarded rolling drive: the guard
    /// trips on the campaign's own URR, exposure stays within the first
    /// batch, and every reverted machine drops out of `integrated`.
    #[test]
    fn guarded_drive_aborts_and_contains_exposure() {
        use mirage_telemetry::Registry;

        let (campaign, _, ref_fp) = build_campaign();
        let registry = Arc::new(Registry::new(1024));
        let mut campaign = campaign
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)))
            .with_guard(GuardSettings {
                max_cluster_failure_rate: 0.3,
                min_reports: 2,
                unhealthy_ticks: 1,
                healthy_ticks: 1,
                ..GuardSettings::default()
            });
        let everywhere_bad = Upgrade::new(
            Package::new("app", Version::new(2, 0, 0)).with_file(File::executable(
                "/usr/bin/app",
                "app",
                2,
            )),
            vec![ProblemSpec::new(
                "global-regression",
                "v2 crashes on every machine",
                EnvPredicate::FileExists("/usr/bin/app".into()),
                ProblemEffect::CrashOnStart { app: "app".into() },
            )],
        );
        let (_, plan) = campaign.rollout_plan(
            "app",
            &ref_fp,
            1,
            RolloutStrategy::Rolling { batch_size: 2 },
        );
        assert_eq!(plan.cohorts.len(), 3);
        let result = campaign.drive(everywhere_bad, &plan, ProtocolChoice::Balanced, 1.0);
        let info = result.rollback.expect("guard aborts the regression");
        assert_eq!(info.exposed_machines, 2, "contained to the first batch");
        assert_eq!(info.at_cohort, 0);
        assert_eq!(info.prior_release, PRIOR_RELEASE);
        assert!(
            result.integrated.is_empty(),
            "reverted machines are un-integrated: {:?}",
            result.integrated
        );
        assert!(!result.converged(6));
        // The revert wave names exactly the exposed machines — the ones
        // that reported on the bad release — each once.
        let exposed: BTreeSet<String> = campaign.urr.all().into_iter().map(|r| r.machine).collect();
        let reverted: Vec<String> = registry
            .flight()
            .events()
            .into_iter()
            .filter_map(|e| match e.event {
                FlightEvent::MachineNotified { machine, release } if release == PRIOR_RELEASE.0 => {
                    Some(machine)
                }
                _ => None,
            })
            .collect();
        assert_eq!(reverted.len(), info.exposed_machines);
        assert_eq!(reverted.iter().cloned().collect::<BTreeSet<_>>(), exposed);
        assert_eq!(
            registry.snapshot().counters["campaign.reverts"],
            info.exposed_machines as u64
        );
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
        assert_eq!(snap.event_counts["machine_notified"], 1);
    }

    /// `fleet_inputs` answers in agent order whatever the chunking, and
    /// a fleet one past a multiple of the thread count still fits in
    /// one chunk per thread.
    #[test]
    fn fleet_inputs_keeps_agent_order_on_an_uneven_fleet() {
        let (mut campaign, _, ref_fp) = build_campaign();
        let threads = num_threads();
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

        for threads in 1..=9 {
            assert_eq!(chunk_len(0, threads), 1);
            for len in 1..=4 * threads + 1 {
                let chunk = chunk_len(len, threads);
                assert!(len.div_ceil(chunk) <= threads, "{len} agents, {threads}");
                assert!((chunk - 1) * threads < len, "{chunk} is not the smallest");
            }
        }
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

    /// A guarded drive of a *clean* upgrade stays open: the guard holds
    /// its fire and the fleet converges normally.
    #[test]
    fn guarded_drive_passes_a_clean_release() {
        let (campaign, _, ref_fp) = build_campaign();
        let mut campaign = campaign.with_guard(GuardSettings::default());
        let clean = clean_upgrade();
        let (_, plan) = campaign.rollout_plan(
            "app",
            &ref_fp,
            1,
            RolloutStrategy::Canary {
                percentage: 20.0,
                bake_time: 0,
            },
        );
        let result = campaign.drive(clean, &plan, ProtocolChoice::Balanced, 1.0);
        assert!(result.rollback.is_none());
        assert!(result.converged(6), "integrated: {:?}", result.integrated);
    }
}

#[cfg(test)]
mod urgency_tests {
    use super::*;
    use crate::vendor::Vendor;
    use mirage_env::{
        ApplicationSpec, File, MachineBuilder, Package, Repository, RunInput, Urgency, Version,
        VersionReq,
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
    fn urgency_selects_protocol() {
        assert_eq!(
            choice_for_urgency(Urgency::Urgent),
            ProtocolChoice::NoStaging
        );
        assert_eq!(
            choice_for_urgency(Urgency::Major),
            ProtocolChoice::FrontLoading
        );
        assert_eq!(
            choice_for_urgency(Urgency::Routine),
            ProtocolChoice::Balanced
        );
    }

    #[test]
    fn drive_auto_converges_for_each_urgency() {
        for urgency in [Urgency::Routine, Urgency::Major, Urgency::Urgent] {
            let (mut campaign, fp) = tiny_campaign();
            let (_, plan) =
                campaign.rollout_plan("app", &fp, 1, RolloutStrategy::Staged { waves: 1 });
            let result = campaign.drive_auto(clean_v2().with_urgency(urgency), &plan, 1.0);
            assert!(result.converged(4), "urgency {urgency:?}");
        }
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
