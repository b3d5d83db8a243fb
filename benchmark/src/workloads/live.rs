//! `live_wide` and `plan_mysql`: a real `Campaign` over modelled
//! `mirage-env` machines — trace, heuristic, fingerprint, two-phase
//! clustering, plan, then a live drive with sandbox validation, URR
//! deposits and vendor diagnose-and-fix.

use mirage_cluster::Clustering;
use mirage_core::{Campaign, CampaignResult, ProtocolChoice, RolloutPlan, RolloutStrategy};
use mirage_core::{UserAgent, Vendor};
use mirage_deploy::DeployPlan;
use mirage_env::{
    ApplicationSpec, EnvPredicate, File, IniDoc, Machine, MachineBuilder, Package, ProblemEffect,
    ProblemSpec, Repository, RunInput, Upgrade, Version, VersionReq,
};
use mirage_scenarios::mysql;

use crate::harness::{time_s, Ops, Opts, Traced, Values, Workload};
use crate::names::*;
use crate::trace::Tracer;

/// Machines sharing one environment in `live_wide`.
const GROUP_SIZE: usize = 25;
/// Machines `testing.validate_us` validates.
const VALIDATE_SAMPLE: usize = 500;
const STRATEGY: RolloutStrategy = RolloutStrategy::Staged { waves: 1 };

/// Which fleet a live campaign runs over.
#[derive(Debug, Clone, Copy)]
enum Fleet {
    /// The `tests/scale.rs` `svc` fleet: many small environment groups,
    /// diameter 0. Phase 1 does the clustering; the drive dominates.
    Wide { groups: usize },
    /// The paper's Table 2 MySQL fleet, replicated with renamed ids,
    /// diameter 3: clusters of identical machines, so dense phase-2 QT
    /// dominates.
    Mysql { replicas: usize },
}

/// A live-campaign workload.
#[derive(Debug)]
pub struct Live {
    fleet: Fleet,
    seed: u64,
}

impl Live {
    /// `live_wide`: 10 000 machines in 400 groups of 25.
    pub fn wide(opts: &Opts) -> Self {
        Live {
            fleet: Fleet::Wide {
                groups: if opts.smoke { 8 } else { 400 },
            },
            seed: opts.seed,
        }
    }

    /// `plan_mysql`: the 21 Table 2 machines x 80 = 1 680 machines.
    pub fn mysql(opts: &Opts) -> Self {
        Live {
            fleet: Fleet::Mysql {
                replicas: if opts.smoke { 2 } else { 80 },
            },
            seed: opts.seed,
        }
    }

    fn app(&self) -> &'static str {
        match self.fleet {
            Fleet::Wide { .. } => "svc",
            Fleet::Mysql { .. } => "mysqld",
        }
    }

    /// Clusters and failed validations a correct campaign ends with.
    /// `live_wide`: one cluster per group, and staging stops at the
    /// first affected representative. `plan_mysql`: the paper's 15
    /// clusters, one representative inconvenienced per problem.
    fn expected(&self) -> (usize, usize) {
        match self.fleet {
            Fleet::Wide { groups } => (groups, 1),
            Fleet::Mysql { .. } => (15, 2),
        }
    }

    /// The vendor, the fleet's machines and the upgrade to ship. The
    /// seed renames and reorders; it never changes how much work a
    /// campaign is.
    fn world(&self) -> (Vendor, Vec<Machine>, Upgrade) {
        match self.fleet {
            Fleet::Wide { groups } => {
                let mut repo = Repository::new();
                repo.publish(
                    Package::new("svc", Version::new(1, 0, 0))
                        .with_file(File::executable("/usr/bin/svc", "svc", 1))
                        .with_file(File::library("/usr/lib/libsvc.so", "libsvc", "1.0", 1)),
                );
                let spec = || {
                    ApplicationSpec::new("svc", "svc", "/usr/bin/svc")
                        .reads("/usr/lib/libsvc.so")
                        .probes("/etc/svc.conf")
                };
                let reference = MachineBuilder::new("ref")
                    .install(&repo, "svc", VersionReq::Any)
                    .app(spec())
                    .build();
                let vendor = Vendor::new(reference, repo).with_diameter(0);
                let machines = (0..groups * GROUP_SIZE)
                    .map(|i| {
                        let group = (i + self.seed as usize) % groups;
                        let mut b = MachineBuilder::new(format!("m{i:05}"))
                            .install(&vendor.repo, "svc", VersionReq::Any)
                            .app(spec());
                        if group > 0 {
                            b = b.file(File::config(
                                "/etc/svc.conf",
                                IniDoc::new().key("group", format!("{group}-{}", self.seed)),
                            ));
                        }
                        b.build()
                    })
                    .collect();
                let upgrade = Upgrade::new(
                    Package::new("svc", Version::new(2, 0, 0)).with_file(File::executable(
                        "/usr/bin/svc",
                        "svc",
                        2,
                    )),
                    vec![ProblemSpec::new(
                        "conf-break",
                        "v2 breaks every machine carrying /etc/svc.conf",
                        EnvPredicate::ConfigHasKey {
                            path: "/etc/svc.conf".into(),
                            section: "global".into(),
                            key: "group".into(),
                        },
                        ProblemEffect::CrashOnStart { app: "svc".into() },
                    )],
                );
                (vendor, machines, upgrade)
            }
            Fleet::Mysql { replicas } => {
                let repo = mysql::repository();
                let reference = mysql::vendor_reference(&repo);
                let vendor = Vendor::new(reference, repo)
                    .with_registry(mysql::full_registry())
                    .with_diameter(3);
                let configs = mysql::table2_configs();
                let mut machines: Vec<Machine> = (0..replicas)
                    .flat_map(|replica| configs.iter().map(move |config| (replica, config)))
                    .map(|(replica, config)| {
                        let mut machine = mysql::build_machine(config, &vendor.repo);
                        machine.id = format!("{}#{replica:02}-{}", config.name, self.seed);
                        machine
                    })
                    .collect();
                let shift = self.seed as usize % machines.len();
                machines.rotate_left(shift);
                (vendor, machines, mysql::mysql5_upgrade())
            }
        }
    }
}

/// A campaign ready to run.
pub struct LiveInput {
    campaign: Campaign,
    upgrade: Upgrade,
}

/// What a campaign left behind. The fleet stays alive in here, so
/// freeing 10 000 machines is not part of the campaign's time.
pub struct LiveOutput {
    campaign: Campaign,
    clustering: Clustering,
    _plan: RolloutPlan,
    result: CampaignResult,
}

impl Workload for Live {
    type Input = LiveInput;
    type Output = LiveOutput;

    fn shares(&self) -> &'static [&'static str] {
        &[
            HEURISTIC_CLASSIFY_REFERENCE_S,
            FINGERPRINT_FLEET_INPUTS_S,
            CLUSTER_CLUSTER_S,
            DEPLOY_PLAN_BUILD_S,
            ROLLOUT_PLAN_SHAPE_S,
            CORE_DRIVE_S,
        ]
    }

    fn setup(&self, t: &Tracer) -> LiveInput {
        let (vendor, machines, upgrade) = {
            let _span = t.span(ENV_FLEET_BUILD_S);
            self.world()
        };
        let agents = {
            let _span = t.span(TRACE_COLLECT_S);
            machines
                .into_iter()
                .map(|machine| {
                    let mut agent = UserAgent::new(machine);
                    agent.collect(self.app(), RunInput::new("w1"));
                    agent.collect(self.app(), RunInput::new("w2"));
                    agent
                })
                .collect()
        };
        LiveInput {
            campaign: Campaign::new(vendor, agents),
            upgrade,
        }
    }

    fn campaign(&self, input: LiveInput, t: &Tracer) -> LiveOutput {
        let LiveInput { campaign, upgrade } = input;
        let mut campaign = campaign.with_telemetry(t.telemetry());
        let app = self.app();
        let classification = {
            let _span = t.span(HEURISTIC_CLASSIFY_REFERENCE_S);
            campaign
                .vendor
                .classify_reference(app, &[RunInput::new("w1"), RunInput::new("w2")])
        };
        let reference = campaign.vendor.reference_fingerprint(&classification);
        // Untraced, the call a user makes. Traced, the same four steps
        // `rollout_plan` is made of, each under its own span.
        let (clustering, plan) = if t.is_on() {
            let inputs = {
                let _span = t.span(FINGERPRINT_FLEET_INPUTS_S);
                campaign.fleet_inputs(app, &reference)
            };
            let clustering = {
                let _span = t.span(CLUSTER_CLUSTER_S);
                campaign.vendor.cluster(&inputs)
            };
            let deploy = {
                let _span = t.span(DEPLOY_PLAN_BUILD_S);
                DeployPlan::from_clustering(&clustering, 1)
            };
            let _span = t.span(ROLLOUT_PLAN_SHAPE_S);
            (clustering, RolloutPlan::new(deploy, STRATEGY))
        } else {
            campaign.rollout_plan(app, &reference, 1, STRATEGY)
        };
        let result = {
            let _span = t.span(CORE_DRIVE_S);
            campaign.drive(upgrade, &plan, ProtocolChoice::Balanced, 1.0)
        };
        LiveOutput {
            campaign,
            clustering,
            _plan: plan,
            result,
        }
    }

    fn check(&self, out: &LiveOutput, _thorough: bool, ops: &mut Ops, exact: &mut Values) {
        let (clusters, failed_validations) = self.expected();
        let fleet = out.campaign.agents.len();
        let stats = out.campaign.urr.stats();
        ops.count(
            fleet,
            fleet - out.result.integrated.len(),
            "every machine integrates a release",
        );
        ops.invariant(out.result.rollback.is_none(), "no rollback");
        ops.invariant(out.clustering.len() == clusters, "cluster count");
        ops.invariant(
            out.result.failed_validations == failed_validations,
            "failed validations",
        );
        ops.invariant(
            stats.failures == out.result.failed_validations,
            "one failure report per failed validation",
        );
        exact.insert(CLUSTER_CLUSTERS, out.clustering.len() as f64);
        let validations = out.result.integrated.len() + out.result.failed_validations;
        ops.invariant(stats.total == validations, "one report per validation");
        exact.insert(CORE_VALIDATIONS, validations as f64);
        exact.insert(
            CORE_FAILED_VALIDATIONS,
            out.result.failed_validations as f64,
        );
        exact.insert(CORE_RELEASES_SHIPPED, out.result.releases.len() as f64);
        exact.insert(CORE_ROUNDS, out.result.rounds as f64);
        exact.insert(REPORT_LIVE_DEPOSITS, stats.total as f64);
    }

    fn layers(&self, traced: &Traced<'_>, _ops: &mut Ops, out: &mut Values) {
        let (t, repeat) = (traced.t, traced.repeat);
        out.insert(
            CLUSTER_DISTANCE_EVALS,
            t.counter(repeat, "cluster.distance_evals") as f64,
        );
        out.insert(
            CLUSTER_QT_MERGES,
            t.counter(repeat, "cluster.qt_merges") as f64,
        );
        // Sandbox validation alone, on machines no campaign has touched.
        let input = self.setup(&Tracer::off());
        let sample = &input.campaign.agents[..VALIDATE_SAMPLE.min(input.campaign.agents.len())];
        let _span = t.span(TESTING_VALIDATE_US);
        let ((), spent_s) = time_s(|| {
            for agent in sample {
                std::hint::black_box(
                    agent.test_upgrade(&input.campaign.vendor.repo, &input.upgrade),
                );
            }
        });
        out.insert(TESTING_VALIDATE_US, spent_s * 1e6 / sample.len() as f64);
    }
}
