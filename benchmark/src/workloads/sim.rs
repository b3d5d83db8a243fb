//! `sim_rollout` and `sim_rollback`: the simulator driving a rollout
//! controller over a 1 000 000-machine plan, reports flowing into the
//! URR and the guard reading them back.
//!
//! A simulated campaign is one call, so its layer shares come from
//! ablation through public configuration: the same scenario run bare,
//! then with a URR, then with the guard, then journaled. A level is
//! only ablated where the campaign still ends the same way without it:
//! with no guard the bad release is never rolled back (the fleet
//! converges through a vendor fix instead, a different and longer
//! campaign), so `sim_rollback` is ablated from the guard level up.

use std::sync::Arc;
use std::time::Instant;

use mirage_core::{GuardSettings, ProtocolChoice, RolloutPlan, RolloutStrategy};
use mirage_report::{DurableConfig, DurableUrr, MemoryStore, Urr};
use mirage_rollout::RolloutOutcome;
use mirage_sim::{
    run_parallel_in, run_rollout_with_telemetry, FaultSpec, Scenario, ScenarioBuilder, SimArena,
    SimMetrics,
};
use mirage_telemetry::Telemetry;

use crate::harness::{quantile, time_s, Ops, Opts, Traced, Values, Workload};
use crate::names::*;
use crate::trace::Tracer;

const CLUSTERS: usize = 100;
/// Paired guard queries `rollout.guard_query_p50_us` samples.
const GUARD_QUERIES: usize = 200;

/// The `repro rollback-sweep` guard, scaled to this plan's clusters.
const GUARD: GuardSettings = GuardSettings {
    max_cluster_failure_rate: 0.3,
    max_failure_population: CLUSTERS / 2,
    min_reports: 5,
    unhealthy_ticks: 2,
    healthy_ticks: 1,
};

/// How much of the report plane a run carries. Each level adds one
/// layer to the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    /// Simulator and controller only.
    Bare,
    /// Reports are also deposited into a URR.
    Urr,
    /// The guard reads the URR on every decision tick.
    Guard,
    /// Deposits go through the write-ahead log.
    Journal,
}

/// A simulated-campaign workload.
#[derive(Debug)]
pub struct Sim {
    /// A regression in every cluster over a lossy channel, instead of a
    /// good release over a reliable one.
    bad_release: bool,
    cluster_size: usize,
    seed: u64,
}

impl Sim {
    /// `sim_rollout`: good release, reliable channel, four staged
    /// waves; the all-pass fast path at full fleet size.
    pub fn rollout(opts: &Opts) -> Self {
        Sim::new(opts, false)
    }

    /// `sim_rollback`: the same plan the other way — failures, loss,
    /// duplicates, retries, journaled ingest, guard trip, revert wave.
    pub fn rollback(opts: &Opts) -> Self {
        Sim::new(opts, true)
    }

    fn new(opts: &Opts, bad_release: bool) -> Self {
        Sim {
            bad_release,
            cluster_size: if opts.smoke { 200 } else { 10_000 },
            seed: opts.seed,
        }
    }

    fn machines(&self) -> usize {
        CLUSTERS * self.cluster_size
    }

    fn strategy(&self) -> RolloutStrategy {
        if self.bad_release {
            RolloutStrategy::Rolling {
                batch_size: self.machines() / 10,
            }
        } else {
            RolloutStrategy::Staged { waves: 4 }
        }
    }

    /// The level the workload's campaign runs at.
    fn top(&self) -> Level {
        if self.bad_release {
            Level::Journal
        } else {
            Level::Guard
        }
    }

    fn build(&self, level: Level) -> SimInput {
        let mut b = ScenarioBuilder::new()
            .clusters(CLUSTERS, self.cluster_size, 1)
            .with_strategy(self.strategy());
        if self.bad_release {
            let everywhere: Vec<usize> = (0..CLUSTERS).collect();
            b = b
                .problem_in_clusters("fleet-regression", &everywhere)
                .faults(
                    FaultSpec::new(self.seed)
                        .loss(0.20)
                        .duplication(0.10)
                        .delay(10),
                );
        }
        let mut store = None;
        match level {
            Level::Bare => {}
            Level::Urr | Level::Guard => b = b.with_urr(Arc::new(Urr::new())),
            Level::Journal => {
                let backing = MemoryStore::new();
                store = Some(backing.clone());
                let durable = DurableUrr::new(Box::new(backing), DurableConfig::default())
                    .expect("the memory store cannot fail");
                b = b.with_durable_urr(Arc::new(durable));
            }
        }
        if level >= Level::Guard {
            b = b.with_guard(GUARD);
        }
        SimInput {
            scenario: b.build(),
            store,
        }
    }

    /// Host time of one campaign at `level` on a fresh scenario.
    fn run_at(&self, level: Level, t: &Tracer, name: &'static str) -> f64 {
        let input = self.build(level);
        let _span = t.span(name);
        time_s(|| self.campaign(input, &Tracer::off())).1
    }
}

/// A scenario ready to run, with a handle on its journal's store.
pub struct SimInput {
    scenario: Scenario,
    store: Option<MemoryStore>,
}

/// What a campaign left behind.
pub struct SimOutput {
    input: SimInput,
    metrics: SimMetrics,
    outcome: RolloutOutcome,
}

/// Whether recovering a crash image of `store` gives `live` back, and
/// how long recovery took.
fn recovers_equal(store: &MemoryStore, live: &Urr) -> (bool, f64) {
    let image = store.fork();
    let (recovered, spent_s) =
        time_s(|| DurableUrr::recover(Box::new(image), DurableConfig::default()));
    let equal = recovered.is_ok_and(|(back, report)| {
        let back = back.urr();
        report.torn_tail.is_none()
            && back.next_seq() == live.next_seq()
            && back.stats() == live.stats()
            && back.snapshot() == live.snapshot()
    });
    (equal, spent_s)
}

impl Workload for Sim {
    type Input = SimInput;
    type Output = SimOutput;

    fn shares(&self) -> &'static [&'static str] {
        if self.bad_release {
            &[SIM_GUARDED_RUN_S, REPORT_JOURNAL_S]
        } else {
            &[SIM_BARE_RUN_S, REPORT_SINK_INGEST_S, ROLLOUT_GUARD_S]
        }
    }

    fn setup(&self, t: &Tracer) -> SimInput {
        let _span = t.span(SIM_SCENARIO_BUILD_S);
        self.build(self.top())
    }

    fn campaign(&self, input: SimInput, t: &Tracer) -> SimOutput {
        let (metrics, outcome) =
            run_rollout_with_telemetry(&input.scenario, ProtocolChoice::Balanced, t.telemetry());
        SimOutput {
            input,
            metrics,
            outcome,
        }
    }

    fn check(&self, out: &SimOutput, thorough: bool, ops: &mut Ops, exact: &mut Values) {
        let n = self.machines();
        let exposed = out.outcome.rollback.map_or(0, |info| info.exposed_machines);
        if self.bad_release {
            ops.invariant(out.outcome.rollback.is_some(), "the guard rolls back");
            // A machine is right when the bad release never reached it
            // or its revert was confirmed.
            ops.count(
                n,
                out.outcome.enrolled - out.outcome.reverted,
                "every exposed machine is reverted",
            );
            // Copying a 1M-machine plan and recovering its journal cost
            // as much as the campaign.
            if thorough {
                let limit = RolloutPlan::new(out.input.scenario.plan.clone(), self.strategy())
                    .exposure_limit();
                ops.invariant(exposed <= limit, "exposure within the first cohort");
                let (store, durable) = (
                    out.input.store.as_ref().expect("journaled level"),
                    out.input
                        .scenario
                        .durable
                        .as_ref()
                        .expect("journaled level"),
                );
                let (equal, _) = recovers_equal(store, durable.urr());
                ops.invariant(equal, "recovered repository equals the live one");
                exact.insert(REPORT_RECOVERED_EQUAL, f64::from(u8::from(equal)));
            }
        } else {
            ops.invariant(out.outcome.rollback.is_none(), "no rollback");
            ops.invariant(out.metrics.failed_tests == 0, "no failed test");
            ops.count(n, n - out.metrics.passed_count(), "every machine passes");
        }
        let m = &out.metrics;
        exact.insert(SIM_TESTS_TOTAL, m.total_tests as f64);
        exact.insert(SIM_FAILED_TESTS, m.failed_tests as f64);
        exact.insert(SIM_MSGS_DROPPED, m.msgs_dropped as f64);
        exact.insert(SIM_MSGS_DUPLICATED, m.msgs_duplicated as f64);
        exact.insert(SIM_RETRIES_SENT, m.retries_sent as f64);
        exact.insert(SIM_REVERTED, m.reverted_count() as f64);
        exact.insert(ROLLOUT_EXPOSED_MACHINES, exposed as f64);
        // Simulated time: of completion, or of the abort decision.
        let simtime = out
            .outcome
            .rollback
            .map(|info| info.at_time)
            .or(m.completion_time)
            .unwrap_or(0);
        exact.insert(SIM_COMPLETION_SIMTIME, simtime as f64);
    }

    fn layers(&self, traced: &Traced<'_>, ops: &mut Ops, out: &mut Values) {
        let (t, budget) = (traced.t, traced.budget);
        let started = Instant::now();
        let levels: &[(Level, &'static str)] = if self.bad_release {
            &[
                (Level::Guard, "ablate.guard"),
                (Level::Journal, "ablate.journal"),
            ]
        } else {
            &[
                (Level::Bare, "ablate.bare"),
                (Level::Urr, "ablate.urr"),
                (Level::Guard, "ablate.guard"),
            ]
        };
        // Fastest of as many rounds as the budget allows, at least one.
        let mut fastest = [f64::INFINITY; 3];
        loop {
            for (i, &(level, name)) in levels.iter().enumerate() {
                fastest[i] = fastest[i].min(self.run_at(level, t, name));
            }
            // Another round and the probes below must still fit.
            if started.elapsed() * 2 >= budget {
                break;
            }
        }
        if self.bad_release {
            out.insert(SIM_GUARDED_RUN_S, fastest[0]);
            out.insert(REPORT_JOURNAL_S, fastest[1] - fastest[0]);
        } else {
            out.insert(SIM_BARE_RUN_S, fastest[0]);
            out.insert(REPORT_SINK_INGEST_S, fastest[1] - fastest[0]);
            out.insert(ROLLOUT_GUARD_S, fastest[2] - fastest[1]);
            out.insert(SIM_GUARDED_RUN_S, fastest[2]);
        }

        // The guard's two queries on a post-campaign repository; on the
        // journaled workload also one timed recovery.
        let done = self.campaign(self.build(self.top()), &Tracer::off());
        let urr = done
            .input
            .scenario
            .urr
            .as_ref()
            .expect("top level has a URR");
        let mut query_us: Vec<f64> = (0..GUARD_QUERIES)
            .map(|_| {
                let _span = t.span("probe.guard_query");
                time_s(|| (urr.cluster_failure_rates(), urr.top_k_failure_groups(1))).1 * 1e6
            })
            .collect();
        out.insert(ROLLOUT_GUARD_QUERY_P50_US, quantile(&mut query_us, 0.5));
        if let Some(store) = &done.input.store {
            let _span = t.span(REPORT_RECOVER_S);
            let (equal, spent_s) = recovers_equal(store, urr);
            ops.invariant(equal, "recovered repository equals the live one");
            out.insert(REPORT_RECOVER_S, spent_s);
        }
        drop(done);
        out.insert(SIM_TESTS_PER_S, out[SIM_TESTS_TOTAL] / traced.campaign_s);

        // The second driver over the same layer, on the bare scenario.
        // Like `run_rollout`, the timed call builds its own protocol.
        let bare = self.build(Level::Bare);
        let _span = t.span(SIM_PARALLEL_W2_S);
        let (metrics, spent_s) = time_s(|| {
            let mut protocol = ProtocolChoice::Balanced.build(bare.scenario.plan.clone(), 1.0);
            let mut arena = SimArena::new();
            run_parallel_in(
                &mut arena,
                &bare.scenario,
                &mut protocol,
                Telemetry::noop(),
                2,
            )
        });
        let n = self.machines();
        ops.count(n, n - metrics.passed_count(), "parallel driver converges");
        out.insert(SIM_PARALLEL_W2_S, spent_s);
    }
}
