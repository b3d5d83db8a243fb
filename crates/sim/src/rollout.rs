//! Strategy-driven rollout runs: the simulator driving a
//! [`mirage_rollout::RolloutController`].
//!
//! [`Scenario::rollout_controller`] builds the controller over its
//! strategy's row of the strategy table and wires the optional URR guard
//! into the controller (closing the loop between the report repository
//! the run deposits into and the widening decisions the controller
//! takes); [`Simulation`] runs it — the controller is just another
//! [`mirage_deploy::Protocol`].
//!
//! Every strategy runs on the one staging engine. An *unguarded*
//! `Staged` strategy is its `ProtocolChoice` row passed through: the
//! property test in this module proves the run is bit-identical
//! (metrics, journal, counters) to driving the staging protocol
//! directly, which is what makes the plan/drive split of
//! `Campaign::drive` safe.

use mirage_deploy::ProtocolChoice;
use mirage_rollout::RolloutOutcome;
use mirage_telemetry::Telemetry;

use crate::metrics::SimMetrics;
use crate::runner::Simulation;
use crate::scenario::Scenario;

/// [`Scenario::rollout_controller`] run by a [`Simulation`],
/// returning the metrics with the controller's outcome. Pinned by
/// `benchmark/src/workloads/sim.rs`, which a program change may not
/// edit, and called from nowhere else; the change that follows the
/// benchmark's move to [`Simulation`] deletes it.
pub fn run_rollout_with_telemetry(
    scenario: &Scenario,
    choice: ProtocolChoice,
    telemetry: Telemetry,
) -> (SimMetrics, RolloutOutcome) {
    let mut controller = scenario.rollout_controller(choice, telemetry.clone());
    let metrics = Simulation::new(scenario)
        .with_telemetry(telemetry)
        .run(&mut controller);
    (metrics, controller.outcome())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::faults::FaultSpec;
    use crate::scenario::ScenarioBuilder;
    use mirage_report::Urr;
    use mirage_rollout::{
        GuardSettings, RolloutPlan, RolloutStatus, RolloutStatusReason, RolloutStrategy,
    };
    use mirage_telemetry::{Journal, Registry};

    /// The scenario's rollout, unobserved.
    fn roll_out(s: &Scenario) -> (SimMetrics, RolloutOutcome) {
        let mut controller = s.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
        let metrics = Simulation::new(s).run(&mut controller);
        (metrics, controller.outcome())
    }

    fn journaled_registry() -> Arc<Registry> {
        Arc::new(Registry::with_journal(
            1 << 14,
            Journal::with_spill(1 << 12),
        ))
    }

    /// The split-safety property: an **unguarded** `Staged` rollout is
    /// a transparent pass-through — bit-identical simulation metrics,
    /// journal stream, and counters to driving the staging protocol
    /// directly. 24 cases: 3 scenario shapes × 4 protocol choices × 2
    /// channel regimes (reliable, seeded lossy). (CI runs this by
    /// name.)
    #[test]
    fn staged_rollout_is_bit_identical_to_direct_protocol() {
        let shapes: Vec<(&str, ScenarioBuilder)> = vec![
            ("healthy", ScenarioBuilder::new().clusters(3, 4, 1)),
            (
                "problem-cluster",
                ScenarioBuilder::new()
                    .clusters(4, 3, 1)
                    .problem_in_clusters("p", &[2]),
            ),
            (
                "misplaced-thresholded",
                ScenarioBuilder::new()
                    .clusters(2, 4, 1)
                    .misplaced_machine(0, "odd")
                    .threshold(0.75),
            ),
        ];
        let choices = [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 7 },
        ];
        let mut cases = 0;
        for (shape, base) in &shapes {
            for faulted in [false, true] {
                let mut builder = base
                    .clone()
                    .with_strategy(RolloutStrategy::Staged { waves: 2 });
                if faulted {
                    builder = builder.faults(
                        FaultSpec::new(0xFA17_5EED)
                            .loss(0.2)
                            .duplication(0.1)
                            .retry(20, 4)
                            .rep_timeout(600),
                    );
                }
                let s = builder.build();
                for choice in choices {
                    let direct_reg = journaled_registry();
                    let mut direct = choice
                        .build(s.plan.clone(), s.threshold)
                        .with_telemetry(Telemetry::from_registry(Arc::clone(&direct_reg)));
                    let direct_metrics = Simulation::new(&s)
                        .with_telemetry(Telemetry::from_registry(Arc::clone(&direct_reg)))
                        .run(&mut direct);

                    let rollout_reg = journaled_registry();
                    let rollout_tel = Telemetry::from_registry(Arc::clone(&rollout_reg));
                    let mut controller = s.rollout_controller(choice, rollout_tel.clone());
                    let rollout_metrics = Simulation::new(&s)
                        .with_telemetry(rollout_tel)
                        .run(&mut controller);
                    let outcome = controller.outcome();

                    let label = format!("{shape}/{}/faulted={faulted}", choice.name());
                    assert_eq!(direct_metrics, rollout_metrics, "{label}: metrics");
                    assert_eq!(
                        direct_reg.journal().entries(),
                        rollout_reg.journal().entries(),
                        "{label}: journal"
                    );
                    assert_eq!(
                        direct_reg.snapshot().counters,
                        rollout_reg.snapshot().counters,
                        "{label}: counters"
                    );
                    assert_eq!(outcome.status, RolloutStatus::Clean, "{label}");
                    assert!(outcome.rollback.is_none(), "{label}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 24);
    }

    /// A fleet-wide bad release under a guarded canary: the abort fires
    /// after the hysteresis streak and exposure stays within the canary
    /// cohort. (CI runs this by name as the canary-abort smoke.)
    #[test]
    fn canary_abort_contains_bad_release() {
        let urr = Arc::new(Urr::new());
        let s = ScenarioBuilder::new()
            .clusters(4, 5, 1)
            .problem_in_clusters("regression", &[0, 1, 2, 3])
            .with_urr(Arc::clone(&urr))
            .with_strategy(RolloutStrategy::Canary {
                percentage: 10.0,
                bake_time: 50,
            })
            .with_guard(GuardSettings {
                max_cluster_failure_rate: 0.3,
                min_reports: 2,
                unhealthy_ticks: 2,
                healthy_ticks: 1,
                ..GuardSettings::default()
            })
            .build();
        let exposure_limit =
            RolloutPlan::new(s.plan.clone(), s.strategy.expect("strategy set")).exposure_limit();
        assert_eq!(exposure_limit, 2, "ceil(10% of 20)");

        let (metrics, outcome) = roll_out(&s);
        let info = outcome.rollback.expect("guard must abort a bad release");
        assert!(
            info.exposed_machines <= exposure_limit,
            "bad release contained to the canary cohort: {} > {exposure_limit}",
            info.exposed_machines
        );
        assert_eq!(info.reason, RolloutStatusReason::FailureRateExceeded);
        assert_eq!(outcome.status, RolloutStatus::Failed);
        assert_eq!(outcome.reverted, outcome.enrolled, "revert wave drained");
        assert_eq!(metrics.reverted_count(), outcome.enrolled);
        assert!(
            !metrics.converged(s.machine_count()),
            "the bad release never reached the rest of the fleet"
        );
        // Revert notified at the abort tick; confirmed one
        // download+test cycle later on the reliable channel.
        assert_eq!(
            metrics.completion_time,
            Some(info.at_time + s.timings.machine_cycle())
        );
    }

    /// A regression confined to the *final* wave still reverts the
    /// whole enrolled fleet — including every machine that already
    /// passed the release in earlier waves.
    #[test]
    fn final_wave_regression_reverts_everyone_enrolled() {
        let urr = Arc::new(Urr::new());
        let s = ScenarioBuilder::new()
            .clusters(3, 2, 1)
            .problem_in_clusters("late", &[2])
            .with_urr(Arc::clone(&urr))
            .with_strategy(RolloutStrategy::Rolling { batch_size: 2 })
            .with_guard(GuardSettings {
                max_cluster_failure_rate: 0.3,
                min_reports: 2,
                unhealthy_ticks: 2,
                healthy_ticks: 1,
                ..GuardSettings::default()
            })
            .build();
        let (metrics, outcome) = roll_out(&s);
        let info = outcome.rollback.expect("final-wave regression aborts");
        assert_eq!(info.at_cohort, 2, "guard tripped on the last cohort");
        assert_eq!(info.exposed_machines, 6, "all three waves were enrolled");
        assert_eq!(outcome.reverted, 6);
        assert_eq!(metrics.reverted_count(), 6);
        // The early waves had integrated the release before the revert.
        assert_eq!(metrics.passed_count(), 4);
        assert_eq!(outcome.cohorts_widened, 2);
    }

    /// A machine churned offline when the rollback fires still receives
    /// the prior release when it rejoins, via the hardened delivery
    /// path — the revert rides the same wire as any notification.
    #[test]
    fn churned_machine_rejoins_into_the_revert() {
        let urr = Arc::new(Urr::new());
        let s = ScenarioBuilder::new()
            .clusters(2, 3, 1)
            .problem_in_clusters("regression", &[0, 1])
            .faults(FaultSpec::new(0xFA17).churn(0, 1, 10, 300).retry(20, 4))
            .with_urr(Arc::clone(&urr))
            .with_strategy(RolloutStrategy::Canary {
                percentage: 100.0,
                bake_time: 0,
            })
            .with_guard(GuardSettings {
                max_cluster_failure_rate: 0.3,
                min_reports: 2,
                unhealthy_ticks: 2,
                healthy_ticks: 1,
                ..GuardSettings::default()
            })
            .build();
        let (churned, leave, rejoin) = s.faults.churn[0];
        assert_eq!((leave, rejoin), (10, 300));

        let (metrics, outcome) = roll_out(&s);
        let info = outcome.rollback.expect("bad release aborts");
        assert!(
            info.at_time < rejoin,
            "abort fired while the machine was away"
        );
        assert_eq!(outcome.reverted, outcome.enrolled, "nobody left behind");
        assert_eq!(metrics.reverted_count(), 6);
        let revert_time = metrics
            .machine_revert_time
            .get(churned.index())
            .expect("churned machine reverted after rejoining");
        assert!(
            revert_time >= rejoin,
            "revert confirmed only after rejoin: {revert_time} < {rejoin}"
        );
    }

    /// With no guard attached, every strategy converges a fixable
    /// release end-to-end: failures drive the vendor fix and the one
    /// staging engine under every strategy re-notifies exactly the
    /// failed machines. (CI runs this by name.)
    #[test]
    fn all_strategies_converge_a_fixable_release() {
        for strategy in [
            RolloutStrategy::Staged { waves: 2 },
            RolloutStrategy::Canary {
                percentage: 20.0,
                bake_time: 50,
            },
            RolloutStrategy::Rolling { batch_size: 4 },
            RolloutStrategy::BlueGreen,
        ] {
            let s = ScenarioBuilder::new()
                .clusters(3, 4, 1)
                .problem_in_clusters("p", &[2])
                .with_strategy(strategy)
                .build();
            let (metrics, outcome) = roll_out(&s);
            assert!(
                metrics.converged(s.machine_count()),
                "{}: {}/{} machines passed",
                strategy.name(),
                metrics.passed_count(),
                s.machine_count()
            );
            assert_eq!(outcome.status, RolloutStatus::Clean, "{}", strategy.name());
            assert!(outcome.rollback.is_none(), "{}", strategy.name());
            assert!(metrics.completion_time.is_some(), "{}", strategy.name());
        }
    }

    /// All four strategies end-to-end at paper scale (100 000
    /// machines). Gated behind `--ignored`; CI exercises it in release
    /// mode alongside the canary-abort smoke.
    #[test]
    #[ignore = "100k-machine run; exercised via cargo test --release -- --ignored"]
    fn paper_scale_strategies_run() {
        for strategy in [
            RolloutStrategy::Staged { waves: 4 },
            RolloutStrategy::Canary {
                percentage: 1.0,
                bake_time: 100,
            },
            RolloutStrategy::Rolling { batch_size: 10_000 },
            RolloutStrategy::BlueGreen,
        ] {
            let urr = Arc::new(Urr::new());
            let s = ScenarioBuilder::new()
                .clusters(20, 5_000, 1)
                .with_urr(Arc::clone(&urr))
                .with_strategy(strategy)
                .with_guard(GuardSettings::default())
                .build();
            let (metrics, outcome) = roll_out(&s);
            assert!(
                metrics.converged(100_000),
                "{}: healthy fleet must converge at scale",
                strategy.name()
            );
            assert!(outcome.rollback.is_none(), "{}", strategy.name());
        }
    }
}
