//! Deployment-simulator telemetry cost and protocol sweeps (paper §4.3).
//!
//! Times the 100 000-machine Figure 10 Balanced run with telemetry
//! compiled in but absent and with a live registry, and sweeps the two
//! design knobs DESIGN.md calls out for ablation: representatives per
//! cluster and the advancement threshold. The per-protocol Figure 10
//! runs live in `repro sim-perf` (`sim/100k/interned/*` in
//! `BENCH_sim.json`).

use std::sync::Arc;

use mirage_bench::harness::Harness;
use mirage_deploy::Balanced;
use mirage_scenarios::deployment::{sound_scenario, ProblemPlacement};
use mirage_sim::{ScenarioBuilder, Simulation};
use mirage_telemetry::{Registry, Telemetry};

fn main() {
    let mut h = Harness::new("simulator");

    let scenario = sound_scenario(ProblemPlacement::Late);
    // Telemetry overhead on the 100k-machine run: the noop handle
    // (instrumentation compiled in, recorder absent) and a live registry
    // recording counters, spans, gauges and flight events.
    h.bench("simulator/fig10-100k/Balanced-telemetry-noop", || {
        Simulation::new(&scenario)
            .with_telemetry(Telemetry::noop())
            .run(&mut Balanced::new(scenario.plan.clone(), 1.0).with_telemetry(Telemetry::noop()))
            .failed_tests
    });
    h.bench("simulator/fig10-100k/Balanced-telemetry-live", || {
        let registry = Arc::new(Registry::new(8192));
        let telemetry = Telemetry::from_registry(registry);
        Simulation::new(&scenario)
            .with_telemetry(telemetry.clone())
            .run(&mut Balanced::new(scenario.plan.clone(), 1.0).with_telemetry(telemetry))
            .failed_tests
    });

    for reps in [1usize, 3, 10] {
        let scenario = ScenarioBuilder::new()
            .clusters(20, 1_000, reps)
            .problem_in_clusters("prevalent", &[15, 16, 17])
            .problem_in_clusters("rare", &[19])
            .build();
        h.bench(&format!("simulator/reps-sweep/reps-{reps}"), || {
            Simulation::new(&scenario)
                .run(&mut Balanced::new(scenario.plan.clone(), 1.0))
                .completion_time
        });
    }

    for threshold in [0.5f64, 0.9, 1.0] {
        let scenario = ScenarioBuilder::new()
            .clusters(20, 1_000, 1)
            .problem_in_clusters("prevalent", &[15, 16, 17])
            .misplaced_machine(2, "odd")
            .threshold(threshold)
            .build();
        h.bench(&format!("simulator/threshold-sweep/{threshold}"), || {
            Simulation::new(&scenario)
                .run(&mut Balanced::new(
                    scenario.plan.clone(),
                    scenario.threshold,
                ))
                .completion_time
        });
    }
}
