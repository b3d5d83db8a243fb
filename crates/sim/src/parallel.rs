//! The campaign benchmark's pinned entry point, and the driver's
//! equivalence tests against the sequential oracle.
//!
//! There is one driver, [`Simulation::run`]: it walks one calendar
//! queue a whole timestamp at a time (see [`crate::runner`]). Threads
//! did not pay for a sharded one on a two-core host, so there is no
//! worker count. [`run_parallel_in`] keeps the signature the benchmark
//! calls and ignores its `workers` argument.

use mirage_deploy::Protocol;
use mirage_telemetry::Telemetry;

use crate::metrics::SimMetrics;
use crate::runner::{SimArena, Simulation};
use crate::scenario::Scenario;

/// [`Simulation`] with every setting spelled as an argument. `workers`
/// is ignored: there is one driver. Pinned by
/// `benchmark/src/workloads/sim.rs`, which a program change may not
/// edit, and called from nowhere else; the change that follows the
/// benchmark's move to [`Simulation`] deletes it.
pub fn run_parallel_in(
    arena: &mut SimArena,
    scenario: &Scenario,
    protocol: &mut dyn Protocol,
    telemetry: Telemetry,
    _workers: usize,
) -> SimMetrics {
    Simulation::new(scenario)
        .with_telemetry(telemetry)
        .arena(arena)
        .run(protocol)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::SimTime;
    use crate::faults::FaultSpec;
    use crate::runner::sequential::run_sequential;
    use crate::scenario::ScenarioBuilder;
    use mirage_deploy::{MachineId, ProblemId, ProtocolChoice};
    use mirage_report::Urr;
    use mirage_rollout::{GuardSettings, RolloutOutcome, RolloutStrategy};
    use mirage_telemetry::health::{health_report_json, rollup};
    use mirage_telemetry::trace_export::chrome_trace;
    use mirage_telemetry::{Journal, Registry, TraceConfig, WatchdogConfig};

    fn choices() -> [ProtocolChoice; 4] {
        [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 11 },
        ]
    }

    fn scenarios() -> Vec<(&'static str, Scenario)> {
        vec![
            (
                "small",
                ScenarioBuilder::new()
                    .clusters(4, 3, 1)
                    .problem_in_clusters("p", &[2])
                    .build(),
            ),
            ("healthy", ScenarioBuilder::new().clusters(3, 5, 2).build()),
            (
                "misplaced",
                ScenarioBuilder::new()
                    .clusters(4, 4, 1)
                    .problem_in_clusters("p", &[1])
                    .misplaced_machine(3, "q")
                    .build(),
            ),
            (
                "threshold+offline",
                ScenarioBuilder::new()
                    .clusters(3, 6, 1)
                    .problem_in_clusters("p", &[0])
                    .offline_machines(1, 2, 200)
                    .threshold(0.5)
                    .build(),
            ),
            (
                "missed-detection",
                ScenarioBuilder::new()
                    .clusters(3, 4, 1)
                    .problem_in_clusters("p", &[1])
                    .missed_detections(1, 2)
                    .build(),
            ),
            (
                "multi-problem",
                ScenarioBuilder::new()
                    .clusters(5, 4, 1)
                    .problem_in_clusters("p", &[1, 2])
                    .problem_in_clusters("q", &[3])
                    .build(),
            ),
        ]
    }

    /// The sequential oracle's run of `choice` over `s`, unobserved.
    fn oracle(s: &Scenario, choice: ProtocolChoice) -> SimMetrics {
        run_sequential(
            s,
            Telemetry::noop(),
            &mut choice.build(s.plan.clone(), s.threshold),
        )
    }

    /// The driver is bit-identical to the sequential oracle on reliable
    /// channels, for every protocol and scenario shape, in a fresh
    /// arena and in a shared one.
    #[test]
    fn parallel_matches_sequential() {
        let mut arena = SimArena::new();
        for (name, s) in scenarios() {
            for choice in choices() {
                let expect = oracle(&s, choice);
                let mut p = choice.build(s.plan.clone(), s.threshold);
                let got = Simulation::new(&s).run(&mut p);
                assert_eq!(expect, got, "{name}/{} diverged", choice.name());
                let mut p = choice.build(s.plan.clone(), s.threshold);
                let got = Simulation::new(&s).arena(&mut arena).run(&mut p);
                assert_eq!(expect, got, "{name}/{} diverged in an arena", choice.name());
            }
        }
    }

    /// Same bit-identity under a fault plan exercising loss,
    /// duplication, delay, retries, rep timeouts, and churn: every test
    /// and delivery takes the per-event path, so the fault schedule
    /// must reproduce exactly.
    #[test]
    fn parallel_matches_sequential_under_faults() {
        let s = ScenarioBuilder::new()
            .clusters(4, 6, 1)
            .problem_in_clusters("p", &[2])
            .faults(
                FaultSpec::new(0xFA11)
                    .loss(0.30)
                    .duplication(0.15)
                    .delay(6)
                    .retry(20, 4)
                    .rep_timeout(600)
                    .churn(1, 2, 40, 400)
                    .churn(3, 1, 10, SimTime::MAX),
            )
            .build();
        for choice in choices() {
            let mut p = choice.build(s.plan.clone(), s.threshold);
            let got = Simulation::new(&s).run(&mut p);
            assert_eq!(
                oracle(&s, choice),
                got,
                "faulted {} diverged",
                choice.name()
            );
        }
    }

    fn journaled_registry() -> Arc<Registry> {
        Arc::new(Registry::with_journal(
            1 << 14,
            Journal::with_spill(1 << 12),
        ))
    }

    /// `choice` over `s` with a journaling registry on driver and
    /// protocol alike, run by the driver or by the oracle.
    fn run_instrumented(
        s: &Scenario,
        choice: ProtocolChoice,
        by_oracle: bool,
    ) -> (SimMetrics, Arc<Registry>) {
        let registry = journaled_registry();
        let telemetry = Telemetry::from_registry(Arc::clone(&registry));
        let mut protocol = choice
            .build(s.plan.clone(), s.threshold)
            .with_telemetry(telemetry.clone());
        let metrics = if by_oracle {
            run_sequential(s, telemetry, &mut protocol)
        } else {
            Simulation::new(s)
                .with_telemetry(telemetry)
                .run(&mut protocol)
        };
        (metrics, registry)
    }

    /// Journaled instrumented runs are byte-identical between the driver
    /// and the oracle: the journal entry stream (time, seq, payload),
    /// counter sums, the queue-depth gauge, and the derived health
    /// rollup and Perfetto export all match.
    #[test]
    fn instrumented_parallel_run_is_bit_identical() {
        let reliable = ScenarioBuilder::new()
            .clusters(4, 5, 1)
            .problem_in_clusters("p", &[2])
            .build();
        let faulted = ScenarioBuilder::new()
            .clusters(3, 5, 1)
            .problem_in_clusters("p", &[1])
            .faults(
                FaultSpec::new(0x0B5E)
                    .loss(0.25)
                    .duplication(0.10)
                    .delay(5)
                    .retry(20, 4)
                    .rep_timeout(600),
            )
            .build();
        for (name, s) in [("reliable", &reliable), ("faulted", &faulted)] {
            let (seq_metrics, seq_reg) = run_instrumented(s, ProtocolChoice::Balanced, true);
            let seq_entries = seq_reg.journal().entries();
            assert!(
                !seq_entries.is_empty(),
                "{name}: the oracle's journal records"
            );
            let (metrics, reg) = run_instrumented(s, ProtocolChoice::Balanced, false);
            assert_eq!(seq_metrics, metrics, "{name}: metrics");
            let entries = reg.journal().entries();
            assert_eq!(seq_entries, entries, "{name}: journal streams differ");
            let (seq_snap, snap) = (seq_reg.snapshot(), reg.snapshot());
            assert_eq!(seq_snap.counters, snap.counters, "{name}: counter sums");
            assert_eq!(
                seq_snap.gauges.get("sim.queue_depth"),
                snap.gauges.get("sim.queue_depth"),
                "{name}: queue depth gauge"
            );
            // Derived artifacts are byte-identical after the exporters'
            // canonical (time, seq) sort.
            let mut machine_cluster = vec![0u32; s.machine_count()];
            for cluster in &s.plan.clusters {
                for m in &cluster.members {
                    machine_cluster[m.index()] = cluster.id as u32;
                }
            }
            let run_end = seq_metrics.completion_time.unwrap_or(0);
            let config = WatchdogConfig::default();
            assert_eq!(
                health_report_json(&rollup(&seq_entries, &machine_cluster, run_end, &config)),
                health_report_json(&rollup(&entries, &machine_cluster, run_end, &config)),
                "{name}: health rollup differs"
            );
            let trace = |entries: &[mirage_telemetry::JournalEntry]| {
                chrome_trace(
                    entries,
                    run_end,
                    &|m| s.plan.machine_name(MachineId(m)).to_string(),
                    &|p| s.problems.name(ProblemId(p)).to_string(),
                    &TraceConfig::default(),
                )
            };
            assert_eq!(
                trace(&seq_entries),
                trace(&entries),
                "{name}: Perfetto export differs"
            );
        }
    }

    /// The journal keeps its `(time, seq)` ordering across the driver's
    /// batched flushes: the raw stream (buffered driver entries
    /// interleaved with write-through protocol entries) is the oracle's,
    /// and the exporters' canonical `(time, seq)` sort yields a
    /// time-monotone stream with unique sequence numbers.
    #[test]
    fn journal_orders_by_time_seq_under_multi_shard_flushes() {
        let s = ScenarioBuilder::new()
            .clusters(5, 7, 1)
            .problem_in_clusters("p", &[1, 3])
            .build();
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, true);
        let (_, reg) = run_instrumented(&s, ProtocolChoice::FrontLoading, false);
        let entries = reg.journal().entries();
        assert!(!entries.is_empty());
        assert_eq!(seq_reg.journal().entries(), entries, "raw stream diverged");
        let mut sorted = entries.clone();
        sorted.sort_by_key(|e| (e.time, e.seq));
        for pair in sorted.windows(2) {
            assert!(
                pair[0].time <= pair[1].time && pair[0].seq != pair[1].seq,
                "canonical sort violated: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    /// The queue-depth high-water mark is the oracle's: the driver
    /// counts the events of the bucket in hand as still queued.
    #[test]
    fn cross_shard_queue_depth_high_water_matches() {
        let s = ScenarioBuilder::new()
            .clusters(6, 8, 2)
            .problem_in_clusters("p", &[2])
            .build();
        for choice in [ProtocolChoice::NoStaging, ProtocolChoice::Balanced] {
            let (_, seq_reg) = run_instrumented(&s, choice, true);
            let seq_gauge = seq_reg.snapshot().gauges["sim.queue_depth"];
            let (_, reg) = run_instrumented(&s, choice, false);
            assert_eq!(
                seq_gauge,
                reg.snapshot().gauges["sim.queue_depth"],
                "{}: queue depth high-water diverged",
                choice.name()
            );
        }
        let (_, seq_reg) = run_instrumented(&s, ProtocolChoice::NoStaging, true);
        let high_water = seq_reg.snapshot().gauges["sim.queue_depth"].high_water;
        assert!(high_water >= s.machine_count() as i64);
    }

    /// A fleet-wide regression under a guarded rolling rollout on a
    /// lossy channel, in `arena`: decision ticks, retries, a revert
    /// wave, and the lent per-machine fault tables all in use.
    fn guarded_rollback(arena: &mut SimArena) -> (SimMetrics, RolloutOutcome) {
        let s = ScenarioBuilder::new()
            .clusters(3, 4, 1)
            .problem_in_clusters("regression", &[0, 1, 2])
            .faults(
                FaultSpec::new(0xA7E)
                    .loss(0.20)
                    .duplication(0.10)
                    .retry(20, 4),
            )
            .with_urr(Arc::new(Urr::new()))
            .with_strategy(RolloutStrategy::Rolling { batch_size: 4 })
            .with_guard(GuardSettings {
                min_reports: 2,
                ..GuardSettings::default()
            })
            .build();
        let mut controller = s.rollout_controller(ProtocolChoice::Balanced, Telemetry::noop());
        let metrics = Simulation::new(&s).arena(arena).run(&mut controller);
        (metrics, controller.outcome())
    }

    /// One arena serves many runs (different scenarios and protocols;
    /// plain runs and a tick-driven rollback in turn) without
    /// contaminating results.
    #[test]
    fn arena_reuse_is_deterministic() {
        let mut arena = SimArena::new();
        for _ in 0..2 {
            for (name, s) in scenarios() {
                for choice in [ProtocolChoice::Balanced, ProtocolChoice::NoStaging] {
                    let expect = oracle(&s, choice);
                    let mut p = choice.build(s.plan.clone(), s.threshold);
                    let got = Simulation::new(&s).arena(&mut arena).run(&mut p);
                    assert_eq!(expect, got, "{name}/{} reused arena", choice.name());
                }
                let fresh = guarded_rollback(&mut SimArena::new());
                assert!(fresh.0.retries_sent > 0 && fresh.0.reverted_count() > 0);
                assert!(fresh.1.rollback.is_some(), "the guard rolled back");
                let reused = guarded_rollback(&mut arena);
                assert_eq!(fresh, reused, "rollback after {name}");
            }
        }
    }

    /// The benchmark's shape, small: a good release rolled out in four
    /// staged waves under a guard, depositing into a repository, on the
    /// reliable channel, with a journal on driver and controller. Runs
    /// it on the driver in `arena` and on the oracle, and requires
    /// metrics, outcome, journal stream, counter sums, queue depth and
    /// repository to agree.
    fn guarded_rollout_against_oracle(arena: &mut SimArena) {
        let run = |by_oracle: bool, arena: &mut SimArena| {
            let urr = Arc::new(Urr::new());
            let s = ScenarioBuilder::new()
                .clusters(8, 6, 1)
                .with_urr(Arc::clone(&urr))
                .with_strategy(RolloutStrategy::Staged { waves: 4 })
                .with_guard(GuardSettings::default())
                .build();
            let registry = journaled_registry();
            let telemetry = Telemetry::from_registry(Arc::clone(&registry));
            let mut controller = s.rollout_controller(ProtocolChoice::Balanced, telemetry.clone());
            let metrics = if by_oracle {
                run_sequential(&s, telemetry, &mut controller)
            } else {
                Simulation::new(&s)
                    .with_telemetry(telemetry)
                    .arena(arena)
                    .run(&mut controller)
            };
            assert!(metrics.converged(s.machine_count()));
            let snapshot = registry.snapshot();
            (
                (metrics, controller.outcome()),
                (registry.journal().entries(), snapshot.counters),
                snapshot.gauges["sim.queue_depth"],
                (urr.stats(), urr.snapshot(), urr.next_seq()),
            )
        };
        let expect = run(true, &mut SimArena::new());
        assert_eq!(expect, run(false, arena));
    }

    /// A guarded, repository-sinked, journaled rollout still absorbs
    /// whole runs of passes in one `absorb_passes` call.
    #[test]
    fn guarded_journaled_rollout_absorbs_multi_record_runs() {
        let mut arena = SimArena::new();
        guarded_rollout_against_oracle(&mut arena);
        let widest = arena.shapes.absorbed.iter().map(|a| a.2).max();
        assert!(
            widest >= Some(2),
            "no multi-record run: {:?}",
            arena.shapes.absorbed
        );
    }

    /// A decision tick that shares a bucket with a wave: the tick is
    /// handed over in its FIFO place between absorbed runs, where the
    /// oracle pops it.
    #[test]
    fn tick_sharing_a_bucket_with_a_wave_keeps_its_place() {
        let mut arena = SimArena::new();
        guarded_rollout_against_oracle(&mut arena);
        // A good release on the reliable channel: ticks are the only
        // vendor events.
        assert!(
            !arena.shapes.mixed.is_empty(),
            "no tick shared a wave's bucket"
        );
    }

    /// An offline straggler whose test lands in a later wave's bucket:
    /// it was scheduled first, so it leads that bucket, and the journal
    /// shows it replayed there in the oracle's order.
    #[test]
    fn colliding_waves_replay_in_sequence_order() {
        let base = ScenarioBuilder::new()
            .clusters(4, 6, 1)
            .problem_in_clusters("p", &[3])
            .threshold(0.5);
        let everyone_online = base.clone().build();
        let cycle = everyone_online.timings.machine_cycle();
        for choice in choices() {
            let name = choice.name();
            // When each wave lands with everyone online. Half a cluster
            // is enough to move on, so none of them waits for a
            // machine that is away.
            let landed = oracle(&everyone_online, choice).machine_pass_time;
            let last_wave = landed.iter().flatten().copied().max().expect("ran");
            // `offline_machines(c, 1, _)` takes cluster `c`'s third
            // member; use the cluster whose own wave comes first.
            let third = |c: usize| everyone_online.plan.clusters[c].members[2];
            let cluster = (0..4)
                .min_by_key(|&c| landed[third(c).index()])
                .expect("four clusters");
            let straggler = third(cluster);
            assert!(landed[straggler.index()] < Some(last_wave), "{name}");
            let s = base
                .clone()
                .offline_machines(cluster, 1, last_wave - cycle)
                .build();

            let (expect, seq_reg) = run_instrumented(&s, choice, true);
            assert_eq!(expect.pass_time(straggler), Some(last_wave), "{name}");
            let registry = journaled_registry();
            let telemetry = Telemetry::from_registry(Arc::clone(&registry));
            let mut p = choice
                .build(s.plan.clone(), s.threshold)
                .with_telemetry(telemetry.clone());
            let mut arena = SimArena::new();
            let got = Simulation::new(&s)
                .with_telemetry(telemetry)
                .arena(&mut arena)
                .run(&mut p);
            assert_eq!(expect, got, "{name}");
            assert_eq!(
                seq_reg.journal().entries(),
                registry.journal().entries(),
                "{name}: journal"
            );
            let led = arena
                .shapes
                .absorbed
                .iter()
                .any(|&(t, first, n)| t == last_wave && first == straggler && n >= 2);
            assert!(
                led,
                "{name}: the straggler did not lead a run at {last_wave}"
            );
        }
    }
}
