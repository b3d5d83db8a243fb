//! The generic campaign pump: protocol commands → fleet waves.
//!
//! This is the *driving* half of what used to be one monolithic
//! end-to-end deploy loop: a clock-free command pump that works for
//! any [`Protocol`] (the staged engine, a
//! [`crate::RolloutController`]) over any [`WaveExecutor`] (the live
//! agent fleet in `mirage-core`, a test double here). The executor
//! owns everything fleet-shaped — validation, report collection, the
//! vendor's diagnose-and-fix turnaround — while the pump owns the
//! protocol conversation and round accounting.
//!
//! Controllers that need a decision clock ([`Protocol::wants_ticks`])
//! get synthetic ticks whenever the command queue drains without the
//! protocol finishing, so bake timers and guard hysteresis work in
//! live campaigns exactly as they do under simulated time. The same
//! tick clock is the live journal's clock: the pump publishes it through
//! [`Telemetry::journal_time`] whenever it moves, so executor entries
//! share the time of the last tick and order by sequence number after
//! the controller's widen and roll-back decisions stamped at that tick.

use std::collections::VecDeque;

use mirage_deploy::{
    Command, MachineId, ProblemSet, Protocol, Release, SimTime, TestReport, DEFAULT_TICK_INTERVAL,
};
use mirage_telemetry::Telemetry;

/// Safety valve: a tick-driven protocol that makes no progress for
/// this many consecutive ticks is abandoned (the pump returns with the
/// protocol unfinished rather than spinning forever).
const STALL_CAP: u32 = 1_000;

/// What one executed notification wave produced.
#[derive(Debug, Clone, Default)]
pub struct WaveOutcome {
    /// Test reports collected from the notified machines, in
    /// notification order.
    pub reports: Vec<TestReport>,
    /// A corrected release the vendor shipped in response to this
    /// wave's failures, with the cumulative fixed-problem set.
    pub shipped: Option<(Release, ProblemSet)>,
}

/// The fleet-shaped half of a campaign: executes one notification
/// wave and reports what came back.
pub trait WaveExecutor {
    /// Notifies `machines` of `release`, runs their tests, and returns
    /// the reports (plus any fix the vendor shipped in response).
    fn notify(&mut self, machines: &[MachineId], release: Release) -> WaveOutcome;
}

/// Pumps `protocol` commands through `executor` until the protocol
/// completes. Returns the number of protocol commands executed
/// (rounds), counting the final `Complete`.
///
/// Every round is timed under a `"round"` span on `telemetry`, so a
/// campaign wrapping this in a `"campaign.deploy"` span preserves the
/// historical `campaign.deploy/round` span path. The journal clock
/// starts at 0 and follows the synthetic ticks.
pub fn drive<P, E>(protocol: &mut P, executor: &mut E, telemetry: &Telemetry) -> usize
where
    P: Protocol + ?Sized,
    E: WaveExecutor + ?Sized,
{
    let mut rounds = 0usize;
    let mut now: SimTime = 0;
    telemetry.journal_time(now);
    let mut pending: VecDeque<Command> = protocol.start().into();
    let mut stalls = 0u32;
    loop {
        while let Some(command) = pending.pop_front() {
            rounds += 1;
            let _round_span = telemetry.span("round");
            match command {
                Command::Complete => return rounds,
                Command::Notify { machines, release } => {
                    let outcome = executor.notify(&machines, release);
                    for report in &outcome.reports {
                        pending.extend(protocol.on_report(report));
                    }
                    if let Some((release, fixed)) = outcome.shipped {
                        pending.extend(protocol.on_release(release, &fixed));
                    }
                }
            }
        }
        // Queue drained without a Complete: tick-driven protocols get
        // their decision clock; anything else is simply finished with
        // whatever state it reached.
        if !protocol.wants_ticks() || protocol.done() || stalls >= STALL_CAP {
            return rounds;
        }
        now += DEFAULT_TICK_INTERVAL;
        telemetry.journal_time(now);
        stalls += 1;
        // The live fleet has no fault plan, so no stall budget: a
        // silent machine is never waived here.
        let commands = protocol.on_tick(now, None);
        if !commands.is_empty() {
            stalls = 0;
        }
        pending.extend(commands);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::RolloutController;
    use crate::plan::{RolloutPlan, RolloutStrategy};
    use mirage_deploy::{DeployPlan, ProtocolChoice, TestOutcome};

    /// An executor over a fleet where every machine passes.
    struct AllPass;

    impl WaveExecutor for AllPass {
        fn notify(&mut self, machines: &[MachineId], release: Release) -> WaveOutcome {
            WaveOutcome {
                reports: machines
                    .iter()
                    .map(|&machine| TestReport {
                        machine,
                        release,
                        outcome: TestOutcome::Pass,
                    })
                    .collect(),
                shipped: None,
            }
        }
    }

    fn deploy() -> DeployPlan {
        DeployPlan::from_named([(["a", "b"], 1, 1.0), (["c", "d"], 1, 2.0)])
    }

    #[test]
    fn pumps_a_classic_protocol_to_completion() {
        let mut protocol = ProtocolChoice::Balanced.build(deploy(), 1.0);
        let telemetry = Telemetry::noop();
        let rounds = drive(&mut protocol, &mut AllPass, &telemetry);
        assert!(protocol.done());
        // Balanced over two 2-machine clusters: rep wave + non-rep wave
        // per cluster, plus the final Complete.
        assert_eq!(rounds, 5);
    }

    #[test]
    fn ticks_a_cohort_controller_through_widening() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Rolling { batch_size: 2 });
        let mut controller = RolloutController::new(plan, ProtocolChoice::Balanced, 1.0);
        let telemetry = Telemetry::noop();
        let rounds = drive(&mut controller, &mut AllPass, &telemetry);
        assert!(controller.done());
        // Two batch notifies + Complete.
        assert_eq!(rounds, 3);
        assert_eq!(controller.outcome().enrolled, 4);
    }

    /// An executor that never produces reports: a tick-driven
    /// controller can make no progress and must hit the stall cap
    /// rather than loop forever.
    struct BlackHole;

    impl WaveExecutor for BlackHole {
        fn notify(&mut self, _machines: &[MachineId], _release: Release) -> WaveOutcome {
            WaveOutcome::default()
        }
    }

    #[test]
    fn stalled_tick_driven_protocol_is_abandoned() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Rolling { batch_size: 2 });
        let mut controller = RolloutController::new(plan, ProtocolChoice::Balanced, 1.0);
        let telemetry = Telemetry::noop();
        let rounds = drive(&mut controller, &mut BlackHole, &telemetry);
        assert!(!controller.done());
        assert_eq!(rounds, 1, "only the first notify executed");
    }
}
