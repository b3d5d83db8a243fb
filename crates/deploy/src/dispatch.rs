//! Unified protocol selection and enum dispatch.
//!
//! Before this module, every driver (the simulator runner, the
//! end-to-end campaign, the repro harness, the scenario suite) carried
//! its own `match` over protocol names producing `Box<dyn Protocol>`
//! trait objects — triplicated construction logic that each new
//! protocol concern (telemetry, fault hardening) had to be threaded
//! through once per call site. [`ProtocolChoice`] centralises the
//! *selection* (a tiny `Copy` value, parseable from a name) and
//! [`AnyProtocol`] the *dispatch* (a concrete enum, no heap
//! allocation, no vtable), so drivers configure protocols through one
//! typed surface.

use crate::plan::DeployPlan;
use crate::protocol::{Command, Protocol, Release, SimTime, TestReport};
use crate::protocols::{Balanced, FrontLoading, NoStaging};
use crate::ProblemSet;
use mirage_telemetry::Telemetry;

/// Deterministic Fisher–Yates shuffle driven by a xorshift64 stream —
/// the RandomStaging baseline's cluster-order generator. Kept
/// dependency-free (the workspace builds offline; there is no external
/// `rand`).
pub fn seeded_shuffle(order: &mut [usize], seed: u64) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// A protocol *selection*: which deployment protocol to run, plus any
/// selection-time parameters (the RandomStaging shuffle seed).
///
/// This is the typed replacement for the string-keyed `match` arms that
/// drivers used to carry; [`ProtocolChoice::build`] turns a choice into
/// a ready [`AnyProtocol`] over a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// The NoStaging baseline (everyone a representative).
    NoStaging,
    /// Balanced staging in ascending vendor-distance order.
    Balanced,
    /// FrontLoading: global rep phase, then descending distance.
    FrontLoading,
    /// Balanced staging over a seeded random cluster order.
    RandomStaging {
        /// Shuffle seed (xorshift64 Fisher–Yates).
        seed: u64,
    },
}

impl ProtocolChoice {
    /// The canonical protocol name (matches [`Protocol::name`]).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolChoice::NoStaging => "NoStaging",
            ProtocolChoice::Balanced => "Balanced",
            ProtocolChoice::FrontLoading => "FrontLoading",
            ProtocolChoice::RandomStaging { .. } => "RandomStaging",
        }
    }

    /// Parses a canonical protocol name (RandomStaging gets seed 0; use
    /// the enum directly for an explicit seed).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "NoStaging" => Some(ProtocolChoice::NoStaging),
            "Balanced" => Some(ProtocolChoice::Balanced),
            "FrontLoading" => Some(ProtocolChoice::FrontLoading),
            "RandomStaging" => Some(ProtocolChoice::RandomStaging { seed: 0 }),
            _ => None,
        }
    }

    /// Builds the chosen protocol over `plan` at `threshold`
    /// (NoStaging ignores the threshold).
    pub fn build(self, plan: DeployPlan, threshold: f64) -> AnyProtocol {
        match self {
            ProtocolChoice::NoStaging => AnyProtocol::NoStaging(NoStaging::new(plan)),
            ProtocolChoice::Balanced => AnyProtocol::Balanced(Balanced::new(plan, threshold)),
            ProtocolChoice::FrontLoading => {
                AnyProtocol::FrontLoading(FrontLoading::new(plan, threshold))
            }
            ProtocolChoice::RandomStaging { seed } => {
                let mut order: Vec<usize> = (0..plan.clusters.len()).collect();
                seeded_shuffle(&mut order, seed);
                AnyProtocol::Balanced(Balanced::with_order(plan, order, threshold))
            }
        }
    }
}

/// Enum dispatch over the concrete interned-plane protocols: one value
/// type every driver can hold without boxing, carrying the
/// cross-cutting configuration hooks (telemetry, fault hardening) in a
/// single place.
#[derive(Debug, Clone)]
pub enum AnyProtocol {
    /// See [`NoStaging`].
    NoStaging(NoStaging),
    /// See [`Balanced`] (also the RandomStaging baseline).
    Balanced(Balanced),
    /// See [`FrontLoading`].
    FrontLoading(FrontLoading),
}

impl AnyProtocol {
    /// Attaches a telemetry handle (notification counters, wave events).
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        match self {
            AnyProtocol::NoStaging(p) => AnyProtocol::NoStaging(p.with_telemetry(telemetry)),
            AnyProtocol::Balanced(p) => AnyProtocol::Balanced(p.with_telemetry(telemetry)),
            AnyProtocol::FrontLoading(p) => AnyProtocol::FrontLoading(p.with_telemetry(telemetry)),
        }
    }

    /// Enables timeout-based stage advancement for unreliable fleets.
    pub fn with_rep_timeout(self, timeout: SimTime) -> Self {
        match self {
            AnyProtocol::NoStaging(p) => AnyProtocol::NoStaging(p.with_rep_timeout(timeout)),
            AnyProtocol::Balanced(p) => AnyProtocol::Balanced(p.with_rep_timeout(timeout)),
            AnyProtocol::FrontLoading(p) => AnyProtocol::FrontLoading(p.with_rep_timeout(timeout)),
        }
    }
}

impl Protocol for AnyProtocol {
    fn name(&self) -> &'static str {
        match self {
            AnyProtocol::NoStaging(p) => p.name(),
            AnyProtocol::Balanced(p) => p.name(),
            AnyProtocol::FrontLoading(p) => p.name(),
        }
    }

    fn start(&mut self) -> Vec<Command> {
        match self {
            AnyProtocol::NoStaging(p) => p.start(),
            AnyProtocol::Balanced(p) => p.start(),
            AnyProtocol::FrontLoading(p) => p.start(),
        }
    }

    fn on_report(&mut self, report: &TestReport) -> Vec<Command> {
        match self {
            AnyProtocol::NoStaging(p) => p.on_report(report),
            AnyProtocol::Balanced(p) => p.on_report(report),
            AnyProtocol::FrontLoading(p) => p.on_report(report),
        }
    }

    fn absorb_passes(&mut self, reports: &[(crate::MachineId, Release)]) -> usize {
        match self {
            AnyProtocol::NoStaging(p) => p.absorb_passes(reports),
            AnyProtocol::Balanced(p) => p.absorb_passes(reports),
            AnyProtocol::FrontLoading(p) => p.absorb_passes(reports),
        }
    }

    fn on_release(&mut self, release: Release, fixed: &ProblemSet) -> Vec<Command> {
        match self {
            AnyProtocol::NoStaging(p) => p.on_release(release, fixed),
            AnyProtocol::Balanced(p) => p.on_release(release, fixed),
            AnyProtocol::FrontLoading(p) => p.on_release(release, fixed),
        }
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Command> {
        match self {
            AnyProtocol::NoStaging(p) => p.on_tick(now),
            AnyProtocol::Balanced(p) => p.on_tick(now),
            AnyProtocol::FrontLoading(p) => p.on_tick(now),
        }
    }

    fn rep_timeouts(&self) -> u64 {
        match self {
            AnyProtocol::NoStaging(p) => p.rep_timeouts(),
            AnyProtocol::Balanced(p) => p.rep_timeouts(),
            AnyProtocol::FrontLoading(p) => p.rep_timeouts(),
        }
    }

    fn wants_ticks(&self) -> bool {
        match self {
            AnyProtocol::NoStaging(p) => p.wants_ticks(),
            AnyProtocol::Balanced(p) => p.wants_ticks(),
            AnyProtocol::FrontLoading(p) => p.wants_ticks(),
        }
    }

    fn done(&self) -> bool {
        match self {
            AnyProtocol::NoStaging(p) => p.done(),
            AnyProtocol::Balanced(p) => p.done(),
            AnyProtocol::FrontLoading(p) => p.done(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> DeployPlan {
        DeployPlan::from_named([(["a", "b"], 1, 1.0), (["c", "d"], 1, 2.0)])
    }

    #[test]
    fn choice_round_trips_names() {
        for name in ["NoStaging", "Balanced", "FrontLoading", "RandomStaging"] {
            let choice = ProtocolChoice::from_name(name).expect("known protocol");
            assert_eq!(choice.name(), name);
        }
        assert_eq!(ProtocolChoice::from_name("Nope"), None);
    }

    #[test]
    fn build_produces_matching_protocols() {
        let plan = tiny_plan();
        for choice in [
            ProtocolChoice::NoStaging,
            ProtocolChoice::Balanced,
            ProtocolChoice::FrontLoading,
            ProtocolChoice::RandomStaging { seed: 7 },
        ] {
            let mut p = choice.build(plan.clone(), 1.0);
            assert_eq!(p.name(), choice.name());
            assert!(!p.start().is_empty(), "{} produced no commands", p.name());
            assert!(!p.done());
        }
    }

    #[test]
    fn seeded_shuffle_is_deterministic() {
        let mut a: Vec<usize> = (0..16).collect();
        let mut b: Vec<usize> = (0..16).collect();
        seeded_shuffle(&mut a, 42);
        seeded_shuffle(&mut b, 42);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "still a permutation");
    }

    #[test]
    fn any_protocol_dispatches_like_the_concrete_type() {
        let plan = tiny_plan();
        let mut direct = Balanced::new(plan.clone(), 1.0);
        let mut wrapped = ProtocolChoice::Balanced.build(plan, 1.0);
        assert_eq!(direct.start(), wrapped.start());
        assert_eq!(direct.done(), wrapped.done());
        assert_eq!(wrapped.rep_timeouts(), 0);
    }
}
