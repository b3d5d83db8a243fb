//! Protocol selection: the one table from a protocol's name to a
//! configuration of the staged engine.
//!
//! [`ProtocolChoice`] is a tiny `Copy` value, parseable from a name;
//! [`ProtocolChoice::build`] turns it into a [`Staging`] over a plan.
//! Every driver (the simulator, the live campaign, the rollout
//! controller, the repro harness) configures protocols through it.

use crate::plan::DeployPlan;
use crate::protocols::{Front, Staging};

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
/// [`ProtocolChoice::build`] turns a choice into a ready [`Staging`]
/// over a plan.
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
    /// The canonical protocol name (matches [`crate::Protocol::name`]).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolChoice::NoStaging => "NoStaging",
            ProtocolChoice::Balanced => "Balanced",
            ProtocolChoice::FrontLoading => "FrontLoading",
            ProtocolChoice::RandomStaging { .. } => "RandomStaging",
        }
    }

    /// Builds the chosen protocol over `plan` at `threshold`. Each
    /// choice is one row of the crate docs' table: who tests in phase 1,
    /// and the order the clusters deploy in afterwards. NoStaging has no
    /// cluster wave, so it ignores the threshold.
    pub fn build(self, plan: DeployPlan, threshold: f64) -> Staging {
        let (front, order) = match self {
            ProtocolChoice::NoStaging => (Front::Everyone, Vec::new()),
            ProtocolChoice::Balanced => (Front::None, plan.order_by_distance_asc()),
            ProtocolChoice::RandomStaging { seed } => {
                let mut order: Vec<usize> = (0..plan.clusters.len()).collect();
                seeded_shuffle(&mut order, seed);
                (Front::None, order)
            }
            ProtocolChoice::FrontLoading => (Front::Reps, plan.order_by_distance_desc()),
        };
        Staging::new(self.name(), plan, front, order, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;

    fn tiny_plan() -> DeployPlan {
        DeployPlan::from_named([(["a", "b"], 1, 1.0), (["c", "d"], 1, 2.0)])
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
}
