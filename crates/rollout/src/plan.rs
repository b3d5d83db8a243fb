//! Pure rollout planning: strategy → ordered machine cohorts.
//!
//! Planning is separated from driving so it can be unit-tested without
//! a fleet and inspected before a campaign commits to anything: a
//! [`RolloutPlan`] is just the deploy plan plus the cohort partition a
//! [`RolloutStrategy`] induces over it. Cohort order follows the
//! paper's staging principle — ascending vendor↔cluster distance, so
//! the environments most like the vendor's (where testing is most
//! predictive) go first.

use mirage_deploy::{DeployPlan, MachineId, SimTime};

/// How aggressively a release spreads across the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RolloutStrategy {
    /// The paper's staged deployment: distance-ordered cluster waves
    /// (representatives first within each cluster, handled by the
    /// underlying staging protocol). `waves` groups the cluster order
    /// into that many contiguous waves for exposure accounting.
    Staged {
        /// Number of cluster waves (clamped to `1..=clusters`).
        waves: usize,
    },
    /// A small fixed-percentage cohort receives the release first and
    /// must stay healthy for `bake_time` ticks of simulated time
    /// before the remainder of the fleet is notified.
    Canary {
        /// Fleet percentage in the canary cohort (`0.0..=100.0`;
        /// rounded up to whole machines, floored at one).
        percentage: f64,
        /// Minimum simulated time between the canary cohort passing
        /// and the rollout widening.
        bake_time: SimTime,
    },
    /// Fixed-size machine batches in distance order, each gated on the
    /// previous batch passing.
    Rolling {
        /// Machines per batch (floored at one).
        batch_size: usize,
    },
    /// Two cohorts: every cluster representative first (the "green"
    /// probe fleet), then every remaining machine.
    BlueGreen,
}

impl RolloutStrategy {
    /// Stable lowercase strategy name for reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RolloutStrategy::Staged { .. } => "staged",
            RolloutStrategy::Canary { .. } => "canary",
            RolloutStrategy::Rolling { .. } => "rolling",
            RolloutStrategy::BlueGreen => "blue_green",
        }
    }
}

/// A deploy plan partitioned into strategy-ordered cohorts — the pure
/// planning half of a rollout, with no driving state.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutPlan {
    /// The underlying cluster plan (machine table, reps, distances).
    pub deploy: DeployPlan,
    /// The strategy that shaped the cohorts.
    pub(crate) strategy: RolloutStrategy,
    /// Non-empty cohorts in notification order, each the machines
    /// notified together; together they cover every machine in the
    /// deploy plan exactly once.
    pub cohorts: Vec<Vec<MachineId>>,
}

impl RolloutPlan {
    /// Partitions `deploy` into cohorts according to `strategy`.
    pub fn new(deploy: DeployPlan, strategy: RolloutStrategy) -> Self {
        let order = deploy.order_by_distance_asc();
        let groups: Vec<Vec<MachineId>> = match strategy {
            RolloutStrategy::Staged { waves } => {
                // Contiguous groups of whole clusters, sized as evenly
                // as the cluster count allows.
                let waves = waves.clamp(1, order.len().max(1));
                let base = order.len() / waves;
                let extra = order.len() % waves;
                let mut groups = Vec::with_capacity(waves);
                let mut next = 0usize;
                for wave in 0..waves {
                    let take = base + usize::from(wave < extra);
                    let members = order[next..next + take]
                        .iter()
                        .flat_map(|&c| deploy.clusters[c].members.iter().copied())
                        .collect();
                    groups.push(members);
                    next += take;
                }
                groups
            }
            RolloutStrategy::Canary {
                percentage,
                bake_time: _,
            } => {
                let machines = machines_in_distance_order(&deploy, &order);
                let n = machines.len();
                let frac = (percentage / 100.0).clamp(0.0, 1.0);
                let first = ((frac * n as f64).ceil() as usize).clamp(1, n.max(1));
                let (canary, rest) = machines.split_at(first.min(n));
                vec![canary.to_vec(), rest.to_vec()]
            }
            RolloutStrategy::Rolling { batch_size } => {
                let machines = machines_in_distance_order(&deploy, &order);
                machines
                    .chunks(batch_size.max(1))
                    .map(<[MachineId]>::to_vec)
                    .collect()
            }
            RolloutStrategy::BlueGreen => {
                let mut reps = Vec::new();
                let mut rest = Vec::new();
                for &c in &order {
                    let cluster = &deploy.clusters[c];
                    reps.extend(cluster.reps.iter().copied());
                    rest.extend(
                        cluster
                            .members
                            .iter()
                            .copied()
                            .filter(|m| !cluster.reps.contains(m)),
                    );
                }
                vec![reps, rest]
            }
        };
        RolloutPlan {
            deploy,
            strategy,
            cohorts: groups.into_iter().filter(|g| !g.is_empty()).collect(),
        }
    }

    /// Machines exposed before the first widen decision — the size of
    /// cohort 0. This is the containment bound a guarded rollout
    /// enforces: a release aborted before any widen touches at most
    /// this many machines.
    pub fn exposure_limit(&self) -> usize {
        self.cohorts.first().map_or(0, Vec::len)
    }
}

/// All machine ids, clusters in `order`, members in plan order.
fn machines_in_distance_order(deploy: &DeployPlan, order: &[usize]) -> Vec<MachineId> {
    order
        .iter()
        .flat_map(|&c| deploy.clusters[c].members.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clusters of 4, distances out of id order to exercise the
    /// distance sort: cluster 1 (d=1) < cluster 2 (d=2) < cluster 0
    /// (d=3).
    fn deploy() -> DeployPlan {
        DeployPlan::from_named([
            (["a0", "a1", "a2", "a3"], 1, 3.0),
            (["b0", "b1", "b2", "b3"], 1, 1.0),
            (["c0", "c1", "c2", "c3"], 2, 2.0),
        ])
    }

    fn names(plan: &RolloutPlan, cohort: usize) -> Vec<&str> {
        plan.cohorts[cohort]
            .iter()
            .map(|&m| plan.deploy.machine_name(m))
            .collect()
    }

    #[test]
    fn cohorts_cover_fleet_exactly_once() {
        for strategy in [
            RolloutStrategy::Staged { waves: 2 },
            RolloutStrategy::Canary {
                percentage: 10.0,
                bake_time: 50,
            },
            RolloutStrategy::Rolling { batch_size: 5 },
            RolloutStrategy::BlueGreen,
        ] {
            let plan = RolloutPlan::new(deploy(), strategy);
            let mut seen: Vec<u32> = plan.cohorts.iter().flatten().map(|m| m.0).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<_>>(), "{}", strategy.name());
            assert!(plan.cohorts.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn canary_cohort_is_ceil_of_percentage_in_distance_order() {
        let plan = RolloutPlan::new(
            deploy(),
            RolloutStrategy::Canary {
                percentage: 25.0,
                bake_time: 50,
            },
        );
        // ceil(25% of 12) = 3, from the closest cluster (cluster 1).
        assert_eq!(plan.exposure_limit(), 3);
        assert_eq!(names(&plan, 0), ["b0", "b1", "b2"]);
        assert_eq!(plan.cohorts.len(), 2);
        // A sub-machine percentage still exposes one machine.
        let plan = RolloutPlan::new(
            deploy(),
            RolloutStrategy::Canary {
                percentage: 0.1,
                bake_time: 0,
            },
        );
        assert_eq!(plan.exposure_limit(), 1);
    }

    #[test]
    fn rolling_batches_chunk_in_distance_order() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Rolling { batch_size: 5 });
        assert_eq!(
            plan.cohorts.iter().map(Vec::len).collect::<Vec<_>>(),
            [5, 5, 2]
        );
        assert_eq!(names(&plan, 0), ["b0", "b1", "b2", "b3", "c0"]);
        // Zero batch size is floored at one machine per batch.
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Rolling { batch_size: 0 });
        assert_eq!(plan.cohorts.len(), 12);
    }

    #[test]
    fn blue_green_splits_reps_from_the_rest() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::BlueGreen);
        assert_eq!(plan.cohorts.len(), 2);
        // 1 + 2 + 1 representatives, distance order.
        assert_eq!(names(&plan, 0), ["b0", "c0", "c1", "a0"]);
        assert_eq!(plan.cohorts[1].len(), 8);
    }

    #[test]
    fn staged_waves_group_whole_clusters() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Staged { waves: 2 });
        // 3 clusters into 2 waves: first wave takes two clusters.
        assert_eq!(
            plan.cohorts.iter().map(Vec::len).collect::<Vec<_>>(),
            [8, 4]
        );
        assert_eq!(names(&plan, 1), ["a0", "a1", "a2", "a3"]);
        // Wave counts clamp to the cluster count.
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Staged { waves: 99 });
        assert_eq!(plan.cohorts.len(), 3);
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Staged { waves: 0 });
        assert_eq!(plan.cohorts.len(), 1);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(RolloutStrategy::Staged { waves: 1 }.name(), "staged");
        assert_eq!(
            RolloutStrategy::Canary {
                percentage: 1.0,
                bake_time: 1
            }
            .name(),
            "canary"
        );
        assert_eq!(RolloutStrategy::Rolling { batch_size: 1 }.name(), "rolling");
        assert_eq!(RolloutStrategy::BlueGreen.name(), "blue_green");
    }
}
