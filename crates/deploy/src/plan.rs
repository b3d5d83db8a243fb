//! The deployment plan and the strategy table that says how to walk it.
//!
//! A [`DeployPlan`] carries the [`MachineTable`] that maps machine
//! names to dense [`MachineId`]s; cluster membership is stored as id
//! vectors so that protocols and the simulator never touch strings on
//! the hot path. The table's names are shared, not owned: cloning a
//! plan copies the id vectors and takes another handle on the one
//! table, whatever the fleet size.
//!
//! A [`RolloutPlan`] is a deploy plan plus one row of the strategy
//! table ([`RolloutPlan::choose`]): the engine's whole input.

use mirage_cluster::Clustering;

use crate::dispatch::{seeded_shuffle, ProtocolChoice};
use crate::ids::{MachineId, MachineTable};
use crate::protocol::SimTime;

/// One cluster as seen by a deployment protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployCluster {
    /// Cluster index within the plan.
    pub id: usize,
    /// All member machine ids (representatives included).
    pub members: Vec<MachineId>,
    /// Representative machine ids (a prefix subset of `members`).
    pub reps: Vec<MachineId>,
    /// Vendor↔cluster distance (environment dissimilarity).
    pub distance: f64,
}

impl DeployCluster {
    /// Non-representative member ids.
    pub fn non_reps(&self) -> Vec<MachineId> {
        self.members
            .iter()
            .filter(|m| !self.reps.contains(m))
            .copied()
            .collect()
    }

    /// Number of member machines.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether `machine` is the member `machine - first` places after
    /// the cluster's first one, where the layout
    /// [`DeployPlan::from_named`] produces puts every member. One probe,
    /// no scan; `false` says nothing of a member placed elsewhere.
    pub fn holds_in_place(&self, machine: MachineId) -> bool {
        (self.members.first())
            .and_then(|first| machine.index().checked_sub(first.index()))
            .and_then(|offset| self.members.get(offset))
            == Some(&machine)
    }
}

/// A complete deployment plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeployPlan {
    /// Machine name ↔ id interner; ids are dense and follow plan order
    /// (cluster 0's members first, then cluster 1's, …). Clones of the
    /// plan share its storage.
    pub machines: MachineTable,
    /// Clusters in plan order (ids are indexes into this vector).
    pub clusters: Vec<DeployCluster>,
}

impl DeployPlan {
    /// Builds a plan from named clusters: each spec is `(member names,
    /// representative count, distance)`. Representatives are the first
    /// `reps` members.
    pub fn from_named<M, S>(specs: impl IntoIterator<Item = (M, usize, f64)>) -> Self
    where
        M: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut machines = MachineTable::new();
        let clusters = specs
            .into_iter()
            .enumerate()
            .map(|(id, (members, reps, distance))| {
                let members: Vec<MachineId> = members
                    .into_iter()
                    .map(|m| machines.intern(m.as_ref()))
                    .collect();
                let reps = members.iter().take(reps).copied().collect();
                DeployCluster {
                    id,
                    members,
                    reps,
                    distance,
                }
            })
            .collect();
        DeployPlan { machines, clusters }
    }

    /// Builds a plan from a clustering, electing the first
    /// `reps_per_cluster` members (sorted order) of each cluster as
    /// representatives.
    ///
    /// The paper assumes representatives are always online and willing to
    /// test (perhaps under a financial arrangement with the vendor);
    /// election strategy is orthogonal, so "first k members" keeps the
    /// plan deterministic.
    pub fn from_clustering(clustering: &Clustering, reps_per_cluster: usize) -> Self {
        DeployPlan::from_named(clustering.clusters.iter().map(|c| {
            let reps = reps_per_cluster.max(1).min(c.members.len());
            (
                c.members.iter().map(String::as_str),
                reps,
                c.vendor_distance,
            )
        }))
    }

    /// Cluster ids ordered by ascending distance (ties by id).
    pub(crate) fn order_by_distance_asc(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.clusters.len()).collect();
        ids.sort_by(|&a, &b| {
            self.clusters[a]
                .distance
                .partial_cmp(&self.clusters[b].distance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        ids
    }

    /// Total machine count (sum of cluster sizes).
    pub fn machine_count(&self) -> usize {
        self.clusters.iter().map(DeployCluster::len).sum()
    }

    /// All machine ids across clusters, in plan order.
    pub fn all_machines(&self) -> Vec<MachineId> {
        self.clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect()
    }

    /// The members of the clusters `order` lists, in that order.
    fn machines_in(&self, order: &[usize]) -> Vec<MachineId> {
        (order.iter())
            .flat_map(|&c| self.clusters[c].members.iter().copied())
            .collect()
    }

    /// Looks up the cluster containing a machine.
    ///
    /// On the layout [`DeployPlan::from_named`] produces — cluster `k`
    /// holds the consecutive ids right after cluster `k - 1`'s — this is
    /// a binary search over the clusters' first ids plus one offset
    /// probe, `O(log clusters)` with nothing stored beside the plan.
    /// The probe *verifies* the hit, so a plan edited through its `pub`
    /// fields into another layout falls back to the scan; only a
    /// malformed plan listing one machine in several clusters can get a
    /// later cluster than the first the scan would find.
    pub fn cluster_of(&self, machine: MachineId) -> Option<&DeployCluster> {
        let after = self
            .clusters
            .partition_point(|c| c.members.first().is_none_or(|&first| first <= machine));
        let dense = (self.clusters[..after].last()).filter(|c| c.holds_in_place(machine));
        dense.or_else(|| self.clusters.iter().find(|c| c.members.contains(&machine)))
    }

    /// The name behind a machine id (boundary helper).
    pub fn machine_name(&self, id: MachineId) -> &str {
        self.machines.name(id)
    }

    /// The id behind a machine name (boundary helper).
    pub fn machine_id(&self, name: &str) -> Option<MachineId> {
        self.machines.id(name)
    }
}

/// How aggressively a release spreads across the fleet: with a
/// [`ProtocolChoice`], the key of a row of [`RolloutPlan::choose`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RolloutStrategy {
    /// The paper's staged deployment: the [`ProtocolChoice`] row, each
    /// cluster a wave, representatives first.
    Staged {
        /// Unread: every cluster is a wave of its own. Callers still
        /// spell it.
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

/// Who tests in phase 1, in parallel, before the first wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Front {
    /// Nobody: the first wave opens with its representatives.
    None,
    /// Every representative of every wave (FrontLoading). The waves
    /// then notify non-representatives only.
    Reps,
    /// Every machine: one giant cluster, everyone a representative
    /// (NoStaging). Paired with an empty wave order.
    Everyone,
}

/// When a wave that met its threshold opens the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// At once, on the report that met it (the paper's protocols).
    Report,
    /// On a decision tick, `bake_time` after the first tick that saw the
    /// threshold met, and only while the caller allows a widen (rollout
    /// cohorts).
    Tick { bake_time: SimTime },
}

/// The waves a plan's engine walks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Waves {
    /// The deploy plan's clusters, each a wave with its representatives
    /// first, opened in this order of cluster indexes.
    Clusters(Vec<usize>),
    /// Runs of machines with no representatives, opened in sequence.
    Cohorts(Vec<Vec<MachineId>>),
}

/// A deploy plan and the row of the strategy table that walks it: the
/// whole input of the engine, [`crate::Staging::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutPlan {
    /// The underlying cluster plan (machine table, reps, distances).
    pub deploy: DeployPlan,
    strategy: RolloutStrategy,
    /// The row's [`crate::Protocol::name`].
    pub(crate) name: &'static str,
    pub(crate) front: Front,
    pub(crate) waves: Waves,
    pub(crate) gate: Gate,
}

impl RolloutPlan {
    /// `deploy` under `strategy`, a `Staged` strategy running Balanced.
    pub fn new(deploy: DeployPlan, strategy: RolloutStrategy) -> Self {
        RolloutPlan::choose(deploy, strategy, ProtocolChoice::Balanced)
    }

    /// The strategy table: `deploy` under `strategy`, a `Staged`
    /// strategy running `choice`'s row (the crate docs list the rows).
    /// The protocol rows walk the plan's clusters and are report-gated;
    /// the cohort rows ignore `choice`, cut the machines, clusters in
    /// ascending distance, into cohorts with no representatives, and are
    /// tick-gated.
    pub fn choose(deploy: DeployPlan, strategy: RolloutStrategy, choice: ProtocolChoice) -> Self {
        use ProtocolChoice as P;
        use RolloutStrategy as S;
        let ascending = deploy.order_by_distance_asc();
        let tick = |bake_time| Gate::Tick { bake_time };
        let (name, front, waves, gate) = match (strategy, choice) {
            (S::Staged { .. }, P::NoStaging) => {
                let waves = Waves::Clusters(Vec::new());
                (choice.name(), Front::Everyone, waves, Gate::Report)
            }
            (S::Staged { .. }, P::Balanced) => {
                let waves = Waves::Clusters(ascending);
                (choice.name(), Front::None, waves, Gate::Report)
            }
            (S::Staged { .. }, P::RandomStaging { seed }) => {
                let mut order: Vec<usize> = (0..deploy.clusters.len()).collect();
                seeded_shuffle(&mut order, seed);
                let waves = Waves::Clusters(order);
                (choice.name(), Front::None, waves, Gate::Report)
            }
            (S::Staged { .. }, P::FrontLoading) => {
                let waves = Waves::Clusters(ascending.into_iter().rev().collect());
                (choice.name(), Front::Reps, waves, Gate::Report)
            }
            (
                S::Canary {
                    percentage,
                    bake_time,
                },
                _,
            ) => {
                let machines = deploy.machines_in(&ascending);
                let n = machines.len();
                let first = ((percentage / 100.0).clamp(0.0, 1.0) * n as f64).ceil() as usize;
                let (canary, rest) = machines.split_at(first.clamp(1, n.max(1)).min(n));
                let waves = Waves::cohorts(vec![canary.to_vec(), rest.to_vec()]);
                ("Canary", Front::None, waves, tick(bake_time))
            }
            (S::Rolling { batch_size }, _) => {
                let machines = deploy.machines_in(&ascending);
                let batches = machines.chunks(batch_size.max(1)).map(<[_]>::to_vec);
                let waves = Waves::cohorts(batches.collect());
                ("Rolling", Front::None, waves, tick(0))
            }
            (S::BlueGreen, _) => {
                let (mut reps, mut rest) = (Vec::new(), Vec::new());
                for &c in &ascending {
                    reps.extend_from_slice(&deploy.clusters[c].reps);
                    rest.extend(deploy.clusters[c].non_reps());
                }
                let waves = Waves::cohorts(vec![reps, rest]);
                ("BlueGreen", Front::None, waves, tick(0))
            }
        };
        RolloutPlan {
            deploy,
            strategy,
            name,
            front,
            waves,
            gate,
        }
    }

    /// This plan with a `Staged` strategy's row re-selected by
    /// `choice`, through the same table; the other strategies ignore it.
    pub fn with_choice(self, choice: ProtocolChoice) -> Self {
        if matches!(self.strategy, RolloutStrategy::Staged { .. }) {
            RolloutPlan::choose(self.deploy, self.strategy, choice)
        } else {
            self
        }
    }

    /// Waves the engine opens one at a time, after the front.
    pub fn wave_count(&self) -> usize {
        match &self.waves {
            Waves::Clusters(order) => order.len(),
            Waves::Cohorts(cohorts) => cohorts.len(),
        }
    }

    /// Machines the engine notifies before any report: the front (every
    /// representative for FrontLoading, every machine for NoStaging),
    /// otherwise the first wave's representatives, or the whole first
    /// wave when it has none. This is the containment bound a guarded
    /// rollout enforces: a release aborted before any widen touched at
    /// most this many machines. Read off the plan; no engine is built.
    /// A machine listed in two clusters counts twice, so the bound holds
    /// on any plan and is exact when clusters share no machine.
    pub fn exposure_limit(&self) -> usize {
        // Every wave as (machines, representative count), and the order.
        let (waves, order): (Vec<(&[MachineId], usize)>, Vec<usize>) = match &self.waves {
            Waves::Clusters(order) => {
                let clusters = self.deploy.clusters.iter();
                let waves = clusters.map(|c| (&c.members[..], c.reps.len()));
                (waves.collect(), order.clone())
            }
            Waves::Cohorts(cohorts) => {
                let waves = cohorts.iter().map(|c| (&c[..], 0));
                (waves.collect(), (0..cohorts.len()).collect())
            }
        };
        let first: Vec<&[MachineId]> = match self.front {
            Front::Everyone => waves.iter().map(|w| w.0).collect(),
            Front::Reps if waves.iter().any(|w| w.1 > 0) => {
                waves.iter().map(|&(m, reps)| &m[..reps]).collect()
            }
            // The first wave the engine does not pass over as empty: its
            // representatives, or all of it when it has none.
            Front::None | Front::Reps => (order.iter().map(|&w| waves[w]))
                .find(|w| !w.0.is_empty())
                .map(|(m, reps)| if reps > 0 { &m[..reps] } else { m })
                .into_iter()
                .collect(),
        };
        first.iter().map(|run| run.len()).sum()
    }
}

impl Waves {
    /// The non-empty `cohorts`, in sequence.
    fn cohorts(mut cohorts: Vec<Vec<MachineId>>) -> Waves {
        cohorts.retain(|c| !c.is_empty());
        Waves::Cohorts(cohorts)
    }
}

/// One row of each kind of the strategy table, for the tests that
/// walk it.
#[cfg(test)]
pub(crate) const ROWS: [(RolloutStrategy, ProtocolChoice); 7] = [
    (STAGED, ProtocolChoice::NoStaging),
    (STAGED, ProtocolChoice::Balanced),
    (STAGED, ProtocolChoice::FrontLoading),
    (STAGED, ProtocolChoice::RandomStaging { seed: 5 }),
    (
        RolloutStrategy::Canary {
            percentage: 25.0,
            bake_time: 50,
        },
        ProtocolChoice::Balanced,
    ),
    (
        RolloutStrategy::Rolling { batch_size: 3 },
        ProtocolChoice::Balanced,
    ),
    (RolloutStrategy::BlueGreen, ProtocolChoice::Balanced),
];

#[cfg(test)]
const STAGED: RolloutStrategy = RolloutStrategy::Staged { waves: 1 };

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic plan: each tuple is (members, reps, distance).
    fn plan(specs: &[(&[&str], usize, f64)]) -> DeployPlan {
        DeployPlan::from_named(specs.iter().copied())
    }

    #[test]
    fn non_reps_and_counts() {
        let p = plan(&[(&["a", "b", "c"], 1, 0.0)]);
        assert_eq!(p.clusters[0].reps, vec![MachineId(0)]);
        assert_eq!(p.clusters[0].non_reps(), vec![MachineId(1), MachineId(2)]);
        assert_eq!(p.machine_count(), 3);
        assert_eq!(p.all_machines().len(), 3);
        // Names round-trip through the table in plan order.
        assert_eq!(p.machine_name(MachineId(1)), "b");
        assert_eq!(p.machine_id("c"), Some(MachineId(2)));
        assert_eq!(p.machine_id("zzz"), None);
    }

    #[test]
    fn distance_orders() {
        let p = plan(&[
            (&["a"], 1, 5.0),
            (&["b"], 1, 1.0),
            (&["c"], 1, 3.0),
            (&["d"], 1, 1.0),
        ]);
        assert_eq!(p.order_by_distance_asc(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn cluster_lookup() {
        let p = plan(&[(&["a", "b"], 1, 0.0), (&["c"], 1, 1.0)]);
        let c = p.machine_id("c").unwrap();
        assert_eq!(p.cluster_of(c).unwrap().id, 1);
        assert!(p.cluster_of(MachineId(99)).is_none());
    }

    /// `cluster_of` as the scan it replaced defines it: the first
    /// cluster whose members contain the id.
    fn scanned(p: &DeployPlan, machine: MachineId) -> Option<usize> {
        p.clusters.iter().position(|c| c.members.contains(&machine))
    }

    fn assert_matches_scan(p: &DeployPlan, context: &str) {
        // Two ids past the end of the table: no cluster holds them.
        for id in 0..p.machines.len() as u32 + 2 {
            let machine = MachineId(id);
            assert_eq!(
                p.cluster_of(machine).map(|c| c.id),
                scanned(p, machine),
                "{context}: {machine}"
            );
        }
    }

    #[test]
    fn cluster_of_agrees_with_the_scan_on_random_plans() {
        for seed in 1..=300u64 {
            let mut state = seed;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            // Uneven sizes: mostly small, a third single-member, now
            // and then an empty cluster or a wide one.
            let sizes: Vec<usize> = (0..1 + next(12))
                .map(|_| match next(9) {
                    0 => 0,
                    1..=3 => 1,
                    4 => 40 + next(60) as usize,
                    _ => 2 + next(6) as usize,
                })
                .collect();
            let mut p = DeployPlan::from_named(sizes.iter().enumerate().map(|(k, &size)| {
                let names = (0..size).map(move |i| format!("c{k}-{i}"));
                (names, 1, k as f64)
            }));
            assert_matches_scan(&p, &format!("seed {seed}, sizes {sizes:?}"));
            // A plan edited through its `pub` fields leaves the dense
            // layout: a machine interned late joins an early cluster.
            let ghost = p.machines.intern("ghost");
            let host = next(p.clusters.len() as u64) as usize;
            p.clusters[host].members.push(ghost);
            assert_eq!(p.cluster_of(ghost).map(|c| c.id), Some(host));
            assert_matches_scan(&p, &format!("seed {seed}, ghost in {host}"));
        }
    }

    #[test]
    fn from_clustering_elects_reps() {
        use mirage_cluster::{Cluster, ClusterId};
        use std::collections::BTreeSet;
        let clustering = Clustering {
            clusters: vec![Cluster {
                id: ClusterId(0),
                members: vec!["x".into(), "y".into(), "z".into()],
                label: Default::default(),
                app_set: BTreeSet::new(),
                vendor_distance: 2.5,
            }],
        };
        let p = DeployPlan::from_clustering(&clustering, 2);
        assert_eq!(
            p.clusters[0].reps,
            vec![p.machine_id("x").unwrap(), p.machine_id("y").unwrap()]
        );
        assert_eq!(p.clusters[0].distance, 2.5);
        // Rep count is clamped to the cluster size and floored at one.
        let p = DeployPlan::from_clustering(&clustering, 0);
        assert_eq!(p.clusters[0].reps.len(), 1);
        let p = DeployPlan::from_clustering(&clustering, 10);
        assert_eq!(p.clusters[0].reps.len(), 3);
    }

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

    /// Each wave's machines, in the order the engine opens them.
    fn waves(plan: &RolloutPlan) -> Vec<Vec<MachineId>> {
        match &plan.waves {
            Waves::Clusters(order) => (order.iter())
                .map(|&c| plan.deploy.clusters[c].members.clone())
                .collect(),
            Waves::Cohorts(cohorts) => cohorts.clone(),
        }
    }

    fn names(plan: &RolloutPlan, wave: usize) -> Vec<&str> {
        waves(plan)[wave]
            .iter()
            .map(|&m| plan.deploy.machine_name(m))
            .collect()
    }

    /// Every row's waves but NoStaging's (it has none) cover the fleet
    /// exactly once, and no wave is empty.
    #[test]
    fn cohorts_cover_fleet_exactly_once() {
        for (strategy, choice) in ROWS {
            let plan = RolloutPlan::choose(deploy(), strategy, choice);
            if plan.front == Front::Everyone {
                continue;
            }
            let mut seen: Vec<u32> = waves(&plan).concat().iter().map(|m| m.0).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<_>>(), "{}", plan.name);
            assert!(waves(&plan).iter().all(|c| !c.is_empty()));
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
        assert_eq!(plan.wave_count(), 2);
        assert_eq!(plan.gate, Gate::Tick { bake_time: 50 });
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
        let sizes: Vec<usize> = waves(&plan).iter().map(Vec::len).collect();
        assert_eq!(sizes, [5, 5, 2]);
        assert_eq!(names(&plan, 0), ["b0", "b1", "b2", "b3", "c0"]);
        assert_eq!(plan.exposure_limit(), 5);
        // Zero batch size is floored at one machine per batch.
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Rolling { batch_size: 0 });
        assert_eq!(plan.wave_count(), 12);
    }

    #[test]
    fn blue_green_splits_reps_from_the_rest() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::BlueGreen);
        assert_eq!(plan.wave_count(), 2);
        // 1 + 2 + 1 representatives, distance order.
        assert_eq!(names(&plan, 0), ["b0", "c0", "c1", "a0"]);
        assert_eq!(waves(&plan)[1].len(), 8);
        assert_eq!(plan.exposure_limit(), 4);
    }

    /// A staged plan's waves are whole clusters, representatives
    /// first, in its row's order; `waves` is unread.
    #[test]
    fn staged_waves_group_whole_clusters() {
        let plan = RolloutPlan::new(deploy(), RolloutStrategy::Staged { waves: 2 });
        assert_eq!((plan.name, plan.wave_count()), ("Balanced", 3));
        assert_eq!(names(&plan, 1), ["c0", "c1", "c2", "c3"]);
        // Balanced first notifies the nearest cluster's representative.
        assert_eq!(plan.exposure_limit(), 1);
        for count in [0, 1, 99] {
            let other = RolloutPlan::new(deploy(), RolloutStrategy::Staged { waves: count });
            assert_eq!((other.front, waves(&other)), (plan.front, waves(&plan)));
        }
        // The choice re-selects the row: FrontLoading fronts every
        // representative, then walks the clusters farthest first.
        let front = plan.with_choice(ProtocolChoice::FrontLoading);
        assert_eq!((front.name, front.exposure_limit()), ("FrontLoading", 4));
        assert_eq!(names(&front, 0), ["a0", "a1", "a2", "a3"]);
        // A cohort row ignores it.
        let rolling = RolloutPlan::new(deploy(), RolloutStrategy::Rolling { batch_size: 5 });
        let same = rolling.clone().with_choice(ProtocolChoice::NoStaging);
        assert_eq!(same, rolling);
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
