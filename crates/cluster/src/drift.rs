//! Batch drift engine: incremental re-clustering for churning fleets.
//!
//! Between upgrade rounds machines drift — packages are installed and
//! removed, configs are edited, app sets change. Re-running the full
//! quadratic pipeline per round does not scale, and the one-shot
//! [`crate::incremental::reference`] plane pays O(fleet) per move: a
//! fresh [`ItemPool`] each call, a full cluster-vector clone, and a
//! scan of every cluster's every member. [`DriftEngine`] keeps the
//! fleet resident on the dense interned plane instead:
//!
//! * a **persistent [`ItemPool`]** plus a cached [`LoweredDiff`] per
//!   machine (content items for the distance kernel, all items for
//!   label refcounting) — only the drifted machine is re-lowered, via
//!   [`ItemPool::lower_into`] so even that reuses its buffers;
//! * **per-cluster incremental aggregates** — member count, label
//!   union refcounts (dropping a member decrements ids instead of
//!   rebuilding the union), vendor-distance sum, and opt-in QT-style
//!   pairwise sum/max cohesion aggregates — so adopting or removing a
//!   member is O(changed items), never O(members × items);
//! * **environment bucketing** — clusters are pre-bucketed by a hash
//!   of their shared (parsed diff, app set); a candidate scan touches
//!   only exact-matching buckets, skipping incompatible clusters
//!   without visiting a single member (the reference plane's per-member
//!   parsed check short-circuits on the first member, so the kernel
//!   distance-eval counts still agree exactly);
//! * **scoped-thread candidate scans** — when one delta must test many
//!   candidate members, per-cluster scans fan out over
//!   `std::thread::scope` like the QT distance matrix; each cluster's
//!   scan stays sequential with the same short-circuit, so results
//!   *and* `cluster.drift_dist_evals` are bit-identical to the
//!   sequential path.
//!
//! [`DriftEngine::recluster_batch`] applies a [`MachineDelta`] stream
//! in order with move semantics identical to
//! [`crate::incremental::reference::recluster_one`] — seeded property
//! tests drive random drift streams through both planes and assert
//! bit-identical clusterings (membership, order, ids, labels, derived
//! fields) and identical `cluster.drift_*` counters.
//!
//! # Aggregate invariants
//!
//! For every cluster: `vendor_sum` equals the sum of members'
//! [`DiffSet::vendor_distance`] (the exported mean divides by the
//! member count with the exact arithmetic of the reference plane);
//! `label_refs[id]` counts the members whose diff contains the interned
//! item `id`, and the materialised `label` set holds exactly the ids
//! with positive refcounts. With cohesion enabled, `pair_sum` is the
//! exact sum of intra-cluster pairwise kernel distances (maintained by
//! adding the adopted member's scanned edges and subtracting the
//! removed member's recomputed row — counted in
//! `cluster.drift_aggregate_evals`), and `pair_max` is an upper bound
//! on the pairwise maximum, exact while a cluster only grows (removals
//! may leave it loose, like any non-invertible max).
//!
//! [`DiffSet::vendor_distance`]: mirage_fingerprint::DiffSet::vendor_distance

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use mirage_fingerprint::{Item, ItemPool, ItemSet, LoweredDiff};
use mirage_telemetry::Telemetry;

use crate::cluster::{Cluster, ClusterId, Clustering, MachineInfo};
use crate::engine::label_of;

/// A candidate scan fans out over scoped threads once the candidate
/// clusters hold at least this many members in total; smaller scans
/// stay sequential (thread spawns would dominate).
const PARALLEL_SCAN_THRESHOLD: usize = 4096;

/// One machine's environment change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineDelta {
    /// The drifting machine's id.
    pub machine: String,
    /// What changed.
    pub op: DriftOp,
}

/// An environment drift operation, applied to a machine's clustering
/// input ([`MachineInfo`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftOp {
    /// A package install: adds parsed and content diff items.
    Install {
        /// Parser-produced items the install adds to the diff set.
        parsed: Vec<Item>,
        /// Content-based items the install adds to the diff set.
        content: Vec<Item>,
    },
    /// A package uninstall: removes parsed and content diff items.
    Uninstall {
        /// Parser-produced items the uninstall removes.
        parsed: Vec<Item>,
        /// Content-based items the uninstall removes.
        content: Vec<Item>,
    },
    /// A configuration edit: content-only item churn (removals apply
    /// before additions).
    ConfigEdit {
        /// Content items the edit adds.
        add: Vec<Item>,
        /// Content items the edit removes (before `add` applies).
        remove: Vec<Item>,
    },
    /// An overlapping-application set change (removals apply before
    /// additions).
    Apps {
        /// Applications to add to the overlapping set.
        add: Vec<String>,
        /// Applications to remove (before `add` applies).
        remove: Vec<String>,
    },
}

impl DriftOp {
    /// Applies the operation to a machine's clustering input, returning
    /// the post-drift input. Pure: both planes call this, so a delta
    /// means exactly the same thing to the engine and the reference.
    pub fn apply(&self, info: &MachineInfo) -> MachineInfo {
        let mut next = info.clone();
        match self {
            DriftOp::Install { parsed, content } => {
                next.diff.parsed.extend(parsed.iter().cloned());
                next.diff.content.extend(content.iter().cloned());
            }
            DriftOp::Uninstall { parsed, content } => {
                for item in parsed {
                    next.diff.parsed.remove(item);
                }
                for item in content {
                    next.diff.content.remove(item);
                }
            }
            DriftOp::ConfigEdit { add, remove } => {
                for item in remove {
                    next.diff.content.remove(item);
                }
                next.diff.content.extend(add.iter().cloned());
            }
            DriftOp::Apps { add, remove } => {
                for app in remove {
                    next.overlapping_apps.remove(app);
                }
                next.overlapping_apps.extend(add.iter().cloned());
            }
        }
        next
    }
}

/// Drift counters for one batch (or one reference loop), mirrored into
/// telemetry as `cluster.drift_*`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DriftStats {
    /// Deltas that changed their machine's input (= adoptions + singletons).
    pub applied: u64,
    /// Deltas whose application left the input unchanged (fast-pathed:
    /// no removal, no scan, no aggregate touch).
    pub noops: u64,
    /// Applied deltas after which the machine's cluster id changed.
    pub moves: u64,
    /// Applied deltas where an existing cluster adopted the machine.
    pub adoptions: u64,
    /// Applied deltas where the machine founded a singleton cluster.
    pub singletons: u64,
    /// Kernel distance evaluations spent in candidate scans (one per
    /// member visited; identical across planes and parallelism).
    pub dist_evals: u64,
    /// Kernel distance evaluations spent maintaining cohesion
    /// aggregates on removal (engine-only; zero unless
    /// [`DriftEngine::with_cohesion`] is enabled).
    pub aggregate_evals: u64,
}

/// Publishes the `cluster.drift_*` counters for `stats` (only non-zero
/// values, so a no-op batch leaves the registry untouched). Both planes
/// go through this function, which is what makes the counter surface
/// part of the equivalence property.
pub(crate) fn publish_drift_counters(telemetry: &Telemetry, stats: &DriftStats) {
    for (name, value) in [
        ("cluster.drift_moves", stats.moves),
        ("cluster.drift_adoptions", stats.adoptions),
        ("cluster.drift_singletons", stats.singletons),
        ("cluster.drift_dist_evals", stats.dist_evals),
        ("cluster.drift_noops", stats.noops),
        ("cluster.drift_aggregate_evals", stats.aggregate_evals),
    ] {
        if value > 0 {
            telemetry.counter(name, value);
        }
    }
}

/// Hash of a cluster's shared environment key (parsed diff + app set);
/// collisions are tolerated — buckets are exact-verified before any
/// member is touched.
fn env_hash(parsed: &ItemSet, apps: &BTreeSet<String>) -> u64 {
    let mut h = DefaultHasher::new();
    parsed.len().hash(&mut h);
    for item in parsed {
        item.hash(&mut h);
    }
    apps.len().hash(&mut h);
    for app in apps {
        app.hash(&mut h);
    }
    h.finish()
}

/// Builds a derived-consistent [`Clustering`] from pre-grouped machines
/// (group *i* becomes cluster id *i*), plus the flattened machine list.
///
/// Derived fields use exactly the engine/reference arithmetic (sorted
/// members, label = union of member items, app set of the first member,
/// vendor distance = integer sum over `f64` member count), so the
/// result always passes [`DriftEngine::new`]'s consistency validation.
/// The caller is responsible for groups being environment-uniform and
/// within the diameter — synthetic fleets for benches and scale tests
/// are built this way without paying for a full QT run.
pub fn clustering_from_groups(groups: &[Vec<MachineInfo>]) -> (Clustering, Vec<MachineInfo>) {
    let mut clusters = Vec::with_capacity(groups.len());
    let mut machines = Vec::new();
    for (i, group) in groups.iter().enumerate() {
        assert!(!group.is_empty(), "group {i} is empty");
        let mut members: Vec<String> = group.iter().map(|m| m.id().to_string()).collect();
        members.sort();
        let label = label_of(group.iter());
        let vendor_distance = group
            .iter()
            .map(|m| m.diff.vendor_distance())
            .sum::<usize>() as f64
            / group.len() as f64;
        clusters.push(Cluster {
            id: ClusterId(i),
            members,
            label,
            app_set: group[0].overlapping_apps.clone(),
            vendor_distance,
        });
        machines.extend(group.iter().cloned());
    }
    (Clustering { clusters }, machines)
}

/// Per-machine resident state.
#[derive(Debug)]
struct MachineState {
    info: MachineInfo,
    /// Content items lowered against the engine pool (distance kernel).
    lowered: LoweredDiff,
    /// All diff items lowered against the engine pool (label refcounts).
    label: LoweredDiff,
    /// Cached `diff.vendor_distance()`.
    vendor: usize,
    /// Owning cluster slot.
    slot: u32,
}

/// Per-cluster resident state with incremental aggregates.
#[derive(Debug)]
struct ClusterState {
    id: ClusterId,
    /// Creation sequence; `order` is always ascending in `seq`, so
    /// comparing seqs equals comparing positions in the output vector
    /// (the reference plane's adoption tie-break).
    seq: u64,
    env_hash: u64,
    /// Member machine ids, sorted.
    members: Vec<String>,
    /// The parsed diff shared by every member (phase-1 invariant).
    parsed: ItemSet,
    /// The app set shared by every member (split invariant).
    app_set: BTreeSet<String>,
    /// Materialised label (union of member items), kept in sync with
    /// `label_refs`.
    label: ItemSet,
    /// Interned item id → number of members carrying it.
    label_refs: HashMap<u32, u32>,
    /// Sum of members' vendor distances.
    vendor_sum: usize,
    /// Cohesion: exact sum of intra-cluster pairwise distances.
    pair_sum: u64,
    /// Cohesion: upper bound on the intra-cluster pairwise maximum
    /// (exact while the cluster only grows).
    pair_max: u32,
}

/// Cohesion aggregates of one cluster (see [`DriftEngine::with_cohesion`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cohesion {
    /// Exact sum of pairwise intra-cluster kernel distances.
    pub pair_sum: u64,
    /// Upper bound on the pairwise maximum (exact under growth-only
    /// histories; removals may leave it loose).
    pub pair_max_bound: u32,
    /// Number of member pairs (`n·(n−1)/2`).
    pub pairs: u64,
}

impl Cohesion {
    /// Mean intra-cluster pairwise distance (0 for singletons).
    pub fn mean(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.pair_sum as f64 / self.pairs as f64
        }
    }
}

/// Result of scanning one candidate cluster.
struct Scan {
    compatible: bool,
    sum: u64,
    max: u32,
    evals: u64,
}

/// The batch drift engine (see the module docs).
///
/// # Examples
///
/// ```
/// use mirage_cluster::{ClusterEngine, DriftEngine, DriftOp, MachineDelta, MachineInfo};
/// use mirage_fingerprint::{DiffSet, Item};
///
/// let machine = |id: &str, content: &[&str]| {
///     let mut diff = DiffSet::empty(id);
///     diff.content = content.iter().map(|s| Item::new([*s])).collect();
///     MachineInfo::new(diff)
/// };
/// let fleet = vec![machine("a", &["w"]), machine("b", &["w"]), machine("c", &["z", "y"])];
/// let clustering = ClusterEngine::new(1).cluster(&fleet);
/// let mut engine = DriftEngine::new(&clustering, &fleet, 1);
/// // b's config drifts next to c: it moves cluster.
/// let stats = engine.recluster_batch(&[MachineDelta {
///     machine: "b".into(),
///     op: DriftOp::ConfigEdit {
///         add: vec![Item::new(["z"]), Item::new(["y"])],
///         remove: vec![Item::new(["w"])],
///     },
/// }]);
/// assert_eq!(stats.moves, 1);
/// assert!(engine.clustering().cluster_of("c").unwrap().contains("b"));
/// ```
#[derive(Debug)]
pub struct DriftEngine {
    diameter: usize,
    telemetry: Telemetry,
    allow_parallel: bool,
    cohesion: bool,
    pool: ItemPool,
    machines: HashMap<String, MachineState>,
    /// Slot-addressed clusters (`None` = free slot).
    slots: Vec<Option<ClusterState>>,
    free: Vec<u32>,
    /// Active slots in output order (ascending `seq`).
    order: Vec<u32>,
    /// Environment-hash → active slots (unordered within a bucket).
    buckets: HashMap<u64, Vec<u32>>,
    next_seq: u64,
}

impl DriftEngine {
    /// Builds an engine resident over `clustering` and its machine
    /// inputs, lowering every machine onto a fresh persistent pool.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are not a derived-consistent clustering:
    /// `machines` must hold exactly the clustering's members (each in
    /// exactly one cluster, members sorted), every cluster must be
    /// environment-uniform (shared parsed diff and app set), and each
    /// cluster's label and vendor distance must equal the values derived
    /// from its members — anything [`crate::ClusterEngine`],
    /// [`clustering_from_groups`], or the reference plane produces.
    pub fn new(clustering: &Clustering, machines: &[MachineInfo], diameter: usize) -> Self {
        let mut infos: HashMap<String, MachineInfo> = HashMap::with_capacity(machines.len());
        for m in machines {
            if infos.insert(m.id().to_string(), m.clone()).is_some() {
                panic!("duplicate machine {} in inputs", m.id());
            }
        }
        let mut engine = DriftEngine {
            diameter,
            telemetry: Telemetry::noop(),
            allow_parallel: true,
            cohesion: false,
            pool: ItemPool::new(),
            machines: HashMap::with_capacity(machines.len()),
            slots: Vec::with_capacity(clustering.len()),
            free: Vec::new(),
            order: Vec::with_capacity(clustering.len()),
            buckets: HashMap::new(),
            next_seq: 0,
        };
        for cluster in &clustering.clusters {
            engine.insert_resident_cluster(cluster, &mut infos);
        }
        if let Some(id) = infos.keys().next() {
            panic!("machine {id} is not a member of any cluster");
        }
        engine
    }

    /// Attaches a telemetry handle; [`DriftEngine::recluster_batch`]
    /// publishes per-batch `cluster.drift_*` counters through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables (or disables) cohesion aggregate maintenance.
    ///
    /// Enabling computes every cluster's exact pairwise sum/max once —
    /// quadratic per cluster, fanned over scoped threads — after which
    /// adoption updates are free (the scanned edges are reused) and each
    /// removal costs one recomputed row, counted in
    /// `cluster.drift_aggregate_evals`. Cohesion never affects the
    /// clustering itself; it is observability ([`DriftEngine::cohesion`]).
    pub fn with_cohesion(mut self, on: bool) -> Self {
        self.cohesion = on;
        if on {
            self.recompute_cohesion_all();
        }
        self
    }

    /// Disables (or re-enables) the scoped-thread candidate scan,
    /// regardless of size. Exists so tests can assert the parallel and
    /// sequential paths produce bit-identical clusterings and counters;
    /// prefer the auto-selecting default elsewhere.
    #[doc(hidden)]
    pub fn with_parallel(mut self, on: bool) -> Self {
        self.allow_parallel = on;
        self
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the engine holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of resident machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The resident clustering input of `machine`, if resident.
    pub fn machine_info(&self, machine: &str) -> Option<&MachineInfo> {
        self.machines.get(machine).map(|s| &s.info)
    }

    /// Cohesion aggregates of the cluster with id `id` (`None` if no
    /// such cluster; meaningful only with
    /// [`DriftEngine::with_cohesion`] enabled).
    pub fn cohesion(&self, id: ClusterId) -> Option<Cohesion> {
        self.order.iter().find_map(|&s| {
            let c = self.slots[s as usize].as_ref().expect("active slot");
            (c.id == id).then(|| {
                let n = c.members.len() as u64;
                Cohesion {
                    pair_sum: c.pair_sum,
                    pair_max_bound: c.pair_max,
                    pairs: n * (n - 1) / 2,
                }
            })
        })
    }

    /// Applies a delta stream in order and returns the batch counters
    /// (also published to telemetry as `cluster.drift_*`).
    ///
    /// Semantics per delta are exactly the reference plane's
    /// remove → scan → adopt-or-found step; deltas that do not change
    /// their machine's input are skipped without touching any aggregate
    /// (`dist_evals` stays 0 for an all-no-op batch). Processing is
    /// sequential across deltas — a delta sees every earlier delta's
    /// placement — while each delta's candidate scan may fan out over
    /// scoped threads.
    ///
    /// # Panics
    ///
    /// Panics if a delta names a machine the engine does not hold.
    pub fn recluster_batch(&mut self, deltas: &[MachineDelta]) -> DriftStats {
        let _span = self.telemetry.span("cluster.drift_batch");
        let mut stats = DriftStats::default();
        for delta in deltas {
            self.step(delta, &mut stats);
        }
        publish_drift_counters(&self.telemetry, &stats);
        stats
    }

    /// Materialises the current [`Clustering`] (same order, ids, and
    /// derived fields as the reference plane).
    pub fn clustering(&self) -> Clustering {
        let clusters = self
            .order
            .iter()
            .map(|&s| {
                let c = self.slots[s as usize].as_ref().expect("active slot");
                Cluster {
                    id: c.id,
                    members: c.members.clone(),
                    label: c.label.clone(),
                    app_set: c.app_set.clone(),
                    vendor_distance: c.vendor_sum as f64 / c.members.len() as f64,
                }
            })
            .collect();
        Clustering { clusters }
    }

    // ----- construction ---------------------------------------------------

    fn insert_resident_cluster(
        &mut self,
        cluster: &Cluster,
        infos: &mut HashMap<String, MachineInfo>,
    ) {
        let id = cluster.id;
        assert!(!cluster.members.is_empty(), "cluster {id} is empty");
        assert!(
            cluster.members.windows(2).all(|w| w[0] < w[1]),
            "cluster {id} members are not sorted"
        );
        let slot = self.slots.len() as u32;
        let mut label_refs: HashMap<u32, u32> = HashMap::new();
        let mut vendor_sum = 0usize;
        let mut env: Option<(ItemSet, BTreeSet<String>)> = None;
        for member in &cluster.members {
            let info = infos.remove(member).unwrap_or_else(|| {
                panic!("machine {member} missing from inputs (or in two clusters)")
            });
            let lowered = self.pool.lower(&info.diff.content);
            let label = self.pool.lower(&info.diff.all_items());
            for &iid in label.ids() {
                *label_refs.entry(iid).or_insert(0) += 1;
            }
            let vendor = info.diff.vendor_distance();
            vendor_sum += vendor;
            match &env {
                Some((parsed, app_set)) => assert!(
                    info.diff.parsed == *parsed && info.overlapping_apps == *app_set,
                    "cluster {id} is not environment-uniform (member {member})"
                ),
                None => env = Some((info.diff.parsed.clone(), info.overlapping_apps.clone())),
            }
            self.machines.insert(
                member.clone(),
                MachineState {
                    info,
                    lowered,
                    label,
                    vendor,
                    slot,
                },
            );
        }
        let (parsed, app_set) = env.expect("cluster has members");
        let label: ItemSet = label_refs
            .keys()
            .map(|&iid| self.pool.item(iid).expect("interned id").clone())
            .collect();
        assert!(
            label == cluster.label,
            "cluster {id} label is not the union of its members' items"
        );
        let derived_vendor = vendor_sum as f64 / cluster.members.len() as f64;
        assert!(
            derived_vendor.to_bits() == cluster.vendor_distance.to_bits(),
            "cluster {id} vendor distance {} differs from derived {derived_vendor}",
            cluster.vendor_distance
        );
        let env = env_hash(&parsed, &app_set);
        self.slots.push(Some(ClusterState {
            id,
            seq: self.next_seq,
            env_hash: env,
            members: cluster.members.clone(),
            parsed,
            app_set,
            label,
            label_refs,
            vendor_sum,
            pair_sum: 0,
            pair_max: 0,
        }));
        self.next_seq += 1;
        self.order.push(slot);
        self.buckets.entry(env).or_default().push(slot);
    }

    fn recompute_cohesion_all(&mut self) {
        let machines = &self.machines;
        let total_pairs: usize = self
            .slots
            .iter()
            .flatten()
            .map(|c| c.members.len() * c.members.len().saturating_sub(1) / 2)
            .sum();
        let active: Vec<&mut ClusterState> = self.slots.iter_mut().flatten().collect();
        let threads = crate::par::worker_count(total_pairs, PARALLEL_SCAN_THRESHOLD, true)
            .min(active.len().max(1));
        let mut buckets: Vec<Vec<&mut ClusterState>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, c) in active.into_iter().enumerate() {
            buckets[i % threads].push(c);
        }
        crate::par::fan_out(buckets, &|c: &mut ClusterState| {
            let mut sum = 0u64;
            let mut max = 0u32;
            for (i, a) in c.members.iter().enumerate() {
                let la = &machines[a.as_str()].lowered;
                for b in &c.members[i + 1..] {
                    let d = machines[b.as_str()].lowered.distance(la) as u64;
                    sum += d;
                    max = max.max(d as u32);
                }
            }
            c.pair_sum = sum;
            c.pair_max = max;
        });
    }

    // ----- the per-delta step ---------------------------------------------

    fn step(&mut self, delta: &MachineDelta, stats: &mut DriftStats) {
        let state = self
            .machines
            .get(&delta.machine)
            .unwrap_or_else(|| panic!("machine {} missing from inputs", delta.machine));
        let next = delta.op.apply(&state.info);
        if next == state.info {
            stats.noops += 1;
            return;
        }
        stats.applied += 1;
        let old_slot = state.slot;
        let old_id = self.slots[old_slot as usize]
            .as_ref()
            .expect("active slot")
            .id;

        // 1. Remove from the old cluster using the *old* derived values.
        self.remove_member(old_slot, &delta.machine, stats);

        // 2. Refresh the machine's cached state (the only re-lowering
        // the delta pays for).
        {
            let state = self
                .machines
                .get_mut(&delta.machine)
                .expect("resident machine");
            state.info = next;
            state.vendor = state.info.diff.vendor_distance();
            self.pool
                .lower_into(&state.info.diff.content, &mut state.lowered);
            let all = state.info.diff.all_items();
            self.pool.lower_into(&all, &mut state.label);
        }

        // 3. Scan exact-matching buckets for the best compatible cluster.
        let (env, best) = self.scan_candidates(&delta.machine, stats);

        // 4. Adopt or found.
        let new_id = match best {
            Some((slot, sum, max)) => {
                stats.adoptions += 1;
                self.adopt(slot, &delta.machine, sum, max);
                self.slots[slot as usize].as_ref().expect("active slot").id
            }
            None => {
                stats.singletons += 1;
                self.found_singleton(&delta.machine, env)
            }
        };
        if new_id != old_id {
            stats.moves += 1;
        }
    }

    fn remove_member(&mut self, slot: u32, machine: &str, stats: &mut DriftStats) {
        let c = self.slots[slot as usize].as_mut().expect("active slot");
        let pos = c
            .members
            .binary_search_by(|m| m.as_str().cmp(machine))
            .expect("machine is a member of its own cluster");
        c.members.remove(pos);
        if c.members.is_empty() {
            // Emptied cluster: drop it without touching any aggregate.
            let env = c.env_hash;
            self.slots[slot as usize] = None;
            let opos = self
                .order
                .iter()
                .position(|&s| s == slot)
                .expect("active slot in order");
            self.order.remove(opos);
            let bucket = self.buckets.get_mut(&env).expect("bucketed slot");
            let bpos = bucket
                .iter()
                .position(|&s| s == slot)
                .expect("slot in its bucket");
            bucket.swap_remove(bpos);
            if bucket.is_empty() {
                self.buckets.remove(&env);
            }
            self.free.push(slot);
            return;
        }
        let mstate = &self.machines[machine];
        c.vendor_sum -= mstate.vendor;
        for &iid in mstate.label.ids() {
            let refs = c.label_refs.get_mut(&iid).expect("refcounted label id");
            *refs -= 1;
            if *refs == 0 {
                c.label_refs.remove(&iid);
                c.label.remove(self.pool.item(iid).expect("interned id"));
            }
        }
        if self.cohesion {
            // Subtract the removed member's row, recomputed from the
            // cached lowered diffs (its *old* content).
            let mut row = 0u64;
            for m in &c.members {
                row += self.machines[m.as_str()].lowered.distance(&mstate.lowered) as u64;
            }
            stats.aggregate_evals += c.members.len() as u64;
            c.pair_sum -= row;
            // `pair_max` stays an upper bound; max is not invertible.
        }
    }

    /// Returns the environment hash of the (post-delta) machine and the
    /// best compatible cluster as `(slot, edge sum, edge max)`.
    fn scan_candidates(
        &self,
        machine: &str,
        stats: &mut DriftStats,
    ) -> (u64, Option<(u32, u64, u32)>) {
        let mstate = &self.machines[machine];
        let env = env_hash(&mstate.info.diff.parsed, &mstate.info.overlapping_apps);
        let Some(bucket) = self.buckets.get(&env) else {
            return (env, None);
        };
        // Exact-verify the bucket (hash collisions must not admit a
        // cluster the reference's per-member checks would reject), then
        // order candidates by seq = output order, the adoption tie-break.
        let mut cands: Vec<u32> = bucket
            .iter()
            .copied()
            .filter(|&s| {
                let c = self.slots[s as usize].as_ref().expect("active slot");
                c.parsed == mstate.info.diff.parsed && c.app_set == mstate.info.overlapping_apps
            })
            .collect();
        cands.sort_unstable_by_key(|&s| self.slots[s as usize].as_ref().expect("active slot").seq);
        if cands.is_empty() {
            return (env, None);
        }

        let member_count = |s: u32| {
            self.slots[s as usize]
                .as_ref()
                .expect("active slot")
                .members
                .len()
        };
        let total: usize = cands.iter().map(|&s| member_count(s)).sum();
        let threads = crate::par::worker_count(total, PARALLEL_SCAN_THRESHOLD, self.allow_parallel)
            .min(cands.len());
        let mut results: Vec<Option<Scan>> = (0..cands.len()).map(|_| None).collect();
        if threads <= 1 {
            for (&s, out) in cands.iter().zip(results.iter_mut()) {
                *out = Some(self.scan_one(s, &mstate.lowered));
            }
        } else {
            // Largest candidates first, round-robin: balances the per-
            // thread member totals. Each per-cluster scan stays
            // sequential with the same short-circuit, so the eval counts
            // are independent of the assignment.
            let mut items: Vec<(u32, &mut Option<Scan>)> =
                cands.iter().copied().zip(results.iter_mut()).collect();
            items.sort_by_key(|&(s, _)| std::cmp::Reverse(member_count(s)));
            let mut buckets: Vec<Vec<(u32, &mut Option<Scan>)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, item) in items.into_iter().enumerate() {
                buckets[i % threads].push(item);
            }
            crate::par::fan_out(buckets, &|(s, out): (u32, &mut Option<Scan>)| {
                *out = Some(self.scan_one(s, &mstate.lowered));
            });
        }

        // Fold: first strict minimum mean in seq order wins, exactly the
        // reference plane's `mean < best` over its cluster vector.
        let mut best: Option<(f64, u32, u64, u32)> = None;
        for (&s, result) in cands.iter().zip(results.iter()) {
            let scan = result.as_ref().expect("scanned candidate");
            stats.dist_evals += scan.evals;
            if !scan.compatible {
                continue;
            }
            let mean = scan.sum as f64 / member_count(s) as f64;
            if best.map(|(b, ..)| mean < b).unwrap_or(true) {
                best = Some((mean, s, scan.sum, scan.max));
            }
        }
        (env, best.map(|(_, s, sum, max)| (s, sum, max)))
    }

    /// Scans one candidate cluster's members in order, stopping at the
    /// first member past the diameter (mirrors the reference scan, eval
    /// for eval).
    fn scan_one(&self, slot: u32, updated: &LoweredDiff) -> Scan {
        let c = self.slots[slot as usize].as_ref().expect("active slot");
        let mut sum = 0u64;
        let mut max = 0u32;
        let mut evals = 0u64;
        for m in &c.members {
            let d = self.machines[m.as_str()].lowered.distance(updated);
            evals += 1;
            if d > self.diameter {
                return Scan {
                    compatible: false,
                    sum: 0,
                    max: 0,
                    evals,
                };
            }
            sum += d as u64;
            max = max.max(d as u32);
        }
        Scan {
            compatible: true,
            sum,
            max,
            evals,
        }
    }

    fn adopt(&mut self, slot: u32, machine: &str, edge_sum: u64, edge_max: u32) {
        let mstate = self.machines.get_mut(machine).expect("resident machine");
        mstate.slot = slot;
        let c = self.slots[slot as usize].as_mut().expect("active slot");
        let pos = c
            .members
            .binary_search_by(|m| m.as_str().cmp(machine))
            .expect_err("machine cannot already be a member");
        c.members.insert(pos, machine.to_string());
        c.vendor_sum += mstate.vendor;
        for &iid in mstate.label.ids() {
            let refs = c.label_refs.entry(iid).or_insert(0);
            *refs += 1;
            if *refs == 1 {
                c.label
                    .insert(self.pool.item(iid).expect("interned id").clone());
            }
        }
        if self.cohesion {
            // The adoption edges are exactly the scanned distances.
            c.pair_sum += edge_sum;
            c.pair_max = c.pair_max.max(edge_max);
        }
    }

    fn found_singleton(&mut self, machine: &str, env: u64) -> ClusterId {
        let next_id = self
            .order
            .iter()
            .map(|&s| self.slots[s as usize].as_ref().expect("active slot").id.0 + 1)
            .max()
            .unwrap_or(0);
        let mstate = self.machines.get_mut(machine).expect("resident machine");
        let state = ClusterState {
            id: ClusterId(next_id),
            seq: self.next_seq,
            env_hash: env,
            members: vec![machine.to_string()],
            parsed: mstate.info.diff.parsed.clone(),
            app_set: mstate.info.overlapping_apps.clone(),
            label: mstate.info.diff.all_items(),
            label_refs: mstate.label.ids().iter().map(|&iid| (iid, 1)).collect(),
            vendor_sum: mstate.vendor,
            pair_sum: 0,
            pair_max: 0,
        };
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(state);
                s
            }
            None => {
                self.slots.push(Some(state));
                (self.slots.len() - 1) as u32
            }
        };
        mstate.slot = slot;
        self.order.push(slot);
        self.buckets.entry(env).or_default().push(slot);
        ClusterId(next_id)
    }

    // ----- validation -----------------------------------------------------

    /// Exhaustively re-derives every invariant from first principles —
    /// partition, environment uniformity, bucket/order/slot consistency,
    /// label refcounts, vendor sums, and (when enabled) cohesion
    /// aggregates. O(fleet + Σ members²); for tests and debugging.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_slots = std::collections::HashSet::new();
        let mut prev_seq: Option<u64> = None;
        let mut member_total = 0usize;
        for &s in &self.order {
            if !seen_slots.insert(s) {
                return Err(format!("slot {s} appears twice in order"));
            }
            let Some(c) = self.slots.get(s as usize).and_then(|c| c.as_ref()) else {
                return Err(format!("order references inactive slot {s}"));
            };
            if let Some(p) = prev_seq {
                if c.seq <= p {
                    return Err(format!("order is not ascending in seq at slot {s}"));
                }
            }
            prev_seq = Some(c.seq);
            if c.members.is_empty() {
                return Err(format!("cluster {} is empty", c.id));
            }
            if !c.members.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("cluster {} members are not sorted", c.id));
            }
            if env_hash(&c.parsed, &c.app_set) != c.env_hash {
                return Err(format!("cluster {} has a stale env hash", c.id));
            }
            match self.buckets.get(&c.env_hash) {
                Some(b) if b.iter().filter(|&&x| x == s).count() == 1 => {}
                _ => return Err(format!("cluster {} missing from its bucket", c.id)),
            }
            let mut refs: HashMap<u32, u32> = HashMap::new();
            let mut vendor_sum = 0usize;
            for m in &c.members {
                member_total += 1;
                let Some(ms) = self.machines.get(m) else {
                    return Err(format!("member {m} has no machine state"));
                };
                if ms.slot != s {
                    return Err(format!("member {m} points at slot {} not {s}", ms.slot));
                }
                if ms.info.diff.parsed != c.parsed || ms.info.overlapping_apps != c.app_set {
                    return Err(format!("cluster {} not environment-uniform at {m}", c.id));
                }
                if ms.vendor != ms.info.diff.vendor_distance() {
                    return Err(format!("member {m} has a stale vendor distance"));
                }
                for &iid in ms.label.ids() {
                    *refs.entry(iid).or_insert(0) += 1;
                }
                vendor_sum += ms.vendor;
            }
            if refs != c.label_refs {
                return Err(format!("cluster {} label refcounts out of sync", c.id));
            }
            let label: ItemSet = refs
                .keys()
                .map(|&iid| self.pool.item(iid).expect("interned id").clone())
                .collect();
            if label != c.label {
                return Err(format!("cluster {} label out of sync", c.id));
            }
            if vendor_sum != c.vendor_sum {
                return Err(format!("cluster {} vendor sum out of sync", c.id));
            }
            if self.cohesion {
                let mut sum = 0u64;
                let mut max = 0u32;
                for (i, a) in c.members.iter().enumerate() {
                    let la = &self.machines[a.as_str()].lowered;
                    for b in &c.members[i + 1..] {
                        let d = self.machines[b.as_str()].lowered.distance(la);
                        if d > self.diameter {
                            return Err(format!("cluster {} violates the diameter", c.id));
                        }
                        sum += d as u64;
                        max = max.max(d as u32);
                    }
                }
                if sum != c.pair_sum {
                    return Err(format!("cluster {} pair sum out of sync", c.id));
                }
                if max > c.pair_max {
                    return Err(format!("cluster {} pair max bound violated", c.id));
                }
            }
        }
        let active = self.slots.iter().flatten().count();
        if active != self.order.len() {
            return Err(format!(
                "{} active slots but {} ordered",
                active,
                self.order.len()
            ));
        }
        if member_total != self.machines.len() {
            return Err(format!(
                "{member_total} members but {} machine states",
                self.machines.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;
    use crate::engine::ClusterEngine;
    use crate::incremental::drift_reference;
    use mirage_fingerprint::DiffSet;
    use mirage_telemetry::Registry;

    fn machine(id: &str, parsed: &[&str], content: &[&str]) -> MachineInfo {
        let mut diff = DiffSet::empty(id);
        diff.parsed = parsed.iter().map(|s| Item::new([*s])).collect();
        diff.content = content.iter().map(|s| Item::new([*s])).collect();
        MachineInfo::new(diff)
    }

    fn items(names: &[&str]) -> Vec<Item> {
        names.iter().map(|s| Item::new([*s])).collect()
    }

    fn info_map(machines: &[MachineInfo]) -> BTreeMap<String, MachineInfo> {
        machines
            .iter()
            .map(|m| (m.id().to_string(), m.clone()))
            .collect()
    }

    /// Runs `deltas` through both planes with fresh registries and
    /// asserts bit-identical clusterings, stats, and published
    /// `cluster.drift_*` counters; returns the stats.
    fn assert_planes_agree(
        clustering: &Clustering,
        machines: &[MachineInfo],
        deltas: &[MachineDelta],
        diameter: usize,
    ) -> DriftStats {
        let ref_registry = Arc::new(Registry::new(64));
        let mut map = info_map(machines);
        let (ref_clustering, ref_stats) = drift_reference(
            clustering,
            &mut map,
            deltas,
            diameter,
            &Telemetry::from_registry(Arc::clone(&ref_registry)),
        );

        let eng_registry = Arc::new(Registry::new(64));
        let mut engine = DriftEngine::new(clustering, machines, diameter)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&eng_registry)));
        let eng_stats = engine.recluster_batch(deltas);
        engine.validate().unwrap();

        assert_eq!(engine.clustering(), ref_clustering);
        assert_eq!(eng_stats, ref_stats);
        let drift_counters = |reg: &Registry| -> BTreeMap<String, u64> {
            reg.snapshot()
                .counters
                .into_iter()
                .filter(|(k, _)| k.starts_with("cluster.drift_"))
                .collect()
        };
        assert_eq!(drift_counters(&eng_registry), drift_counters(&ref_registry));
        eng_stats
    }

    #[test]
    fn batch_matches_reference_hand_case() {
        let fleet = vec![
            machine("a", &["x"], &[]),
            machine("b", &["x"], &[]),
            machine("c", &["y"], &[]),
        ];
        let clustering = ClusterEngine::new(1).cluster(&fleet);
        let deltas = vec![MachineDelta {
            machine: "b".into(),
            op: DriftOp::Install {
                parsed: items(&["y"]),
                content: vec![],
            },
        }];
        let stats = assert_planes_agree(&clustering, &fleet, &deltas, 1);
        // b's parsed becomes {x, y}: matches neither environment.
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.singletons, 1);
        assert_eq!(stats.moves, 1);
        assert_eq!(stats.dist_evals, 0);
    }

    #[test]
    fn adoption_counts_one_eval_per_member() {
        let fleet = vec![
            machine("a", &["x"], &["w"]),
            machine("b", &["x"], &["w"]),
            machine("c", &["y"], &["w"]),
            machine("d", &["y"], &["w", "v"]),
        ];
        let clustering = ClusterEngine::new(2).cluster(&fleet);
        assert_eq!(clustering.len(), 2);
        // b moves to the y environment (via the empty one): the {c, d}
        // scan costs exactly one eval per member, and adoption reuses
        // the scanned sum.
        let deltas = vec![
            MachineDelta {
                machine: "b".into(),
                op: DriftOp::Uninstall {
                    parsed: items(&["x"]),
                    content: vec![],
                },
            },
            MachineDelta {
                machine: "b".into(),
                op: DriftOp::Install {
                    parsed: items(&["y"]),
                    content: vec![],
                },
            },
        ];
        let stats = assert_planes_agree(&clustering, &fleet, &deltas, 2);
        assert_eq!(stats.applied, 2);
        // Step 1 ({} env): singleton, 0 evals. Step 2 ({y} env): scans
        // {c, d} = 2 evals and adopts.
        assert_eq!(stats.singletons, 1);
        assert_eq!(stats.adoptions, 1);
        assert_eq!(stats.dist_evals, 2);
        assert_eq!(stats.moves, 2);
    }

    #[test]
    fn noop_batch_touches_nothing() {
        let fleet = vec![
            machine("a", &["x"], &["w"]),
            machine("b", &["x"], &["w", "v"]),
        ];
        let clustering = ClusterEngine::new(2).cluster(&fleet);
        let registry = Arc::new(Registry::new(64));
        let mut engine = DriftEngine::new(&clustering, &fleet, 2)
            .with_cohesion(true)
            .with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
        let before = engine.cohesion(clustering.clusters[0].id).unwrap();
        let deltas = vec![
            MachineDelta {
                machine: "a".into(),
                op: DriftOp::ConfigEdit {
                    add: vec![],
                    remove: vec![],
                },
            },
            MachineDelta {
                machine: "b".into(),
                // Uninstalling an absent item changes nothing.
                op: DriftOp::Uninstall {
                    parsed: items(&["absent"]),
                    content: vec![],
                },
            },
            MachineDelta {
                machine: "a".into(),
                // Installing an already-present content item.
                op: DriftOp::Install {
                    parsed: vec![],
                    content: items(&["w"]),
                },
            },
        ];
        let stats = engine.recluster_batch(&deltas);
        assert_eq!(
            stats,
            DriftStats {
                noops: 3,
                ..DriftStats::default()
            }
        );
        // The fast path must not touch aggregates or the kernel.
        assert_eq!(stats.dist_evals, 0);
        assert_eq!(engine.cohesion(clustering.clusters[0].id).unwrap(), before);
        assert_eq!(engine.clustering(), clustering);
        engine.validate().unwrap();
        let snap = registry.snapshot();
        assert!(!snap.counters.contains_key("cluster.drift_dist_evals"));
        assert!(!snap.counters.contains_key("cluster.drift_moves"));
        assert_eq!(snap.counters["cluster.drift_noops"], 3);
    }

    #[test]
    fn two_machines_swap_clusters_in_one_batch() {
        let fleet = vec![
            machine("a", &["p"], &[]),
            machine("b", &["q"], &[]),
            machine("c", &["p"], &[]),
            machine("d", &["q"], &[]),
        ];
        let clustering = ClusterEngine::new(1).cluster(&fleet);
        assert_eq!(clustering.len(), 2);
        let deltas = vec![
            MachineDelta {
                machine: "a".into(),
                op: DriftOp::Uninstall {
                    parsed: items(&["p"]),
                    content: vec![],
                },
            },
            MachineDelta {
                machine: "a".into(),
                op: DriftOp::Install {
                    parsed: items(&["q"]),
                    content: vec![],
                },
            },
            MachineDelta {
                machine: "b".into(),
                op: DriftOp::Uninstall {
                    parsed: items(&["q"]),
                    content: vec![],
                },
            },
            MachineDelta {
                machine: "b".into(),
                op: DriftOp::Install {
                    parsed: items(&["p"]),
                    content: vec![],
                },
            },
        ];
        let stats = assert_planes_agree(&clustering, &fleet, &deltas, 1);
        assert_eq!(stats.applied, 4);
        // Each machine detours through the empty environment (singleton)
        // before landing in the other cluster.
        assert_eq!(stats.adoptions, 2);
        assert_eq!(stats.singletons, 2);
    }

    #[test]
    fn emptied_cluster_id_refounded_in_same_batch() {
        let fleet = vec![
            machine("a", &["p"], &[]),
            machine("b", &["p"], &[]),
            machine("c", &["q"], &[]),
        ];
        let clustering = ClusterEngine::new(1).cluster(&fleet);
        assert_eq!(clustering.len(), 2);
        let max_id = clustering.clusters.iter().map(|c| c.id.0).max().unwrap();
        // c's singleton cluster empties; the same numeric id is re-minted
        // for c's new singleton within the same step.
        let deltas = vec![MachineDelta {
            machine: "c".into(),
            op: DriftOp::Install {
                parsed: items(&["r"]),
                content: vec![],
            },
        }];
        let stats = assert_planes_agree(&clustering, &fleet, &deltas, 1);
        assert_eq!(stats.singletons, 1);
        // The id was dropped and refounded, so the machine "moved" to a
        // cluster with the same numeric id: no id change, no move.
        assert_eq!(stats.moves, 0);
        let mut engine = DriftEngine::new(&clustering, &fleet, 1);
        engine.recluster_batch(&deltas);
        let after = engine.clustering();
        assert_eq!(after.len(), 2);
        assert_eq!(after.clusters.iter().map(|c| c.id.0).max().unwrap(), max_id);
        assert!(after
            .clusters
            .iter()
            .any(|c| c.id.0 == max_id && c.members == ["c"]));
    }

    #[test]
    fn cohesion_is_exact_under_growth_and_removal() {
        let fleet = vec![
            machine("a", &["p"], &["w"]),
            machine("b", &["p"], &["w", "v"]),
            machine("c", &["p"], &["w", "u"]),
            machine("d", &["q"], &["w"]),
        ];
        let clustering = ClusterEngine::new(2).cluster(&fleet);
        let mut engine = DriftEngine::new(&clustering, &fleet, 2).with_cohesion(true);
        let abc = engine.clustering().cluster_of("a").unwrap().id;
        // d(a,b)=1, d(a,c)=1, d(b,c)=2.
        let coh = engine.cohesion(abc).unwrap();
        assert_eq!((coh.pair_sum, coh.pair_max_bound, coh.pairs), (4, 2, 3));
        assert_eq!(coh.mean(), 4.0 / 3.0);

        // d joins via the empty environment (its singleton empties and
        // is dropped each step — no aggregate work): scanned edges
        // d(d,a)=0, d(d,b)=1, d(d,c)=1.
        let stats = engine.recluster_batch(&[
            MachineDelta {
                machine: "d".into(),
                op: DriftOp::Uninstall {
                    parsed: items(&["q"]),
                    content: vec![],
                },
            },
            MachineDelta {
                machine: "d".into(),
                op: DriftOp::Install {
                    parsed: items(&["p"]),
                    content: vec![],
                },
            },
        ]);
        assert_eq!(stats.singletons, 1);
        assert_eq!(stats.adoptions, 1);
        assert_eq!(stats.aggregate_evals, 0); // growth reuses the scan
        let coh = engine.cohesion(abc).unwrap();
        assert_eq!((coh.pair_sum, coh.pair_max_bound, coh.pairs), (6, 2, 6));

        // b leaves: its row d(b,a)+d(b,c)+d(b,d) = 1+2+1 is recomputed
        // and subtracted (3 aggregate evals).
        let stats = engine.recluster_batch(&[MachineDelta {
            machine: "b".into(),
            op: DriftOp::Install {
                parsed: items(&["r"]),
                content: vec![],
            },
        }]);
        assert_eq!(stats.singletons, 1);
        assert_eq!(stats.aggregate_evals, 3);
        let coh = engine.cohesion(abc).unwrap();
        assert_eq!((coh.pair_sum, coh.pairs), (2, 3));
        assert!(coh.pair_max_bound >= 1);
        engine.validate().unwrap();
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_sequential() {
        // Two same-environment clusters big enough to cross the fan-out
        // threshold (4096 candidate members) in one scan.
        let group = |tag: &str, n: usize, content: &[&str]| -> Vec<MachineInfo> {
            (0..n)
                .map(|i| machine(&format!("{tag}{i:05}"), &["p"], content))
                .collect()
        };
        let groups = vec![group("a", 2100, &["x"]), group("b", 2100, &["y"])];
        let (clustering, fleet) = clustering_from_groups(&groups);
        let delta = vec![MachineDelta {
            machine: "a00000".into(),
            op: DriftOp::ConfigEdit {
                add: items(&["y"]),
                remove: items(&["x"]),
            },
        }];

        let run = |parallel: bool| {
            let mut engine = DriftEngine::new(&clustering, &fleet, 0).with_parallel(parallel);
            let stats = engine.recluster_batch(&delta);
            engine.validate().unwrap();
            (engine.clustering(), stats)
        };
        let (par_clustering, par_stats) = run(true);
        let (seq_clustering, seq_stats) = run(false);
        assert_eq!(par_clustering, seq_clustering);
        assert_eq!(par_stats, seq_stats);
        // Old cluster (2099 members left) short-circuits on its first
        // member; the new cluster is scanned in full.
        assert_eq!(par_stats.dist_evals, 1 + 2100);
        assert_eq!(par_stats.adoptions, 1);
        assert_eq!(
            assert_planes_agree(&clustering, &fleet, &delta, 0),
            par_stats
        );
    }

    #[test]
    fn clustering_from_groups_is_engine_consistent() {
        let groups = vec![
            vec![machine("m1", &["p"], &["x"]), machine("m0", &["p"], &["x"])],
            vec![machine("m2", &["q"], &[])],
        ];
        let (clustering, fleet) = clustering_from_groups(&groups);
        assert_eq!(clustering.clusters[0].members, ["m0", "m1"]);
        clustering.validate_partition().unwrap();
        let engine = DriftEngine::new(&clustering, &fleet, 1);
        engine.validate().unwrap();
        assert_eq!(engine.clustering(), clustering);
    }

    #[test]
    #[should_panic(expected = "label is not the union")]
    fn construction_rejects_stale_label() {
        let fleet = vec![machine("a", &["p"], &["x"])];
        let mut clustering = ClusterEngine::new(1).cluster(&fleet);
        clustering.clusters[0].label.insert(Item::new(["phantom"]));
        DriftEngine::new(&clustering, &fleet, 1);
    }

    #[test]
    #[should_panic(expected = "missing from inputs")]
    fn construction_rejects_missing_machine() {
        let fleet = vec![machine("a", &["p"], &[]), machine("b", &["p"], &[])];
        let clustering = ClusterEngine::new(1).cluster(&fleet);
        DriftEngine::new(&clustering, &fleet[..1], 1);
    }

    #[test]
    #[should_panic(expected = "not a member of any cluster")]
    fn construction_rejects_extra_machine() {
        let fleet = vec![machine("a", &["p"], &[])];
        let clustering = ClusterEngine::new(1).cluster(&fleet);
        let extra = vec![fleet[0].clone(), machine("ghost", &["p"], &[])];
        DriftEngine::new(&clustering, &extra, 1);
    }

    #[test]
    #[should_panic(expected = "vendor distance")]
    fn construction_rejects_stale_vendor_distance() {
        let fleet = vec![machine("a", &["p"], &["x", "y"])];
        let mut clustering = ClusterEngine::new(1).cluster(&fleet);
        clustering.clusters[0].vendor_distance += 1.0;
        DriftEngine::new(&clustering, &fleet, 1);
    }

    #[test]
    fn batch_panics_on_unknown_machine() {
        let fleet = vec![machine("a", &["p"], &[])];
        let clustering = ClusterEngine::new(1).cluster(&fleet);
        let mut engine = DriftEngine::new(&clustering, &fleet, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.recluster_batch(&[MachineDelta {
                machine: "ghost".into(),
                op: DriftOp::ConfigEdit {
                    add: vec![],
                    remove: vec![],
                },
            }])
        }));
        assert!(result.is_err());
    }
}
