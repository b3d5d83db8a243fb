//! The sharded, interned Upgrade Report Repository.
//!
//! The paper's vendor leaves the repository **on** for the whole
//! deployment: every user machine deposits a structured report, and the
//! vendor keeps querying the deduplicated problem list while fixes are
//! debugged. That only works if ingest and query are cheap, so this
//! implementation follows the workspace's interned-data-plane
//! conventions:
//!
//! * **Lock-striped shards.** Reports live in `N = next_pow2(threads)`
//!   shards, each behind its own `Mutex`. Failure reports are routed by
//!   the *hash of their signature*, so every report for one failure
//!   lands in one shard and per-signature aggregation never crosses
//!   shard boundaries; success reports are spread by a machine-id hash.
//! * **Dense interning.** Machine names ([`MachineRef`], a `u32` in the
//!   same style as the deploy plane's `MachineId`), failure signatures
//!   ([`SigId`]), and `(package, version)` pairs ([`ReleaseId`]) are
//!   interned once; stored records are small `Copy`-ish structs of ids.
//!   Machines and signatures each live in a [`NameTable`]: bytes in one
//!   buffer, no allocation per name. A whole fleet whose names somebody
//!   else already interned — a deployment plan's machine table, handed
//!   over as the `Arc<NameTable>` it keeps — is *adopted* instead
//!   ([`Urr::intern_fleet`]): the repository holds the same `Arc`, the
//!   table's ids are the first refs, and no name is copied or hashed a
//!   second time. The first name from outside the fleet makes the
//!   repository's copy private (one `memcpy` of the table, once).
//! * **Word-packed sets.** Per-signature machine/cluster membership is
//!   a packed bitset plus a first-seen order list — deduplication is one
//!   bit test instead of the reference's `Vec<String>::contains` scan.
//! * **Incremental inverted index.** Every deposit updates the
//!   per-signature group aggregate, per-cluster tallies, and
//!   per-release tallies in place, so [`Urr::failure_groups`],
//!   [`Urr::top_k_failure_groups`], [`Urr::cluster_failure_rates`], and
//!   [`Urr::release_summaries`] are merges over pre-aggregated state,
//!   not scans over every report ever deposited.
//!
//! The batched ingest path ([`Urr::deposit_batch`], and the fully
//! interned [`Urr::deposit_interned_batch`] used by the simulator's
//! `with_urr` wiring) claims a contiguous sequence range with one
//! atomic add and takes each shard lock once per batch.
//!
//! The pre-sharding implementation survives under [`crate::reference`];
//! the seeded `urr_reference_equivalence` property proves both produce
//! identical query results on random report streams.
//!
//! # Ordering
//!
//! Sequence numbers are assigned by a global atomic counter, so under
//! *concurrent* ingest a shard may receive records out of sequence
//! order. All ordered query results (deposit-order snapshots,
//! first-seen lists) are therefore ordered by sequence number at query
//! time, which makes them deterministic for any single-threaded stream
//! and well-defined (sequence order, not arrival order) under
//! concurrency. Within a [`FailureGroup`], `machines`/`clusters` are
//! listed by the sequence number of the first report that introduced
//! them.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mirage_telemetry::json::Value;
use mirage_telemetry::names::NameTable;
use mirage_telemetry::Telemetry;

use crate::codec::JsonError;
use crate::image::ReportImage;
use crate::report::{Report, ReportOutcome};
use crate::serve::GroupNames;

/// Sentinel for "this record is a success" in the stored sig slot.
pub(crate) const NO_SIG: u32 = u32::MAX;
/// Sentinel for "no report seen yet" in first-seen fields.
pub(crate) const NEVER: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Public id types
// ---------------------------------------------------------------------

/// A dense reporter-machine identifier: an index into the repository's
/// machine interner. Deliberately `u32` like the deploy plane's
/// `MachineId`, so simulator wiring can carry ids across the boundary
/// without widening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineRef(pub u32);

impl MachineRef {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rm#{}", self.0)
    }
}

/// A dense failure-signature identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SigId(pub u32);

impl SigId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig#{}", self.0)
    }
}

/// A dense `(package, version)` release identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReleaseId(pub u32);

impl ReleaseId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReleaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel#{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Public result types (shared with `crate::reference`)
// ---------------------------------------------------------------------

/// A group of duplicate failure reports sharing one signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureGroup {
    /// The shared failure signature.
    pub signature: String,
    /// Number of reports with this signature.
    pub count: usize,
    /// Distinct machines that reported it.
    pub machines: Vec<String>,
    /// Distinct clusters that reported it.
    pub clusters: Vec<usize>,
    /// Sequence number of the first report (discovery order).
    pub first_seen: u64,
}

/// Aggregate repository statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UrrStats {
    /// Total reports deposited.
    pub total: usize,
    /// Success reports.
    pub successes: usize,
    /// Failure reports.
    pub failures: usize,
    /// Distinct failure signatures.
    pub distinct_failures: usize,
    /// Total bytes of report images stored.
    pub image_bytes: usize,
}

/// Per-release outcome summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseSummary {
    /// Package name.
    pub package: String,
    /// Version string.
    pub version: String,
    /// Successful integrations reported.
    pub successes: usize,
    /// Failures reported.
    pub failures: usize,
}

/// Per-cluster failure tallies — the vendor's "which deployment stages
/// are hurting" view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterFailureRate {
    /// Cluster id.
    pub cluster: usize,
    /// Success reports from this cluster.
    pub successes: usize,
    /// Failure reports from this cluster.
    pub failures: usize,
}

impl ClusterFailureRate {
    /// Failures as a fraction of all reports from the cluster.
    pub fn rate(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            0.0
        } else {
            self.failures as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------
// Interned ingest records
// ---------------------------------------------------------------------

/// The outcome of one pre-interned report record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternedOutcome {
    /// The upgrade passed testing.
    Success,
    /// Testing failed with the interned signature.
    Failure(SigId),
}

/// One pre-interned report for the allocation-free batch ingest path.
///
/// Interned failure records carry no free-form detail or reproduction
/// image (the simulator's fault signatures are fully described by their
/// interned name); reconstructing such a record yields a failure report
/// with an empty detail string and no image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternedReport {
    /// Reporting machine.
    pub machine: MachineRef,
    /// The machine's cluster of deployment.
    pub cluster: u32,
    /// The tested release.
    pub release: ReleaseId,
    /// Test outcome.
    pub outcome: InternedOutcome,
}

// ---------------------------------------------------------------------
// Internal storage
// ---------------------------------------------------------------------

/// Heap payload a record only carries when it has one: failure detail
/// and/or a reproduction image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Payload {
    pub(crate) detail: String,
    pub(crate) image: Option<ReportImage>,
}

/// One stored report record: ids only, payload boxed out of line. Also
/// the record a journaled frame decodes into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rec {
    pub(crate) machine: u32,
    pub(crate) cluster: u32,
    pub(crate) release: u32,
    pub(crate) seq: u64,
    /// [`NO_SIG`] for successes.
    pub(crate) sig: u32,
    pub(crate) payload: Option<Box<Payload>>,
}

impl Rec {
    /// The record a pre-interned report is stored as under `seq`.
    pub(crate) fn interned(r: &InternedReport, seq: u64) -> Self {
        Rec {
            machine: r.machine.0,
            cluster: r.cluster,
            release: r.release.0,
            seq,
            sig: match r.outcome {
                InternedOutcome::Success => NO_SIG,
                InternedOutcome::Failure(sig) => sig.0,
            },
            payload: None,
        }
    }
}

/// A word-packed bitset over dense `u32` ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedSet {
    words: Vec<u64>,
}

impl PackedSet {
    /// Inserts `bit`; returns `true` if newly added.
    pub(crate) fn insert(&mut self, bit: u32) -> bool {
        let word = (bit / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % 64);
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        true
    }
}

/// Incrementally maintained per-signature aggregate (the inverted
/// index entry for one failure signature, owned by its home shard).
#[derive(Debug, Clone)]
pub(crate) struct GroupSlot {
    pub(crate) count: usize,
    pub(crate) first_seen: u64,
    pub(crate) machines: PackedSet,
    /// `(seq of first report from the machine, machine)` in arrival
    /// order; sorted by seq at query time.
    pub(crate) machine_order: Vec<(u64, u32)>,
    pub(crate) clusters: PackedSet,
    pub(crate) cluster_order: Vec<(u64, u32)>,
}

/// The ids of a `(seq of first report, id)` arrival list, in sequence
/// order.
pub(crate) fn by_seq(order: &[(u64, u32)]) -> impl ExactSizeIterator<Item = u32> {
    let mut order = order.to_vec();
    order.sort_unstable();
    order.into_iter().map(|(_, id)| id)
}

impl Default for GroupSlot {
    fn default() -> Self {
        GroupSlot {
            count: 0,
            first_seen: NEVER,
            machines: PackedSet::default(),
            machine_order: Vec::new(),
            clusters: PackedSet::default(),
            cluster_order: Vec::new(),
        }
    }
}

/// Per-release incremental tallies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReleaseSlot {
    pub(crate) successes: usize,
    pub(crate) failures: usize,
    pub(crate) first_seen: u64,
}

impl Default for ReleaseSlot {
    fn default() -> Self {
        ReleaseSlot {
            successes: 0,
            failures: 0,
            first_seen: NEVER,
        }
    }
}

/// One lock stripe of the repository.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) recs: Vec<Rec>,
    /// Inverted index, indexed by [`SigId`]; only signatures whose hash
    /// routes to this shard have live entries.
    pub(crate) groups: Vec<GroupSlot>,
    /// Distinct signatures with at least one report in this shard.
    pub(crate) distinct: usize,
    /// Per-cluster `(successes, failures)`, indexed by cluster id.
    pub(crate) cluster_tallies: Vec<(usize, usize)>,
    /// Per-release tallies, indexed by [`ReleaseId`].
    pub(crate) release_tallies: Vec<ReleaseSlot>,
    pub(crate) successes: usize,
    pub(crate) failures: usize,
    pub(crate) image_bytes: usize,
    /// Each failure group's machine names in wire layout, indexed by
    /// [`SigId`] like `groups`. Only [`Urr::snapshot`] writes it, so it
    /// stays empty until the first freeze and ingest never touches it.
    pub(crate) names: Vec<GroupNames>,
}

impl Shard {
    pub(crate) fn insert(&mut self, rec: Rec) {
        if let Some(p) = &rec.payload {
            if let Some(img) = &p.image {
                self.image_bytes += img.byte_size();
            }
        }
        let cluster = rec.cluster as usize;
        if cluster >= self.cluster_tallies.len() {
            self.cluster_tallies.resize(cluster + 1, (0, 0));
        }
        let release = rec.release as usize;
        if release >= self.release_tallies.len() {
            self.release_tallies
                .resize(release + 1, ReleaseSlot::default());
        }
        let rel = &mut self.release_tallies[release];
        rel.first_seen = rel.first_seen.min(rec.seq);
        if rec.sig == NO_SIG {
            self.successes += 1;
            self.cluster_tallies[cluster].0 += 1;
            rel.successes += 1;
        } else {
            self.failures += 1;
            self.cluster_tallies[cluster].1 += 1;
            rel.failures += 1;
            let sig = rec.sig as usize;
            if sig >= self.groups.len() {
                self.groups.resize_with(sig + 1, GroupSlot::default);
            }
            let slot = &mut self.groups[sig];
            if slot.count == 0 {
                self.distinct += 1;
            }
            slot.count += 1;
            slot.first_seen = slot.first_seen.min(rec.seq);
            if slot.machines.insert(rec.machine) {
                slot.machine_order.push((rec.seq, rec.machine));
            }
            if slot.clusters.insert(rec.cluster) {
                slot.cluster_order.push((rec.seq, rec.cluster));
            }
        }
        self.recs.push(rec);
    }

    /// Inserts a slice of pre-interned records whose sequence numbers
    /// start at `start` — the single-stripe hot loop. Equivalent to
    /// calling [`Shard::insert`] per record, but the signature/release
    /// tables are sized once from the interner lengths (`sig_count`,
    /// `release_count` — every id in `recs` is below them by
    /// construction), the cluster-table growth branch is the only
    /// remaining per-record capacity check, and the payload branches are
    /// gone entirely (interned records carry none).
    fn insert_interned(
        &mut self,
        recs: &[InternedReport],
        start: u64,
        sig_count: usize,
        release_count: usize,
    ) {
        if recs.is_empty() {
            return;
        }
        self.recs.reserve(recs.len());
        if release_count > self.release_tallies.len() {
            self.release_tallies
                .resize(release_count, ReleaseSlot::default());
        }
        if sig_count > self.groups.len() {
            self.groups.resize_with(sig_count, GroupSlot::default);
        }
        let mut successes = 0usize;
        let mut failures = 0usize;
        for (i, r) in recs.iter().enumerate() {
            let seq = start + i as u64;
            let cluster = r.cluster as usize;
            if cluster >= self.cluster_tallies.len() {
                self.cluster_tallies.resize(cluster + 1, (0, 0));
            }
            let rel = &mut self.release_tallies[r.release.index()];
            rel.first_seen = rel.first_seen.min(seq);
            match r.outcome {
                InternedOutcome::Success => {
                    successes += 1;
                    self.cluster_tallies[cluster].0 += 1;
                    rel.successes += 1;
                }
                InternedOutcome::Failure(sig) => {
                    failures += 1;
                    self.cluster_tallies[cluster].1 += 1;
                    rel.failures += 1;
                    let slot = &mut self.groups[sig.index()];
                    if slot.count == 0 {
                        self.distinct += 1;
                    }
                    slot.count += 1;
                    slot.first_seen = slot.first_seen.min(seq);
                    if slot.machines.insert(r.machine.0) {
                        slot.machine_order.push((seq, r.machine.0));
                    }
                    if slot.clusters.insert(r.cluster) {
                        slot.cluster_order.push((seq, r.cluster));
                    }
                }
            }
        }
        self.successes += successes;
        self.failures += failures;
        // A second tight pass appends to the archive: the extend
        // vectorises without the tally loop's branches in the way.
        self.recs.extend(
            recs.iter()
                .enumerate()
                .map(|(i, r)| Rec::interned(r, start + i as u64)),
        );
    }
}

/// Interns `name` in a machine table that may be an adopted fleet's:
/// only a name the fleet lacks makes the table private.
fn intern_machine_in(table: &mut Arc<NameTable>, name: &str) -> u32 {
    NameTable::try_intern_shared(table, name).expect("interner overflow")
}

/// Signature interner plus each signature's home shard.
#[derive(Debug, Default)]
pub(crate) struct SigInterner {
    pub(crate) inner: NameTable,
    /// Home shard per signature (hash of the name, masked).
    pub(crate) shards: Vec<u32>,
}

/// `(package, version)` interner. The index nests version under
/// package so a lookup borrows both strings.
#[derive(Debug, Default)]
pub(crate) struct ReleaseInterner {
    pub(crate) pairs: Vec<(String, String)>,
    index: HashMap<String, HashMap<String, u32>>,
}

impl ReleaseInterner {
    pub(crate) fn intern(&mut self, package: &str, version: &str) -> u32 {
        if let Some(i) = self.get(package, version) {
            return i;
        }
        let i = u32::try_from(self.pairs.len()).expect("release interner overflow");
        self.pairs.push((package.to_string(), version.to_string()));
        self.index
            .entry(package.to_string())
            .or_default()
            .insert(version.to_string(), i);
        i
    }

    pub(crate) fn get(&self, package: &str, version: &str) -> Option<u32> {
        self.index.get(package)?.get(version).copied()
    }

    pub(crate) fn pair(&self, i: u32) -> (&str, &str) {
        let (p, v) = &self.pairs[i as usize];
        (p, v)
    }
}

/// FNV-1a over a signature name, for shard routing.
pub(crate) fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix-style integer finaliser, for machine-id shard routing.
pub(crate) fn mix_u32(x: u32) -> u64 {
    let mut z = u64::from(x).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Smallest power of two ≥ `n` (and ≥ 1).
fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

// ---------------------------------------------------------------------
// The repository
// ---------------------------------------------------------------------

/// The Upgrade Report Repository: sharded, interned, incrementally
/// indexed, thread-safe, and serialisable.
///
/// # Examples
///
/// ```
/// use mirage_report::{Report, ReportImage, Urr};
/// let urr = Urr::new();
/// urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
/// urr.deposit(Report::failure(
///     "m2", 1, "mysql", "5.0.27", "php/crash", "crash", ReportImage::default(),
/// ));
/// assert_eq!(urr.stats().failures, 1);
/// assert_eq!(urr.failure_groups().len(), 1);
/// assert_eq!(urr.top_k_failure_groups(1)[0].signature, "php/crash");
/// ```
#[derive(Debug)]
pub struct Urr {
    pub(crate) shards: Box<[Mutex<Shard>]>,
    pub(crate) shard_mask: u64,
    pub(crate) seq: AtomicU64,
    /// The machine table: the `Arc` a fleet was adopted as
    /// ([`Urr::intern_fleet`]) until a name from outside it arrives,
    /// private from then on.
    pub(crate) machines: RwLock<Arc<NameTable>>,
    pub(crate) sigs: RwLock<SigInterner>,
    pub(crate) releases: RwLock<ReleaseInterner>,
    pub(crate) telemetry: Telemetry,
}

impl Default for Urr {
    fn default() -> Self {
        Self::new()
    }
}

impl Urr {
    /// Creates an empty repository with `next_pow2(available threads)`
    /// shards.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_shards(next_pow2(threads))
    }

    /// Creates an empty repository with an explicit shard count
    /// (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let n = next_pow2(shards);
        Urr {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: (n - 1) as u64,
            seq: AtomicU64::new(0),
            machines: RwLock::new(Arc::default()),
            sigs: RwLock::new(SigInterner::default()),
            releases: RwLock::new(ReleaseInterner::default()),
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle recording `urr.*` counters: deposit
    /// and batch counts, batch-size and query-latency histograms, and
    /// shard-lock contention.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The next sequence number that will be assigned — equivalently,
    /// the number of sequence slots claimed so far. Serves as the
    /// repository's logical clock: the storage layer stamps journaled
    /// frames with it, and [`crate::UrrSnapshot`] reports it as the
    /// frozen view's `as_of` watermark.
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    // -- interning ----------------------------------------------------

    /// Interns a reporter machine name.
    pub fn intern_machine(&self, name: &str) -> MachineRef {
        if let Some(i) = self.machines.read().expect("urr poisoned").get(name) {
            return MachineRef(i);
        }
        let mut table = self.machines.write().expect("urr poisoned");
        MachineRef(intern_machine_in(&mut table, name))
    }

    /// Bulk-interns a fleet of machine names (one write lock for all).
    pub fn intern_machines<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Vec<MachineRef> {
        let names = names.into_iter();
        let mut table = self.machines.write().expect("urr poisoned");
        if let Some(table) = Arc::get_mut(&mut table) {
            table.reserve(names.size_hint().0);
        }
        names
            .map(|n| MachineRef(intern_machine_in(&mut table, n)))
            .collect()
    }

    /// Interns a whole fleet from the table that already lists it and
    /// returns each machine's ref, in table order.
    ///
    /// A repository that knows no machine yet *adopts* the table: it
    /// keeps the `Arc`, `MachineRef(i)` is the table's id `i`, and no
    /// name is copied or hashed. A repository that holds the same `Arc`,
    /// or a table equal to it, hands the same refs back. Any other
    /// repository interns the names one at a time, exactly as
    /// [`Urr::intern_machines`] would. Which of the three happens
    /// depends on the repository's contents alone, and every query
    /// surface, snapshot and journal reads the same afterwards: the
    /// adopted names are the head of the first frame's machine delta,
    /// in the journal and in a snapshot generation alike.
    ///
    /// # Panics
    ///
    /// Panics if the repository would hold more than `u32::MAX`
    /// machines or 4 GiB of machine names.
    pub fn intern_fleet(&self, fleet: Arc<NameTable>) -> Vec<MachineRef> {
        let mut table = self.machines.write().expect("urr poisoned");
        if table.is_empty() {
            *table = fleet;
        } else if !Arc::ptr_eq(&table, &fleet) && **table != *fleet {
            return fleet
                .names_from(0)
                .map(|n| MachineRef(intern_machine_in(&mut table, n)))
                .collect();
        }
        (0..table.len() as u32).map(MachineRef).collect()
    }

    /// Interns a failure signature (assigning its home shard).
    ///
    /// # Panics
    ///
    /// Panics if the repository would hold more than `u32::MAX`
    /// signatures or 4 GiB of signature names.
    pub fn intern_signature(&self, name: &str) -> SigId {
        self.try_intern_signature(name).expect("interner overflow")
    }

    /// [`Urr::intern_signature`], `None` where it would panic: journal
    /// replay interns names it did not write.
    pub(crate) fn try_intern_signature(&self, name: &str) -> Option<SigId> {
        if let Some(i) = self.sigs.read().expect("urr poisoned").inner.get(name) {
            return Some(SigId(i));
        }
        let mut sigs = self.sigs.write().expect("urr poisoned");
        let i = sigs.inner.try_intern(name)?;
        if i as usize >= sigs.shards.len() {
            debug_assert_eq!(i as usize, sigs.shards.len());
            sigs.shards.push((hash_name(name) & self.shard_mask) as u32);
        }
        Some(SigId(i))
    }

    /// Interns a `(package, version)` release pair.
    pub fn intern_release(&self, package: &str, version: &str) -> ReleaseId {
        if let Some(i) = self
            .releases
            .read()
            .expect("urr poisoned")
            .get(package, version)
        {
            return ReleaseId(i);
        }
        ReleaseId(
            self.releases
                .write()
                .expect("urr poisoned")
                .intern(package, version),
        )
    }

    // -- ingest -------------------------------------------------------

    /// Deposits a report, assigning its sequence number.
    ///
    /// Returns the assigned sequence number. This is the string-boundary
    /// compatibility path; hot ingest should prefer
    /// [`Urr::deposit_batch`] or [`Urr::deposit_interned_batch`].
    pub fn deposit(&self, report: Report) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.insert_report(report, seq);
        self.telemetry.counter("urr.deposits", 1);
        seq
    }

    /// Deposits a batch of reports, claiming one contiguous sequence
    /// range with a single atomic add. Returns the range.
    pub fn deposit_batch(&self, reports: Vec<Report>) -> Range<u64> {
        let n = reports.len() as u64;
        let start = self.seq.fetch_add(n, Ordering::Relaxed);
        for (i, report) in reports.into_iter().enumerate() {
            self.insert_report(report, start + i as u64);
        }
        self.note_batch(n);
        start..start + n
    }

    /// Deposits a batch of pre-interned records: the allocation-free
    /// ingest path the simulator uses. Each shard lock is taken once
    /// per batch.
    pub fn deposit_interned_batch(&self, recs: &[InternedReport]) -> Range<u64> {
        let n = recs.len() as u64;
        let start = self.seq.fetch_add(n, Ordering::Relaxed);
        if self.shards.len() == 1 {
            // Single-stripe fast path: no routing, no regrouping buffer —
            // records go straight from the caller's slice into the shard.
            let sig_count = self.sigs.read().expect("urr poisoned").inner.len();
            let release_count = self.releases.read().expect("urr poisoned").pairs.len();
            self.lock_shard(0)
                .insert_interned(recs, start, sig_count, release_count);
        } else {
            self.insert_recs(
                recs.iter()
                    .enumerate()
                    .map(|(i, r)| Rec::interned(r, start + i as u64)),
            );
        }
        self.note_batch(n);
        start..start + n
    }

    /// The stripe a record lives in: its signature's home stripe for a
    /// failure, a hash of the machine id for a success.
    fn home_shard(&self, sigs: &SigInterner, rec: &Rec) -> usize {
        if rec.sig == NO_SIG {
            (mix_u32(rec.machine) & self.shard_mask) as usize
        } else {
            sigs.shards[rec.sig as usize] as usize
        }
    }

    /// Inserts a batch of records, taking each shard lock once: the one
    /// routing loop under batched ingest, journaled ingest and replay.
    /// `recs` is drained with the signature table read-locked, so it
    /// must not intern.
    pub(crate) fn insert_recs(&self, recs: impl ExactSizeIterator<Item = Rec>) {
        if recs.len() == 0 {
            return;
        }
        if self.shards.len() == 1 {
            let mut guard = self.lock_shard(0);
            guard.recs.reserve(recs.len());
            for rec in recs {
                guard.insert(rec);
            }
            return;
        }
        let sigs = self.sigs.read().expect("urr poisoned");
        let cap = recs.len() / self.shards.len() + 1;
        let mut by_shard: Vec<Vec<Rec>> = (0..self.shards.len())
            .map(|_| Vec::with_capacity(cap))
            .collect();
        for rec in recs {
            by_shard[self.home_shard(&sigs, &rec)].push(rec);
        }
        drop(sigs);
        for (shard, items) in by_shard.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let mut guard = self.lock_shard(shard);
            guard.recs.reserve(items.len());
            for rec in items {
                guard.insert(rec);
            }
        }
    }

    /// Locks one shard, counting contention (a failed `try_lock`) into
    /// `urr.shard_contention`.
    pub(crate) fn lock_shard(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        match self.shards[shard].try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.telemetry.counter("urr.shard_contention", 1);
                self.shards[shard].lock().expect("urr poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("urr poisoned"),
        }
    }

    pub(crate) fn note_batch(&self, n: u64) {
        self.telemetry.counter("urr.deposits", n);
        self.telemetry.counter("urr.deposit_batches", 1);
        self.telemetry.observe("urr.batch_size", n);
    }

    /// Lowers one boundary report to the record stored under `seq`,
    /// interning its names.
    pub(crate) fn lower(&self, report: Report, seq: u64) -> Rec {
        let machine = self.intern_machine(&report.machine).0;
        let release = self.intern_release(&report.package, &report.version).0;
        let (sig, detail) = match report.outcome {
            ReportOutcome::Success => (NO_SIG, String::new()),
            ReportOutcome::Failure { signature, detail } => {
                (self.intern_signature(&signature).0, detail)
            }
        };
        let payload = if detail.is_empty() && report.image.is_none() {
            None
        } else {
            Some(Box::new(Payload {
                detail,
                image: report.image,
            }))
        };
        Rec {
            machine,
            cluster: u32::try_from(report.cluster).expect("cluster id overflow"),
            release,
            seq,
            sig,
            payload,
        }
    }

    /// Interns one boundary report and inserts it under `seq`.
    fn insert_report(&self, report: Report, seq: u64) {
        let rec = self.lower(report, seq);
        let shard = self.home_shard(&self.sigs.read().expect("urr poisoned"), &rec);
        self.lock_shard(shard).insert(rec);
    }

    // -- queries ------------------------------------------------------

    /// Runs a query closure, recording `urr.queries` and (when
    /// telemetry stores metrics) an `urr.query_ns` latency sample.
    pub(crate) fn query<T>(&self, f: impl FnOnce(&Self) -> T) -> T {
        self.telemetry.counter("urr.queries", 1);
        if self.telemetry.measures() {
            let t0 = Instant::now();
            let out = f(self);
            self.telemetry
                .observe("urr.query_ns", t0.elapsed().as_nanos() as u64);
            out
        } else {
            f(self)
        }
    }

    /// Materialises one group slot into a [`FailureGroup`].
    fn materialize(&self, sig: u32, slot: &GroupSlot) -> FailureGroup {
        let machines = self.machines.read().expect("urr poisoned");
        let sigs = self.sigs.read().expect("urr poisoned");
        FailureGroup {
            signature: sigs.inner.name(sig).to_string(),
            count: slot.count,
            machines: by_seq(&slot.machine_order)
                .map(|m| machines.name(m).to_string())
                .collect(),
            clusters: by_seq(&slot.cluster_order).map(|c| c as usize).collect(),
            first_seen: slot.first_seen,
        }
    }

    /// Groups failure reports by signature — the vendor's deduplicated
    /// problem list, ordered by discovery (first-seen sequence number).
    pub fn failure_groups(&self) -> Vec<FailureGroup> {
        self.query(|urr| {
            let mut out: Vec<FailureGroup> = Vec::new();
            for shard in urr.shards.iter() {
                let shard = shard.lock().expect("urr poisoned");
                for (sig, slot) in shard.groups.iter().enumerate() {
                    if slot.count > 0 {
                        out.push(urr.materialize(sig as u32, slot));
                    }
                }
            }
            out.sort_by_key(|g| g.first_seen);
            out
        })
    }

    /// The `k` largest failure groups, by report count (ties broken by
    /// earlier discovery). Only the winners are materialised.
    pub fn top_k_failure_groups(&self, k: usize) -> Vec<FailureGroup> {
        self.query(|urr| {
            // Pass 1: scalar (count, first_seen, shard, sig) per group.
            let mut keys: Vec<(usize, u64, usize, u32)> = Vec::new();
            for (si, shard) in urr.shards.iter().enumerate() {
                let shard = shard.lock().expect("urr poisoned");
                for (sig, slot) in shard.groups.iter().enumerate() {
                    if slot.count > 0 {
                        keys.push((slot.count, slot.first_seen, si, sig as u32));
                    }
                }
            }
            keys.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            keys.truncate(k);
            // Pass 2: materialise only the winners.
            keys.into_iter()
                .map(|(_, _, si, sig)| {
                    let shard = urr.shards[si].lock().expect("urr poisoned");
                    urr.materialize(sig, &shard.groups[sig as usize])
                })
                .collect()
        })
    }

    /// The report count of the largest failure group, `None` when no
    /// failure was reported: `top_k_failure_groups(1)[0].count` without
    /// materialising the group's machine names.
    pub fn largest_failure_count(&self) -> Option<usize> {
        self.query(|urr| {
            urr.shards
                .iter()
                .filter_map(|shard| {
                    let shard = shard.lock().expect("urr poisoned");
                    shard.groups.iter().map(|slot| slot.count).max()
                })
                .max()
                .filter(|&count| count > 0)
        })
    }

    /// Per-cluster success/failure tallies, ordered by cluster id.
    /// Clusters that never reported are omitted.
    pub fn cluster_failure_rates(&self) -> Vec<ClusterFailureRate> {
        self.query(|urr| {
            let mut tallies: Vec<(usize, usize)> = Vec::new();
            for shard in urr.shards.iter() {
                let shard = shard.lock().expect("urr poisoned");
                if shard.cluster_tallies.len() > tallies.len() {
                    tallies.resize(shard.cluster_tallies.len(), (0, 0));
                }
                for (c, (s, f)) in shard.cluster_tallies.iter().enumerate() {
                    tallies[c].0 += s;
                    tallies[c].1 += f;
                }
            }
            tallies
                .into_iter()
                .enumerate()
                .filter(|(_, (s, f))| s + f > 0)
                .map(|(cluster, (successes, failures))| ClusterFailureRate {
                    cluster,
                    successes,
                    failures,
                })
                .collect()
        })
    }

    /// Drill-down: the distinct machines that reported `signature`, in
    /// first-report order. `None` if the signature was never reported.
    pub fn machines_for_signature(&self, signature: &str) -> Option<Vec<String>> {
        self.query(|urr| {
            let (sig, shard) = urr.sig_home(signature)?;
            let shard = urr.shards[shard].lock().expect("urr poisoned");
            let slot = shard.groups.get(sig as usize)?;
            if slot.count == 0 {
                return None;
            }
            let machines = urr.machines.read().expect("urr poisoned");
            Some(
                by_seq(&slot.machine_order)
                    .map(|m| machines.name(m).to_string())
                    .collect(),
            )
        })
    }

    /// Drill-down: the distinct clusters that reported `signature`, in
    /// first-report order. `None` if the signature was never reported.
    pub fn clusters_for_signature(&self, signature: &str) -> Option<Vec<usize>> {
        self.query(|urr| {
            let (sig, shard) = urr.sig_home(signature)?;
            let shard = urr.shards[shard].lock().expect("urr poisoned");
            let slot = shard.groups.get(sig as usize)?;
            if slot.count == 0 {
                return None;
            }
            Some(by_seq(&slot.cluster_order).map(|c| c as usize).collect())
        })
    }

    /// Time-windowed discovery query over the sequence counter: the
    /// failure groups *first seen* in `window` (half-open), in
    /// discovery order. A vendor asks "what broke since I last looked"
    /// by windowing on its last-seen sequence number.
    pub fn first_seen_in(&self, window: Range<u64>) -> Vec<FailureGroup> {
        self.query(|urr| {
            let mut out: Vec<FailureGroup> = Vec::new();
            for shard in urr.shards.iter() {
                let shard = shard.lock().expect("urr poisoned");
                for (sig, slot) in shard.groups.iter().enumerate() {
                    if slot.count > 0 && window.contains(&slot.first_seen) {
                        out.push(urr.materialize(sig as u32, slot));
                    }
                }
            }
            out.sort_by_key(|g| g.first_seen);
            out
        })
    }

    /// Resolves a signature name to `(sig id, home shard)`.
    fn sig_home(&self, signature: &str) -> Option<(u32, usize)> {
        let sigs = self.sigs.read().expect("urr poisoned");
        let sig = sigs.inner.get(signature)?;
        Some((sig, sigs.shards[sig as usize] as usize))
    }

    /// Computes aggregate statistics (a merge of per-shard counters —
    /// no report scan).
    pub fn stats(&self) -> UrrStats {
        self.query(|urr| {
            let mut stats = UrrStats::default();
            for shard in urr.shards.iter() {
                let shard = shard.lock().expect("urr poisoned");
                stats.total += shard.recs.len();
                stats.successes += shard.successes;
                stats.failures += shard.failures;
                stats.distinct_failures += shard.distinct;
                stats.image_bytes += shard.image_bytes;
            }
            stats
        })
    }

    /// Summarises outcomes per `(package, version)`, in first-seen
    /// order.
    pub fn release_summaries(&self) -> Vec<ReleaseSummary> {
        self.query(|urr| {
            let mut slots: Vec<ReleaseSlot> = Vec::new();
            for shard in urr.shards.iter() {
                let shard = shard.lock().expect("urr poisoned");
                if shard.release_tallies.len() > slots.len() {
                    slots.resize(shard.release_tallies.len(), ReleaseSlot::default());
                }
                for (i, slot) in shard.release_tallies.iter().enumerate() {
                    slots[i].successes += slot.successes;
                    slots[i].failures += slot.failures;
                    slots[i].first_seen = slots[i].first_seen.min(slot.first_seen);
                }
            }
            let releases = urr.releases.read().expect("urr poisoned");
            let mut rows: Vec<(u64, ReleaseSummary)> = slots
                .into_iter()
                .enumerate()
                .filter(|(_, s)| s.successes + s.failures > 0)
                .map(|(i, s)| {
                    let (package, version) = releases.pair(i as u32);
                    (
                        s.first_seen,
                        ReleaseSummary {
                            package: package.to_string(),
                            version: version.to_string(),
                            successes: s.successes,
                            failures: s.failures,
                        },
                    )
                })
                .collect();
            rows.sort_by_key(|row| row.0);
            rows.into_iter().map(|(_, s)| s).collect()
        })
    }

    /// The debugging front-loading profile: for each distinct failure,
    /// the fraction of all reports that had been deposited when it was
    /// *first* seen.
    pub fn discovery_profile(&self) -> Vec<(String, f64)> {
        let total = self.stats().total;
        if total == 0 {
            return Vec::new();
        }
        self.failure_groups()
            .into_iter()
            .map(|g| (g.signature, g.first_seen as f64 / total as f64))
            .collect()
    }

    // -- snapshots ----------------------------------------------------

    /// Reconstructs one stored record as a boundary [`Report`].
    fn rec_to_report(
        rec: &Rec,
        machines: &NameTable,
        sigs: &SigInterner,
        releases: &ReleaseInterner,
    ) -> Report {
        let (package, version) = releases.pair(rec.release);
        let (outcome, image) = if rec.sig == NO_SIG {
            (
                ReportOutcome::Success,
                rec.payload.as_ref().and_then(|p| p.image.clone()),
            )
        } else {
            let (detail, image) = match &rec.payload {
                Some(p) => (p.detail.clone(), p.image.clone()),
                None => (String::new(), None),
            };
            (
                ReportOutcome::Failure {
                    signature: sigs.inner.name(rec.sig).to_string(),
                    detail,
                },
                image,
            )
        };
        Report {
            machine: machines.name(rec.machine).to_string(),
            cluster: rec.cluster as usize,
            package: package.to_string(),
            version: version.to_string(),
            outcome,
            seq: rec.seq,
            image,
        }
    }

    /// Collects reports matching `keep` from every shard, ordered by
    /// sequence number (deposit order).
    fn collect(&self, keep: impl Fn(&Rec) -> bool) -> Vec<Report> {
        let machines = self.machines.read().expect("urr poisoned");
        let sigs = self.sigs.read().expect("urr poisoned");
        let releases = self.releases.read().expect("urr poisoned");
        let mut out: Vec<Report> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("urr poisoned");
            for rec in shard.recs.iter().filter(|r| keep(r)) {
                out.push(Self::rec_to_report(rec, &machines, &sigs, &releases));
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Returns a snapshot of all reports (in deposit order).
    pub fn all(&self) -> Vec<Report> {
        self.query(|urr| urr.collect(|_| true))
    }

    /// Returns the reports for one package version.
    pub fn for_version(&self, package: &str, version: &str) -> Vec<Report> {
        self.query(|urr| {
            let Some(release) = urr
                .releases
                .read()
                .expect("urr poisoned")
                .get(package, version)
            else {
                return Vec::new();
            };
            urr.collect(|r| r.release == release)
        })
    }

    /// Returns the reports from one cluster.
    pub fn for_cluster(&self, cluster: usize) -> Vec<Report> {
        self.query(|urr| {
            let Ok(cluster) = u32::try_from(cluster) else {
                return Vec::new();
            };
            urr.collect(|r| r.cluster == cluster)
        })
    }

    /// Serialises the full repository to pretty-printed JSON (an array
    /// of report objects, in deposit order) — the same document format
    /// as [`crate::reference::Urr::to_json`].
    pub fn to_json(&self) -> String {
        Value::Arr(self.all().iter().map(Report::to_json).collect()).to_pretty()
    }

    /// Restores a repository from JSON produced by [`Urr::to_json`]
    /// (or the reference implementation). Stored sequence numbers are
    /// preserved; new deposits continue after the maximum.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let parsed = Value::parse(json)?;
        let items = parsed
            .as_array()
            .ok_or_else(|| JsonError::Shape("expected an array of reports".into()))?;
        let urr = Urr::new();
        let mut next_seq = 0u64;
        for item in items {
            let report = Report::from_json(item)?;
            next_seq = next_seq.max(report.seq + 1);
            let seq = report.seq;
            urr.insert_report(report, seq);
        }
        urr.seq.store(next_seq, Ordering::Relaxed);
        Ok(urr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ReportImage;

    fn failure(machine: &str, cluster: usize, sig: &str) -> Report {
        Report::failure(
            machine,
            cluster,
            "mysql",
            "5.0.27",
            sig,
            "detail",
            ReportImage::new("digest", vec!["ctx".into()], vec![], vec![]),
        )
    }

    #[test]
    fn deposit_assigns_sequence() {
        let urr = Urr::new();
        assert_eq!(urr.deposit(Report::success("a", 0, "p", "1.0.0")), 0);
        assert_eq!(urr.deposit(Report::success("b", 0, "p", "1.0.0")), 1);
        let all = urr.all();
        assert_eq!(all[0].seq, 0);
        assert_eq!(all[1].seq, 1);
        assert_eq!(all[0].machine, "a");
    }

    #[test]
    fn failure_groups_deduplicate() {
        let urr = Urr::with_shards(4);
        urr.deposit(failure("m1", 0, "php/crash"));
        urr.deposit(failure("m2", 0, "php/crash"));
        urr.deposit(failure("m2", 0, "php/crash")); // same machine again
        urr.deposit(failure("m3", 1, "mycnf/fail"));
        urr.deposit(Report::success("m4", 2, "mysql", "5.0.27"));
        let groups = urr.failure_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].signature, "php/crash");
        assert_eq!(groups[0].count, 3);
        assert_eq!(groups[0].machines, vec!["m1", "m2"]);
        assert_eq!(groups[0].clusters, vec![0]);
        assert_eq!(groups[1].signature, "mycnf/fail");
    }

    #[test]
    fn top_k_orders_by_count_then_discovery() {
        let urr = Urr::with_shards(4);
        urr.deposit(failure("m1", 0, "rare"));
        for i in 0..5 {
            urr.deposit(failure(&format!("p{i}"), 1, "prevalent"));
        }
        for i in 0..3 {
            urr.deposit(failure(&format!("q{i}"), 2, "medium"));
        }
        let top = urr.top_k_failure_groups(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].signature, "prevalent");
        assert_eq!(top[0].count, 5);
        assert_eq!(top[1].signature, "medium");
        // Ties by discovery order.
        urr.deposit(failure("x", 3, "tie-late"));
        urr.deposit(failure("y", 3, "tie-late"));
        urr.deposit(failure("z", 4, "tie-early"));
        let all = urr.top_k_failure_groups(10);
        assert_eq!(all.len(), 5);
        // A k beyond the group count returns everything.
        assert_eq!(urr.top_k_failure_groups(100).len(), 5);
    }

    #[test]
    fn cluster_failure_rates_tally() {
        let urr = Urr::with_shards(2);
        urr.deposit(Report::success("a", 0, "p", "1"));
        urr.deposit(Report::success("b", 0, "p", "1"));
        urr.deposit(failure("c", 0, "sig"));
        urr.deposit(failure("d", 2, "sig"));
        let rates = urr.cluster_failure_rates();
        assert_eq!(rates.len(), 2, "cluster 1 never reported");
        assert_eq!(rates[0].cluster, 0);
        assert_eq!((rates[0].successes, rates[0].failures), (2, 1));
        assert!((rates[0].rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(rates[1].cluster, 2);
        assert_eq!(rates[1].rate(), 1.0);
        let empty = ClusterFailureRate {
            cluster: 9,
            successes: 0,
            failures: 0,
        };
        assert_eq!(empty.rate(), 0.0);
    }

    #[test]
    fn signature_drilldowns() {
        let urr = Urr::with_shards(4);
        urr.deposit(failure("m2", 5, "sig-a"));
        urr.deposit(failure("m1", 3, "sig-a"));
        urr.deposit(failure("m2", 5, "sig-a"));
        assert_eq!(
            urr.machines_for_signature("sig-a").unwrap(),
            vec!["m2", "m1"],
            "first-report order"
        );
        assert_eq!(urr.clusters_for_signature("sig-a").unwrap(), vec![5, 3]);
        assert_eq!(urr.machines_for_signature("nope"), None);
        assert_eq!(urr.clusters_for_signature("nope"), None);
    }

    #[test]
    fn first_seen_window_queries() {
        let urr = Urr::with_shards(4);
        urr.deposit(failure("m0", 0, "early")); // seq 0
        urr.deposit(Report::success("m1", 0, "mysql", "5.0.27")); // seq 1
        urr.deposit(failure("m2", 0, "mid")); // seq 2
        urr.deposit(failure("m3", 0, "early")); // seq 3 (not first)
        urr.deposit(failure("m4", 0, "late")); // seq 4
        let names = |groups: Vec<FailureGroup>| {
            groups
                .into_iter()
                .map(|g| g.signature)
                .collect::<Vec<String>>()
        };
        assert_eq!(names(urr.first_seen_in(0..5)), vec!["early", "mid", "late"]);
        assert_eq!(names(urr.first_seen_in(1..4)), vec!["mid"]);
        assert_eq!(names(urr.first_seen_in(4..u64::MAX)), vec!["late"]);
        assert!(urr.first_seen_in(5..9).is_empty());
    }

    #[test]
    fn stats_aggregate() {
        let urr = Urr::new();
        urr.deposit(Report::success("m1", 0, "p", "1.0.0"));
        urr.deposit(failure("m2", 0, "sig"));
        let stats = urr.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.successes, 1);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.distinct_failures, 1);
        assert!(stats.image_bytes > 0);
    }

    #[test]
    fn queries_filter_correctly() {
        let urr = Urr::with_shards(2);
        urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
        urr.deposit(Report::success("m2", 1, "mysql", "5.0.28"));
        urr.deposit(Report::success("m3", 1, "firefox", "2.0.0"));
        assert_eq!(urr.for_version("mysql", "5.0.27").len(), 1);
        assert_eq!(urr.for_version("mysql", "9.9.9").len(), 0);
        assert_eq!(urr.for_cluster(1).len(), 2);
        assert_eq!(urr.for_cluster(7).len(), 0);
    }

    #[test]
    fn json_roundtrip_preserves_sequence() {
        let urr = Urr::new();
        urr.deposit(Report::success("m1", 0, "p", "1.0.0"));
        urr.deposit(failure("m2", 1, "sig"));
        let json = urr.to_json();
        let restored = Urr::from_json(&json).unwrap();
        assert_eq!(restored.all(), urr.all());
        // New deposits continue the sequence.
        assert_eq!(restored.deposit(Report::success("m3", 0, "p", "1.0.0")), 2);
        // And the document round-trips through the reference too.
        let reference = crate::reference::Urr::from_json(&json).unwrap();
        assert_eq!(reference.all(), urr.all());
    }

    #[test]
    fn interned_batch_path() {
        let urr = Urr::with_shards(4);
        let machines = urr.intern_machines(["a", "b", "c"]);
        let rel = urr.intern_release("upgrade", "r0");
        let sig = urr.intern_signature("prob");
        let recs = [
            InternedReport {
                machine: machines[0],
                cluster: 0,
                release: rel,
                outcome: InternedOutcome::Success,
            },
            InternedReport {
                machine: machines[1],
                cluster: 1,
                release: rel,
                outcome: InternedOutcome::Failure(sig),
            },
            InternedReport {
                machine: machines[2],
                cluster: 1,
                release: rel,
                outcome: InternedOutcome::Failure(sig),
            },
        ];
        let range = urr.deposit_interned_batch(&recs);
        assert_eq!(range, 0..3);
        let stats = urr.stats();
        assert_eq!((stats.successes, stats.failures), (1, 2));
        let groups = urr.failure_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].machines, vec!["b", "c"]);
        assert_eq!(groups[0].clusters, vec![1]);
        assert_eq!(groups[0].first_seen, 1);
        // Reconstructed interned failures have empty detail, no image.
        let all = urr.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].outcome.signature(), Some("prob"));
        assert!(all[1].image.is_none());
        // Re-interning is idempotent.
        assert_eq!(urr.intern_machine("a"), machines[0]);
        assert_eq!(urr.intern_signature("prob"), sig);
        assert_eq!(urr.intern_release("upgrade", "r0"), rel);
    }

    #[test]
    fn deposit_batch_claims_contiguous_range() {
        let urr = Urr::new();
        let r1 = urr.deposit_batch(vec![
            Report::success("a", 0, "p", "1"),
            Report::success("b", 0, "p", "1"),
        ]);
        assert_eq!(r1, 0..2);
        let r2 = urr.deposit_batch(vec![failure("c", 0, "s")]);
        assert_eq!(r2, 2..3);
        assert_eq!(urr.stats().total, 3);
        assert!(urr.deposit_batch(Vec::new()).is_empty());
    }

    #[test]
    fn concurrent_deposits() {
        use std::sync::Arc;
        let urr = Arc::new(Urr::with_shards(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let urr = Arc::clone(&urr);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        urr.deposit(Report::success(format!("m{i}-{j}"), i, "p", "1.0.0"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let all = urr.all();
        assert_eq!(all.len(), 400);
        // Sequence numbers are unique and the snapshot is seq-ordered.
        let seqs: Vec<u64> = all.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(seqs.len(), 400);
    }

    #[test]
    fn telemetry_counters_record_ingest_and_queries() {
        use std::sync::Arc;

        use mirage_telemetry::Registry;

        let registry = Arc::new(Registry::new(64));
        let urr =
            Urr::with_shards(2).with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
        urr.deposit(Report::success("a", 0, "p", "1"));
        urr.deposit_batch(vec![failure("b", 0, "s"), failure("c", 1, "s")]);
        let _ = urr.failure_groups();
        let _ = urr.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["urr.deposits"], 3);
        assert_eq!(snap.counters["urr.deposit_batches"], 1);
        assert_eq!(snap.counters["urr.queries"], 2);
        assert_eq!(snap.histograms["urr.batch_size"].count, 1);
        assert_eq!(snap.histograms["urr.query_ns"].count, 2);
    }

    /// Query latency is a metric: a recorder that stores metrics and
    /// nothing else receives it.
    #[test]
    fn metrics_only_recorder_times_queries() {
        use std::sync::Arc;

        use mirage_telemetry::{Capabilities, Recorder, Registry};

        /// Stores metrics in a registry and advertises nothing else.
        struct MetricsOnly(Registry);

        impl Recorder for MetricsOnly {
            fn capabilities(&self) -> Capabilities {
                Capabilities {
                    metrics: true,
                    ..Capabilities::NONE
                }
            }

            fn add(&self, name: &str, delta: u64) {
                self.0.add(name, delta);
            }

            fn observe(&self, name: &str, value: u64) {
                self.0.observe(name, value);
            }
        }

        let recorder = Arc::new(MetricsOnly(Registry::new(8)));
        let urr = Urr::new().with_telemetry(Telemetry::from_recorder(Arc::clone(&recorder) as _));
        urr.deposit(failure("a", 0, "s"));
        let _ = urr.failure_groups();
        let snap = recorder.0.snapshot();
        assert_eq!(snap.counters["urr.queries"], 1);
        assert_eq!(snap.histograms["urr.query_ns"].count, 1);
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(Urr::with_shards(1).shard_count(), 1);
        assert_eq!(Urr::with_shards(3).shard_count(), 4);
        assert_eq!(Urr::with_shards(8).shard_count(), 8);
        assert!(Urr::new().shard_count().is_power_of_two());
    }

    #[test]
    fn display_forms() {
        assert_eq!(MachineRef(7).to_string(), "rm#7");
        assert_eq!(SigId(2).to_string(), "sig#2");
        assert_eq!(ReleaseId(1).to_string(), "rel#1");
        assert_eq!(MachineRef(3).index(), 3);
        assert_eq!(SigId(3).index(), 3);
        assert_eq!(ReleaseId(3).index(), 3);
    }

    #[test]
    fn release_summaries_track_versions_in_order() {
        let urr = Urr::with_shards(4);
        urr.deposit(Report::failure(
            "m1",
            0,
            "app",
            "2.0.0",
            "sig",
            "d",
            ReportImage::default(),
        ));
        urr.deposit(Report::success("m2", 0, "app", "2.0.0"));
        urr.deposit(Report::success("m1", 0, "app", "2.0.1"));
        urr.deposit(Report::success("m3", 1, "app", "2.0.1"));
        let summaries = urr.release_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].version, "2.0.0");
        assert_eq!((summaries[0].successes, summaries[0].failures), (1, 1));
        assert_eq!(summaries[1].version, "2.0.1");
        assert_eq!((summaries[1].successes, summaries[1].failures), (2, 0));
    }

    #[test]
    fn empty_urr_analytics() {
        let urr = Urr::new();
        assert!(urr.release_summaries().is_empty());
        assert!(urr.discovery_profile().is_empty());
        assert!(urr.failure_groups().is_empty());
        assert!(urr.top_k_failure_groups(5).is_empty());
        assert_eq!(urr.largest_failure_count(), None);
        assert!(urr.cluster_failure_rates().is_empty());
        assert!(urr.all().is_empty());
        assert_eq!(urr.stats(), UrrStats::default());
    }
}
