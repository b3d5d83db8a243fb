//! The interned Upgrade Report Repository.
//!
//! The paper's vendor leaves the repository **on** for the whole
//! deployment: every user machine deposits a structured report, and the
//! vendor keeps querying the deduplicated problem list while fixes are
//! debugged. That only works if ingest and query are cheap, so this
//! implementation follows the workspace's interned-data-plane
//! conventions:
//!
//! * **One writer, one lock.** The records and every index over them
//!   live in one store behind one `Mutex`. A deposit claims its
//!   sequence numbers in the same lock acquisition that stores its
//!   records, so the archive is always in sequence order and a record's
//!   sequence number is its index in it.
//! * **Dense interning.** Machine names ([`MachineRef`], a `u32` in the
//!   same style as the deploy plane's `MachineId`), failure signatures
//!   ([`SigId`]), and `(package, version)` pairs ([`ReleaseId`]) are
//!   interned once; a stored report is a 16-byte row of four `u32` ids.
//!   The free-form payload only a boundary failure report brings
//!   (detail and reproduction image) is filed beside the rows under the
//!   report's sequence number, so a repository of simulated or interned
//!   reports keeps none.
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
//!   bit test, not a scan of the group's machine names.
//! * **Incremental inverted index.** Every deposit updates the
//!   per-signature group aggregate, per-cluster tallies, and
//!   per-release tallies in place, so [`Urr::failure_groups`],
//!   [`Urr::top_k_failure_groups`], [`Urr::cluster_failure_rates`], and
//!   [`Urr::release_summaries`] read pre-aggregated state, not every
//!   report ever deposited.
//!
//! The batched ingest path ([`Urr::deposit_batch`], and the fully
//! interned [`Urr::deposit_interned_batch`] used by the simulator's
//! `with_urr` wiring) claims a contiguous sequence range and stores the
//! batch under one acquisition of the lock. Every path into the store —
//! these, journaled ingest and journal replay — files rows through the
//! one store insert; an interned batch's reports are read as rows, never
//! copied into them first.
//!
//! The seeded `urr_matches_the_recorded_reference` property holds the
//! grouped views to the answers the string-keyed prototype gave on
//! random report streams, recorded in `tests/reference_queries.txt`.
//!
//! # Ordering
//!
//! Records are stored in the order their sequence numbers were claimed,
//! so every ordered result — the deposit-order snapshot, discovery
//! order, and each group's machines and clusters by first report — is
//! the order of the archive.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use mirage_telemetry::json::Value;
use mirage_telemetry::names::NameTable;
use mirage_telemetry::Telemetry;

use crate::image::ReportImage;
use crate::report::{Report, ReportOutcome};
use crate::serve::NameList;

/// Sentinel for "this record is a success" in the stored sig slot.
pub(crate) const NO_SIG: u32 = u32::MAX;

/// Cluster ids are below this. Clusters are not interned: the
/// per-cluster tallies and each failure group's cluster set are indexed
/// by the id itself, so the id sizes them, and journal replay rejects a
/// larger one rather than let a frame's bytes size them.
pub(crate) const MAX_CLUSTERS: u32 = 1 << 20;

// ---------------------------------------------------------------------
// Public id types
// ---------------------------------------------------------------------

/// A dense reporter-machine identifier: an index into the repository's
/// machine interner. Deliberately `u32` like the deploy plane's
/// `MachineId`, so simulator wiring can carry ids across the boundary
/// without widening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineRef(pub u32);

impl fmt::Display for MachineRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rm#{}", self.0)
    }
}

/// A dense failure-signature identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SigId(pub(crate) u32);

impl fmt::Display for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig#{}", self.0)
    }
}

/// A dense `(package, version)` release identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReleaseId(pub(crate) u32);

impl fmt::Display for ReleaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel#{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Public result types
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
    pub(crate) package: String,
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
/// and/or a reproduction image. Kept beside the rows, not in them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Payload {
    pub(crate) detail: String,
    pub(crate) image: Option<ReportImage>,
}

/// One stored report: four ids, 16 bytes. Also the row a journaled
/// frame decodes into. Its sequence number is its index in the archive;
/// a payload, if it has one, is filed under that number beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) machine: u32,
    pub(crate) cluster: u32,
    pub(crate) release: u32,
    /// [`NO_SIG`] for successes.
    pub(crate) sig: u32,
}

impl Row {
    /// The row a pre-interned report is stored as.
    #[inline]
    pub(crate) fn interned(r: &InternedReport) -> Self {
        Row {
            machine: r.machine.0,
            cluster: r.cluster,
            release: r.release.0,
            sig: match r.outcome {
                InternedOutcome::Success => NO_SIG,
                InternedOutcome::Failure(sig) => sig.0,
            },
        }
    }
}

/// Payloads filed by sequence number, ascending: the few records that
/// carry one, beside rows that do not.
pub(crate) type Payloads = Vec<(u64, Payload)>;

/// Keys the payloads of a lowered batch ([`Urr::lower`]), which are keyed
/// by index in it, by sequence number: the batch's first is `first`.
pub(crate) fn file_from(payloads: &mut Payloads, first: u64) {
    for (seq, _) in payloads {
        *seq += first;
    }
}

/// A word-packed bitset over dense `u32` ids.
#[derive(Debug, Clone, Default)]
struct PackedSet {
    words: Vec<u64>,
}

impl PackedSet {
    /// Inserts `bit`; returns `true` if newly added.
    fn insert(&mut self, bit: u32) -> bool {
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

/// Incrementally maintained per-signature aggregate: the inverted index
/// entry for one failure signature.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupSlot {
    pub(crate) count: usize,
    pub(crate) first_seen: u64,
    machines: PackedSet,
    /// Machines in the order of their first report.
    pub(crate) machine_order: Vec<u32>,
    clusters: PackedSet,
    /// Clusters in the order of their first report.
    pub(crate) cluster_order: Vec<u32>,
}

/// The records and every index over them: what the repository's one
/// lock guards.
#[derive(Debug, Default)]
pub(crate) struct Store {
    /// Every record's row, in sequence order.
    pub(crate) rows: Vec<Row>,
    /// The payloads of the records that carry one, by sequence number.
    pub(crate) payloads: Payloads,
    /// Inverted index, indexed by [`SigId`].
    pub(crate) groups: Vec<GroupSlot>,
    /// Signatures with at least one report, in discovery order.
    pub(crate) discovery: Vec<u32>,
    /// Per-cluster `(successes, failures)`, indexed by cluster id.
    cluster_tallies: Vec<(usize, usize)>,
    /// Per-release `(successes, failures)`, indexed by [`ReleaseId`].
    release_tallies: Vec<(usize, usize)>,
    /// Releases with at least one report, in first-report order.
    release_order: Vec<u32>,
    successes: usize,
    failures: usize,
    image_bytes: usize,
    /// Each failure group's machine names in wire layout, indexed by
    /// [`SigId`] like `groups`. Only [`Urr::snapshot`] writes it, so it
    /// stays empty until the first freeze and ingest never touches it.
    pub(crate) names: Vec<NameList>,
}

impl Store {
    /// The sequence number the next stored record takes.
    pub(crate) fn next_seq(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Sizes the release and signature tables to cover ids below
    /// `releases` and `sigs`.
    fn cover(&mut self, releases: usize, sigs: usize) {
        if releases > self.release_tallies.len() {
            self.release_tallies.resize(releases, (0, 0));
        }
        if sigs > self.groups.len() {
            self.groups.resize_with(sigs, GroupSlot::default);
        }
    }

    /// Files the row stored under `seq` in every index. The release and
    /// signature tables must already cover its ids.
    #[inline]
    fn tally(&mut self, seq: u64, row: Row) {
        let Row {
            machine,
            cluster,
            release,
            sig,
        } = row;
        let c = cluster as usize;
        if c >= self.cluster_tallies.len() {
            assert!(cluster < MAX_CLUSTERS, "cluster id overflow");
            self.cluster_tallies.resize(c + 1, (0, 0));
        }
        let rel = &mut self.release_tallies[release as usize];
        if *rel == (0, 0) {
            self.release_order.push(release);
        }
        if sig == NO_SIG {
            self.successes += 1;
            self.cluster_tallies[c].0 += 1;
            rel.0 += 1;
            return;
        }
        self.failures += 1;
        self.cluster_tallies[c].1 += 1;
        rel.1 += 1;
        let slot = &mut self.groups[sig as usize];
        if slot.count == 0 {
            slot.first_seen = seq;
            self.discovery.push(sig);
        }
        slot.count += 1;
        if slot.machines.insert(machine) {
            slot.machine_order.push(machine);
        }
        if slot.clusters.insert(cluster) {
            slot.cluster_order.push(cluster);
        }
    }

    /// Stores `rows` under the next sequence numbers and returns them:
    /// the one insert, for live ingest and replay alike. `payloads` are
    /// filed under their sequence numbers, which ascend and lie in the
    /// returned range. `sigs` and `releases` are the interner lengths:
    /// every id in `rows` is below them, so the signature and release
    /// tables are sized once. The rows are read twice: a tally pass,
    /// then a tight append the compiler vectorises.
    pub(crate) fn insert(
        &mut self,
        rows: impl ExactSizeIterator<Item = Row> + Clone,
        payloads: Payloads,
        sigs: usize,
        releases: usize,
    ) -> Range<u64> {
        let start = self.next_seq();
        self.cover(releases, sigs);
        for (seq, row) in (start..).zip(rows.clone()) {
            self.tally(seq, row);
        }
        self.rows.extend(rows);
        let range = start..self.next_seq();
        debug_assert!(payloads.iter().all(|(seq, _)| range.contains(seq)));
        for (_, payload) in &payloads {
            self.image_bytes += payload.image.as_ref().map_or(0, ReportImage::byte_size);
        }
        self.payloads.extend(payloads);
        range
    }

    /// The payload of the record stored under `seq`, if it has one.
    fn payload(&self, seq: u64) -> Option<&Payload> {
        let at = (self.payloads)
            .binary_search_by_key(&seq, |&(seq, _)| seq)
            .ok()?;
        Some(&self.payloads[at].1)
    }

    /// The payloads of the records stored under `window`.
    pub(crate) fn payloads_in(&self, window: Range<u64>) -> &[(u64, Payload)] {
        let lo = (self.payloads).partition_point(|&(seq, _)| seq < window.start);
        let hi = (self.payloads).partition_point(|&(seq, _)| seq < window.end);
        &self.payloads[lo..hi.max(lo)]
    }

    /// The discovered signatures first seen in `window`: a run of the
    /// discovery order, which is `first_seen` order.
    fn seen_in(&self, window: Range<u64>) -> &[u32] {
        let first_seen = |&sig: &u32| self.groups[sig as usize].first_seen;
        let lo = self
            .discovery
            .partition_point(|s| first_seen(s) < window.start);
        let hi = self
            .discovery
            .partition_point(|s| first_seen(s) < window.end);
        &self.discovery[lo..hi.max(lo)]
    }

    pub(crate) fn stats(&self) -> UrrStats {
        UrrStats {
            total: self.rows.len(),
            successes: self.successes,
            failures: self.failures,
            distinct_failures: self.discovery.len(),
            image_bytes: self.image_bytes,
        }
    }

    pub(crate) fn cluster_failure_rates(&self) -> Vec<ClusterFailureRate> {
        (self.cluster_tallies.iter().enumerate())
            .filter(|(_, &(s, f))| s + f > 0)
            .map(|(cluster, &(successes, failures))| ClusterFailureRate {
                cluster,
                successes,
                failures,
            })
            .collect()
    }

    pub(crate) fn release_summaries(&self, releases: &ReleaseInterner) -> Vec<ReleaseSummary> {
        (self.release_order.iter())
            .map(|&i| {
                let (package, version) = releases.pair(i);
                let (successes, failures) = self.release_tallies[i as usize];
                ReleaseSummary {
                    package: package.to_string(),
                    version: version.to_string(),
                    successes,
                    failures,
                }
            })
            .collect()
    }
}

/// Interns `name` in a machine table that may be an adopted fleet's:
/// only a name the fleet lacks makes the table private.
fn intern_machine_in(table: &mut Arc<NameTable>, name: &str) -> u32 {
    NameTable::try_intern_shared(table, name).expect("interner overflow")
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

// ---------------------------------------------------------------------
// The repository
// ---------------------------------------------------------------------

/// The Upgrade Report Repository: interned, incrementally indexed,
/// thread-safe behind one lock, and journaled by [`crate::DurableUrr`].
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
    /// The records and indexes. The name tables are locked inside it,
    /// never around it.
    pub(crate) store: Mutex<Store>,
    /// The machine table: the `Arc` a fleet was adopted as
    /// ([`Urr::intern_fleet`]) until a name from outside it arrives,
    /// private from then on.
    pub(crate) machines: RwLock<Arc<NameTable>>,
    pub(crate) sigs: RwLock<NameTable>,
    pub(crate) releases: RwLock<ReleaseInterner>,
    pub(crate) telemetry: Telemetry,
}

impl Default for Urr {
    fn default() -> Self {
        Self::new()
    }
}

impl Urr {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Urr {
            store: Mutex::default(),
            machines: RwLock::default(),
            sigs: RwLock::default(),
            releases: RwLock::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle recording `urr.*` counters: deposit
    /// and batch counts, and batch-size and query-latency histograms.
    pub(crate) fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Locks the records and indexes.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().expect("urr poisoned")
    }

    /// The next sequence number that will be assigned — equivalently,
    /// the number of reports stored so far. Serves as the repository's
    /// logical clock: the storage layer stamps journaled frames with
    /// it, and [`crate::UrrSnapshot`] reports it as the frozen view's
    /// `as_of` watermark.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq()
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

    /// Interns a whole fleet from the table that already lists it.
    /// Returns `None` when every machine's ref is its table id
    /// (`MachineRef(i)` for id `i`), else each machine's ref in table
    /// order.
    ///
    /// A repository that knows no machine yet *adopts* the table: it
    /// keeps the `Arc`, `MachineRef(i)` is the table's id `i`, and no
    /// name is copied or hashed. A repository that holds the same `Arc`,
    /// or a table equal to it, answers `None` too. Any other repository
    /// interns the names one at a time, exactly as
    /// [`Urr::intern_machines`] would, and returns what that did. Which
    /// of the three happens depends on the repository's contents alone,
    /// and every query surface, snapshot and journal reads the same
    /// afterwards: the adopted names are the head of the first frame's
    /// machine delta, in the journal and in a snapshot generation alike.
    /// A caller holds no per-machine table for a fleet the repository
    /// shares.
    ///
    /// # Panics
    ///
    /// Panics if the repository would hold more than `u32::MAX`
    /// machines or 4 GiB of machine names.
    pub fn intern_fleet(&self, fleet: Arc<NameTable>) -> Option<Vec<MachineRef>> {
        let mut table = self.machines.write().expect("urr poisoned");
        if table.is_empty() {
            *table = fleet;
        } else if !Arc::ptr_eq(&table, &fleet) && **table != *fleet {
            return Some(
                fleet
                    .names_from(0)
                    .map(|n| MachineRef(intern_machine_in(&mut table, n)))
                    .collect(),
            );
        }
        None
    }

    /// Interns a failure signature.
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
        if let Some(i) = self.sigs.read().expect("urr poisoned").get(name) {
            return Some(SigId(i));
        }
        let i = self.sigs.write().expect("urr poisoned").try_intern(name)?;
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
        let seq = self.lower_and_insert(vec![report]).start;
        self.telemetry.counter("urr.deposits", 1);
        seq
    }

    /// Deposits a batch of reports under one contiguous sequence range,
    /// claimed and stored in one acquisition of the lock. Returns the
    /// range.
    pub fn deposit_batch(&self, reports: Vec<Report>) -> Range<u64> {
        let range = self.lower_and_insert(reports);
        self.note_batch(range.end - range.start);
        range
    }

    /// Lowers boundary reports, then stores them in one acquisition of
    /// the lock.
    fn lower_and_insert(&self, reports: Vec<Report>) -> Range<u64> {
        let (rows, mut payloads) = self.lower(reports);
        let (sigs, releases) = self.table_lens();
        let mut store = self.lock();
        file_from(&mut payloads, store.next_seq());
        store.insert(rows.iter().copied(), payloads, sigs, releases)
    }

    /// Deposits a batch of pre-interned records: the allocation-free
    /// ingest path the simulator uses.
    pub fn deposit_interned_batch(&self, recs: &[InternedReport]) -> Range<u64> {
        let (sigs, releases) = self.table_lens();
        let rows = recs.iter().map(Row::interned);
        let range = self.lock().insert(rows, Payloads::new(), sigs, releases);
        self.note_batch(recs.len() as u64);
        range
    }

    /// The signature and release interners' lengths: every id interned
    /// so far is below them.
    pub(crate) fn table_lens(&self) -> (usize, usize) {
        let sigs = self.sigs.read().expect("urr poisoned").len();
        let releases = self.releases.read().expect("urr poisoned").pairs.len();
        (sigs, releases)
    }

    pub(crate) fn note_batch(&self, n: u64) {
        self.telemetry.counter("urr.deposits", n);
        self.telemetry.counter("urr.deposit_batches", 1);
        self.telemetry.observe("urr.batch_size", n);
    }

    /// Lowers boundary reports to the rows they are stored as, interning
    /// their names. The payloads are keyed by their report's index in
    /// `reports` until the batch claims its sequence numbers
    /// ([`file_from`]).
    pub(crate) fn lower(&self, reports: Vec<Report>) -> (Vec<Row>, Payloads) {
        let mut payloads = Payloads::new();
        let rows = (0..)
            .zip(reports)
            .map(|(i, report)| {
                // Machine, release, signature: the order ids are claimed in.
                let machine = self.intern_machine(&report.machine).0;
                let release = self.intern_release(&report.package, &report.version).0;
                let (sig, detail) = match report.outcome {
                    ReportOutcome::Success => (NO_SIG, String::new()),
                    ReportOutcome::Failure { signature, detail } => {
                        (self.intern_signature(&signature).0, detail)
                    }
                };
                if !detail.is_empty() || report.image.is_some() {
                    let image = report.image;
                    payloads.push((i, Payload { detail, image }));
                }
                Row {
                    machine,
                    cluster: (u32::try_from(report.cluster).ok())
                        .filter(|&c| c < MAX_CLUSTERS)
                        .expect("cluster id overflow"),
                    release,
                    sig,
                }
            })
            .collect();
        (rows, payloads)
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

    /// Materialises the groups of `sigs`, in that order.
    fn materialize(&self, store: &Store, sigs: &[u32]) -> Vec<FailureGroup> {
        let machines = self.machines.read().expect("urr poisoned");
        let names = self.sigs.read().expect("urr poisoned");
        (sigs.iter())
            .map(|&sig| {
                let slot = &store.groups[sig as usize];
                FailureGroup {
                    signature: names.name(sig).to_string(),
                    count: slot.count,
                    machines: (slot.machine_order.iter())
                        .map(|&m| machines.name(m).to_string())
                        .collect(),
                    clusters: slot.cluster_order.iter().map(|&c| c as usize).collect(),
                    first_seen: slot.first_seen,
                }
            })
            .collect()
    }

    /// Groups failure reports by signature — the vendor's deduplicated
    /// problem list, ordered by discovery (first-seen sequence number).
    pub fn failure_groups(&self) -> Vec<FailureGroup> {
        self.query(|urr| {
            let store = urr.lock();
            urr.materialize(&store, &store.discovery)
        })
    }

    /// The `k` largest failure groups, by report count (ties broken by
    /// earlier discovery). Only the winners are materialised.
    pub fn top_k_failure_groups(&self, k: usize) -> Vec<FailureGroup> {
        self.query(|urr| {
            let store = urr.lock();
            // A stable sort of the discovery order breaks ties by it.
            let mut ranked = store.discovery.clone();
            ranked.sort_by(|&a, &b| {
                let count = |sig: u32| store.groups[sig as usize].count;
                count(b).cmp(&count(a))
            });
            ranked.truncate(k);
            urr.materialize(&store, &ranked)
        })
    }

    /// The report count of the largest failure group, `None` when no
    /// failure was reported: `top_k_failure_groups(1)[0].count` without
    /// materialising the group's machine names.
    pub fn largest_failure_count(&self) -> Option<usize> {
        self.query(|urr| {
            let store = urr.lock();
            store.groups.iter().map(|slot| slot.count).max()
        })
        .filter(|&count| count > 0)
    }

    /// Per-cluster success/failure tallies, ordered by cluster id.
    /// Clusters that never reported are omitted.
    pub fn cluster_failure_rates(&self) -> Vec<ClusterFailureRate> {
        self.query(|urr| urr.lock().cluster_failure_rates())
    }

    /// The group slot of a reported `signature`, with the store locked.
    fn with_group<T>(&self, signature: &str, f: impl FnOnce(&GroupSlot) -> T) -> Option<T> {
        self.query(|urr| {
            let sig = urr.sigs.read().expect("urr poisoned").get(signature)?;
            let store = urr.lock();
            let slot = store.groups.get(sig as usize)?;
            (slot.count > 0).then(|| f(slot))
        })
    }

    /// Drill-down: the distinct machines that reported `signature`, in
    /// first-report order. `None` if the signature was never reported.
    pub fn machines_for_signature(&self, signature: &str) -> Option<Vec<String>> {
        self.with_group(signature, |slot| {
            let machines = self.machines.read().expect("urr poisoned");
            (slot.machine_order.iter())
                .map(|&m| machines.name(m).to_string())
                .collect()
        })
    }

    /// Drill-down: the distinct clusters that reported `signature`, in
    /// first-report order. `None` if the signature was never reported.
    pub fn clusters_for_signature(&self, signature: &str) -> Option<Vec<usize>> {
        self.with_group(signature, |slot| {
            slot.cluster_order.iter().map(|&c| c as usize).collect()
        })
    }

    /// Time-windowed discovery query over the sequence counter: the
    /// failure groups *first seen* in `window` (half-open), in
    /// discovery order. A vendor asks "what broke since I last looked"
    /// by windowing on its last-seen sequence number.
    pub fn first_seen_in(&self, window: Range<u64>) -> Vec<FailureGroup> {
        self.query(|urr| {
            let store = urr.lock();
            urr.materialize(&store, store.seen_in(window))
        })
    }

    /// Aggregate statistics: counters kept on ingest, no report scan.
    pub fn stats(&self) -> UrrStats {
        self.query(|urr| urr.lock().stats())
    }

    /// Summarises outcomes per `(package, version)`, in first-seen
    /// order.
    pub fn release_summaries(&self) -> Vec<ReleaseSummary> {
        self.query(|urr| {
            let store = urr.lock();
            store.release_summaries(&urr.releases.read().expect("urr poisoned"))
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

    // -- the deposit-order dump -----------------------------------------

    /// Reconstructs the record stored under `seq` as a boundary
    /// [`Report`].
    fn row_to_report(
        row: Row,
        seq: u64,
        payload: Option<&Payload>,
        machines: &NameTable,
        sigs: &NameTable,
        releases: &ReleaseInterner,
    ) -> Report {
        let (package, version) = releases.pair(row.release);
        let (detail, image) = match payload {
            Some(p) => (p.detail.clone(), p.image.clone()),
            None => (String::new(), None),
        };
        let outcome = if row.sig == NO_SIG {
            ReportOutcome::Success
        } else {
            ReportOutcome::Failure {
                signature: sigs.name(row.sig).to_string(),
                detail,
            }
        };
        Report {
            machine: machines.name(row.machine).to_string(),
            cluster: row.cluster as usize,
            package: package.to_string(),
            version: version.to_string(),
            outcome,
            seq,
            image,
        }
    }

    /// The reports whose rows match `keep`, in deposit order.
    fn collect(&self, keep: impl Fn(&Row) -> bool) -> Vec<Report> {
        let store = self.lock();
        let machines = self.machines.read().expect("urr poisoned");
        let sigs = self.sigs.read().expect("urr poisoned");
        let releases = self.releases.read().expect("urr poisoned");
        (0..)
            .zip(&store.rows)
            .filter(|(_, row)| keep(row))
            .map(|(seq, &row)| {
                let payload = store.payload(seq);
                Self::row_to_report(row, seq, payload, &machines, &sigs, &releases)
            })
            .collect()
    }

    /// Returns every report, in deposit order.
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

    /// Dumps the full repository as pretty-printed JSON (an array of
    /// report objects, in deposit order), the document equality checks
    /// compare. The repository's persistent form is its journal
    /// ([`crate::DurableUrr`]), not this.
    pub fn to_json(&self) -> String {
        Value::Arr(self.all().iter().map(Report::to_json).collect()).to_pretty()
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
        let urr = Urr::new();
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
        let urr = Urr::new();
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
        let urr = Urr::new();
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
        let urr = Urr::new();
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
        let urr = Urr::new();
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
        let urr = Urr::new();
        urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
        urr.deposit(Report::success("m2", 1, "mysql", "5.0.28"));
        urr.deposit(Report::success("m3", 1, "firefox", "2.0.0"));
        assert_eq!(urr.for_version("mysql", "5.0.27").len(), 1);
        assert_eq!(urr.for_version("mysql", "9.9.9").len(), 0);
        assert_eq!(urr.for_cluster(1).len(), 2);
        assert_eq!(urr.for_cluster(7).len(), 0);
    }

    #[test]
    fn interned_batch_path() {
        let urr = Urr::new();
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
        assert!(
            matches!(&all[1].outcome, ReportOutcome::Failure { signature, .. } if signature == "prob")
        );
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
        let urr = Arc::new(Urr::new());
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
        let urr = Urr::new().with_telemetry(Telemetry::from_registry(Arc::clone(&registry)));
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

    /// A cluster id sizes the per-cluster tables, so one past
    /// [`MAX_CLUSTERS`] is refused on either ingest path; the last one
    /// below it is taken.
    #[test]
    fn cluster_ids_stay_below_the_limit() {
        let urr = Urr::new();
        let last = MAX_CLUSTERS as usize - 1;
        urr.deposit(Report::success("m", last, "p", "1"));
        assert_eq!(urr.for_cluster(last).len(), 1);
        let boundary = std::panic::catch_unwind(|| {
            Urr::new().deposit(Report::success("m", last + 1, "p", "1"))
        });
        assert!(boundary.is_err(), "a boundary report past the limit");
        let interned = std::panic::catch_unwind(|| {
            let urr = Urr::new();
            let report = InternedReport {
                machine: urr.intern_machine("m"),
                cluster: MAX_CLUSTERS,
                release: urr.intern_release("p", "1"),
                outcome: InternedOutcome::Success,
            };
            urr.deposit_interned_batch(&[report])
        });
        assert!(interned.is_err(), "an interned report past the limit");
    }

    #[test]
    fn display_forms() {
        assert_eq!(MachineRef(7).to_string(), "rm#7");
        assert_eq!(SigId(2).to_string(), "sig#2");
        assert_eq!(ReleaseId(1).to_string(), "rel#1");
    }

    #[test]
    fn release_summaries_track_versions_in_order() {
        let urr = Urr::new();
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
    fn discovery_profile_measures_front_loading() {
        let urr = Urr::new();
        let failure = |machine: &str, cluster, signature| {
            Report::failure(
                machine,
                cluster,
                "app",
                "2.0.0",
                signature,
                "d",
                ReportImage::default(),
            )
        };
        // Early discovery: the failure is the very first report.
        urr.deposit(failure("rep1", 0, "early-problem"));
        for i in 0..8 {
            urr.deposit(Report::success(format!("m{i}"), 0, "app", "2.0.0"));
        }
        // Late discovery: a second problem shows up at the end.
        urr.deposit(failure("m9", 3, "late-problem"));
        let profile = urr.discovery_profile();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].0, "early-problem");
        assert!(profile[0].1 < 0.1, "discovered at the very start");
        assert_eq!(profile[1].0, "late-problem");
        assert!(profile[1].1 > 0.8, "discovered at the very end");
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
