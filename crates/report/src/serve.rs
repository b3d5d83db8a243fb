//! The vendor serving layer: frozen query views and a framed
//! request/response protocol.
//!
//! A vendor dashboard or staged-deployment controller polls the URR
//! far more often than it ingests, and it wants a *stable* view while
//! it reasons — a top-k list that reshuffles mid-page is worse than a
//! slightly stale one. [`Urr::snapshot`] freezes the repository's
//! query surfaces into an immutable [`UrrSnapshot`]; any number of
//! reader threads can share one behind an `Arc` and answer queries
//! lock-free while ingest continues on the live repository.
//!
//! [`UrrRequest`] / [`UrrResponse`] give the same queries a wire shape
//! using the storage layer's checksummed frame format, so a serving
//! process can answer remote vendors from a snapshot handle:
//! [`UrrSnapshot::serve`] takes an encoded request frame and returns an
//! encoded response frame, rejecting corrupt or hostile input with a
//! typed [`WireError`] instead of panicking.
//!
//! # One pass per byte
//!
//! A machine name is written into its wire layout once, and checksummed
//! once, over the repository's life. Each live failure group keeps its
//! names laid out beside its index entry, with the CRC-32 of those
//! bytes; a freeze appends only the names that arrived since the
//! previous freeze and checksums the group's whole encoding by
//! combining CRCs. A frozen group shares the live bytes
//! rather than copying them.
//!
//! There is one response encoder — a body writer per variant — and
//! [`UrrSnapshot::serve`] runs it inside the frame it returns, over
//! state borrowed from the snapshot, so no [`UrrResponse`] is built and
//! no payload is copied behind a header; [`UrrResponse::to_frame`] runs
//! the same writers over an owned value. Every response byte is still
//! written per request, but serving a frozen group is a copy of its
//! encoding and one CRC combine: the frame checksum reads only the few
//! bytes around the groups. Only the typed accessors
//! ([`UrrSnapshot::failure_groups`] and the like) allocate a `String`
//! per name, when a caller asks for one.
//!
//! # What a freeze sees
//!
//! [`Urr::snapshot`] reads the watermark and every surface under one
//! acquisition of the repository's lock, so a freeze is a cut at
//! [`UrrSnapshot::as_of`]: it reflects the reports below it and no
//! others, whatever ingest runs beside it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use mirage_telemetry::names::NameTable;

use crate::storage::frame::{
    decode_frame, encode_frame, put_frame, Payload, KIND_REQUEST, KIND_RESPONSE,
};
use crate::storage::wire::{
    crc32, crc32_combine, crc32_extend, get_string_list, put_len, put_str, put_string_list,
    put_u64, put_u8, Cursor, WireError,
};
use crate::urr::{
    ClusterFailureRate, FailureGroup, GroupSlot, ReleaseSummary, Store, Urr, UrrStats,
};

// ---------------------------------------------------------------------
// Frozen snapshot
// ---------------------------------------------------------------------

/// An immutable point-in-time view of a [`Urr`]'s query surfaces.
///
/// Built by [`Urr::snapshot`]. Every accessor mirrors the live method
/// of the same name and returns the same answer the live repository
/// would have given at freeze time; none of them take locks, so
/// snapshots are cheap to query from many threads at once.
#[derive(Debug, Clone, PartialEq)]
pub struct UrrSnapshot {
    as_of: u64,
    stats: UrrStats,
    /// Failure groups in discovery order (`first_seen` ascending).
    groups: Vec<FrozenGroup>,
    /// Indices into `groups`, ordered by (count desc, first_seen asc).
    ranked: Vec<usize>,
    /// Signature name → index into `groups`.
    by_sig: HashMap<String, usize>,
    rates: Vec<ClusterFailureRate>,
    releases: Vec<ReleaseSummary>,
}

/// A group's machine names as a response lays them out — `put_str`
/// each, in first-report order — with their count and the CRC-32 of
/// the bytes. The layout is canonical, so equal bytes are equal lists.
/// A live group keeps its list from one freeze to the next, so that a
/// freeze writes only the names that arrived since the last one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NameList {
    bytes: Arc<Vec<u8>>,
    len: usize,
    crc: u32,
}

impl NameList {
    /// Appends the machines of `order`, the group's first-report list,
    /// that arrived since the last call. A snapshot still holding the
    /// list keeps its bytes: the append copies them first.
    fn catch_up(&mut self, order: &[u32], machines: &NameTable) -> &NameList {
        if self.len < order.len() {
            let bytes = Arc::make_mut(&mut self.bytes);
            let start = bytes.len();
            for &m in &order[self.len..] {
                put_str(bytes, machines.name(m));
            }
            self.crc = crc32_extend(self.crc, &[&bytes[start..]]);
            self.len = order.len();
        }
        self
    }
}

/// A [`FailureGroup`] as the snapshot keeps it: its whole response
/// encoding, checksummed once at the freeze, so serving it is a copy
/// and a CRC combine. The machine names are the live group's bytes,
/// shared, not copied; only a typed accessor pays for a `String` per
/// name.
#[derive(Debug, Clone, PartialEq)]
struct FrozenGroup {
    signature: String,
    count: usize,
    machines: NameList,
    clusters: Vec<usize>,
    first_seen: u64,
    /// What a group response writes before the names: the signature,
    /// the count and the list length.
    head: Vec<u8>,
    /// What it writes after them: the clusters and `first_seen`.
    tail: Vec<u8>,
    /// CRC-32 of `head`, the names and `tail`, in that order.
    crc: u32,
}

impl FrozenGroup {
    fn new(signature: &str, slot: &GroupSlot, machines: NameList) -> Self {
        let clusters: Vec<usize> = slot.cluster_order.iter().map(|&c| c as usize).collect();
        let mut head = Vec::new();
        put_group_head(&mut head, signature, slot.count, machines.len);
        let mut tail = Vec::new();
        put_group_tail(&mut tail, &clusters, slot.first_seen);
        let names = crc32_combine(crc32(&[&head]), machines.crc, machines.bytes.len());
        FrozenGroup {
            signature: signature.to_string(),
            count: slot.count,
            crc: crc32_extend(names, &[&tail]),
            machines,
            clusters,
            first_seen: slot.first_seen,
            head,
            tail,
        }
    }

    fn machines(&self) -> Vec<String> {
        let mut cur = Cursor::new(&self.machines.bytes);
        (0..self.machines.len)
            .map(|_| {
                cur.str_("frozen machine")
                    .expect("the snapshot wrote this list itself")
            })
            .collect()
    }

    fn thaw(&self) -> FailureGroup {
        FailureGroup {
            signature: self.signature.clone(),
            count: self.count,
            machines: self.machines(),
            clusters: self.clusters.clone(),
            first_seen: self.first_seen,
        }
    }
}

impl Urr {
    /// Freezes the repository's query surfaces into an immutable
    /// [`UrrSnapshot`]: one query, under one acquisition of the lock, so
    /// the view is a cut at [`UrrSnapshot::as_of`]. Once built, reading
    /// it takes no lock.
    pub fn snapshot(&self) -> UrrSnapshot {
        self.query(|urr| {
            let mut store = urr.lock();
            let machines = urr.machines.read().expect("urr poisoned");
            let sigs = urr.sigs.read().expect("urr poisoned");
            let groups = store.frozen_groups(&machines, &sigs);
            // A stable sort of the discovery order breaks ties by it.
            let mut ranked: Vec<usize> = (0..groups.len()).collect();
            ranked.sort_by(|&a, &b| groups[b].count.cmp(&groups[a].count));
            let by_sig = groups
                .iter()
                .enumerate()
                .map(|(i, g)| (g.signature.clone(), i))
                .collect();
            UrrSnapshot {
                as_of: store.next_seq(),
                stats: store.stats(),
                groups,
                ranked,
                by_sig,
                rates: store.cluster_failure_rates(),
                releases: store.release_summaries(&urr.releases.read().expect("urr poisoned")),
            }
        })
    }
}

impl Store {
    /// The failure groups as frozen groups, in discovery order, each
    /// group's [`NameList`] first brought up to date: every machine name
    /// is written into its wire layout once, by the first freeze after
    /// it arrived.
    fn frozen_groups(&mut self, machines: &NameTable, sigs: &NameTable) -> Vec<FrozenGroup> {
        let Store {
            groups,
            discovery,
            names,
            ..
        } = self;
        names.resize_with(groups.len(), NameList::default);
        (discovery.iter())
            .map(|&sig| {
                let slot = &groups[sig as usize];
                let list = names[sig as usize].catch_up(&slot.machine_order, machines);
                FrozenGroup::new(sigs.name(sig), slot, list.clone())
            })
            .collect()
    }
}

impl UrrSnapshot {
    /// The sequence-number watermark: this view reflects exactly the
    /// reports with `seq < as_of()`.
    pub fn as_of(&self) -> u64 {
        self.as_of
    }

    /// Mirror of [`Urr::stats`].
    pub fn stats(&self) -> UrrStats {
        self.stats.clone()
    }

    /// Mirror of [`Urr::failure_groups`] (discovery order).
    pub fn failure_groups(&self) -> Vec<FailureGroup> {
        self.groups.iter().map(FrozenGroup::thaw).collect()
    }

    /// The `k` largest groups, largest first.
    fn top(&self, k: usize) -> impl ExactSizeIterator<Item = &FrozenGroup> {
        let k = k.min(self.ranked.len());
        self.ranked[..k].iter().map(|&i| &self.groups[i])
    }

    /// Mirror of [`Urr::top_k_failure_groups`].
    pub fn top_k_failure_groups(&self, k: usize) -> Vec<FailureGroup> {
        self.top(k).map(FrozenGroup::thaw).collect()
    }

    /// Mirror of [`Urr::cluster_failure_rates`].
    pub fn cluster_failure_rates(&self) -> Vec<ClusterFailureRate> {
        self.rates.clone()
    }

    fn group(&self, signature: &str) -> Option<&FrozenGroup> {
        self.by_sig.get(signature).map(|&i| &self.groups[i])
    }

    /// Mirror of [`Urr::machines_for_signature`].
    pub fn machines_for_signature(&self, signature: &str) -> Option<Vec<String>> {
        self.group(signature).map(FrozenGroup::machines)
    }

    /// Mirror of [`Urr::clusters_for_signature`].
    pub fn clusters_for_signature(&self, signature: &str) -> Option<Vec<usize>> {
        self.group(signature).map(|g| g.clusters.clone())
    }

    /// The groups first seen in `window`: `groups` is in `first_seen`
    /// order, so they are one run of it (empty for an inverted window).
    fn seen_in(&self, window: Range<u64>) -> &[FrozenGroup] {
        let lo = self.groups.partition_point(|g| g.first_seen < window.start);
        let hi = self.groups.partition_point(|g| g.first_seen < window.end);
        &self.groups[lo..hi.max(lo)]
    }

    /// Mirror of [`Urr::first_seen_in`].
    pub fn first_seen_in(&self, window: Range<u64>) -> Vec<FailureGroup> {
        self.seen_in(window).iter().map(FrozenGroup::thaw).collect()
    }

    /// Mirror of [`Urr::release_summaries`].
    pub fn release_summaries(&self) -> Vec<ReleaseSummary> {
        self.releases.clone()
    }

    /// Answers one protocol request from the frozen view.
    pub fn answer(&self, request: &UrrRequest) -> UrrResponse {
        match request {
            UrrRequest::Stats => UrrResponse::Stats(self.stats()),
            UrrRequest::FailureGroups => UrrResponse::Groups(self.failure_groups()),
            UrrRequest::TopK(k) => UrrResponse::Groups(self.top_k_failure_groups(top_k(*k))),
            UrrRequest::ClusterRates => UrrResponse::Rates(self.cluster_failure_rates()),
            UrrRequest::FirstSeenIn { start, end } => {
                UrrResponse::Groups(self.first_seen_in(*start..*end))
            }
            UrrRequest::MachinesForSignature { signature } => {
                UrrResponse::Machines(self.machines_for_signature(signature))
            }
            UrrRequest::ClustersForSignature { signature } => {
                UrrResponse::Clusters(self.clusters_for_signature(signature))
            }
            UrrRequest::ReleaseSummaries => UrrResponse::Releases(self.release_summaries()),
        }
    }

    /// Decodes one request frame, answers it, and encodes the response
    /// frame. Corrupt, truncated, or hostile request bytes yield a
    /// typed error, never a panic.
    ///
    /// The frame holds the bytes `self.answer(&request).to_frame()`
    /// would, written in place from the frozen state: no
    /// [`UrrResponse`] is built on the way.
    pub fn serve(&self, request_frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let request = UrrRequest::from_frame(request_frame)?;
        let mut frame = Vec::new();
        put_frame(&mut frame, KIND_RESPONSE, |p| match &request {
            UrrRequest::Stats => put_stats(p, &self.stats),
            UrrRequest::FailureGroups => put_groups(p, self.groups.iter().map(GroupRef::Frozen)),
            UrrRequest::TopK(k) => put_groups(p, self.top(top_k(*k)).map(GroupRef::Frozen)),
            UrrRequest::ClusterRates => put_rates(p, &self.rates),
            UrrRequest::FirstSeenIn { start, end } => {
                put_groups(p, self.seen_in(*start..*end).iter().map(GroupRef::Frozen))
            }
            UrrRequest::MachinesForSignature { signature } => {
                let group = self.group(signature);
                put_machines(p, group.map(|g| MachineList::Frozen(&g.machines)))
            }
            UrrRequest::ClustersForSignature { signature } => {
                put_clusters(p, self.group(signature).map(|g| &g.clusters[..]))
            }
            UrrRequest::ReleaseSummaries => put_releases(p, &self.releases),
        });
        Ok(frame)
    }
}

// ---------------------------------------------------------------------
// Protocol: requests
// ---------------------------------------------------------------------

const REQ_STATS: u8 = 0;
const REQ_FAILURE_GROUPS: u8 = 1;
const REQ_TOP_K: u8 = 2;
const REQ_CLUSTER_RATES: u8 = 3;
const REQ_FIRST_SEEN_IN: u8 = 4;
const REQ_MACHINES_FOR_SIG: u8 = 5;
const REQ_CLUSTERS_FOR_SIG: u8 = 6;
const REQ_RELEASE_SUMMARIES: u8 = 7;

/// A vendor query against the URR serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrrRequest {
    /// Aggregate statistics ([`Urr::stats`]).
    Stats,
    /// All failure groups in discovery order ([`Urr::failure_groups`]).
    FailureGroups,
    /// The `k` largest failure groups ([`Urr::top_k_failure_groups`]).
    TopK(u64),
    /// Per-cluster tallies ([`Urr::cluster_failure_rates`]).
    ClusterRates,
    /// Groups first seen in `start..end`([`Urr::first_seen_in`]).
    FirstSeenIn {
        /// Window start (inclusive sequence number).
        start: u64,
        /// Window end (exclusive sequence number).
        end: u64,
    },
    /// Machines drill-down ([`Urr::machines_for_signature`]).
    MachinesForSignature {
        /// The failure signature to drill into.
        signature: String,
    },
    /// Clusters drill-down ([`Urr::clusters_for_signature`]).
    ClustersForSignature {
        /// The failure signature to drill into.
        signature: String,
    },
    /// Per-release tallies ([`Urr::release_summaries`]).
    ReleaseSummaries,
}

/// A requested `k` as a count of groups: one past `usize` asks for all.
fn top_k(k: u64) -> usize {
    usize::try_from(k).unwrap_or(usize::MAX)
}

impl UrrRequest {
    /// Encodes this request as one checksummed frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            UrrRequest::Stats => put_u8(&mut payload, REQ_STATS),
            UrrRequest::FailureGroups => put_u8(&mut payload, REQ_FAILURE_GROUPS),
            UrrRequest::TopK(k) => {
                put_u8(&mut payload, REQ_TOP_K);
                put_u64(&mut payload, *k);
            }
            UrrRequest::ClusterRates => put_u8(&mut payload, REQ_CLUSTER_RATES),
            UrrRequest::FirstSeenIn { start, end } => {
                put_u8(&mut payload, REQ_FIRST_SEEN_IN);
                put_u64(&mut payload, *start);
                put_u64(&mut payload, *end);
            }
            UrrRequest::MachinesForSignature { signature } => {
                put_u8(&mut payload, REQ_MACHINES_FOR_SIG);
                put_str(&mut payload, signature);
            }
            UrrRequest::ClustersForSignature { signature } => {
                put_u8(&mut payload, REQ_CLUSTERS_FOR_SIG);
                put_str(&mut payload, signature);
            }
            UrrRequest::ReleaseSummaries => put_u8(&mut payload, REQ_RELEASE_SUMMARIES),
        }
        encode_frame(KIND_REQUEST, &payload)
    }

    /// Decodes one request frame, rejecting anything malformed.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, payload) = decode_frame(bytes)?;
        if kind != KIND_REQUEST {
            return Err(WireError::BadTag {
                what: "request frame kind",
                tag: kind,
            });
        }
        let mut cur = Cursor::new(payload);
        let out = match cur.u8("request tag")? {
            REQ_STATS => UrrRequest::Stats,
            REQ_FAILURE_GROUPS => UrrRequest::FailureGroups,
            REQ_TOP_K => UrrRequest::TopK(cur.u64("top-k k")?),
            REQ_CLUSTER_RATES => UrrRequest::ClusterRates,
            REQ_FIRST_SEEN_IN => UrrRequest::FirstSeenIn {
                start: cur.u64("window start")?,
                end: cur.u64("window end")?,
            },
            REQ_MACHINES_FOR_SIG => UrrRequest::MachinesForSignature {
                signature: cur.str_("signature")?,
            },
            REQ_CLUSTERS_FOR_SIG => UrrRequest::ClustersForSignature {
                signature: cur.str_("signature")?,
            },
            REQ_RELEASE_SUMMARIES => UrrRequest::ReleaseSummaries,
            tag => {
                return Err(WireError::BadTag {
                    what: "request tag",
                    tag,
                })
            }
        };
        cur.finish("request")?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Protocol: responses
// ---------------------------------------------------------------------

const RESP_STATS: u8 = 0;
const RESP_GROUPS: u8 = 1;
const RESP_RATES: u8 = 2;
const RESP_MACHINES: u8 = 3;
const RESP_CLUSTERS: u8 = 4;
const RESP_RELEASES: u8 = 5;

/// The answer to a [`UrrRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrrResponse {
    /// Aggregate statistics.
    Stats(UrrStats),
    /// Failure groups (for `FailureGroups`, `TopK`, `FirstSeenIn`).
    Groups(Vec<FailureGroup>),
    /// Per-cluster tallies.
    Rates(Vec<ClusterFailureRate>),
    /// Machines drill-down; `None` when the signature is unknown.
    Machines(Option<Vec<String>>),
    /// Clusters drill-down; `None` when the signature is unknown.
    Clusters(Option<Vec<usize>>),
    /// Per-release tallies.
    Releases(Vec<ReleaseSummary>),
}

// The one response encoder: a body writer per variant, tag byte
// included, called by `UrrResponse::to_frame` on owned values and by
// `UrrSnapshot::serve` on the frozen state.

/// A machine list on its way into a response.
enum MachineList<'a> {
    /// Names still to be laid out.
    Names(&'a [String]),
    /// Names a freeze already laid out and checksummed.
    Frozen(&'a NameList),
}

/// A failure group on its way into a response: an owned one to encode,
/// or a frozen one whose encoding and its CRC-32 are already made.
enum GroupRef<'a> {
    Owned(&'a FailureGroup),
    Frozen(&'a FrozenGroup),
}

/// A group's fields before its machine names.
fn put_group_head(out: &mut Vec<u8>, signature: &str, count: usize, machines: usize) {
    put_str(out, signature);
    put_u64(out, count as u64);
    put_len(out, machines);
}

/// A group's fields after its machine names.
fn put_group_tail(out: &mut Vec<u8>, clusters: &[usize], first_seen: u64) {
    put_cluster_list(out, clusters);
    put_u64(out, first_seen);
}

fn put_cluster_list(out: &mut Vec<u8>, clusters: &[usize]) {
    put_len(out, clusters.len());
    for &c in clusters {
        put_u64(out, c as u64);
    }
}

fn put_stats(out: &mut Vec<u8>, s: &UrrStats) {
    put_u8(out, RESP_STATS);
    put_u64(out, s.total as u64);
    put_u64(out, s.successes as u64);
    put_u64(out, s.failures as u64);
    put_u64(out, s.distinct_failures as u64);
    put_u64(out, s.image_bytes as u64);
}

fn put_groups<'a>(out: &mut Payload<'_>, groups: impl ExactSizeIterator<Item = GroupRef<'a>>) {
    put_u8(out, RESP_GROUPS);
    put_len(out, groups.len());
    for g in groups {
        match g {
            GroupRef::Owned(g) => {
                put_group_head(out, &g.signature, g.count, g.machines.len());
                for name in &g.machines {
                    put_str(out, name);
                }
                put_group_tail(out, &g.clusters, g.first_seen);
            }
            GroupRef::Frozen(g) => {
                out.put_checksummed(&[&g.head, &g.machines.bytes, &g.tail], g.crc)
            }
        }
    }
}

fn put_rates(out: &mut Vec<u8>, rates: &[ClusterFailureRate]) {
    put_u8(out, RESP_RATES);
    put_len(out, rates.len());
    for r in rates {
        put_u64(out, r.cluster as u64);
        put_u64(out, r.successes as u64);
        put_u64(out, r.failures as u64);
    }
}

fn put_machines(out: &mut Payload<'_>, machines: Option<MachineList<'_>>) {
    put_u8(out, RESP_MACHINES);
    match machines {
        None => put_u8(out, 0),
        Some(list) => {
            put_u8(out, 1);
            match list {
                MachineList::Names(names) => put_string_list(out, names),
                MachineList::Frozen(list) => {
                    put_len(out, list.len);
                    out.put_checksummed(&[&list.bytes], list.crc);
                }
            }
        }
    }
}

fn put_clusters(out: &mut Vec<u8>, clusters: Option<&[usize]>) {
    put_u8(out, RESP_CLUSTERS);
    match clusters {
        None => put_u8(out, 0),
        Some(list) => {
            put_u8(out, 1);
            put_cluster_list(out, list);
        }
    }
}

fn put_releases(out: &mut Vec<u8>, releases: &[ReleaseSummary]) {
    put_u8(out, RESP_RELEASES);
    put_len(out, releases.len());
    for r in releases {
        put_str(out, &r.package);
        put_str(out, &r.version);
        put_u64(out, r.successes as u64);
        put_u64(out, r.failures as u64);
    }
}

fn get_group(cur: &mut Cursor<'_>) -> Result<FailureGroup, WireError> {
    let signature = cur.str_("group signature")?;
    let count = cur.u64_as_usize("group count")?;
    let machines = get_string_list(cur, "group machines")?;
    let n = cur.list_len(8, "group clusters")?;
    let mut clusters = Vec::with_capacity(n);
    for _ in 0..n {
        clusters.push(cur.u64_as_usize("group cluster")?);
    }
    let first_seen = cur.u64("group first_seen")?;
    Ok(FailureGroup {
        signature,
        count,
        machines,
        clusters,
        first_seen,
    })
}

/// The fewest bytes a group takes on the wire: the signature's length
/// prefix (4), the count (8), the two list lengths (4 + 4) and
/// `first_seen` (8).
const MIN_GROUP_LEN: usize = 4 + 8 + 4 + 4 + 8;

fn get_groups(cur: &mut Cursor<'_>) -> Result<Vec<FailureGroup>, WireError> {
    let n = cur.list_len(MIN_GROUP_LEN, "groups")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_group(cur)?);
    }
    Ok(out)
}

impl UrrResponse {
    /// Encodes this response as one checksummed frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        put_frame(&mut frame, KIND_RESPONSE, |p| match self {
            UrrResponse::Stats(s) => put_stats(p, s),
            UrrResponse::Groups(groups) => put_groups(p, groups.iter().map(GroupRef::Owned)),
            UrrResponse::Rates(rates) => put_rates(p, rates),
            UrrResponse::Machines(m) => put_machines(p, m.as_deref().map(MachineList::Names)),
            UrrResponse::Clusters(c) => put_clusters(p, c.as_deref()),
            UrrResponse::Releases(releases) => put_releases(p, releases),
        });
        frame
    }

    /// Decodes one response frame, rejecting anything malformed.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, payload) = decode_frame(bytes)?;
        if kind != KIND_RESPONSE {
            return Err(WireError::BadTag {
                what: "response frame kind",
                tag: kind,
            });
        }
        let mut cur = Cursor::new(payload);
        let out = match cur.u8("response tag")? {
            RESP_STATS => UrrResponse::Stats(UrrStats {
                total: cur.u64_as_usize("stats total")?,
                successes: cur.u64_as_usize("stats successes")?,
                failures: cur.u64_as_usize("stats failures")?,
                distinct_failures: cur.u64_as_usize("stats distinct")?,
                image_bytes: cur.u64_as_usize("stats image bytes")?,
            }),
            RESP_GROUPS => UrrResponse::Groups(get_groups(&mut cur)?),
            RESP_RATES => {
                let n = cur.list_len(24, "rates")?;
                let mut rates = Vec::with_capacity(n);
                for _ in 0..n {
                    rates.push(ClusterFailureRate {
                        cluster: cur.u64_as_usize("rate cluster")?,
                        successes: cur.u64_as_usize("rate successes")?,
                        failures: cur.u64_as_usize("rate failures")?,
                    });
                }
                UrrResponse::Rates(rates)
            }
            RESP_MACHINES => UrrResponse::Machines(match cur.u8("machines some-tag")? {
                0 => None,
                1 => Some(get_string_list(&mut cur, "machines")?),
                tag => {
                    return Err(WireError::BadTag {
                        what: "machines some-tag",
                        tag,
                    })
                }
            }),
            RESP_CLUSTERS => UrrResponse::Clusters(match cur.u8("clusters some-tag")? {
                0 => None,
                1 => {
                    let n = cur.list_len(8, "clusters")?;
                    let mut list = Vec::with_capacity(n);
                    for _ in 0..n {
                        list.push(cur.u64_as_usize("cluster id")?);
                    }
                    Some(list)
                }
                tag => {
                    return Err(WireError::BadTag {
                        what: "clusters some-tag",
                        tag,
                    })
                }
            }),
            RESP_RELEASES => {
                let n = cur.list_len(4 * 2 + 8 * 2, "releases")?;
                let mut rels = Vec::with_capacity(n);
                for _ in 0..n {
                    rels.push(ReleaseSummary {
                        package: cur.str_("release package")?,
                        version: cur.str_("release version")?,
                        successes: cur.u64_as_usize("release successes")?,
                        failures: cur.u64_as_usize("release failures")?,
                    });
                }
                UrrResponse::Releases(rels)
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "response tag",
                    tag,
                })
            }
        };
        cur.finish("response")?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::image::ReportImage;
    use crate::report::Report;
    use crate::urr::{InternedOutcome, InternedReport, MachineRef};
    use mirage_telemetry::names::NameTable;

    fn populated() -> Urr {
        let urr = Urr::new();
        urr.deposit(Report::success("m1", 0, "mysql", "5.0.27"));
        urr.deposit(Report::failure(
            "m2",
            1,
            "mysql",
            "5.0.27",
            "php/crash",
            "detail",
            ReportImage::default(),
        ));
        urr.deposit(Report::failure(
            "m3",
            2,
            "mysql",
            "5.0.27",
            "php/crash",
            "",
            ReportImage::default(),
        ));
        urr.deposit(Report::failure(
            "m2",
            1,
            "mysql",
            "5.0.28",
            "ssl/handshake",
            "",
            ReportImage::default(),
        ));
        urr
    }

    /// A repository whose groups list machines from an adopted fleet
    /// table and from the names interned after it, with names the wire
    /// layout must carry verbatim.
    fn populated_on_a_fleet() -> Urr {
        let urr = Urr::new();
        let mut fleet = NameTable::default();
        for name in ["f0", "", "f\"2\"", "f3-日本語"] {
            fleet.intern(name);
        }
        let fleet_len = fleet.len() as u32;
        assert_eq!(urr.intern_fleet(Arc::new(fleet)), None, "adopted");
        let release = urr.intern_release("mysql", "5.0.27");
        let sig = urr.intern_signature("php/crash");
        // By ref, fleet order reversed: the list is by sequence, not id.
        let recs: Vec<InternedReport> = ((0..fleet_len).rev().map(MachineRef))
            .map(|machine| InternedReport {
                machine,
                cluster: 2,
                release,
                outcome: InternedOutcome::Failure(sig),
            })
            .collect();
        urr.deposit_interned_batch(&recs);
        for (machine, sig) in [
            ("outsider\u{1}", "php/crash"),
            ("f0", "ssl/handshake"),
            ("outsider-🦀", "ssl/handshake"),
            ("", "ssl/handshake"),
        ] {
            let image = ReportImage::default();
            urr.deposit(Report::failure(
                machine, 1, "mysql", "5.0.28", sig, "", image,
            ));
        }
        urr
    }

    #[test]
    fn snapshot_mirrors_every_live_surface() {
        for urr in [populated(), populated_on_a_fleet(), Urr::new()] {
            let snap = urr.snapshot();
            assert_eq!(snap.as_of(), urr.next_seq());
            assert_eq!(snap.stats(), urr.stats());
            assert_eq!(snap.failure_groups(), urr.failure_groups());
            for k in 0..4 {
                assert_eq!(snap.top_k_failure_groups(k), urr.top_k_failure_groups(k));
            }
            assert_eq!(snap.cluster_failure_rates(), urr.cluster_failure_rates());
            assert_eq!(snap.release_summaries(), urr.release_summaries());
            // Whole, partial, inverted, empty, past the end.
            for (start, end) in [(1, 3), (0, u64::MAX), (3, 1), (2, 2), (4, 9)] {
                assert_eq!(
                    snap.first_seen_in(start..end),
                    urr.first_seen_in(start..end)
                );
            }
            for sig in ["php/crash", "ssl/handshake", "nope"] {
                assert_eq!(
                    snap.machines_for_signature(sig),
                    urr.machines_for_signature(sig)
                );
                assert_eq!(
                    snap.clusters_for_signature(sig),
                    urr.clusters_for_signature(sig)
                );
            }
        }
        let groups = populated_on_a_fleet().snapshot().failure_groups();
        assert_eq!(
            groups[0].machines,
            ["f3-日本語", "f\"2\"", "", "f0", "outsider\u{1}"]
        );
        assert_eq!(groups[1].machines, ["f0", "outsider-🦀", ""]);
    }

    #[test]
    fn snapshot_is_frozen_while_ingest_continues() {
        let urr = populated();
        let snap = urr.snapshot();
        let before = snap.stats();
        urr.deposit(Report::success("m9", 0, "mysql", "5.0.28"));
        assert_eq!(snap.stats(), before, "snapshot unaffected by new deposits");
        assert_ne!(urr.stats(), before);
    }

    #[test]
    fn request_frames_roundtrip() {
        let requests = vec![
            UrrRequest::Stats,
            UrrRequest::FailureGroups,
            UrrRequest::TopK(7),
            UrrRequest::ClusterRates,
            UrrRequest::FirstSeenIn { start: 2, end: 9 },
            UrrRequest::MachinesForSignature {
                signature: "php/crash\u{1F4A5}\"\\".into(),
            },
            UrrRequest::ClustersForSignature {
                signature: String::new(),
            },
            UrrRequest::ReleaseSummaries,
        ];
        for req in requests {
            let frame = req.to_frame();
            assert_eq!(UrrRequest::from_frame(&frame).unwrap(), req);
        }
    }

    #[test]
    fn every_request_kind_serves_the_live_answer() {
        let urr = populated();
        let snap = urr.snapshot();
        let cases = vec![
            (UrrRequest::Stats, UrrResponse::Stats(urr.stats())),
            (
                UrrRequest::FailureGroups,
                UrrResponse::Groups(urr.failure_groups()),
            ),
            (
                UrrRequest::TopK(1),
                UrrResponse::Groups(urr.top_k_failure_groups(1)),
            ),
            (
                UrrRequest::ClusterRates,
                UrrResponse::Rates(urr.cluster_failure_rates()),
            ),
            (
                UrrRequest::FirstSeenIn { start: 0, end: 2 },
                UrrResponse::Groups(urr.first_seen_in(0..2)),
            ),
            (
                UrrRequest::MachinesForSignature {
                    signature: "php/crash".into(),
                },
                UrrResponse::Machines(urr.machines_for_signature("php/crash")),
            ),
            (
                UrrRequest::ClustersForSignature {
                    signature: "unknown".into(),
                },
                UrrResponse::Clusters(None),
            ),
            (
                UrrRequest::ReleaseSummaries,
                UrrResponse::Releases(urr.release_summaries()),
            ),
        ];
        for (req, want) in cases {
            let resp_frame = snap.serve(&req.to_frame()).unwrap();
            let resp = UrrResponse::from_frame(&resp_frame).unwrap();
            assert_eq!(resp, want, "request {req:?}");
            // And the response frame round-trips byte-identically.
            assert_eq!(resp.to_frame(), resp_frame);
        }
    }

    #[test]
    fn hostile_request_frames_are_rejected() {
        let snap = populated().snapshot();
        // Corrupt every byte of a valid frame in turn: serve must never
        // panic, and flipped-checksum/truncated shapes must error.
        let frame = UrrRequest::TopK(3).to_frame();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let _ = snap.serve(&bad);
        }
        for len in 0..frame.len() {
            assert!(snap.serve(&frame[..len]).is_err(), "truncated at {len}");
        }
        // A response frame is not a request.
        let resp = UrrResponse::Machines(None).to_frame();
        assert!(snap.serve(&resp).is_err());
        // Unknown request tag.
        let bad = encode_frame(KIND_REQUEST, &[99]);
        assert!(snap.serve(&bad).is_err());
        // Trailing bytes after a valid request.
        let bad = encode_frame(KIND_REQUEST, &[REQ_STATS, 0xff]);
        assert!(snap.serve(&bad).is_err());
    }
}
