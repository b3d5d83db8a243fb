//! Randomised crash-recovery tests of the storage layer.
//!
//! The central property (24 seeded cases, mirroring the repository's
//! reference-equivalence convention): for a random mixed stream of
//! boundary and pre-interned deposit batches with snapshots taken at
//! random points, `recover(snapshot + WAL)` reproduces the live
//! [`Urr`] **exactly**, across every query surface the repository
//! exposes. A second suite feeds recovery a hostile-WAL corpus —
//! truncated records, bit-flipped checksums, zero-length segments,
//! duplicated tail frames, garbage appends, and snapshot generations
//! that pass every checksum but are not the log they claim to be — and
//! requires a clean recovery or rejection, never a panic.

use std::sync::Arc;

use mirage_report::{
    DurableConfig, DurableUrr, FsStore, InternedOutcome, InternedReport, MachineRef, MemoryStore,
    Report, ReportImage, Urr, UrrStore,
};
use mirage_telemetry::names::NameTable;

/// Deterministic xorshift64 generator (same idiom as `proptests.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Hostile signature pool: quoting, escapes, unicode, empty strings,
/// and control characters all travel through the WAL and snapshot
/// codecs.
const SIGNATURES: &[&str] = &[
    "php/crash",
    "mycnf/overwritten",
    "firefox/prefs",
    "ssh/\"quoted\"",
    "esc\\backslash\nnewline\ttab",
    "unicode/日本語-🦀",
    "",
    "control/\u{0001}\u{001f}",
];

const PACKAGES: &[(&str, &str)] = &[
    ("mysql", "5.0.27"),
    ("mysql", "5.0.28"),
    ("firefox", "2.0.0"),
    ("upgrade", "r1"),
];

fn random_report(rng: &mut Rng, machines: usize, clusters: usize) -> Report {
    let machine = format!("m{}", rng.below(machines));
    let cluster = rng.below(clusters);
    let (package, version) = PACKAGES[rng.below(PACKAGES.len())];
    if rng.chance(55) {
        Report::success(machine, cluster, package, version)
    } else {
        let sig = SIGNATURES[rng.below(SIGNATURES.len())];
        let image = if rng.chance(60) {
            ReportImage::new(
                format!("digest-{:x}", rng.next()),
                vec![format!("ctx{}", rng.below(9))],
                vec!["input \"x\"".into()],
                vec!["out\\y".into()],
            )
        } else {
            ReportImage::default()
        };
        Report::failure(
            machine,
            cluster,
            package,
            version,
            sig,
            "detail: \u{7}",
            image,
        )
    }
}

fn random_interned_batch(
    rng: &mut Rng,
    urr: &Urr,
    machines: usize,
    clusters: usize,
    len: usize,
) -> Vec<InternedReport> {
    (0..len)
        .map(|_| {
            let machine = urr.intern_machine(&format!("m{}", rng.below(machines)));
            let (package, version) = PACKAGES[rng.below(PACKAGES.len())];
            let release = urr.intern_release(package, version);
            let outcome = if rng.chance(55) {
                InternedOutcome::Success
            } else {
                InternedOutcome::Failure(
                    urr.intern_signature(SIGNATURES[rng.below(SIGNATURES.len())]),
                )
            };
            InternedReport {
                machine,
                cluster: rng.below(clusters) as u32,
                release,
                outcome,
            }
        })
        .collect()
}

/// Asserts every query surface of `b` matches `a` exactly.
fn assert_urr_identical(a: &Urr, b: &Urr, ctx: &str) {
    assert_eq!(a.next_seq(), b.next_seq(), "{ctx}: next_seq");
    assert_eq!(a.stats(), b.stats(), "{ctx}: stats");
    assert_eq!(
        a.failure_groups(),
        b.failure_groups(),
        "{ctx}: failure_groups"
    );
    for k in [0, 1, 3, usize::MAX] {
        assert_eq!(
            a.top_k_failure_groups(k),
            b.top_k_failure_groups(k),
            "{ctx}: top_k({k})"
        );
    }
    assert_eq!(
        a.cluster_failure_rates(),
        b.cluster_failure_rates(),
        "{ctx}: cluster_failure_rates"
    );
    for sig in SIGNATURES.iter().chain(["never/seen"].iter()) {
        assert_eq!(
            a.machines_for_signature(sig),
            b.machines_for_signature(sig),
            "{ctx}: machines_for_signature({sig:?})"
        );
        assert_eq!(
            a.clusters_for_signature(sig),
            b.clusters_for_signature(sig),
            "{ctx}: clusters_for_signature({sig:?})"
        );
    }
    let hi = a.next_seq();
    for window in [0..hi, 0..hi / 2, hi / 3..hi, 5..6] {
        assert_eq!(
            a.first_seen_in(window.clone()),
            b.first_seen_in(window.clone()),
            "{ctx}: first_seen_in({window:?})"
        );
    }
    assert_eq!(
        a.release_summaries(),
        b.release_summaries(),
        "{ctx}: release_summaries"
    );
    assert_eq!(
        a.discovery_profile(),
        b.discovery_profile(),
        "{ctx}: discovery_profile"
    );
    assert_eq!(a.all(), b.all(), "{ctx}: all");
    for (package, version) in PACKAGES {
        assert_eq!(
            a.for_version(package, version),
            b.for_version(package, version),
            "{ctx}: for_version({package} {version})"
        );
    }
    for cluster in 0..6 {
        assert_eq!(
            a.for_cluster(cluster),
            b.for_cluster(cluster),
            "{ctx}: for_cluster({cluster})"
        );
    }
    assert_eq!(a.to_json(), b.to_json(), "{ctx}: to_json");
    // The frozen serving view is built from the same surfaces.
    assert_eq!(a.snapshot(), b.snapshot(), "{ctx}: serve snapshot");
}

/// Asserts each of `names` is interned under the same ref in both.
fn assert_refs_identical(a: &Urr, b: &Urr, names: impl IntoIterator<Item = String>, ctx: &str) {
    for name in names {
        assert_eq!(
            a.intern_machine(&name),
            b.intern_machine(&name),
            "{ctx}: {name} recovers its ref"
        );
    }
}

/// Drives `durable` with a random mixed stream; state accumulates in
/// the durable repository and its store. Returns the machine names it
/// interned ahead of any report for them — half never get one: they
/// must recover their refs all the same.
fn drive(
    rng: &mut Rng,
    durable: &DurableUrr,
    machines: usize,
    clusters: usize,
    batches: usize,
) -> Vec<String> {
    let mut spares = Vec::new();
    for _ in 0..batches {
        match rng.below(4) {
            // Boundary single deposit.
            0 => {
                durable
                    .deposit(random_report(rng, machines, clusters))
                    .expect("deposit");
            }
            // Boundary batch (possibly empty).
            1 | 2 => {
                let len = rng.below(24);
                let batch: Vec<Report> = (0..len)
                    .map(|_| random_report(rng, machines, clusters))
                    .collect();
                durable.deposit_batch(batch).expect("deposit_batch");
            }
            // Pre-interned batch: interning happens up front on the live
            // handle, so the WAL's intern-delta journaling is exercised
            // with deltas that arrive *between* record batches.
            _ => {
                let len = rng.below(24);
                let batch = random_interned_batch(rng, durable.urr(), machines, clusters, len);
                durable
                    .deposit_interned_batch(&batch)
                    .expect("deposit_interned_batch");
            }
        }
        // A fresh name, then an empty batch: no record of the batch
        // refers to the name, so only a later frame's delta (or a
        // snapshot's table) carries it, and the id of every name
        // interned after it depends on it. The report that follows half
        // the time finds the name already interned.
        if rng.chance(20) {
            let spare = format!("spare-{:x}", rng.next());
            durable.urr().intern_machine(&spare);
            let range = durable.deposit_interned_batch(&[]).expect("empty batch");
            assert!(range.is_empty());
            if rng.chance(50) {
                let late = Report::success(spare.clone(), 0, "upgrade", "r1");
                durable.deposit(late).expect("deposit");
            }
            spares.push(spare);
        }
        if rng.chance(12) {
            durable.snapshot_now().expect("snapshot_now");
        }
    }
    spares
}

/// The 24-case seeded recovery property:
/// `recover(snapshot + WAL) == live Urr` across every query surface.
#[test]
fn urr_recovery_equivalence() {
    let mut rng = Rng::new(0x5eed_0006);
    for case in 0..24 {
        let machines = 2 + rng.below(20);
        let clusters = 1 + rng.below(6);
        // Case 0 is the empty repository: it snapshots and recovers.
        let batches = if case == 0 { 0 } else { rng.below(40) };
        let config = DurableConfig {
            // Mix manual-only, aggressive, and occasional auto-snapshots.
            snapshot_every_batches: [0, 1, 7][case % 3],
            ..DurableConfig::default()
        };
        let store = MemoryStore::with_segment_bytes(1 << (6 + case % 8));
        let handle = store.clone();
        let durable = DurableUrr::new(Box::new(store), config.clone()).expect("new");
        let spares = drive(&mut rng, &durable, machines, clusters, batches);
        if case == 0 {
            durable.snapshot_now().expect("snapshot_now");
        }
        // Crash: image the store at this instant and recover from it.
        let crashed = handle.fork();
        let (recovered, report) = DurableUrr::recover(Box::new(crashed), config).expect("recover");
        assert_eq!(
            report.torn_tail, None,
            "case {case}: clean WAL has no torn tail"
        );
        if case == 0 {
            assert!(report.snapshot_loaded, "an empty generation loads");
        }
        let ctx = format!("case {case}");
        assert_urr_identical(durable.urr(), recovered.urr(), &ctx);
        assert_refs_identical(durable.urr(), recovered.urr(), spares, &ctx);
    }
}

/// The recovery property holds through the filesystem backend too:
/// drop the store (process death), reopen the directory, recover.
#[test]
fn urr_recovery_equivalence_fs() {
    let root = std::env::temp_dir().join(format!("mirage-storeprop-{}", std::process::id()));
    let mut rng = Rng::new(0x5eed_0007);
    for case in 0..4 {
        let root = root.join(format!("case{case}"));
        let _ = std::fs::remove_dir_all(&root);
        let config = DurableConfig {
            snapshot_every_batches: [0, 5][case % 2],
            ..DurableConfig::default()
        };
        let store = FsStore::open_with_segment_bytes(&root, 512).expect("open");
        let durable = DurableUrr::new(Box::new(store), config.clone()).expect("new");
        let spares = drive(&mut rng, &durable, 8, 4, 20);
        let reopened = FsStore::open_with_segment_bytes(&root, 512).expect("reopen");
        let (recovered, report) = DurableUrr::recover(Box::new(reopened), config).expect("recover");
        assert_eq!(report.torn_tail, None, "fs case {case}");
        let ctx = format!("fs case {case}");
        assert_urr_identical(durable.urr(), recovered.urr(), &ctx);
        assert_refs_identical(durable.urr(), recovered.urr(), spares, &ctx);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}

/// A fleet's name table as a deployment plan would hand it over: the
/// first `machines` of the names [`drive`] draws from (`m0`, `m1`, …),
/// interned in sorted order — the table is its own index — or in a
/// seeded shuffle of it, which past a handful of names is hashed.
fn fleet_table(machines: usize, sorted: bool, seed: u64) -> Arc<NameTable> {
    let mut names: Vec<String> = (0..machines).map(|i| format!("m{i}")).collect();
    names.sort();
    if !sorted {
        let mut rng = Rng::new(seed);
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below(i + 1));
        }
    }
    let mut table = NameTable::default();
    for name in &names {
        table.intern(name);
    }
    Arc::new(table)
}

/// The recovery property with an **adopted** fleet: the repository
/// takes a plan's name table whole ([`Urr::intern_fleet`]) and is then
/// driven with the usual mixed stream, whose names fall inside the fleet
/// (found in the adopted table) and outside it (the first makes the
/// table private, the rest follow it), with snapshots mid-stream. The
/// adopted names travel as the first frame's machine delta and the head
/// of a snapshot's machine list, so recovery — which is handed no table
/// — must still reproduce every query surface, whether the fleet's
/// names ascend (recovery appends them) or not (recovery hashes them).
/// Along the way: the plan's table never learns an outsider, a by-name
/// deposit for a fleet machine lands on the fleet's ref, adopting the
/// same or an equal table again returns the same refs, and a table that
/// is not equal is interned name by name.
#[test]
fn adopted_fleet_recovery_equivalence() {
    let mut rng = Rng::new(0x5eed_0011);
    for case in 0..24 {
        let sorted = case % 2 == 0;
        let fleet = 1 + rng.below(30);
        // `drive` names machines m0..m{machines}: the tail is outside
        // the fleet.
        let machines = fleet + 1 + rng.below(8);
        let clusters = 1 + rng.below(6);
        let config = DurableConfig {
            snapshot_every_batches: [0, 3][case / 2 % 2],
            ..DurableConfig::default()
        };
        let store = MemoryStore::with_segment_bytes(1 << (6 + case % 8));
        let handle = store.clone();
        let durable = DurableUrr::new(Box::new(store), config.clone()).expect("new");
        let urr = durable.urr();

        let seed = rng.next();
        let table = fleet_table(fleet, sorted, seed);
        let adopted = urr.intern_fleet(Arc::clone(&table));
        assert_eq!(
            adopted, None,
            "case {case}: adopted refs are the table's ids"
        );
        let refs: Vec<MachineRef> = (0..fleet as u32).map(MachineRef).collect();
        let outsider = urr.intern_machine(&format!("m{}", machines - 1));
        assert_eq!(
            outsider,
            MachineRef(fleet as u32),
            "case {case}: dense after"
        );
        assert_eq!(
            table.len(),
            fleet,
            "case {case}: the plan's table is its own"
        );

        let mut spares = drive(&mut rng, &durable, machines, clusters, 12);
        durable.snapshot_now().expect("snapshot_now");

        // One failure by name and one by ref for the same fleet machine:
        // one machine in the group, not two.
        let last = table.name(fleet as u32 - 1);
        let by_name = Report::failure(
            last,
            0,
            "upgrade",
            "r1",
            "adopted/by-name",
            "",
            ReportImage::default(),
        );
        durable.deposit(by_name).expect("deposit");
        let by_ref = InternedReport {
            machine: refs[fleet - 1],
            cluster: 0,
            release: urr.intern_release("upgrade", "r1"),
            outcome: InternedOutcome::Failure(urr.intern_signature("adopted/by-name")),
        };
        durable.deposit_interned_batch(&[by_ref]).expect("deposit");
        assert_eq!(
            urr.machines_for_signature("adopted/by-name"),
            Some(vec![last.to_string()]),
            "case {case}: by-name deposit lands on the fleet's ref"
        );

        // The same table and an equal one (another allocation, the
        // outsider aside) are found name by name now that the
        // repository's copy has grown; a wider one finds every machine
        // already there.
        let by_name = Some(refs.clone());
        assert_eq!(urr.intern_fleet(Arc::clone(&table)), by_name, "case {case}");
        let equal = fleet_table(fleet, sorted, seed);
        assert_eq!(urr.intern_fleet(equal), by_name, "case {case}");
        let wider = fleet_table(machines, sorted, seed);
        let known = urr.intern_machines(wider.names_from(0));
        assert_eq!(
            urr.intern_fleet(Arc::clone(&wider)),
            Some(known.clone()),
            "case {case}"
        );
        assert!(known.contains(&outsider), "case {case}: outsider kept");

        spares.extend(drive(&mut rng, &durable, machines, clusters, 12));
        let crashed = handle.fork();
        let (recovered, report) = DurableUrr::recover(Box::new(crashed), config).expect("recover");
        assert_eq!(report.torn_tail, None, "case {case}");
        let ctx = format!("case {case}");
        assert_urr_identical(urr, recovered.urr(), &ctx);
        let fleet_and_outsiders = (0..machines).map(|i| format!("m{i}"));
        assert_refs_identical(
            urr,
            recovered.urr(),
            fleet_and_outsiders.chain(spares),
            &ctx,
        );
    }
}

/// A repository that still holds the table it adopted recognises the
/// same `Arc` and an equal table without interning a name, and keeps
/// sharing the plan's storage until a stranger arrives.
#[test]
fn adopted_table_is_shared_until_a_stranger_arrives() {
    for sorted in [true, false] {
        let table = fleet_table(20, sorted, 7);
        let urr = Urr::new();
        assert_eq!(urr.intern_fleet(Arc::clone(&table)), None, "adopted");
        let refs: Vec<MachineRef> = (0..20).map(MachineRef).collect();
        assert_eq!(Arc::strong_count(&table), 2, "the repository holds the Arc");
        assert_eq!(urr.intern_fleet(Arc::clone(&table)), None);
        assert_eq!(urr.intern_fleet(fleet_table(20, sorted, 7)), None);
        assert_eq!(urr.intern_machine(table.name(3)), refs[3]);
        assert_eq!(urr.intern_machines(table.names_from(0)), refs);
        assert_eq!(Arc::strong_count(&table), 2, "known names copy nothing");
        assert_eq!(urr.intern_machine("stranger"), MachineRef(20));
        assert_eq!(Arc::strong_count(&table), 1, "the copy is private now");
        assert_eq!(table.get("stranger"), None);
        assert_eq!(urr.intern_fleet(Arc::clone(&table)), Some(refs));
    }
}

/// Names reach the journal in the order they were interned, which need
/// not be any order at all: deltas that descend, that ascend and then
/// fall back, and that ascend throughout replay to the live repository
/// — through the WAL and through a snapshot generation, whose first
/// frame is the whole table as one delta.
#[test]
fn deltas_in_any_order_recover_to_the_live_repository() {
    let descending: fn(usize) -> usize = |i| 999 - i;
    let falls_back: fn(usize) -> usize = |i| if i < 60 { 500 + i } else { i };
    for (order, rank) in [
        ("descending", descending),
        ("ascending, then back below", falls_back),
        ("ascending", |i| i),
    ] {
        for snapshot in [false, true] {
            let store = MemoryStore::with_segment_bytes(512);
            let handle = store.clone();
            let durable = DurableUrr::new(Box::new(store), manual_snapshots()).expect("new");
            let urr = durable.urr();
            let release = urr.intern_release("upgrade", "r1");
            let mut names = Vec::new();
            for batch in 0..6 {
                // Twenty new names a frame, the frame's records for
                // every other one.
                let fresh: Vec<String> = (batch * 20..batch * 20 + 20)
                    .map(|i| format!("m{:03}", rank(i)))
                    .collect();
                let refs = urr.intern_machines(fresh.iter().map(String::as_str));
                let recs: Vec<InternedReport> = (refs.iter().step_by(2))
                    .map(|&machine| InternedReport {
                        machine,
                        cluster: batch as u32,
                        release,
                        outcome: InternedOutcome::Failure(urr.intern_signature("php/crash")),
                    })
                    .collect();
                durable.deposit_interned_batch(&recs).expect("deposit");
                names.extend(fresh);
                if snapshot && batch == 3 {
                    durable.snapshot_now().expect("snapshot_now");
                }
            }
            let (recovered, report) =
                DurableUrr::recover(Box::new(handle.fork()), manual_snapshots()).expect("recover");
            let ctx = format!("{order}, snapshot={snapshot}");
            assert_eq!(report.torn_tail, None, "{ctx}");
            assert_eq!(report.snapshot_loaded, snapshot, "{ctx}");
            assert_urr_identical(urr, recovered.urr(), &ctx);
            assert_refs_identical(urr, recovered.urr(), names, &ctx);
        }
    }
}

/// Snapshots only where a test takes one.
fn manual_snapshots() -> DurableConfig {
    DurableConfig {
        snapshot_every_batches: 0,
        ..DurableConfig::default()
    }
}

/// A generation is the log compacted, so it cannot outgrow it: a
/// stream's first generation is no larger than the WAL it truncates,
/// and a later one no larger than the generation before it plus the WAL
/// it truncates — for payload-free and payload-carrying records alike.
#[test]
fn checkpoint_is_no_larger_than_the_log_it_replaces() {
    for payloads in [false, true] {
        let mut rng = Rng::new(0x5eed_0012);
        let store = MemoryStore::new();
        let handle = store.clone();
        let durable = DurableUrr::new(Box::new(store), manual_snapshots()).expect("new");
        let mut previous = 0;
        for round in 0..3 {
            for _ in 0..20 {
                let len = 1 + rng.below(300);
                if payloads {
                    let batch = (0..len).map(|_| random_report(&mut rng, 500, 6)).collect();
                    durable.deposit_batch(batch).expect("deposit_batch");
                } else {
                    let batch = random_interned_batch(&mut rng, durable.urr(), 500, 6, len);
                    durable.deposit_interned_batch(&batch).expect("deposit");
                }
            }
            let wal: usize = (handle.wal_segments().expect("segments").iter())
                .map(|s| s.len())
                .sum();
            durable.snapshot_now().expect("snapshot_now");
            let segments = handle.wal_segments().expect("segments");
            assert!(segments.is_empty(), "the log is truncated");
            let generation = handle.snapshots().expect("snapshots")[0].len();
            assert!(
                generation <= previous + wal,
                "payloads={payloads} round {round}: a {generation}-byte generation replaced \
                 {previous} + {wal} bytes"
            );
            previous = generation;
        }
    }
}

// ---------------------------------------------------------------------
// Hostile-WAL corpus
// ---------------------------------------------------------------------

/// Builds a store with some journaled history: `full_batches` batches,
/// an optional mid-stream snapshot. Returns the store handle and the
/// live durable (kept alive so tests can compare prefixes).
fn journaled_history(snapshot_mid: bool) -> (MemoryStore, DurableUrr) {
    let mut rng = Rng::new(0xc0_ffee);
    let store = MemoryStore::with_segment_bytes(256);
    let handle = store.clone();
    let durable = DurableUrr::new(Box::new(store), manual_snapshots()).expect("new");
    for i in 0..12 {
        let batch: Vec<Report> = (0..1 + rng.below(6))
            .map(|_| random_report(&mut rng, 10, 4))
            .collect();
        durable.deposit_batch(batch).expect("deposit");
        if snapshot_mid && i == 5 {
            durable.snapshot_now().expect("snapshot");
        }
    }
    (handle, durable)
}

fn recover_must_not_panic(store: MemoryStore, live: &DurableUrr, ctx: &str) {
    let (recovered, report) = DurableUrr::recover(Box::new(store), manual_snapshots())
        .unwrap_or_else(|e| panic!("{ctx}: store error {e}"));
    // Whatever survived must be a *prefix* of the live history: never
    // more records than the live repository, and every answered query
    // must come from a self-consistent repository.
    let live_seq = live.urr().next_seq();
    let got_seq = recovered.urr().next_seq();
    assert!(
        got_seq <= live_seq,
        "{ctx}: recovered {got_seq} past live {live_seq} (report {report:?})"
    );
    let stats = recovered.urr().stats();
    assert_eq!(
        stats.successes + stats.failures,
        stats.total,
        "{ctx}: inconsistent stats"
    );
    // Exercise the full query surface over the damaged recovery.
    let _ = recovered.urr().failure_groups();
    let _ = recovered.urr().top_k_failure_groups(3);
    let _ = recovered.urr().cluster_failure_rates();
    let _ = recovered.urr().release_summaries();
    let _ = recovered.urr().to_json();
    let _ = recovered.urr().snapshot();
}

/// Splits a run of frames at the boundaries their headers give
/// (`magic u32 | kind u8 | payload_len u32 | crc32 u32 | payload`).
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[5..9].try_into().expect("4 bytes")) as usize;
        let (frame, tail) = rest.split_at(13 + len);
        out.push(frame);
        rest = tail;
    }
    out
}

/// Generations whose every frame passes its checksum but which are not
/// the log they claim to be. Each is rejected **whole**: recovery counts
/// it, falls back to the generation before it, and shows no record of
/// the bad one. The fallback cannot be lossless — the log between the
/// two generations was truncated when the newer one landed — so the
/// prefix ends at the older generation and `torn_tail` names the gap.
fn crc_valid_but_wrong_generations_are_rejected_whole() {
    // `records` interned records over `machines` machines, journaled
    // in batches of 1 000.
    let deposit = |durable: &DurableUrr, machines: usize, records: usize| {
        let mut rng = Rng::new(0xbad_6e4);
        let batch = random_interned_batch(&mut rng, durable.urr(), machines, 4, records);
        for chunk in batch.chunks(1_000) {
            durable.deposit_interned_batch(chunk).expect("deposit");
        }
    };
    // An older generation of exactly one frame over three machines, a
    // newer one of several frames over fifty, and a two-frame WAL tail.
    let store = MemoryStore::new();
    let handle = store.clone();
    let live = DurableUrr::new(Box::new(store), manual_snapshots()).expect("new");
    deposit(&live, 3, 4_096);
    live.snapshot_now().expect("older generation");
    let (older, _) =
        DurableUrr::recover(Box::new(handle.fork()), manual_snapshots()).expect("recover");
    deposit(&live, 50, 10_000);
    live.snapshot_now().expect("newer generation");
    deposit(&live, 50, 2_000);
    let [newest, oldest] = &handle.snapshots().expect("snapshots")[..] else {
        panic!("two generations are kept");
    };
    let (newest, oldest) = (frames(newest), frames(oldest));
    assert!(newest.len() >= 4, "the generation spans several frames");
    let tail: Vec<u8> = (handle.wal_segments().expect("segments").iter())
        .flat_map(|s| s.iter().copied())
        .collect();
    let later = *frames(&tail).last().expect("tail frame");

    let dropped = [&newest[..1], &newest[2..]].concat().concat();
    // The older tables under the newer records: the second frame starts
    // where the first ends, and names machines the tables lack.
    let foreign = [&oldest[..], &newest[1..]].concat().concat();
    let trailed = [newest.concat(), b"MRF1 garbage".to_vec()].concat();
    let spliced = [&newest[..], &[later]].concat().concat();
    for (shape, wrong) in [
        ("a frame dropped from the middle", dropped),
        ("a frame with an out-of-range id", foreign),
        ("a generation followed by garbage", trailed),
        ("a later WAL frame spliced in", spliced),
    ] {
        let crashed = handle.fork();
        crashed.mutate(|_, snapshots| *snapshots.last_mut().expect("newest") = wrong);
        let (recovered, report) = DurableUrr::recover(Box::new(crashed), manual_snapshots())
            .unwrap_or_else(|e| panic!("{shape}: store error {e}"));
        assert_eq!(report.snapshots_rejected, 1, "{shape}");
        assert!(report.snapshot_loaded, "{shape}: fell back a generation");
        assert!(report.torn_tail.is_some(), "{shape}: the gap is named");
        assert_urr_identical(older.urr(), recovered.urr(), shape);
    }
    // Undamaged, the same image recovers everything.
    let (recovered, report) =
        DurableUrr::recover(Box::new(handle.fork()), manual_snapshots()).expect("ok");
    assert_eq!((report.snapshots_rejected, report.torn_tail), (0, None));
    assert_urr_identical(live.urr(), recovered.urr(), "undamaged");
}

/// Crash-consistency gate (run by name in CI, release mode): every
/// shape in the hostile-WAL corpus — truncated record, bit-flipped
/// checksum, zero-length segment, duplicated tail frame, garbage
/// appends, torn snapshot, checksummed-but-wrong snapshot — recovers or
/// rejects cleanly. Never panics.
#[test]
fn hostile_wal_corpus_never_panics() {
    for snapshot_mid in [false, true] {
        // Truncated trailing record: cut the last segment at every
        // length (byte-granular for short tails, strided for long).
        let (handle, live) = journaled_history(snapshot_mid);
        let total = handle
            .fork()
            .wal_segments()
            .expect("segments")
            .last()
            .map_or(0, |s| s.len());
        let mut cut = 0;
        while cut <= total {
            let crashed = handle.fork();
            crashed.mutate(|segments, _| {
                if let Some(last) = segments.last_mut() {
                    let keep = last.len() - cut.min(last.len());
                    last.truncate(keep);
                }
            });
            recover_must_not_panic(
                crashed,
                &live,
                &format!("truncate cut={cut} snap={snapshot_mid}"),
            );
            cut += 1 + cut / 7;
        }

        // Bit-flipped checksum/body: flip one bit at strided offsets in
        // every segment.
        let crashed = handle.fork();
        let n_segments = crashed.wal_segments().expect("segments").len();
        for seg in 0..n_segments {
            for stride in 0..8 {
                let crashed = handle.fork();
                crashed.mutate(|segments, _| {
                    let s = &mut segments[seg];
                    if !s.is_empty() {
                        let i = (s.len() / 8) * stride % s.len();
                        s[i] ^= 1 << (stride % 8);
                    }
                });
                recover_must_not_panic(
                    crashed,
                    &live,
                    &format!("bitflip seg={seg} stride={stride} snap={snapshot_mid}"),
                );
            }
        }

        // Zero-length segment spliced into the chain.
        for at in 0..=n_segments {
            let crashed = handle.fork();
            crashed.mutate(|segments, _| segments.insert(at, Vec::new()));
            recover_must_not_panic(
                crashed,
                &live,
                &format!("empty seg at={at} snap={snapshot_mid}"),
            );
        }

        // Duplicated tail frame: re-append the last segment's bytes (the
        // classic rewrite-after-partial-flush shape). Recovery must skip
        // the duplicates, not double-count.
        let crashed = handle.fork();
        crashed.mutate(|segments, _| {
            if let Some(last) = segments.last().cloned() {
                segments.push(last);
            }
        });
        let (recovered, report) =
            DurableUrr::recover(Box::new(crashed), manual_snapshots()).expect("recover dup tail");
        assert!(report.frames_skipped > 0, "duplicate frames were skipped");
        assert_urr_identical(
            live.urr(),
            recovered.urr(),
            &format!("dup tail snap={snapshot_mid}"),
        );

        // Garbage appended after valid frames.
        for garbage in [&[0xffu8; 3][..], &[0u8; 64][..], b"MRF1MRF1MRF1"] {
            let crashed = handle.fork();
            crashed.mutate(|segments, _| {
                if let Some(last) = segments.last_mut() {
                    last.extend_from_slice(garbage);
                }
            });
            recover_must_not_panic(
                crashed,
                &live,
                &format!("garbage {:02x?} snap={snapshot_mid}", &garbage[..2]),
            );
        }

        // Torn / corrupt snapshots: recovery falls back to the previous
        // generation or to WAL-only replay.
        if snapshot_mid {
            for shape in 0..3 {
                let crashed = handle.fork();
                crashed.mutate(|_, snapshots| match shape {
                    0 => {
                        for s in snapshots.iter_mut() {
                            s.truncate(s.len() / 2);
                        }
                    }
                    1 => {
                        for s in snapshots.iter_mut() {
                            if !s.is_empty() {
                                let mid = s.len() / 2;
                                s[mid] ^= 0x10;
                            }
                        }
                    }
                    _ => snapshots.push(b"not a snapshot".to_vec()),
                });
                recover_must_not_panic(crashed, &live, &format!("snapshot shape={shape}"));
            }
            crc_valid_but_wrong_generations_are_rejected_whole();
        }
    }
}

/// An undamaged duplicate-free WAL with a *gap* (a dropped middle
/// segment) must not silently stitch the halves together.
#[test]
fn wal_gap_stops_replay() {
    let (handle, live) = journaled_history(false);
    let crashed = handle.fork();
    let n = crashed.wal_segments().expect("segments").len();
    if n < 3 {
        // Segment size guarantees several segments; guard anyway.
        return;
    }
    crashed.mutate(|segments, _| {
        segments.remove(1);
    });
    let (recovered, report) =
        DurableUrr::recover(Box::new(crashed), manual_snapshots()).expect("recover");
    assert!(report.torn_tail.is_some(), "gap must be reported");
    assert!(recovered.urr().next_seq() < live.urr().next_seq());
}

// ---------------------------------------------------------------------
// Decoders past the checksum
// ---------------------------------------------------------------------

/// CRC-32 (IEEE, reflected), one bit at a time: the checksum a frame
/// header carries over its kind byte and payload.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |mut crc, &b| {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
        }
        crc
    })
}

/// `payload` sealed as a frame of `kind`: magic, kind, length and a
/// checksum that matches, so the frame scanner hands it on to decode.
fn sealed(kind: u8, payload: &[u8]) -> Vec<u8> {
    let crc = crc32(&[&[kind][..], payload].concat());
    let len = u32::try_from(payload.len()).expect("a small frame");
    [
        &b"MRF1"[..],
        &[kind],
        &len.to_le_bytes(),
        &crc.to_le_bytes(),
        payload,
    ]
    .concat()
}

/// A small journal to mutate: boundary batches carrying failure detail
/// and report images, interned batches with fresh names, one generation
/// and a WAL tail behind it over several segments.
fn history_to_mutate() -> (MemoryStore, DurableUrr) {
    let mut rng = Rng::new(0x5eed_00c5);
    let store = MemoryStore::with_segment_bytes(1 << 9);
    let durable = DurableUrr::new(Box::new(store.clone()), manual_snapshots()).expect("new");
    for batch in 0..14 {
        if batch % 2 == 0 {
            let reports = (0..1 + rng.below(4))
                .map(|_| random_report(&mut rng, 12, 4))
                .collect();
            durable.deposit_batch(reports).expect("deposit_batch");
        } else {
            let len = 1 + rng.below(12);
            let recs = random_interned_batch(&mut rng, durable.urr(), 12, 4, len);
            durable.deposit_interned_batch(&recs).expect("deposit");
        }
        if batch == 5 {
            durable.snapshot_now().expect("snapshot_now");
        }
    }
    (store, durable)
}

/// One to three edits of `payload`: a flipped bit, a byte or a `u32`
/// set to a boundary value, a cut, bytes inserted, deleted or repeated.
fn mutate_payload(rng: &mut Rng, payload: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(payload.len() + 1);
        match rng.below(7) {
            0 if at < payload.len() => payload[at] ^= 1 << rng.below(8),
            1 if at < payload.len() => {
                payload[at] = [0, 1, 0x7f, 0x80, 0xff, rng.next() as u8][rng.below(6)];
            }
            2 if at + 4 <= payload.len() => {
                let len = payload.len() as u32;
                let value = [0, 1, 16, len, len + 1, u32::MAX, 1 << 31][rng.below(7)];
                payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            3 => payload.truncate(at),
            4 => {
                let bytes: Vec<u8> = (0..1 + rng.below(4)).map(|_| rng.next() as u8).collect();
                payload.splice(at..at, bytes);
            }
            5 => {
                let end = (at + 1 + rng.below(17)).min(payload.len());
                payload.drain(at..end);
            }
            _ => {
                let end = (at + 1 + rng.below(17)).min(payload.len());
                let run = payload[at..end].to_vec();
                payload.splice(at..at, run);
            }
        }
    }
}

/// Recovery from a journal one of whose frames — in the WAL or in the
/// generation — had its payload mutated and its checksum re-sealed, so
/// the damage reaches `WalFrame::decode`, the delta interning, the id
/// check and the row insert behind the checksum: `cases` seeded cases,
/// each of which recovers without a panic, either stopping at a torn
/// tail or rejecting the generation, or returning a repository that
/// answers every query consistently and takes further deposits. Returns
/// how many mutated frames replayed cleanly.
fn mutated_frames_recover(cases: usize) -> usize {
    let (store, _live) = history_to_mutate();
    // Every frame, as (generation?, buffer, byte range in it).
    let mut spots = Vec::new();
    for (generation, buffers) in [
        (false, store.wal_segments().expect("segments")),
        (true, store.snapshots().expect("snapshots")),
    ] {
        for (buffer, bytes) in buffers.iter().enumerate() {
            let mut at = 0;
            for frame in frames(bytes) {
                spots.push((generation, buffer, at..at + frame.len()));
                at += frame.len();
            }
        }
    }
    assert!(spots.len() >= 8, "the journal has frames to mutate");
    let mut rng = Rng::new(0x5eed_0048);
    let mut applied = 0;
    for case in 0..cases {
        let (generation, buffer, range) = spots[rng.below(spots.len())].clone();
        let crashed = store.fork();
        crashed.mutate(|segments, snapshots| {
            let bytes = if generation {
                &mut snapshots[buffer]
            } else {
                &mut segments[buffer]
            };
            let kind = bytes[range.start + 4];
            let mut payload = bytes[range.start + 13..range.end].to_vec();
            mutate_payload(&mut rng, &mut payload);
            bytes.splice(range, sealed(kind, &payload));
        });
        let (recovered, report) = DurableUrr::recover(Box::new(crashed), manual_snapshots())
            .unwrap_or_else(|e| panic!("case {case}: store error {e}"));
        if report.torn_tail.is_none() && report.snapshots_rejected == 0 {
            applied += 1;
        }
        let urr = recovered.urr();
        let stats = urr.stats();
        let ctx = format!("case {case} ({report:?})");
        assert_eq!(stats.total as u64, urr.next_seq(), "{ctx}");
        assert_eq!(stats.successes + stats.failures, stats.total, "{ctx}");
        assert_eq!(urr.all().len(), stats.total, "{ctx}");
        let groups = urr.failure_groups();
        assert_eq!(groups.len(), stats.distinct_failures, "{ctx}");
        let _ = urr.top_k_failure_groups(3);
        let _ = urr.cluster_failure_rates();
        let _ = urr.release_summaries();
        let _ = urr.snapshot();
        // The repository recovery returned is one the store insert can
        // keep filing into, journaled.
        let next = recovered
            .deposit(random_report(&mut rng, 12, 4))
            .unwrap_or_else(|e| panic!("{ctx}: store error {e}"));
        assert_eq!(next as usize, stats.total, "{ctx}");
        let recs = random_interned_batch(&mut rng, urr, 12, 4, 3);
        recovered.deposit_interned_batch(&recs).expect("deposit");
    }
    applied
}

/// Decoders past the checksum, in tier 1: 10 000 mutated and re-sealed
/// frames recover cleanly, and a share of them replays as data.
#[test]
fn resealed_mutated_frames_recover_cleanly() {
    let applied = mutated_frames_recover(10_000);
    assert!(
        applied > 100,
        "only {applied} of 10 000 mutated frames replayed cleanly"
    );
}

/// The same property over 1 000 000 cases (release mode, by hand).
#[test]
#[ignore]
fn resealed_mutated_frames_recover_cleanly_deep() {
    mutated_frames_recover(1_000_000);
}

// ---------------------------------------------------------------------
// The journal's bytes
// ---------------------------------------------------------------------

/// The digests of the journal a seeded deposit sequence writes,
/// recorded from the tree that first wrote this format: one line per
/// case, `#` lines are comments.
const JOURNAL_BYTES: &str = include_str!("journal_bytes.txt");

/// FNV-1a, 64-bit, over a run of byte buffers as one.
fn fnv1a64<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    (parts.into_iter().flatten()).fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The record's line for one case: the WAL segments and the snapshot
/// generations as counts, lengths and digests.
fn journal_line(case: usize, urr: &Urr, store: &MemoryStore) -> String {
    let wal = store.wal_segments().expect("segments");
    let generations = store.snapshots().expect("snapshots");
    let bytes = |list: &[Arc<Vec<u8>>]| list.iter().map(|b| b.len()).sum::<usize>();
    format!(
        "{case} seq={} wal_segments={} wal_bytes={} wal={:016x} generations={} \
         generation_bytes={} generation={:016x}",
        urr.next_seq(),
        wal.len(),
        bytes(&wal),
        fnv1a64(wal.iter().map(|s| s.as_slice())),
        generations.len(),
        bytes(&generations),
        fnv1a64(generations.iter().map(|g| g.as_slice())),
    )
}

/// The on-disk format does not move: a seeded sequence of boundary
/// batches (failure detail and report images included) and interned
/// batches, with one `snapshot_now` partway, journals exactly the bytes
/// recorded in `journal_bytes.txt`, WAL segments and generation alike.
/// A deliberate format change edits the record by hand.
#[test]
fn journal_bytes_match_the_record() {
    let mut record = JOURNAL_BYTES.lines().filter(|l| !l.starts_with('#'));
    let mut rng = Rng::new(0x5eed_0047);
    for case in 0..8 {
        let machines = 2 + rng.below(40);
        let clusters = 1 + rng.below(6);
        let batches = 2 + rng.below(10);
        let snapshot_at = rng.below(batches);
        let store = MemoryStore::with_segment_bytes(1 << (10 + case % 8));
        let durable = DurableUrr::new(Box::new(store.clone()), manual_snapshots()).expect("new");
        for batch in 0..batches {
            if rng.chance(50) {
                let reports = (0..1 + rng.below(8))
                    .map(|_| random_report(&mut rng, machines, clusters))
                    .collect();
                durable.deposit_batch(reports).expect("deposit_batch");
            } else {
                let len = 1 + rng.below(2_500);
                let recs = random_interned_batch(&mut rng, durable.urr(), machines, clusters, len);
                durable.deposit_interned_batch(&recs).expect("deposit");
            }
            if batch == snapshot_at {
                durable.snapshot_now().expect("snapshot_now");
            }
        }
        let got = journal_line(case, durable.urr(), &store);
        assert_eq!(
            record.next(),
            Some(got.as_str()),
            "case {case}: the journal's bytes moved; the sequence writes\n{got}"
        );
    }
    assert_eq!(record.next(), None, "the record has no more cases");
}
