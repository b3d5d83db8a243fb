//! [`DurableUrr`]: the journaled repository and its crash recovery.
//!
//! `DurableUrr` wraps a live [`Urr`] and a pluggable [`UrrStore`].
//! Every deposit batch is encoded as one frame (intern-table deltas +
//! id records, see [`crate::storage::wal`]), appended to the store
//! **before** the records are applied, and then applied through the
//! same store insert recovery replays through.
//! Periodically — every `snapshot_every_batches`, or on
//! [`DurableUrr::snapshot_now`] — the repository is written out as a
//! snapshot **generation** and the WAL is truncated. A generation is
//! the log compacted, not a second format: a run of the same frames,
//! the first starting at sequence 0 with the three intern tables whole,
//! the records following in sequence order. The archive keeps every
//! report, so a generation is no smaller than the log it replaces and
//! loads no faster; it bounds the number of frames and segments a
//! recovery reads, nothing else. Its frames are written into one buffer
//! that is handed to the store by value, so a memory store keeps that
//! buffer rather than a copy of it.
//!
//! [`DurableUrr::recover`] rebuilds the repository after a crash with
//! one replay loop. The newest generation is replayed into a fresh
//! repository and taken only if every frame of it applies; otherwise it
//! is rejected whole and the previous one is tried, then empty. The WAL
//! segments are replayed on top in order: frames the generation already
//! covers are skipped (the duplicate-tail shape), the first torn,
//! truncated, corrupt or gapped frame ends the replay with the prefix
//! kept, and hostile bytes never panic; a name delta that is refused
//! leaves none of its names behind. Nothing derived is read from disk:
//! every index of a recovered repository was built by the store
//! insert, as in live ingest. Replay reads the bytes the store shares
//! out (`Arc`s of its segments and generations) in place: a frame's
//! checksum and decode borrow them, and a name delta is appended to its
//! table with one copy while its names ascend.
//!
//! A journal mutex serialises deposits, snapshots, and delta
//! accounting. A journaled deposit takes it, then the repository's
//! lock, and claims its sequence range, appends its frame and stores
//! its records under that one acquisition of the repository's lock;
//! queries and [`Urr::snapshot`] freezes take the repository's lock
//! alone, so a freeze never sees a frame half applied.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, RwLockReadGuard};

use mirage_telemetry::names::NameTable;
use mirage_telemetry::Telemetry;

use crate::report::Report;
use crate::storage::frame::{put_frame, FrameScanner, HEADER_LEN, KIND_WAL_BATCH};
use crate::storage::wal::{encode_wal_frame, wal_payload_len, WalFrame};
use crate::storage::{StoreError, UrrStore, WireError};
use crate::urr::{file_from, InternedReport, Payload, Payloads, ReleaseInterner, Row, Store, Urr};

/// Records per frame of a snapshot generation: the simulator's flush
/// size, so a generation's frames look like the batches they compact
/// and stay orders of magnitude below the frame payload cap.
const GENERATION_FRAME_RECS: usize = 4096;

/// Construction/recovery options for [`DurableUrr`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Write a snapshot generation (and truncate the WAL) after this
    /// many journaled batches; `0` disables automatic snapshots.
    pub snapshot_every_batches: u64,
    /// Telemetry handle for `urr.*`, `urr.wal_*`, and `urr.snapshot_*`
    /// counters.
    pub telemetry: Telemetry,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            snapshot_every_batches: 512,
            telemetry: Telemetry::noop(),
        }
    }
}

impl DurableConfig {
    /// An empty repository as this configuration shapes it.
    fn fresh_urr(&self) -> Urr {
        Urr::new().with_telemetry(self.telemetry.clone())
    }
}

/// What [`DurableUrr::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot generation was loaded (false: recovered from WAL
    /// alone).
    pub snapshot_loaded: bool,
    /// Snapshot generations that did not replay cleanly end to end and
    /// were rejected whole.
    pub snapshots_rejected: usize,
    /// WAL frames replayed onto the snapshot.
    pub(crate) frames_replayed: usize,
    /// Records contained in the replayed frames.
    pub(crate) records_replayed: u64,
    /// Frames skipped because the snapshot already covered them (the
    /// duplicated-tail crash shape).
    pub frames_skipped: usize,
    /// Why replay stopped before the end of the WAL, if it did — a
    /// torn, truncated, or corrupt tail record, or a sequence gap (the
    /// shape a fallback to the older generation leaves: the log between
    /// the two generations was truncated when the newer one landed).
    pub torn_tail: Option<String>,
}

/// The journaled, crash-recoverable Upgrade Report Repository.
///
/// # Examples
///
/// ```
/// use mirage_report::{DurableConfig, DurableUrr, MemoryStore, Report};
/// let store = MemoryStore::new();
/// let durable = DurableUrr::new(Box::new(store), DurableConfig::default()).unwrap();
/// durable.deposit(Report::success("m1", 0, "mysql", "5.0.27")).unwrap();
/// assert_eq!(durable.urr().stats().total, 1);
/// ```
#[derive(Debug)]
pub struct DurableUrr {
    urr: Arc<Urr>,
    journal: Mutex<Journal>,
}

/// Interner lengths a run of frames has covered.
#[derive(Debug, Clone, Copy, Default)]
struct Persisted {
    machines: usize,
    sigs: usize,
    releases: usize,
}

#[derive(Debug)]
struct Journal {
    store: Box<dyn UrrStore>,
    /// What the journaled frames cover; the next frame's deltas start
    /// here.
    persisted: Persisted,
    batches_since_snapshot: u64,
    snapshot_every: u64,
}

/// The repository's three intern tables, read-locked while journaled
/// batch frames are sized and written out of them: the deltas are
/// written straight out of the tables, so the locks are held for the
/// encode and no longer.
struct Tables<'a> {
    machines: RwLockReadGuard<'a, Arc<NameTable>>,
    sigs: RwLockReadGuard<'a, NameTable>,
    releases: RwLockReadGuard<'a, ReleaseInterner>,
}

impl<'a> Tables<'a> {
    fn read(urr: &'a Urr) -> Self {
        Tables {
            machines: urr.machines.read().expect("urr poisoned"),
            sigs: urr.sigs.read().expect("urr poisoned"),
            releases: urr.releases.read().expect("urr poisoned"),
        }
    }

    /// What a frame written from these tables brings the journal to.
    fn persisted(&self) -> Persisted {
        Persisted {
            machines: self.machines.len(),
            sigs: self.sigs.len(),
            releases: self.releases.pairs.len(),
        }
    }

    /// The bytes [`Tables::put`] writes for `rows` rows and the same
    /// other arguments.
    fn frame_len(&self, persisted: Persisted, rows: usize, payloads: &[(u64, Payload)]) -> usize {
        HEADER_LEN
            + wal_payload_len(
                self.machines.run_from(persisted.machines),
                self.sigs.run_from(persisted.sigs),
                &self.releases.pairs[persisted.releases..],
                rows,
                payloads,
            )
    }

    /// Appends one journaled-batch frame to `buf`: every table entry
    /// past `persisted`, then `rows` from `start_seq` on with their
    /// `payloads`.
    fn put(
        &self,
        buf: &mut Vec<u8>,
        persisted: Persisted,
        start_seq: u64,
        rows: impl ExactSizeIterator<Item = Row>,
        payloads: &[(u64, Payload)],
    ) {
        put_frame(buf, KIND_WAL_BATCH, |buf| {
            encode_wal_frame(
                buf,
                start_seq,
                self.machines.run_from(persisted.machines),
                self.sigs.run_from(persisted.sigs),
                &self.releases.pairs[persisted.releases..],
                rows,
                payloads,
            )
        });
    }
}

/// Replays a run of journaled frames onto `urr`: the one loop under a
/// snapshot generation and a WAL segment. Returns why it stopped if it
/// stopped before a clean end of `bytes`; every frame before that one
/// has been applied.
fn replay(bytes: &[u8], urr: &Urr, report: &mut RecoveryReport) -> Result<(), String> {
    let torn = |e: WireError| e.to_string();
    let mut scanner = FrameScanner::new(bytes);
    while let Some(item) = scanner.next_frame() {
        let (kind, payload) = item.map_err(torn)?;
        if kind != KIND_WAL_BATCH {
            return Err(format!("unexpected frame kind {kind} in wal"));
        }
        let frame = WalFrame::decode(payload).map_err(torn)?;
        let n = frame.rows.len() as u64;
        let mut store = urr.lock();
        let expected = store.next_seq();
        // A duplicate (a rewritten tail) lies wholly below the
        // watermark. A record-less frame *at* the watermark does not:
        // its deltas are not interned yet.
        if frame.start_seq < expected && frame.start_seq + n <= expected {
            report.frames_skipped += 1;
            continue;
        }
        // A gap means lost frames, so the remainder is untrustworthy.
        if frame.start_seq != expected {
            return Err(format!(
                "wal sequence gap: frame starts at {} but repository is at {expected}",
                frame.start_seq
            ));
        }
        frame.intern_deltas(urr).map_err(torn)?;
        frame.validate_ids(urr).map_err(torn)?;
        let (sigs, releases) = urr.table_lens();
        store.insert(frame.rows.iter().copied(), frame.payloads, sigs, releases);
        report.frames_replayed += 1;
        report.records_replayed += n;
    }
    Ok(())
}

impl DurableUrr {
    /// Creates an empty journaled repository over `store`.
    pub fn new(store: Box<dyn UrrStore>, config: DurableConfig) -> Result<Self, StoreError> {
        Ok(DurableUrr {
            urr: Arc::new(config.fresh_urr()),
            journal: Mutex::new(Journal {
                store,
                persisted: Persisted::default(),
                batches_since_snapshot: 0,
                snapshot_every: config.snapshot_every_batches,
            }),
        })
    }

    /// Recovers a journaled repository from `store`: the newest
    /// snapshot generation that replays cleanly, plus WAL-tail replay.
    /// Infallible with respect to data corruption (a damaged tail is
    /// discarded, never panicked on); only store I/O errors surface as
    /// `Err`.
    pub fn recover(
        store: Box<dyn UrrStore>,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let mut report = RecoveryReport::default();
        let mut urr = config.fresh_urr();
        for generation in store.snapshots()? {
            // All or nothing, into a repository of its own: a
            // generation that stops early is missing records the
            // truncated WAL no longer has, and an older one must not
            // start from what it left behind.
            let candidate = config.fresh_urr();
            let mut scratch = RecoveryReport::default();
            if replay(&generation, &candidate, &mut scratch).is_ok() && scratch.frames_replayed > 0
            {
                urr = candidate;
                report.snapshot_loaded = true;
                break;
            }
            report.snapshots_rejected += 1;
        }
        for segment in store.wal_segments()? {
            if let Err(why) = replay(&segment, &urr, &mut report) {
                report.torn_tail = Some(why);
                break;
            }
        }
        urr.telemetry
            .counter("urr.wal_replayed_frames", report.frames_replayed as u64);
        urr.telemetry
            .counter("urr.wal_replayed_records", report.records_replayed);
        if report.snapshot_loaded {
            urr.telemetry.counter("urr.snapshot_loads", 1);
        }
        let persisted = Persisted {
            machines: urr.machines.read().expect("urr poisoned").len(),
            sigs: urr.sigs.read().expect("urr poisoned").len(),
            releases: urr.releases.read().expect("urr poisoned").pairs.len(),
        };
        let durable = DurableUrr {
            urr: Arc::new(urr),
            journal: Mutex::new(Journal {
                store,
                persisted,
                batches_since_snapshot: report.frames_replayed as u64,
                snapshot_every: config.snapshot_every_batches,
            }),
        };
        Ok((durable, report))
    }

    /// The live repository, for queries, interning, and
    /// [`Urr::snapshot`] freezes. Deposits must go through the durable
    /// layer — records deposited directly on this handle are not
    /// journaled and will not survive recovery.
    pub fn urr(&self) -> &Arc<Urr> {
        &self.urr
    }

    /// Journals and applies one boundary report; returns its sequence
    /// number.
    pub fn deposit(&self, report: Report) -> Result<u64, StoreError> {
        Ok(self.deposit_batch(vec![report])?.start)
    }

    /// Journals and applies a batch of boundary reports (one WAL frame,
    /// one contiguous sequence range).
    pub fn deposit_batch(&self, reports: Vec<Report>) -> Result<Range<u64>, StoreError> {
        let journal = self.journal.lock().expect("durable urr poisoned");
        let (rows, mut payloads) = self.urr.lower(reports);
        let store = self.urr.lock();
        file_from(&mut payloads, store.next_seq());
        self.journal_and_apply(journal, store, rows.iter().copied(), payloads)
    }

    /// Journals and applies a batch of pre-interned records — the
    /// simulator's hot path, journaled. The frame is written from the
    /// reports and they are filed through the store insert as rows: no
    /// copy of the batch is made.
    pub fn deposit_interned_batch(
        &self,
        recs: &[InternedReport],
    ) -> Result<Range<u64>, StoreError> {
        let journal = self.journal.lock().expect("durable urr poisoned");
        self.journal_and_apply(
            journal,
            self.urr.lock(),
            recs.iter().map(Row::interned),
            Payloads::new(),
        )
    }

    /// The shared journal-then-apply path: `rows` and their `payloads`
    /// are a batch interned and filed from the repository's next
    /// sequence number. The journal lock is held throughout, and the
    /// repository's from claiming the sequence range to storing the
    /// rows, so the deltas, the range, the store append and the rows are
    /// one atomic step with respect to other depositors and to readers.
    /// A failed append stores nothing and claims nothing. An empty batch
    /// is not journaled: a frame without records has no sequence number
    /// of its own to be told from its neighbours by.
    fn journal_and_apply(
        &self,
        mut journal: MutexGuard<'_, Journal>,
        mut store: MutexGuard<'_, Store>,
        rows: impl ExactSizeIterator<Item = Row> + Clone,
        payloads: Payloads,
    ) -> Result<Range<u64>, StoreError> {
        let start = store.next_seq();
        if rows.len() == 0 {
            return Ok(start..start);
        }
        // The frame is sized first and encoded straight into the store.
        let tables = Tables::read(&self.urr);
        let from = journal.persisted;
        let len = tables.frame_len(from, rows.len(), &payloads);
        let mut write =
            |segment: &mut Vec<u8>| tables.put(segment, from, start, rows.clone(), &payloads);
        let rotated = journal.store.append_frame_with(len, &mut write)?;
        let persisted = tables.persisted();
        journal.persisted = persisted;
        drop(tables);
        let range = store.insert(rows, payloads, persisted.sigs, persisted.releases);
        drop(store);
        let telemetry = &self.urr.telemetry;
        telemetry.counter("urr.wal_frames", 1);
        telemetry.counter("urr.wal_bytes", len as u64);
        if rotated {
            telemetry.counter("urr.wal_rotations", 1);
        }
        self.urr.note_batch(range.end - range.start);
        journal.batches_since_snapshot += 1;
        if journal.snapshot_every > 0 && journal.batches_since_snapshot >= journal.snapshot_every {
            self.write_snapshot(&mut journal)?;
        }
        Ok(range)
    }

    /// Forces a snapshot generation now (and truncates the WAL).
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        let mut journal = self.journal.lock().expect("durable urr poisoned");
        self.write_snapshot(&mut journal)
    }

    /// Writes the live repository out as one generation. The journal
    /// lock is held, so no journaled writer runs; the repository stays
    /// locked for the encode, so the rows and payloads are borrowed, not
    /// cloned, and the generation is one buffer, sized before it is
    /// written.
    fn write_snapshot(&self, journal: &mut Journal) -> Result<(), StoreError> {
        let store = self.urr.lock();
        let tables = Tables::read(&self.urr);
        // The first frame carries the tables whole, so it is written
        // even for a repository without records; the rest carry none.
        let mut chunks: Vec<&[Row]> = store.rows.chunks(GENERATION_FRAME_RECS).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let persisted = tables.persisted();
        // Frame `k`: the tables it carries, its first sequence number and
        // its rows' payloads.
        let frame = |k: usize, chunk: &[Row]| {
            let from = if k == 0 {
                Persisted::default()
            } else {
                persisted
            };
            let start = (k * GENERATION_FRAME_RECS) as u64;
            let payloads = store.payloads_in(start..start + chunk.len() as u64);
            (from, start, payloads)
        };
        let len = (chunks.iter().enumerate())
            .map(|(k, chunk)| {
                let (from, _, payloads) = frame(k, chunk);
                tables.frame_len(from, chunk.len(), payloads)
            })
            .sum();
        let mut bytes = Vec::with_capacity(len);
        for (k, chunk) in chunks.into_iter().enumerate() {
            let (from, start, payloads) = frame(k, chunk);
            tables.put(&mut bytes, from, start, chunk.iter().copied(), payloads);
        }
        drop(tables);
        drop(store);
        let len = bytes.len();
        journal.store.write_snapshot(bytes)?;
        // The generation is the journal's base from here on, whether or
        // not the frames it covers are gone yet.
        journal.persisted = persisted;
        journal.batches_since_snapshot = 0;
        journal.store.truncate_wal()?;
        let telemetry = &self.urr.telemetry;
        telemetry.counter("urr.snapshot_writes", 1);
        telemetry.counter("urr.snapshot_bytes", len as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ReportImage;
    use crate::storage::memory::MemoryStore;
    use crate::urr::InternedOutcome;

    fn config() -> DurableConfig {
        DurableConfig {
            snapshot_every_batches: 0,
            ..DurableConfig::default()
        }
    }

    fn assert_surfaces_eq(a: &Urr, b: &Urr) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.next_seq(), b.next_seq());
        assert_eq!(a.failure_groups(), b.failure_groups());
        assert_eq!(a.top_k_failure_groups(3), b.top_k_failure_groups(3));
        assert_eq!(a.cluster_failure_rates(), b.cluster_failure_rates());
        assert_eq!(a.release_summaries(), b.release_summaries());
        assert_eq!(a.all(), b.all());
    }

    fn sample_reports() -> Vec<Report> {
        vec![
            Report::success("m1", 0, "mysql", "5.0.27"),
            Report::failure(
                "m2",
                1,
                "mysql",
                "5.0.27",
                "php/crash",
                "stack trace",
                ReportImage::new("d", vec!["c".into()], vec![], vec![]),
            ),
            Report::failure(
                "m3",
                1,
                "mysql",
                "5.0.27",
                "php/crash",
                "",
                ReportImage::default(),
            ),
        ]
    }

    #[test]
    fn wal_only_recovery_reproduces_state() {
        let store = MemoryStore::new();
        let handle = store.clone();
        let durable = DurableUrr::new(Box::new(store), config()).unwrap();
        durable.deposit_batch(sample_reports()).unwrap();
        durable
            .deposit(Report::success("m4", 2, "mysql", "5.0.28"))
            .unwrap();
        let crashed = handle.fork();
        let (recovered, report) = DurableUrr::recover(Box::new(crashed), config()).unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.torn_tail, None);
        assert_surfaces_eq(durable.urr(), recovered.urr());
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let store = MemoryStore::new();
        let handle = store.clone();
        let durable = DurableUrr::new(Box::new(store), config()).unwrap();
        durable.deposit_batch(sample_reports()).unwrap();
        durable.snapshot_now().unwrap();
        durable
            .deposit(Report::failure(
                "m9",
                3,
                "mysql",
                "5.0.28",
                "new/sig",
                "",
                ReportImage::default(),
            ))
            .unwrap();
        let crashed = handle.fork();
        let (recovered, report) = DurableUrr::recover(Box::new(crashed), config()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.frames_replayed, 1, "only the tail replays");
        assert_surfaces_eq(durable.urr(), recovered.urr());
        // Recovery continues the sequence and stays journaled.
        let seq = recovered
            .deposit(Report::success("m10", 0, "mysql", "5.0.28"))
            .unwrap();
        assert_eq!(seq, 4);
    }

    #[test]
    fn automatic_snapshots_fire_and_truncate() {
        let store = MemoryStore::new();
        let handle = store.clone();
        let durable = DurableUrr::new(
            Box::new(store),
            DurableConfig {
                snapshot_every_batches: 2,
                ..DurableConfig::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            durable
                .deposit(Report::success(format!("m{i}"), 0, "p", "1"))
                .unwrap();
        }
        drop(durable);
        assert!(
            !handle.snapshots().unwrap().is_empty(),
            "snapshots were written"
        );
        let wal: usize = handle.wal_segments().unwrap().iter().map(|s| s.len()).sum();
        assert!(
            wal < 200,
            "wal was truncated at the last snapshot (still holds {wal} bytes)"
        );
    }

    /// An empty batch between two interns journals no frame, and the
    /// one record-less frame there is — an empty repository's
    /// generation, at the watermark — still interns its tables on
    /// replay: `b` cannot take `a`'s id either way.
    #[test]
    fn empty_batch_keeps_its_intern_deltas() {
        for snapshot in [false, true] {
            let store = MemoryStore::new();
            let live = DurableUrr::new(Box::new(store.clone()), config()).unwrap();
            let a = live.urr().intern_machine("a");
            assert_eq!(live.deposit_interned_batch(&[]).unwrap(), 0..0);
            let wal = store.wal_segments().unwrap();
            assert!(wal.is_empty(), "an empty batch journals nothing");
            if snapshot {
                live.snapshot_now().unwrap();
            }
            live.urr().intern_machine("b");
            let report = InternedReport {
                machine: a,
                cluster: 0,
                release: live.urr().intern_release("p", "1"),
                outcome: InternedOutcome::Success,
            };
            live.deposit_interned_batch(&[report]).unwrap();
            let (recovered, report) =
                DurableUrr::recover(Box::new(store.fork()), config()).unwrap();
            assert_eq!(report.torn_tail, None);
            assert_eq!(report.snapshot_loaded, snapshot);
            assert_eq!(recovered.urr().all()[0].machine, "a");
            assert_surfaces_eq(live.urr(), recovered.urr());
        }
    }

    /// The hostile name-run corpus: a frame whose machine run is
    /// malformed, or names a machine the table holds or one it lists
    /// twice, ends replay with a clean [`WireError`]; the frames before
    /// it are kept, and no name of the run is.
    #[test]
    fn hostile_name_runs_end_replay_with_the_prefix_kept() {
        use crate::storage::frame::HEADER_LEN;
        use crate::urr::NO_SIG;
        let store = MemoryStore::new();
        let live = DurableUrr::new(Box::new(store.clone()), config()).unwrap();
        live.deposit_batch(sample_reports()).unwrap();
        let machines = || live.urr().machines.read().unwrap().len();
        let held = live.urr().machines.read().unwrap().name(0).to_string();
        let next = live.urr().next_seq();
        // One frame at the watermark whose record names the run's first
        // machine; `patch` overwrites a `u32` of the payload before the
        // checksum is taken (8: the count, 12: the first end).
        let frame = |bytes: &str, ends: &[u32], patch: Option<(usize, u32)>| {
            let row = Row {
                machine: machines() as u32,
                cluster: 0,
                release: 0,
                sig: NO_SIG,
            };
            let mut frame = Vec::new();
            put_frame(&mut frame, KIND_WAL_BATCH, |buf| {
                let at = buf.len();
                let none: &[(&str, &str)] = &[];
                encode_wal_frame(
                    buf,
                    next,
                    (bytes, ends.iter().copied()),
                    ("", std::iter::empty()),
                    none,
                    std::iter::once(row),
                    &[],
                );
                if let Some((offset, value)) = patch {
                    buf[at + offset..at + offset + 4].copy_from_slice(&value.to_le_bytes());
                }
            });
            frame
        };
        let recover = |frame: Vec<u8>| {
            let crashed = store.fork();
            crashed.mutate(|segments, _| segments.last_mut().unwrap().extend_from_slice(&frame));
            DurableUrr::recover(Box::new(crashed), config()).unwrap()
        };
        // The frame is well formed when its run is.
        let (recovered, report) = recover(frame("zz", &[2], None));
        assert_eq!((report.frames_replayed, report.torn_tail), (2, None));
        assert_eq!(recovered.urr().all()[3].machine, "zz");

        let corrupt = |what| WireError::Corrupt { what };
        let oversize = WireError::Oversize {
            what: "wal machine delta",
        };
        let repeats = corrupt("wal delta repeats an interned name");
        let held_second = format!("zz{held}");
        for (case, frame, why) in [
            (
                "ends that go backwards",
                frame("abc", &[2, 1, 3], None),
                corrupt("wal delta name ends decrease"),
            ),
            (
                "a last end past the remaining bytes",
                frame("ab", &[2], Some((12, 1_000))),
                oversize.clone(),
            ),
            (
                "an end inside a character",
                frame("aé", &[2, 3], None),
                corrupt("wal delta name ends inside a character"),
            ),
            (
                "a count past the remainder",
                frame("ab", &[2], Some((8, 1_000_000))),
                oversize,
            ),
            (
                "a name the table holds, behind a new one",
                frame(&held_second, &[2, held_second.len() as u32], None),
                repeats.clone(),
            ),
            ("a name twice", frame("zzzz", &[2, 4], None), repeats),
        ] {
            let (recovered, report) = recover(frame);
            assert_eq!(report.torn_tail, Some(why.to_string()), "{case}");
            assert_eq!(report.frames_replayed, 1, "{case}");
            assert_surfaces_eq(live.urr(), recovered.urr());
            let table = recovered.urr().machines.read().unwrap();
            assert_eq!(
                table.len(),
                machines(),
                "{case}: no name of the run is kept"
            );
            assert_eq!(table.get("zz"), None, "{case}");
        }
        // A frame of a retired kind — the layout before runs — too.
        let mut retired = Vec::new();
        put_frame(&mut retired, 1, |buf| {
            buf.extend_from_slice(&frame("zz", &[2], None)[HEADER_LEN..]);
        });
        let (_, report) = recover(retired);
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(
            report.torn_tail.as_deref(),
            Some("unexpected frame kind 1 in wal")
        );
    }

    #[test]
    fn empty_store_recovers_empty() {
        let (durable, report) =
            DurableUrr::recover(Box::new(MemoryStore::new()), config()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(durable.urr().stats().total, 0);
    }
}
