//! [`DurableUrr`]: the journaled repository and its crash recovery.
//!
//! `DurableUrr` wraps a live [`Urr`] and a pluggable [`UrrStore`].
//! Every deposit batch is encoded as one frame (intern-table deltas +
//! id records, see [`crate::storage::wal`]), appended to the store
//! **before** the records are applied, and then applied with
//! [`Urr::insert_recs`], the routing loop recovery replays through.
//! Periodically — every `snapshot_every_batches`, or on
//! [`DurableUrr::snapshot_now`] — the repository is written out as a
//! snapshot **generation** and the WAL is truncated. A generation is
//! the log compacted, not a second format: a run of the same frames,
//! the first starting at sequence 0 with the three intern tables whole,
//! the records following in sequence order. The archive keeps every
//! report, so a generation is no smaller than the log it replaces and
//! loads no faster; it bounds the number of frames and segments a
//! recovery reads, nothing else.
//!
//! [`DurableUrr::recover`] rebuilds the repository after a crash with
//! one replay loop. The newest generation is replayed into a fresh
//! repository and taken only if every frame of it applies; otherwise it
//! is rejected whole and the previous one is tried, then empty. The WAL
//! segments are replayed on top in order: frames the generation already
//! covers are skipped (the duplicate-tail shape), the first torn,
//! truncated, corrupt or gapped frame ends the replay with the prefix
//! kept, and hostile bytes never panic. Nothing derived is read from
//! disk: every index of a recovered repository was built by
//! `Shard::insert`, as in live ingest.
//!
//! A journal mutex serialises deposits, snapshots, and delta
//! accounting; reads (queries, [`Urr::snapshot`] freezes) stay on the
//! sharded lock-striped paths and proceed concurrently.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use mirage_telemetry::Telemetry;

use crate::report::Report;
use crate::storage::frame::{put_frame, FrameScanner, KIND_WAL_BATCH};
use crate::storage::wal::{encode_wal_frame, WalFrame};
use crate::storage::{StoreError, UrrStore, WireError};
use crate::urr::{InternedReport, Rec, Urr};

/// Records per frame of a snapshot generation: the simulator's flush
/// size, so a generation's frames look like the batches they compact
/// and stay orders of magnitude below the frame payload cap.
const GENERATION_FRAME_RECS: usize = 4096;

/// Construction/recovery options for [`DurableUrr`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Shard (lock-stripe) count of the repository, fresh or recovered;
    /// `0` picks `next_pow2(available threads)` like [`Urr::new`].
    /// Nothing on disk depends on it: recovery routes every record to
    /// its stripe the way live ingest does.
    pub shards: usize,
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
            shards: 0,
            snapshot_every_batches: 512,
            telemetry: Telemetry::noop(),
        }
    }
}

impl DurableConfig {
    /// An empty repository as this configuration shapes it.
    fn fresh_urr(&self) -> Urr {
        let urr = if self.shards == 0 {
            Urr::new()
        } else {
            Urr::with_shards(self.shards)
        };
        urr.with_telemetry(self.telemetry.clone())
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
    pub frames_replayed: usize,
    /// Records contained in the replayed frames.
    pub records_replayed: u64,
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

/// Appends one journaled-batch frame to `buf`: every table entry past
/// `persisted`, then `recs`. Returns what the frame brings the journal
/// to. The deltas are written straight out of the tables, so the read
/// locks are held for the encode and no longer.
fn put_batch<'a>(
    buf: &mut Vec<u8>,
    urr: &Urr,
    persisted: Persisted,
    start_seq: u64,
    recs: impl ExactSizeIterator<Item = &'a Rec>,
) -> Persisted {
    let machines = urr.machines.read().expect("urr poisoned");
    let sigs = urr.sigs.read().expect("urr poisoned");
    let releases = urr.releases.read().expect("urr poisoned");
    put_frame(buf, KIND_WAL_BATCH, |buf| {
        encode_wal_frame(
            buf,
            start_seq,
            machines.names_from(persisted.machines),
            sigs.inner.names_from(persisted.sigs),
            &releases.pairs[persisted.releases..],
            recs,
        )
    });
    Persisted {
        machines: machines.len(),
        sigs: sigs.inner.len(),
        releases: releases.pairs.len(),
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
        let n = frame.recs.len() as u64;
        let expected = urr.next_seq();
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
        urr.seq.fetch_add(n, Ordering::Relaxed);
        urr.insert_recs(frame.recs.into_iter());
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
            sigs: urr.sigs.read().expect("urr poisoned").inner.len(),
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
        self.journal_and_apply(reports.len(), |start| {
            (reports.into_iter().zip(start..))
                .map(|(report, seq)| self.urr.lower(report, seq))
                .collect()
        })
    }

    /// Journals and applies a batch of pre-interned records — the
    /// simulator's hot path, journaled.
    pub fn deposit_interned_batch(
        &self,
        recs: &[InternedReport],
    ) -> Result<Range<u64>, StoreError> {
        self.journal_and_apply(recs.len(), |start| {
            (recs.iter().zip(start..))
                .map(|(r, seq)| Rec::interned(r, seq))
                .collect()
        })
    }

    /// The shared journal-then-apply path: `lower` turns the batch into
    /// its `n` records given their first sequence number. The journal
    /// lock is held throughout, so the deltas, the claimed sequence
    /// range, and the store append are one atomic step with respect to
    /// other depositors. An empty batch is not journaled: a frame
    /// without records has no sequence number of its own to be told
    /// from its neighbours by.
    fn journal_and_apply(
        &self,
        n: usize,
        lower: impl FnOnce(u64) -> Vec<Rec>,
    ) -> Result<Range<u64>, StoreError> {
        let mut journal = self.journal.lock().expect("durable urr poisoned");
        let n = n as u64;
        let start = self.urr.seq.fetch_add(n, Ordering::Relaxed);
        if n == 0 {
            return Ok(start..start);
        }
        let recs = lower(start);
        let mut bytes = Vec::new();
        let persisted = put_batch(&mut bytes, &self.urr, journal.persisted, start, recs.iter());
        let rotated = journal.store.append_frame(&bytes)?;
        journal.persisted = persisted;
        let telemetry = &self.urr.telemetry;
        telemetry.counter("urr.wal_frames", 1);
        telemetry.counter("urr.wal_bytes", bytes.len() as u64);
        if rotated {
            telemetry.counter("urr.wal_rotations", 1);
        }
        self.urr.insert_recs(recs.into_iter());
        self.urr.note_batch(n);
        journal.batches_since_snapshot += 1;
        if journal.snapshot_every > 0 && journal.batches_since_snapshot >= journal.snapshot_every {
            self.write_snapshot(&mut journal)?;
        }
        Ok(start..start + n)
    }

    /// Forces a snapshot generation now (and truncates the WAL).
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        let mut journal = self.journal.lock().expect("durable urr poisoned");
        self.write_snapshot(&mut journal)
    }

    /// Writes the live repository out as one generation. The journal
    /// lock is held, so no journaled writer runs; every stripe stays
    /// locked for the encode, so the records are borrowed, not cloned.
    fn write_snapshot(&self, journal: &mut Journal) -> Result<(), StoreError> {
        let stripes: Vec<_> = (0..self.urr.shards.len())
            .map(|shard| self.urr.lock_shard(shard))
            .collect();
        let mut recs: Vec<&Rec> = stripes.iter().flat_map(|stripe| &stripe.recs).collect();
        // Each stripe is already in sequence order under serialised
        // ingest, so this merges a few sorted runs.
        recs.sort_by_key(|rec| rec.seq);
        let mut bytes = Vec::new();
        let mut persisted = Persisted::default();
        // The first frame carries the tables, so it is written even for
        // a repository without records.
        let mut chunks = recs.chunks(GENERATION_FRAME_RECS);
        let first = chunks.next().unwrap_or_default();
        for chunk in std::iter::once(first).chain(chunks) {
            let start_seq = chunk.first().map_or(0, |rec| rec.seq);
            persisted = put_batch(
                &mut bytes,
                &self.urr,
                persisted,
                start_seq,
                chunk.iter().copied(),
            );
        }
        drop(stripes);
        journal.store.write_snapshot(&bytes)?;
        // The generation is the journal's base from here on, whether or
        // not the frames it covers are gone yet.
        journal.persisted = persisted;
        journal.batches_since_snapshot = 0;
        journal.store.truncate_wal()?;
        let telemetry = &self.urr.telemetry;
        telemetry.counter("urr.snapshot_writes", 1);
        telemetry.counter("urr.snapshot_bytes", bytes.len() as u64);
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
            shards: 4,
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
                shards: 2,
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
        assert!(
            handle.wal_bytes() < 200,
            "wal was truncated at the last snapshot (still holds {} bytes)",
            handle.wal_bytes()
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
            assert_eq!(store.wal_bytes(), 0, "an empty batch journals nothing");
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

    #[test]
    fn empty_store_recovers_empty() {
        let (durable, report) =
            DurableUrr::recover(Box::new(MemoryStore::new()), config()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(durable.urr().stats().total, 0);
    }
}
