//! [`DurableUrr`]: the journaled repository and its crash recovery.
//!
//! `DurableUrr` wraps a live [`Urr`] and a pluggable [`UrrStore`].
//! Every deposit batch is encoded as one WAL frame (intern-table
//! deltas + id records, see [`crate::storage::wal`]), appended to the
//! store **before** the records are applied, and then applied with the
//! same `apply_recs` function recovery uses for replay. Periodically —
//! every `snapshot_every_batches`, or on [`DurableUrr::snapshot_now`]
//! — the full repository is serialised as a compacted snapshot and the
//! WAL is truncated.
//!
//! [`DurableUrr::recover`] rebuilds the repository after a crash: load
//! the newest snapshot that passes its frame checksum and structural
//! validation (falling back to the previous generation, then to
//! empty), then replay the WAL tail in order. Replay skips frames the
//! snapshot already covers (`start_seq` below the watermark — the
//! duplicate-tail shape), stops cleanly at the first torn, truncated,
//! or corrupt record, and never panics on hostile bytes.
//!
//! A journal mutex serialises deposits, snapshots, and delta
//! accounting; reads (queries, [`Urr::snapshot`] freezes) stay on the
//! sharded lock-striped paths and proceed concurrently.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use mirage_telemetry::Telemetry;

use crate::report::{Report, ReportOutcome};
use crate::storage::frame::{
    decode_frame, encode_frame, FrameScanner, KIND_SNAPSHOT, KIND_WAL_BATCH,
};
use crate::storage::snapshot::{decode_snapshot, encode_snapshot};
use crate::storage::wal::{apply_recs, encode_wal_frame, WalFrame, WalRec};
use crate::storage::{StoreError, UrrStore};
use crate::urr::{InternedOutcome, InternedReport, Payload, Urr, NO_SIG};

/// Construction/recovery options for [`DurableUrr`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Shard (lock-stripe) count for a fresh or WAL-only-recovered
    /// repository; `0` picks `next_pow2(available threads)` like
    /// [`Urr::new`]. A loaded snapshot overrides this with its own
    /// stripe count (the on-disk group index is stripe-faithful).
    pub shards: usize,
    /// Write a compacted snapshot (and truncate the WAL) after this
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

/// What [`DurableUrr::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot was loaded (false: recovered from WAL alone).
    pub snapshot_loaded: bool,
    /// Snapshot generations that failed validation and were skipped.
    pub snapshots_rejected: usize,
    /// WAL frames replayed onto the snapshot.
    pub frames_replayed: usize,
    /// Records contained in the replayed frames.
    pub records_replayed: u64,
    /// Frames skipped because the snapshot already covered them (the
    /// duplicated-tail crash shape).
    pub frames_skipped: usize,
    /// Why replay stopped before the end of the WAL, if it did —
    /// a torn, truncated, or corrupt tail record.
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

#[derive(Debug)]
struct Journal {
    store: Box<dyn UrrStore>,
    /// Interner lengths already covered by journaled frames; the next
    /// frame's deltas start here.
    persisted_machines: usize,
    persisted_sigs: usize,
    persisted_releases: usize,
    batches_since_snapshot: u64,
    snapshot_every: u64,
}

impl DurableUrr {
    /// Creates an empty journaled repository over `store`.
    pub fn new(store: Box<dyn UrrStore>, config: DurableConfig) -> Result<Self, StoreError> {
        let urr = if config.shards == 0 {
            Urr::new()
        } else {
            Urr::with_shards(config.shards)
        };
        let urr = urr.with_telemetry(config.telemetry.clone());
        Ok(DurableUrr {
            urr: Arc::new(urr),
            journal: Mutex::new(Journal {
                store,
                persisted_machines: 0,
                persisted_sigs: 0,
                persisted_releases: 0,
                batches_since_snapshot: 0,
                snapshot_every: config.snapshot_every_batches,
            }),
        })
    }

    /// Recovers a journaled repository from `store`: newest valid
    /// snapshot plus WAL-tail replay. Infallible with respect to data
    /// corruption (a damaged tail is discarded, never panicked on);
    /// only store I/O errors surface as `Err`.
    pub fn recover(
        store: Box<dyn UrrStore>,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let mut report = RecoveryReport::default();
        let mut recovered: Option<Urr> = None;
        for snap_bytes in store.snapshots()? {
            let loaded = decode_frame(&snap_bytes)
                .ok()
                .filter(|(kind, _)| *kind == KIND_SNAPSHOT)
                .and_then(|(_, payload)| decode_snapshot(payload).ok());
            match loaded {
                Some(urr) => {
                    recovered = Some(urr);
                    report.snapshot_loaded = true;
                    break;
                }
                None => report.snapshots_rejected += 1,
            }
        }
        let urr = recovered.unwrap_or_else(|| {
            if config.shards == 0 {
                Urr::new()
            } else {
                Urr::with_shards(config.shards)
            }
        });
        let urr = urr.with_telemetry(config.telemetry.clone());
        // Replay the WAL tail in segment order, stopping at the first
        // damaged record. Frames fully covered by the snapshot are
        // duplicates (rewritten tails); a gap means lost frames, so the
        // remainder is untrustworthy and discarded.
        'segments: for segment in store.wal_segments()? {
            let mut scanner = FrameScanner::new(&segment);
            while let Some(item) = scanner.next_frame() {
                let (kind, payload) = match item {
                    Ok(hit) => hit,
                    Err(e) => {
                        report.torn_tail = Some(e.to_string());
                        break 'segments;
                    }
                };
                if kind != KIND_WAL_BATCH {
                    report.torn_tail = Some(format!("unexpected frame kind {kind} in wal"));
                    break 'segments;
                }
                let frame = match WalFrame::decode(payload) {
                    Ok(frame) => frame,
                    Err(e) => {
                        report.torn_tail = Some(e.to_string());
                        break 'segments;
                    }
                };
                let n = frame.recs.len() as u64;
                let expected = urr.next_seq();
                if frame.start_seq.saturating_add(n) <= expected {
                    report.frames_skipped += 1;
                    continue;
                }
                if frame.start_seq != expected {
                    report.torn_tail = Some(format!(
                        "wal sequence gap: frame starts at {} but repository is at {expected}",
                        frame.start_seq
                    ));
                    break 'segments;
                }
                frame.intern_deltas(&urr);
                if let Err(e) = frame.validate_ids(&urr) {
                    report.torn_tail = Some(e.to_string());
                    break 'segments;
                }
                let claimed = urr.seq.fetch_add(n, Ordering::Relaxed);
                debug_assert_eq!(claimed, frame.start_seq);
                apply_recs(&urr, frame.recs, claimed);
                report.frames_replayed += 1;
                report.records_replayed += n;
            }
        }
        urr.telemetry
            .counter("urr.wal_replayed_frames", report.frames_replayed as u64);
        urr.telemetry
            .counter("urr.wal_replayed_records", report.records_replayed);
        if report.snapshot_loaded {
            urr.telemetry.counter("urr.snapshot_loads", 1);
        }
        let persisted_machines = urr.machines.read().expect("urr poisoned").len();
        let persisted_sigs = urr.sigs.read().expect("urr poisoned").inner.names.len();
        let persisted_releases = urr.releases.read().expect("urr poisoned").pairs.len();
        let durable = DurableUrr {
            urr: Arc::new(urr),
            journal: Mutex::new(Journal {
                store,
                persisted_machines,
                persisted_sigs,
                persisted_releases,
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
        let mut journal = self.journal.lock().expect("durable urr poisoned");
        let recs: Vec<WalRec> = reports
            .into_iter()
            .map(|report| {
                let machine = self.urr.intern_machine(&report.machine).0;
                let release = self.urr.intern_release(&report.package, &report.version).0;
                let (sig, detail) = match report.outcome {
                    ReportOutcome::Success => (NO_SIG, String::new()),
                    ReportOutcome::Failure { signature, detail } => {
                        (self.urr.intern_signature(&signature).0, detail)
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
                WalRec {
                    machine,
                    cluster: u32::try_from(report.cluster).expect("cluster id overflow"),
                    release,
                    sig,
                    payload,
                }
            })
            .collect();
        self.journal_and_apply(&mut journal, recs)
    }

    /// Journals and applies a batch of pre-interned records — the
    /// simulator's hot path, journaled.
    pub fn deposit_interned_batch(
        &self,
        recs: &[InternedReport],
    ) -> Result<Range<u64>, StoreError> {
        let mut journal = self.journal.lock().expect("durable urr poisoned");
        let recs: Vec<WalRec> = recs
            .iter()
            .map(|r| WalRec {
                machine: r.machine.0,
                cluster: r.cluster,
                release: r.release.0,
                sig: match r.outcome {
                    InternedOutcome::Success => NO_SIG,
                    InternedOutcome::Failure(sig) => sig.0,
                },
                payload: None,
            })
            .collect();
        self.journal_and_apply(&mut journal, recs)
    }

    /// The shared journal-then-apply path. The journal lock is held:
    /// deltas, the claimed sequence range, and the store append are one
    /// atomic step with respect to other depositors.
    fn journal_and_apply(
        &self,
        journal: &mut Journal,
        recs: Vec<WalRec>,
    ) -> Result<Range<u64>, StoreError> {
        let telemetry = &self.urr.telemetry;
        let n = recs.len() as u64;
        let start = self.urr.seq.fetch_add(n, Ordering::Relaxed);
        // The deltas are written straight out of the tables, so the
        // read locks are held for the encode and no longer.
        let (payload, m_len, s_len, r_len) = {
            let machines = self.urr.machines.read().expect("urr poisoned");
            let sigs = self.urr.sigs.read().expect("urr poisoned");
            let releases = self.urr.releases.read().expect("urr poisoned");
            let payload = encode_wal_frame(
                start,
                machines.names_from(journal.persisted_machines),
                &sigs.inner.names[journal.persisted_sigs..],
                &releases.pairs[journal.persisted_releases..],
                &recs,
            );
            (
                payload,
                machines.len(),
                sigs.inner.names.len(),
                releases.pairs.len(),
            )
        };
        let bytes = encode_frame(KIND_WAL_BATCH, &payload);
        let rotated = journal.store.append_frame(&bytes)?;
        journal.persisted_machines = m_len;
        journal.persisted_sigs = s_len;
        journal.persisted_releases = r_len;
        telemetry.counter("urr.wal_frames", 1);
        telemetry.counter("urr.wal_bytes", bytes.len() as u64);
        if rotated {
            telemetry.counter("urr.wal_rotations", 1);
        }
        apply_recs(&self.urr, recs, start);
        self.urr.note_batch(n);
        journal.batches_since_snapshot += 1;
        if journal.snapshot_every > 0 && journal.batches_since_snapshot >= journal.snapshot_every {
            self.write_snapshot(journal)?;
        }
        Ok(start..start + n)
    }

    /// Forces a compacted snapshot now (and truncates the WAL).
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        let mut journal = self.journal.lock().expect("durable urr poisoned");
        self.write_snapshot(&mut journal)
    }

    fn write_snapshot(&self, journal: &mut Journal) -> Result<(), StoreError> {
        let bytes = encode_frame(KIND_SNAPSHOT, &encode_snapshot(&self.urr));
        journal.store.write_snapshot(&bytes)?;
        journal.store.truncate_wal()?;
        journal.batches_since_snapshot = 0;
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

    #[test]
    fn empty_store_recovers_empty() {
        let (durable, report) =
            DurableUrr::recover(Box::new(MemoryStore::new()), config()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(durable.urr().stats().total, 0);
    }
}
