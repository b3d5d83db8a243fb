//! The campaign journal: a bounded, sim-time-stamped event timeline.
//!
//! The journal is the one event vocabulary of a campaign, simulated or
//! live: it answers "*what* happened" with exact per-kind totals and
//! "*when*" with a stamped timeline, so rollouts can be replayed,
//! rolled up into per-wave health frames ([`crate::health`]), and
//! exported as a Chrome `trace_event` timeline
//! ([`crate::trace_export`]). Every entry is a
//! [`JournalEvent`] over **dense ids** — machine index, problem index,
//! release number — so recording never allocates: the ring storage is
//! laid out once at construction and entries are `Copy` overwrites.
//! Names are rendered lazily at export time by the callers that own the
//! id tables.
//!
//! Sim-time stamping works through a shared clock: the simulation
//! driver calls `Journal::set_time` (via
//! [`crate::Telemetry::journal_time`]) once per dequeued event — the
//! live drive once per decision tick — and
//! every entry recorded until the next call — including entries emitted
//! by protocol code that has no clock of its own — is stamped with that
//! time. Wall-clock never enters the journal, so journaled runs are
//! replayable and deterministic.
//!
//! The ring keeps the newest `capacity` entries. When **spill** is
//! enabled, evicted entries are appended to an unbounded side buffer
//! instead of being dropped, so a full-fidelity timeline survives for
//! export; either way the per-kind counts stay exact.
//!
//! Like every recorder surface in this crate the journal is strictly
//! observational: nothing reads it during a run, so a journaled
//! simulation is bit-identical to a plain one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Value;
use crate::recorder::{Capabilities, Recorder};

/// Sentinel problem id meaning "no problem" (a passing test).
///
/// Dense problem ids are `u16` indexes into the scenario's problem
/// table; `u16::MAX` is reserved as the none marker so [`JournalEvent`]
/// stays `Copy` without an `Option` niche.
pub const NO_PROBLEM: u16 = u16::MAX;

/// The journal's event taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub(crate) enum JournalKind {
    /// A machine was told to download and test a release.
    Notify,
    /// A machine finished its sandbox test (pass or fail).
    Test,
    /// The vendor received a machine's report.
    Report,
    /// A staged protocol advanced its wave to a new cluster.
    WaveAdvance,
    /// A notification was re-sent after a timeout.
    Retry,
    /// A representative was waived after exhausting its budget.
    Waiver,
    /// The fault injector perturbed a message.
    Fault,
    /// A received report was deposited into the Upgrade Report
    /// Repository.
    UrrDeposit,
    /// A rollout controller took a widen/hold/roll-back decision.
    Rollout,
}

impl JournalKind {
    /// Every kind, in taxonomy order.
    pub const ALL: [JournalKind; 9] = [
        JournalKind::Notify,
        JournalKind::Test,
        JournalKind::Report,
        JournalKind::WaveAdvance,
        JournalKind::Retry,
        JournalKind::Waiver,
        JournalKind::Fault,
        JournalKind::UrrDeposit,
        JournalKind::Rollout,
    ];

    /// The kind's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            JournalKind::Notify => "notify",
            JournalKind::Test => "test",
            JournalKind::Report => "report",
            JournalKind::WaveAdvance => "wave_advance",
            JournalKind::Retry => "retry",
            JournalKind::Waiver => "waiver",
            JournalKind::Fault => "fault",
            JournalKind::UrrDeposit => "urr_deposit",
            JournalKind::Rollout => "rollout",
        }
    }
}

/// Which fault the injector applied to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was silently dropped.
    Loss,
    /// The message was delivered twice.
    Duplication,
}

impl FaultKind {
    /// The fault's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Duplication => "duplication",
        }
    }
}

/// Which way a rollout controller moved on one decision tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutStep {
    /// The next cohort was notified.
    Widen,
    /// The controller waited (bake timer, threshold, or guard
    /// hysteresis not yet satisfied).
    Hold,
    /// The campaign was aborted and every enrolled machine re-notified
    /// with the prior release.
    RollBack,
}

impl RolloutStep {
    /// The step's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            RolloutStep::Widen => "widen",
            RolloutStep::Hold => "hold",
            RolloutStep::RollBack => "roll_back",
        }
    }
}

/// One dense-id journal event. `Copy`, pointer-sized payloads only —
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// A machine was notified about a release.
    Notify {
        /// Dense machine index.
        machine: u32,
        /// Release number.
        release: u32,
    },
    /// A machine finished its sandbox test. `problem ==`
    /// [`NO_PROBLEM`] means the test passed.
    Test {
        /// Dense machine index.
        machine: u32,
        /// Release number.
        release: u32,
        /// Dense problem index, or [`NO_PROBLEM`] on a pass.
        problem: u16,
    },
    /// The vendor received a machine's report.
    Report {
        /// Dense machine index.
        machine: u32,
        /// Release number.
        release: u32,
        /// Whether the reported test passed.
        passed: bool,
    },
    /// A staged protocol advanced its wave.
    WaveAdvance {
        /// Position in the deployment order (0-based).
        wave: u32,
        /// Cluster id the wave advanced to.
        cluster: u32,
    },
    /// A notification was re-sent after a timeout.
    Retry {
        /// Dense machine index.
        machine: u32,
        /// Release number.
        release: u32,
        /// Zero-based retry attempt.
        attempt: u32,
    },
    /// A representative was waived after exhausting its report budget.
    Waiver {
        /// Dense machine index.
        machine: u32,
        /// Release number.
        release: u32,
    },
    /// The fault injector perturbed a message addressed to / sent by a
    /// machine.
    Fault {
        /// Which fault was applied.
        fault: FaultKind,
        /// Dense machine index of the affected endpoint.
        machine: u32,
    },
    /// A received report was deposited into the URR.
    UrrDeposit {
        /// Dense machine index.
        machine: u32,
        /// Release number.
        release: u32,
        /// Dense problem index, or [`NO_PROBLEM`] on a pass.
        problem: u16,
    },
    /// A rollout controller decided to widen, hold, or roll back.
    Rollout {
        /// Which way the controller moved.
        step: RolloutStep,
        /// Zero-based cohort the decision concerns (the cohort widened
        /// to, held at, or rolled back from).
        cohort: u32,
        /// Machines enrolled (notified of the campaign release) when
        /// the decision was taken — the exposure at that instant.
        machines: u32,
    },
}

impl JournalEvent {
    /// The event's taxonomy kind.
    pub(crate) fn kind(&self) -> JournalKind {
        match self {
            JournalEvent::Notify { .. } => JournalKind::Notify,
            JournalEvent::Test { .. } => JournalKind::Test,
            JournalEvent::Report { .. } => JournalKind::Report,
            JournalEvent::WaveAdvance { .. } => JournalKind::WaveAdvance,
            JournalEvent::Retry { .. } => JournalKind::Retry,
            JournalEvent::Waiver { .. } => JournalKind::Waiver,
            JournalEvent::Fault { .. } => JournalKind::Fault,
            JournalEvent::UrrDeposit { .. } => JournalKind::UrrDeposit,
            JournalEvent::Rollout { .. } => JournalKind::Rollout,
        }
    }

    /// Serialises the payload with raw dense ids (no name rendering).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![("kind".to_string(), Value::str(self.kind().name()))];
        match *self {
            JournalEvent::Notify { machine, release } => {
                pairs.push(("machine".into(), Value::from(machine)));
                pairs.push(("release".into(), Value::from(release)));
            }
            JournalEvent::Test {
                machine,
                release,
                problem,
            } => {
                pairs.push(("machine".into(), Value::from(machine)));
                pairs.push(("release".into(), Value::from(release)));
                pairs.push(("passed".into(), Value::from(problem == NO_PROBLEM)));
                if problem != NO_PROBLEM {
                    pairs.push(("problem".into(), Value::from(u64::from(problem))));
                }
            }
            JournalEvent::Report {
                machine,
                release,
                passed,
            } => {
                pairs.push(("machine".into(), Value::from(machine)));
                pairs.push(("release".into(), Value::from(release)));
                pairs.push(("passed".into(), Value::from(passed)));
            }
            JournalEvent::WaveAdvance { wave, cluster } => {
                pairs.push(("wave".into(), Value::from(wave)));
                pairs.push(("cluster".into(), Value::from(cluster)));
            }
            JournalEvent::Retry {
                machine,
                release,
                attempt,
            } => {
                pairs.push(("machine".into(), Value::from(machine)));
                pairs.push(("release".into(), Value::from(release)));
                pairs.push(("attempt".into(), Value::from(attempt)));
            }
            JournalEvent::Waiver { machine, release } => {
                pairs.push(("machine".into(), Value::from(machine)));
                pairs.push(("release".into(), Value::from(release)));
            }
            JournalEvent::Fault { fault, machine } => {
                pairs.push(("fault".into(), Value::str(fault.name())));
                pairs.push(("machine".into(), Value::from(machine)));
            }
            JournalEvent::UrrDeposit {
                machine,
                release,
                problem,
            } => {
                pairs.push(("machine".into(), Value::from(machine)));
                pairs.push(("release".into(), Value::from(release)));
                pairs.push(("passed".into(), Value::from(problem == NO_PROBLEM)));
                if problem != NO_PROBLEM {
                    pairs.push(("problem".into(), Value::from(u64::from(problem))));
                }
            }
            JournalEvent::Rollout {
                step,
                cohort,
                machines,
            } => {
                pairs.push(("step".into(), Value::str(step.name())));
                pairs.push(("cohort".into(), Value::from(cohort)));
                pairs.push(("machines".into(), Value::from(machines)));
            }
        }
        Value::Obj(pairs)
    }
}

/// A journal entry: an event stamped with sim time and a global
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Sim time at which the event was recorded (whatever unit the
    /// driver's clock uses).
    pub time: u64,
    /// Zero-based position in the run's full event stream.
    pub seq: u64,
    /// The event.
    pub event: JournalEvent,
}

impl JournalEntry {
    /// Serialises the entry (time, seq, then the event payload).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("time".to_string(), Value::from(self.time)),
            ("seq".to_string(), Value::from(self.seq)),
        ];
        if let Value::Obj(rest) = self.event.to_json() {
            pairs.extend(rest);
        }
        Value::Obj(pairs)
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    /// Bounded ring storage (non-spill mode); grows to `capacity` once,
    /// then entries are overwritten in place.
    ring: Vec<JournalEntry>,
    /// Index of the oldest retained entry (non-spill mode).
    head: usize,
    /// Flat append-only timeline (spill mode). The logical "ring" is
    /// the last `capacity` entries and everything before them is the
    /// spill, so the hot path is a plain `Vec::push` — no eviction
    /// shuffle between two buffers. Sequence numbers are implicit
    /// (every spill-mode record appends exactly one element, so `seq ==
    /// index`), which keeps the stored tuple at 24 bytes — the write
    /// stream is the dominant journaling cost at fleet scale.
    all: Vec<(u64, JournalEvent)>,
    /// Exact per-kind totals (including evicted entries).
    counts: [u64; JournalKind::ALL.len()],
    next_seq: u64,
    dropped: u64,
}

impl JournalInner {
    /// Appends one entry, evicting into the drop count when a bounded
    /// ring is full. Called with the lock held.
    #[inline]
    fn push(&mut self, capacity: usize, spill: bool, time: u64, event: JournalEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counts[event.kind() as usize] += 1;
        if spill {
            self.all.push((time, event));
            return;
        }
        let entry = JournalEntry { time, seq, event };
        if self.ring.len() < capacity {
            self.ring.push(entry);
        } else {
            let head = self.head;
            self.ring[head] = entry;
            self.head = (head + 1) % capacity;
            self.dropped += 1;
        }
    }
}

/// A bounded ring of [`JournalEntry`]s with exact per-kind counts, an
/// atomic sim-time clock, and an optional spill buffer.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    spill: bool,
    clock: AtomicU64,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Creates a journal keeping at most `capacity` entries in its ring
    /// (min 1); evicted entries are dropped (but still counted).
    pub fn new(capacity: usize) -> Self {
        Journal {
            capacity: capacity.max(1),
            spill: false,
            clock: AtomicU64::new(0),
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Creates a journal that spills evicted entries to an unbounded
    /// side buffer instead of dropping them, preserving the full
    /// timeline for export.
    pub fn with_spill(capacity: usize) -> Self {
        Journal {
            spill: true,
            ..Journal::new(capacity)
        }
    }

    /// Advances the sim-time clock; subsequent entries are stamped with
    /// `now` until the next call.
    pub(crate) fn set_time(&self, now: u64) {
        self.clock.store(now, Ordering::Relaxed);
    }

    /// The clock's current reading.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Records an event, stamped with the current clock reading.
    pub fn record(&self, event: JournalEvent) {
        let time = self.clock.load(Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("journal poisoned");
        inner.push(self.capacity, self.spill, time, event);
    }

    /// Records a batch of events carrying explicit sim times — one lock
    /// acquisition for the whole batch and, in spill mode, a tight
    /// reserve-and-append loop. This is the coldest possible write
    /// path: a single-threaded driver buffers `(time, event)` pairs
    /// locally and flushes thousands at a time, amortising the lock to
    /// nothing. The clock is left at the batch's final time, exactly as
    /// if each event had been recorded under [`Journal::set_time`].
    pub(crate) fn record_timed(&self, batch: &[(u64, JournalEvent)]) {
        let Some(&(last_time, _)) = batch.last() else {
            return;
        };
        let mut inner = self.inner.lock().expect("journal poisoned");
        if self.spill {
            // Split the borrows so the loop keeps counts and the length
            // in registers: this path runs for every journaled event of
            // a fleet-scale run.
            let JournalInner {
                all,
                counts,
                next_seq,
                ..
            } = &mut *inner;
            all.extend_from_slice(batch);
            for &(_, event) in batch {
                counts[event.kind() as usize] += 1;
            }
            *next_seq += batch.len() as u64;
        } else {
            for &(time, event) in batch {
                inner.push(self.capacity, false, time, event);
            }
        }
        drop(inner);
        self.clock.store(last_time, Ordering::Relaxed);
    }

    /// Entries currently retained in the ring (not counting spill).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("journal poisoned");
        if self.spill {
            inner.all.len().min(self.capacity)
        } else {
            inner.ring.len()
        }
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Total entries ever recorded.
    pub fn total(&self) -> u64 {
        self.inner.lock().expect("journal poisoned").next_seq
    }

    /// Entries evicted and *lost* (always 0 when spill is enabled).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("journal poisoned").dropped
    }

    /// Exact per-kind totals, indexed by `JournalKind::ALL` order
    /// (includes evicted entries).
    pub fn counts(&self) -> [u64; JournalKind::ALL.len()] {
        self.inner.lock().expect("journal poisoned").counts
    }

    /// The retained timeline in insertion order: spilled entries (if
    /// any) followed by the ring contents.
    ///
    /// Insertion order is *near*-chronological: a driver that batches
    /// via `Journal::record_timed` may interleave slightly with
    /// entries recorded directly by other components, so consumers that
    /// fold the timeline chronologically should sort by `(time, seq)`
    /// first (the in-crate exporters do).
    pub fn entries(&self) -> Vec<JournalEntry> {
        let inner = self.inner.lock().expect("journal poisoned");
        if self.spill {
            return inner
                .all
                .iter()
                .enumerate()
                .map(|(seq, &(time, event))| JournalEntry {
                    time,
                    seq: seq as u64,
                    event,
                })
                .collect();
        }
        let mut out = Vec::with_capacity(inner.ring.len());
        out.extend_from_slice(&inner.ring[inner.head..]);
        out.extend_from_slice(&inner.ring[..inner.head]);
        out
    }

    /// Clears the timeline, counts, and clock while keeping the ring
    /// and spill allocations warm, so a journal can be reused across
    /// benchmark samples without re-paying allocation and page faults.
    pub fn reset(&self) {
        self.clock.store(0, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("journal poisoned");
        inner.ring.clear();
        inner.all.clear();
        inner.head = 0;
        inner.counts = [0; JournalKind::ALL.len()];
        inner.next_seq = 0;
        inner.dropped = 0;
    }
}

/// A `Journal` can be attached on its own — without a full
/// [`crate::Registry`] — when only the sim-time timeline is wanted:
/// `Telemetry::from_recorder(Arc::new(Journal::with_spill(n)))`.
/// Counters, gauges and spans fall through to the
/// trait's no-op defaults, and the advertised
/// `Capabilities::JOURNAL_ONLY` lets the `Telemetry` handle skip
/// those surfaces without even a virtual call — the run pays for
/// nothing but the journal.
impl Recorder for Journal {
    fn capabilities(&self) -> Capabilities {
        Capabilities::JOURNAL_ONLY
    }

    fn journal_time(&self, now: u64) {
        self.set_time(now);
    }

    fn record_event(&self, event: JournalEvent) {
        self.record(event);
    }

    fn record_journal_timed(&self, batch: &[(u64, JournalEvent)]) {
        self.record_timed(batch);
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new(65_536)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notify(i: u32) -> JournalEvent {
        JournalEvent::Notify {
            machine: i,
            release: 0,
        }
    }

    #[test]
    fn stamps_with_clock_and_orders_entries() {
        let j = Journal::new(8);
        j.record(notify(0));
        j.set_time(25);
        j.record(JournalEvent::Test {
            machine: 0,
            release: 0,
            problem: NO_PROBLEM,
        });
        j.set_time(40);
        j.record(JournalEvent::Report {
            machine: 0,
            release: 0,
            passed: true,
        });
        let entries = j.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries.iter().map(|e| e.time).collect::<Vec<_>>(),
            [0, 25, 40]
        );
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(j.now(), 40);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_drops_without_spill() {
        let j = Journal::new(4);
        for i in 0..11 {
            j.record(notify(i));
        }
        let entries = j.entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries.first().unwrap().seq, 7);
        assert_eq!(entries.last().unwrap().seq, 10);
        assert_eq!(j.total(), 11);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.counts()[JournalKind::Notify as usize], 11);
    }

    #[test]
    fn spill_preserves_full_timeline() {
        let j = Journal::with_spill(4);
        for i in 0..11 {
            j.record(notify(i));
        }
        assert_eq!(j.dropped(), 0);
        let entries = j.entries();
        assert_eq!(entries.len(), 11);
        // Spill + ring reassemble the full stream in order.
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..11).collect::<Vec<_>>()
        );
    }

    #[test]
    fn capacity_clamps_to_one() {
        let j = Journal::new(0);
        j.record(notify(0));
        j.record(notify(1));
        assert_eq!(j.len(), 1);
        assert_eq!(j.entries()[0].seq, 1);
        assert_eq!(j.total(), 2);
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn per_kind_counts_are_exact() {
        let j = Journal::new(2);
        j.record(notify(1));
        j.record(JournalEvent::Retry {
            machine: 1,
            release: 0,
            attempt: 0,
        });
        j.record(JournalEvent::Retry {
            machine: 1,
            release: 0,
            attempt: 1,
        });
        j.record(JournalEvent::Fault {
            fault: FaultKind::Loss,
            machine: 1,
        });
        let counts = j.counts();
        assert_eq!(counts[JournalKind::Notify as usize], 1);
        assert_eq!(counts[JournalKind::Retry as usize], 2);
        assert_eq!(counts[JournalKind::Fault as usize], 1);
        assert_eq!(counts[JournalKind::Test as usize], 0);
        assert_eq!(j.total(), 4);
    }

    #[test]
    fn json_lines_roundtrip() {
        let j = Journal::new(8);
        j.set_time(7);
        j.record(JournalEvent::Test {
            machine: 3,
            release: 1,
            problem: 2,
        });
        j.record(JournalEvent::WaveAdvance {
            wave: 1,
            cluster: 4,
        });
        j.record(JournalEvent::UrrDeposit {
            machine: 3,
            release: 1,
            problem: NO_PROBLEM,
        });
        let lines: Vec<String> = j
            .entries()
            .iter()
            .map(|e| e.to_json().to_compact())
            .collect();
        assert_eq!(lines.len(), 3);
        let first = Value::parse(&lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("test"));
        assert_eq!(first.get("time").unwrap().as_u64(), Some(7));
        assert_eq!(first.get("passed").unwrap().as_bool(), Some(false));
        assert_eq!(first.get("problem").unwrap().as_u64(), Some(2));
        let second = Value::parse(&lines[1]).unwrap();
        assert_eq!(second.get("kind").unwrap().as_str(), Some("wave_advance"));
        assert_eq!(second.get("cluster").unwrap().as_u64(), Some(4));
        let third = Value::parse(&lines[2]).unwrap();
        assert_eq!(third.get("kind").unwrap().as_str(), Some("urr_deposit"));
        assert_eq!(third.get("passed").unwrap().as_bool(), Some(true));
        assert!(third.get("problem").is_none());
    }

    #[test]
    fn concurrent_recording_keeps_exact_totals() {
        use std::sync::Arc;
        let j = Arc::new(Journal::with_spill(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        j.record(notify(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.total(), 2000);
        assert_eq!(j.entries().len(), 2000);
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = j.entries().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..2000).collect::<Vec<_>>());
    }
}
