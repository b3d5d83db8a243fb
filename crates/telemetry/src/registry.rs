//! The metrics registry and its exportable snapshot.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::journal::{Journal, JournalEvent, JournalKind};
use crate::json::Value;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary};
use crate::recorder::Recorder;

/// A point-in-time gauge reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Last value set.
    pub value: i64,
    /// Highest value ever set.
    pub high_water: i64,
}

/// The live metrics store behind an instrumented run.
///
/// Lookup uses a read-lock fast path; the write lock is taken only the
/// first time a metric name appears. Recording itself is lock-free
/// atomics (counters, gauges, histograms) or a short critical section
/// (journal entries).
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: RwLock<BTreeMap<String, Arc<Histogram>>>,
    journal: Journal,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().expect("registry poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut write = map.write().expect("registry poisoned");
    Arc::clone(write.entry(name.to_string()).or_default())
}

impl Registry {
    /// Creates a registry whose journal keeps the newest `capacity`
    /// entries (evictions are dropped, not spilled, and still counted).
    pub fn new(capacity: usize) -> Self {
        Registry::with_journal(capacity, Journal::new(capacity))
    }

    /// Creates a registry with an explicitly configured journal — e.g.
    /// [`Journal::with_spill`] when a full-fidelity timeline is wanted
    /// for trace export or health rollups. The first argument is
    /// ignored: `journal` carries its own capacity.
    pub fn with_journal(_capacity: usize, journal: Journal) -> Self {
        Registry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
            journal,
        }
    }

    /// The sim-time journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Takes a consistent-enough point-in-time snapshot of everything.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    GaugeSnapshot {
                        value: v.get(),
                        high_water: v.high_water(),
                    },
                )
            })
            .collect();
        let summarize = |map: &RwLock<BTreeMap<String, Arc<Histogram>>>| {
            map.read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect::<BTreeMap<String, HistogramSummary>>()
        };
        Snapshot {
            counters,
            gauges,
            histograms: summarize(&self.histograms),
            spans: summarize(&self.spans),
            journal_counts: JournalKind::ALL
                .iter()
                .zip(self.journal.counts())
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| (k.name().to_string(), n))
                .collect(),
            journal_total: self.journal.total(),
            journal_dropped: self.journal.dropped(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(65_536)
    }
}

impl Recorder for Registry {
    fn add(&self, name: &str, delta: u64) {
        get_or_insert(&self.counters, name).add(delta);
    }

    fn gauge_set(&self, name: &str, value: i64) {
        get_or_insert(&self.gauges, name).set(value);
    }

    fn observe(&self, name: &str, value: u64) {
        get_or_insert(&self.histograms, name).observe(value);
    }

    fn record_span(&self, path: &str, nanos: u64) {
        get_or_insert(&self.spans, path).observe(nanos);
    }

    fn journal_time(&self, now: u64) {
        self.journal.set_time(now);
    }

    fn record_event(&self, event: JournalEvent) {
        self.journal.record(event);
    }

    fn record_journal_timed(&self, batch: &[(u64, JournalEvent)]) {
        self.journal.record_timed(batch);
    }
}

/// A frozen, serialisable view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span timing summaries by nested path (values in nanoseconds).
    pub spans: BTreeMap<String, HistogramSummary>,
    /// Exact journal-entry counts by kind (kinds with zero entries are
    /// omitted).
    pub journal_counts: BTreeMap<String, u64>,
    /// Total journal entries recorded.
    pub journal_total: u64,
    /// Journal entries evicted and lost (0 when spill is enabled).
    pub(crate) journal_dropped: u64,
}

fn summary_json(s: &HistogramSummary) -> Value {
    Value::obj([
        ("count", Value::from(s.count)),
        ("sum", Value::from(s.sum)),
        ("min", Value::from(s.min)),
        ("max", Value::from(s.max)),
        ("mean", Value::from(s.mean())),
        ("p50", Value::from(s.p50)),
        ("p90", Value::from(s.p90)),
        ("p99", Value::from(s.p99)),
    ])
}

impl Snapshot {
    /// Serialises the snapshot as a pretty-printed JSON object.
    ///
    /// Layout: `{"counters": {...}, "gauges": {...}, "histograms":
    /// {...}, "spans": {...}, "journal": {"counts": {...}, "total": n,
    /// "dropped": n}}`. Span durations are nanoseconds; the journal
    /// entries themselves export through [`Journal::entries`] and
    /// [`crate::trace_export`].
    pub fn to_json(&self) -> String {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        Value::obj([
                            ("value", Value::from(g.value)),
                            ("high_water", Value::from(g.high_water)),
                        ]),
                    )
                })
                .collect(),
        );
        let histo = |m: &BTreeMap<String, HistogramSummary>| {
            Value::Obj(
                m.iter()
                    .map(|(k, s)| (k.clone(), summary_json(s)))
                    .collect(),
            )
        };
        let journal = Value::obj([
            (
                "counts",
                Value::Obj(
                    self.journal_counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            ("total", Value::from(self.journal_total)),
            ("dropped", Value::from(self.journal_dropped)),
        ]);
        Value::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histo(&self.histograms)),
            ("spans", histo(&self.spans)),
            ("journal", journal),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Telemetry;

    #[test]
    fn registry_stores_all_metric_kinds() {
        let registry = Arc::new(Registry::new(8));
        let t = Telemetry::from_registry(Arc::clone(&registry));
        assert!(t.measures() && t.journals());
        t.counter("tests_total", 2);
        t.counter("tests_total", 3);
        t.gauge("queue_depth", 7);
        t.gauge("queue_depth", 4);
        t.observe("batch_size", 16);
        t.journal(JournalEvent::WaveAdvance {
            wave: 1,
            cluster: 3,
        });
        {
            let _s = t.span("phase");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["tests_total"], 5);
        assert_eq!(snap.gauges["queue_depth"].value, 4);
        assert_eq!(snap.gauges["queue_depth"].high_water, 7);
        assert_eq!(snap.histograms["batch_size"].count, 1);
        assert_eq!(snap.spans["phase"].count, 1);
        assert_eq!(snap.journal_counts["wave_advance"], 1);
        assert_eq!(snap.journal_total, 1);
    }

    #[test]
    fn journal_flows_through_registry_and_snapshot() {
        let registry = Arc::new(Registry::with_journal(16, Journal::with_spill(4)));
        let t = Telemetry::from_registry(Arc::clone(&registry));
        t.journal_time(30);
        t.journal(JournalEvent::Notify {
            machine: 2,
            release: 0,
        });
        t.journal(JournalEvent::Test {
            machine: 2,
            release: 0,
            problem: crate::journal::NO_PROBLEM,
        });
        assert_eq!(registry.journal().now(), 30);
        let entries = registry.journal().entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].time, 30);
        let snap = registry.snapshot();
        assert_eq!(snap.journal_total, 2);
        assert_eq!(snap.journal_counts["notify"], 1);
        assert_eq!(snap.journal_counts["test"], 1);
        assert!(!snap.journal_counts.contains_key("retry"));
        let v = Value::parse(&snap.to_json()).unwrap();
        assert_eq!(
            v.get("journal")
                .unwrap()
                .get("counts")
                .unwrap()
                .get("notify")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("journal").unwrap().get("total").unwrap().as_u64(),
            Some(2)
        );
    }

    #[test]
    fn snapshot_serialises_and_parses() {
        let registry = Registry::new(8);
        registry.add("c", 1);
        registry.gauge_set("g", -3);
        registry.observe("h", 10);
        registry.record_span("a/b", 1_000);
        registry.record_event(JournalEvent::Test {
            machine: 0,
            release: 0,
            problem: crate::journal::NO_PROBLEM,
        });
        let json = registry.snapshot().to_json();
        let v = Value::parse(&json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters").unwrap().get("c").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("g")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(-3.0)
        );
        assert!(v.get("spans").unwrap().get("a/b").is_some());
        let journal = v.get("journal").unwrap();
        assert_eq!(
            journal.get("counts").unwrap().get("test").unwrap().as_u64(),
            Some(1)
        );
        assert!(v.get("flight").is_none());
    }

    #[test]
    fn concurrent_recording() {
        let registry = Arc::new(Registry::new(1024));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.add("n", 1);
                        r.observe("v", i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["n"], 8000);
        assert_eq!(snap.histograms["v"].count, 8000);
    }
}
