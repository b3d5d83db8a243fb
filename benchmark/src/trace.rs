//! The traced run's recorder: every span with its start, end, parent
//! and repeat id, kept in memory and written out once at exit.
//!
//! The harness opens spans through the same
//! [`mirage_telemetry::Telemetry::span`] RAII mechanism the program
//! uses, on a [`Recorder`] of its own. Attaching that recorder to a
//! campaign makes the program's existing spans nest under the harness
//! spans, because nesting is a per-thread stack inside
//! `mirage-telemetry`. The stock `Registry` keeps one histogram per span
//! path and one running total per counter; this recorder keeps each
//! span's interval, which a self-time computation needs, and splits
//! counters by repeat, so a count can be checked to repeat exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mirage_telemetry::json::Value;
use mirage_telemetry::{Capabilities, FlightEvent, Recorder, Span, Telemetry};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Slash-joined path from the outermost open span.
    pub path: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The repeat (or ablation round) the span belongs to.
    pub repeat: u32,
}

impl SpanRec {
    /// The span's own name: the last path segment.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// The parent's path, if the span has one.
    pub fn parent(&self) -> Option<&str> {
        self.path.rsplit_once('/').map(|(parent, _)| parent)
    }

    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct TraceRecorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// Counters the program publishes: name, then repeat.
    counters: Mutex<BTreeMap<String, BTreeMap<u32, u64>>>,
    repeat: AtomicU32,
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    // `Telemetry::span` is gated on the events capability, so it stays
    // on; the events themselves are dropped below. The sim-time journal
    // is off: nothing here reads it.
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            journal: false,
            ..Capabilities::ALL
        }
    }

    fn add(&self, name: &str, delta: u64) {
        let repeat = self.repeat.load(Ordering::Relaxed);
        let mut counters = self.counters.lock().expect("counter map poisoned");
        if !counters.contains_key(name) {
            counters.insert(name.to_string(), BTreeMap::new());
        }
        let by_repeat = counters.get_mut(name).expect("just inserted");
        *by_repeat.entry(repeat).or_insert(0) += delta;
    }

    fn record_span(&self, path: &str, nanos: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list poisoned")
            .push(SpanRec {
                path: path.to_string(),
                start_ns: end_ns.saturating_sub(nanos),
                end_ns,
                repeat: self.repeat.load(Ordering::Relaxed),
            });
    }

    fn record_event(&self, _event: FlightEvent) {}
}

/// The handle workloads open spans on. Off (the untraced repeats) it is
/// the no-op telemetry handle: no clock read, no allocation.
#[derive(Debug, Clone)]
pub struct Tracer {
    telemetry: Telemetry,
    recorder: Option<Arc<TraceRecorder>>,
}

impl Tracer {
    /// The inert tracer of the untraced repeats.
    pub fn off() -> Self {
        Tracer {
            telemetry: Telemetry::noop(),
            recorder: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        let recorder = Arc::new(TraceRecorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            repeat: AtomicU32::new(0),
        });
        Tracer {
            telemetry: Telemetry::from_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>),
            recorder: Some(recorder),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.recorder.is_some()
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Span {
        self.telemetry.span(name)
    }

    /// The telemetry handle to attach to the program under test.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Stamps every span recorded from now on with `repeat`.
    pub fn set_repeat(&self, repeat: u32) {
        if let Some(r) = &self.recorder {
            r.repeat.store(repeat, Ordering::Relaxed);
        }
    }

    /// What the program added to counter `name` during `repeat`.
    pub fn counter(&self, repeat: u32, name: &str) -> u64 {
        self.recorder.as_ref().map_or(0, |r| {
            let counters = r.counters.lock().expect("counter map poisoned");
            counters
                .get(name)
                .and_then(|by_repeat| by_repeat.get(&repeat))
                .copied()
                .unwrap_or(0)
        })
    }

    /// Durations (ns) of the spans named `name` recorded in `repeat`.
    pub fn durations(&self, repeat: u32, name: &str) -> Vec<u64> {
        self.with_spans(|spans| {
            spans
                .iter()
                .filter(|s| s.repeat == repeat && s.name() == name)
                .map(SpanRec::nanos)
                .collect()
        })
    }

    /// Total seconds spent in spans named `name` during `repeat`.
    pub fn total_s(&self, repeat: u32, name: &str) -> f64 {
        self.durations(repeat, name).iter().sum::<u64>() as f64 / 1e9
    }

    fn with_spans<T>(&self, f: impl FnOnce(&[SpanRec]) -> T) -> T {
        match &self.recorder {
            Some(r) => f(&r.spans.lock().expect("span list poisoned")),
            None => f(&[]),
        }
    }

    /// Every span, sorted by start, each with its parent and its self
    /// time (duration minus the part its direct children cover), plus
    /// the program's counters.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let mut spans = self.with_spans(<[SpanRec]>::to_vec);
        // Parents before children: earlier start first, longer first on
        // a tie.
        spans.sort_by(|a, b| (a.start_ns, b.end_ns).cmp(&(b.start_ns, a.end_ns)));
        let mut child_ns: BTreeMap<(u32, &str, u64), u64> = BTreeMap::new();
        // Spans of one thread nest, so the innermost open span whose
        // path is this span's parent path is the parent.
        let mut open: Vec<&SpanRec> = Vec::new();
        for span in &spans {
            while open.last().is_some_and(|top| top.end_ns <= span.start_ns) {
                open.pop();
            }
            let parent = open
                .iter()
                .rev()
                .find(|p| p.repeat == span.repeat && Some(p.path.as_str()) == span.parent());
            if let Some(p) = parent {
                *child_ns
                    .entry((p.repeat, p.path.as_str(), p.start_ns))
                    .or_insert(0) += span.nanos();
            }
            open.push(span);
        }
        let rows = spans.iter().map(|s| {
            let covered = child_ns
                .get(&(s.repeat, s.path.as_str(), s.start_ns))
                .copied()
                .unwrap_or(0);
            Value::obj([
                ("name", Value::from(s.name())),
                ("path", Value::from(s.path.as_str())),
                ("parent", s.parent().map_or(Value::Null, Value::from)),
                ("repeat", Value::from(s.repeat)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("self_ns", Value::from(s.nanos().saturating_sub(covered))),
            ])
        });
        let counters = self.recorder.as_ref().map_or_else(Vec::new, |r| {
            let counters = r.counters.lock().expect("counter map poisoned");
            counters
                .iter()
                .flat_map(|(name, by_repeat)| {
                    by_repeat.iter().map(move |(&repeat, &value)| {
                        Value::obj([
                            ("name", Value::from(name.as_str())),
                            ("repeat", Value::from(repeat)),
                            ("value", Value::from(value)),
                        ])
                    })
                })
                .collect()
        });
        Value::obj([
            ("workload", Value::from(workload)),
            ("seed", Value::from(seed)),
            ("spans", Value::arr(rows)),
            ("counters", Value::arr(counters)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_interval_parent_and_self_time() {
        let t = Tracer::on();
        t.set_repeat(7);
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        t.telemetry().counter("evals", 3);
        assert_eq!(t.counter(7, "evals"), 3);
        assert_eq!(t.counter(0, "evals"), 0);
        assert_eq!(t.durations(7, "inner").len(), 1);
        assert!(t.durations(0, "inner").is_empty());
        let doc = t.to_json("w", 1);
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        let outer = &spans[0];
        assert_eq!(outer.get("name").and_then(Value::as_str), Some("outer"));
        assert!(outer.get("parent").unwrap().is_null());
        let inner = &spans[1];
        assert_eq!(inner.get("parent").and_then(Value::as_str), Some("outer"));
        let dur = |s: &Value| {
            s.get("end_ns").and_then(Value::as_u64).unwrap()
                - s.get("start_ns").and_then(Value::as_u64).unwrap()
        };
        assert_eq!(
            outer.get("self_ns").and_then(Value::as_u64).unwrap(),
            dur(outer) - dur(inner)
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        drop(t.span("ghost"));
        assert!(!t.is_on());
        assert_eq!(t.counter(0, "x"), 0);
        assert!(t.durations(0, "ghost").is_empty());
    }
}
