//! The `Recorder` trait and the cheap `Telemetry` handle.

use std::fmt;
use std::sync::Arc;

use crate::journal::JournalEvent;
use crate::span::Span;

/// Which surfaces a [`Recorder`] actually stores.
///
/// The [`Telemetry`] handle caches this at construction and gates each
/// call on the matching flag, so a recorder that only stores one
/// surface (e.g. a bare [`crate::Journal`]) costs a predicted branch —
/// not a virtual call — on every surface it ignores. That is what keeps
/// a journal-only run's overhead down to the journal itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// Counters, gauges, and histograms.
    pub metrics: bool,
    /// Hierarchical span timings.
    pub spans: bool,
    /// Sim-time journal entries and clock updates.
    pub journal: bool,
}

impl Capabilities {
    /// Every surface on — the conservative default for full recorders.
    pub const ALL: Capabilities = Capabilities {
        metrics: true,
        spans: true,
        journal: true,
    };

    /// Every surface off (the no-op handle).
    pub const NONE: Capabilities = Capabilities {
        metrics: false,
        spans: false,
        journal: false,
    };

    /// Only the sim-time journal.
    pub(crate) const JOURNAL_ONLY: Capabilities = Capabilities {
        journal: true,
        ..Capabilities::NONE
    };
}

/// The sink instrumentation writes to.
///
/// All methods default to no-ops so implementations only override what
/// they store. Implementations must be thread-safe: campaigns fan
/// fingerprinting out across OS threads.
pub trait Recorder: Send + Sync {
    /// Whether this recorder stores anything. [`Telemetry`] does not
    /// read it: each call is gated on [`Recorder::capabilities`].
    fn enabled(&self) -> bool {
        false
    }

    /// Which surfaces this recorder stores. Defaults to all so existing
    /// recorders keep receiving every call; recorders that ignore a
    /// surface should turn its flag off and let [`Telemetry`] skip the
    /// virtual call entirely.
    fn capabilities(&self) -> Capabilities {
        Capabilities::ALL
    }

    /// Adds `delta` to the named counter.
    fn add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the named gauge (tracking its high-water mark).
    fn gauge_set(&self, name: &str, value: i64) {
        let _ = (name, value);
    }

    /// Records one sample into the named histogram.
    fn observe(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Records a completed span at `path` lasting `nanos`.
    fn record_span(&self, path: &str, nanos: u64) {
        let _ = (path, nanos);
    }

    /// Advances the journal's sim-time clock. Drivers call this once
    /// per dequeued simulation event; entries recorded until the next
    /// call are stamped with `now`.
    fn journal_time(&self, now: u64) {
        let _ = now;
    }

    /// Records a sim-time journal event.
    fn record_event(&self, event: JournalEvent) {
        let _ = event;
    }

    /// Records a batch of journal events carrying explicit sim times.
    /// Single-threaded drivers buffer `(time, event)` pairs and flush
    /// thousands at once, so a recorder can amortise its
    /// synchronisation over the whole batch; the journal clock ends at
    /// the batch's final time.
    fn record_journal_timed(&self, batch: &[(u64, JournalEvent)]) {
        for &(time, event) in batch {
            self.journal_time(time);
            self.record_event(event);
        }
    }
}

/// A cheap, cloneable handle to a recorder.
///
/// The default handle is a no-op: every method is a single `Option`
/// branch, so structs can hold a `Telemetry` unconditionally and
/// uninstrumented runs pay nothing measurable. Handles are plumbed by
/// value (they are one pointer wide) and shared freely across threads.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<dyn Recorder>>,
    caps: Capabilities,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("caps", &self.caps)
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle.
    pub fn noop() -> Self {
        Telemetry {
            inner: None,
            caps: Capabilities::NONE,
        }
    }

    /// Wraps an arbitrary recorder, caching its [`Capabilities`].
    pub fn from_recorder(recorder: Arc<dyn Recorder>) -> Self {
        let caps = recorder.capabilities();
        Telemetry {
            inner: Some(recorder),
            caps,
        }
    }

    /// Wraps a shared [`crate::Registry`].
    pub fn from_registry(registry: Arc<crate::Registry>) -> Self {
        Telemetry::from_recorder(registry)
    }

    /// Whether counters, gauges and histograms will actually be stored.
    /// Callers that would time something only to record it check this
    /// first.
    pub fn measures(&self) -> bool {
        self.caps.metrics && self.inner.is_some()
    }

    /// Whether spans will actually be recorded.
    pub(crate) fn times_spans(&self) -> bool {
        self.caps.spans && self.inner.is_some()
    }

    /// Whether journal entries will actually be stored. Hot paths that
    /// assemble event *batches* check this first so uninstrumented runs
    /// skip the assembly entirely.
    pub fn journals(&self) -> bool {
        self.caps.journal && self.inner.is_some()
    }

    /// Adds `delta` to the named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if self.caps.metrics {
            if let Some(r) = &self.inner {
                r.add(name, delta);
            }
        }
    }

    /// Sets the named gauge (its high-water mark is kept).
    pub fn gauge(&self, name: &str, value: i64) {
        if self.caps.metrics {
            if let Some(r) = &self.inner {
                r.gauge_set(name, value);
            }
        }
    }

    /// Records a histogram sample.
    pub fn observe(&self, name: &str, value: u64) {
        if self.caps.metrics {
            if let Some(r) = &self.inner {
                r.observe(name, value);
            }
        }
    }

    /// Advances the recorder's journal clock to sim time `now`.
    pub fn journal_time(&self, now: u64) {
        if self.caps.journal {
            if let Some(r) = &self.inner {
                r.journal_time(now);
            }
        }
    }

    /// Records a sim-time journal event. [`crate::journal::JournalEvent`]s
    /// are `Copy` dense-id payloads, so building one is free — no lazy
    /// variant is needed.
    pub fn journal(&self, event: JournalEvent) {
        if self.caps.journal {
            if let Some(r) = &self.inner {
                r.record_event(event);
            }
        }
    }

    /// Records a batch of journal events with explicit per-event sim
    /// times. This is the cheapest way to journal a hot loop: buffer
    /// `(time, event)` pairs locally and flush thousands per call.
    pub fn journal_timed(&self, batch: &[(u64, JournalEvent)]) {
        if self.caps.journal && !batch.is_empty() {
            if let Some(r) = &self.inner {
                r.record_journal_timed(batch);
            }
        }
    }

    /// Opens a hierarchical timing span; the returned RAII guard records
    /// the elapsed time under the nested span path on drop.
    pub fn span(&self, name: &'static str) -> Span {
        Span::enter(self.clone(), name)
    }

    pub(crate) fn record_span(&self, path: &str, nanos: u64) {
        if self.caps.spans {
            if let Some(r) = &self.inner {
                r.record_span(path, nanos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_inert() {
        let t = Telemetry::noop();
        assert!(!t.measures() && !t.times_spans() && !t.journals());
        t.counter("c", 1);
        t.gauge("g", 5);
        t.observe("h", 10);
        t.journal_time(40);
        t.journal(JournalEvent::Notify {
            machine: 0,
            release: 0,
        });
        let _span = t.span("nothing");
    }

    #[test]
    fn default_is_noop() {
        let t = Telemetry::default();
        assert!(!t.measures() && !t.journals());
        let dbg = format!("{t:?}");
        assert!(dbg.contains("metrics: false"), "{dbg}");
    }

    /// A recorder that implements nothing but its capabilities.
    struct NoopRecorder;

    impl Recorder for NoopRecorder {
        fn capabilities(&self) -> Capabilities {
            Capabilities::NONE
        }
    }

    #[test]
    fn noop_recorder_type_is_inert() {
        let r = NoopRecorder;
        r.add("x", 1);
        r.gauge_set("x", 1);
        r.observe("x", 1);
        r.record_span("x", 1);
        r.journal_time(1);
        r.record_event(JournalEvent::Notify {
            machine: 0,
            release: 0,
        });
    }

    /// Advertises `caps` and stores whatever reaches it in a registry.
    struct OneSurface(Capabilities, crate::Registry);

    impl Recorder for OneSurface {
        fn capabilities(&self) -> Capabilities {
            self.0
        }

        fn observe(&self, name: &str, value: u64) {
            self.1.observe(name, value);
        }

        fn record_span(&self, path: &str, nanos: u64) {
            self.1.record_span(path, nanos);
        }
    }

    fn one_surface(caps: Capabilities) -> (Arc<OneSurface>, Telemetry) {
        let recorder = Arc::new(OneSurface(caps, crate::Registry::new(8)));
        (Arc::clone(&recorder), Telemetry::from_recorder(recorder))
    }

    #[test]
    fn spans_only_recorder_receives_spans() {
        let (r, t) = one_surface(Capabilities {
            spans: true,
            ..Capabilities::NONE
        });
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            t.observe("h", 1);
        }
        let snap = r.1.snapshot();
        assert_eq!(
            snap.spans.keys().collect::<Vec<_>>(),
            ["outer", "outer/inner"]
        );
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn metrics_only_recorder_receives_metrics() {
        let (r, t) = one_surface(Capabilities {
            metrics: true,
            ..Capabilities::NONE
        });
        assert!(t.measures());
        {
            let span = t.span("outer");
            assert_eq!(span.path(), "");
            t.observe("h", 7);
        }
        let snap = r.1.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.histograms["h"].sum, 7);
    }
}
