//! Hierarchical RAII timing spans.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop, and records it under a *path* built from the stack of spans
//! open on the current thread: a span `"round"` opened while
//! `"campaign"` and `"deploy"` are open records as
//! `"campaign/deploy/round"`. Nesting is tracked per thread in a
//! thread-local stack, so parallel workers each get their own
//! hierarchy.
//!
//! When the owning [`Telemetry`] handle records no spans (a no-op, or a
//! recorder whose [`crate::Capabilities`] leave `spans` off) the span
//! is inert — no clock read, no thread-local traffic.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder::Telemetry;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An RAII guard timing one phase of work. See the module docs.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    path: String,
    start: Option<Instant>,
}

impl Span {
    pub(crate) fn enter(telemetry: Telemetry, name: &'static str) -> Span {
        if !telemetry.times_spans() {
            return Span {
                telemetry,
                path: String::new(),
                start: None,
            };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        Span {
            telemetry,
            path,
            start: Some(Instant::now()),
        }
    }

    /// The full nested path this span records under (empty when inert).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        self.telemetry.record_span(&self.path, nanos);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::registry::Registry;

    #[test]
    fn spans_nest_into_paths() {
        let registry = Arc::new(Registry::new(16));
        let t = Telemetry::from_registry(Arc::clone(&registry));
        {
            let outer = t.span("outer");
            assert_eq!(outer.path(), "outer");
            {
                let mid = t.span("mid");
                assert_eq!(mid.path(), "outer/mid");
                let leaf = t.span("leaf");
                assert_eq!(leaf.path(), "outer/mid/leaf");
            }
            // Siblings reuse the parent path after the first child closed.
            let second = t.span("second");
            assert_eq!(second.path(), "outer/second");
        }
        let snap = registry.snapshot();
        for path in ["outer", "outer/mid", "outer/mid/leaf", "outer/second"] {
            assert_eq!(snap.spans[path].count, 1, "missing span {path}");
        }
    }

    #[test]
    fn repeated_spans_aggregate() {
        let registry = Arc::new(Registry::new(16));
        let t = Telemetry::from_registry(Arc::clone(&registry));
        for _ in 0..5 {
            let _span = t.span("tick");
        }
        assert_eq!(registry.snapshot().spans["tick"].count, 5);
    }

    #[test]
    fn inert_span_leaves_stack_alone() {
        let t = Telemetry::noop();
        let span = t.span("ghost");
        assert_eq!(span.path(), "");
        drop(span);
        // A live span opened afterwards starts a fresh hierarchy.
        let registry = Arc::new(Registry::new(16));
        let live = Telemetry::from_registry(Arc::clone(&registry));
        let s = live.span("root");
        assert_eq!(s.path(), "root");
    }

    #[test]
    fn threads_have_independent_stacks() {
        let registry = Arc::new(Registry::new(16));
        let t = Telemetry::from_registry(Arc::clone(&registry));
        let _outer = t.span("main-outer");
        let handle = {
            let t = t.clone();
            std::thread::spawn(move || {
                let s = t.span("worker");
                s.path().to_string()
            })
        };
        // The worker thread's span must not inherit main-outer.
        assert_eq!(handle.join().unwrap(), "worker");
    }
}
