//! Span tracing and the workspace's only wall-clock access.
//!
//! This module is the single place the workspace reads the real clock:
//! `clippy.toml` disallows `Instant::now` everywhere, and the `allow` on
//! [`Stopwatch::start`] and on the span entry are the only carve-outs.
//! Everything downstream measures durations
//! through [`Stopwatch`] or [`SpanGuard`] and receives a [`Duration`]
//! back; no other crate ever holds an `Instant`.

use crate::registry::registry;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// A started wall-clock timer (the harness-facing primitive: ceiling
/// timers, ad-hoc measurements).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed whole milliseconds (`u64`, saturating).
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// One entry of the thread-local span stack.
struct Frame {
    path: String,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Enter a span: the guard measures until [`SpanGuard::finish`] (or
/// drop) and feeds the per-path span statistics.  Spans nest through a
/// thread-local stack — a child's path is `parent/child`, and its
/// elapsed time is attributed to the parent's child time, so snapshots
/// can report *self* time per path.
pub fn span(name: &str) -> SpanGuard {
    enter(name)
}

/// [`span`] with an owned path (what the [`span!`](crate::span!) macro
/// formats into).
pub fn span_owned(name: String) -> SpanGuard {
    enter(&name)
}

#[allow(clippy::disallowed_methods)]
fn enter(name: &str) -> SpanGuard {
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_owned(),
        };
        stack.push(Frame {
            path: path.clone(),
            child_ns: 0,
        });
        path
    });
    SpanGuard {
        path,
        started: Instant::now(),
        finished: false,
    }
}

/// An entered span; finishes (records its stats) on [`Self::finish`] or
/// drop.  Guards must finish in LIFO order — let scoping do it.
#[derive(Debug)]
pub struct SpanGuard {
    path: String,
    started: Instant,
    finished: bool,
}

impl SpanGuard {
    /// The span's full `/`-separated path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Finish the span now and return its measured duration (what the
    /// resolver's `technique_timings` are derived from).
    pub fn finish(mut self) -> Duration {
        self.complete()
    }

    fn complete(&mut self) -> Duration {
        self.finished = true;
        let elapsed = self.started.elapsed();
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let child_ns = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            debug_assert_eq!(frame.path, self.path, "spans must finish in LIFO order");
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
            }
            frame.child_ns
        });
        registry().record_span(&self.path, elapsed_ns, child_ns);
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.complete();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_child_time() {
        {
            let outer = span("test.span.outer");
            assert_eq!(outer.path(), "test.span.outer");
            {
                let inner = span("inner");
                assert_eq!(inner.path(), "test.span.outer/inner");
                std::thread::sleep(Duration::from_millis(2));
                let measured = inner.finish();
                assert!(measured >= Duration::from_millis(2));
            }
            drop(outer);
        }
        let snapshot = registry().snapshot();
        let outer = snapshot
            .spans
            .iter()
            .find(|s| s.path == "test.span.outer")
            .expect("outer span recorded");
        let inner = snapshot
            .spans
            .iter()
            .find(|s| s.path == "test.span.outer/inner")
            .expect("inner span recorded");
        assert!(outer.count >= 1 && inner.count >= 1);
        // The parent's self time excludes the child's sleep.
        assert!(outer.self_ns <= outer.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn span_macro_formats_paths() {
        let literal = crate::span!("test.macro.literal");
        assert_eq!(literal.path(), "test.macro.literal");
        drop(literal);
        let formatted = crate::span!("test.macro.shard{}", 3);
        assert_eq!(formatted.path(), "test.macro.shard3");
        drop(formatted);
    }

    #[test]
    fn stopwatch_measures_forward() {
        let watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(1));
        assert!(watch.elapsed() >= Duration::from_millis(1));
        let _ = watch.elapsed_ms();
    }
}
