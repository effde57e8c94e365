//! Span tracing and the workspace's only wall-clock access.
//!
//! This module is the single place the workspace reads the real clock:
//! `clippy.toml` disallows `Instant::now` everywhere, and the `allow` on
//! the span entry is the only carve-out.  Everything downstream measures
//! durations through a [`SpanGuard`], which records into the registry; no
//! other crate ever holds an `Instant`.

use crate::registry::with_current;
use std::cell::RefCell;
use std::time::Instant;

/// One entry of the thread-local span stack.
struct Frame {
    path: String,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Enter a span: the guard measures until it drops and feeds the per-path
/// span statistics.  Spans nest through a
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
    }
}

/// An entered span; records its stats on drop.  Guards must drop in LIFO
/// order — let scoping do it.
#[derive(Debug)]
pub struct SpanGuard {
    path: String,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            debug_assert_eq!(frame.path, self.path, "spans must finish in LIFO order");
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
            }
            frame.child_ns
        });
        with_current(|registry| registry.record_span(&self.path, elapsed_ns, child_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use std::time::Duration;

    #[test]
    fn nested_spans_attribute_child_time() {
        {
            let outer = span("test.span.outer");
            assert_eq!(outer.path, "test.span.outer");
            {
                let inner = span("inner");
                assert_eq!(inner.path, "test.span.outer/inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            drop(outer);
        }
        let snapshot = registry().snapshot();
        let [outer, inner] = &snapshot.spans[..] else {
            panic!("two spans recorded: {:?}", snapshot.spans);
        };
        assert_eq!(outer.path, "test.span.outer");
        assert_eq!(inner.path, "test.span.outer/inner");
        assert!(outer.count == 1 && inner.count == 1);
        // The parent's self time excludes the child's sleep.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn span_macro_formats_paths() {
        let literal = crate::span!("test.macro.literal");
        assert_eq!(literal.path, "test.macro.literal");
        drop(literal);
        let formatted = crate::span!("test.macro.shard{}", 3);
        assert_eq!(formatted.path, "test.macro.shard3");
        drop(formatted);
    }
}
