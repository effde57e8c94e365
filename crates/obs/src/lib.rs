//! # alias-obs
//!
//! The pipeline's observability substrate: per-thread registries of
//! monotonic counters ([`LazyCounter`]), lightweight [`span()`] tracing
//! with self/child time attribution, and a sequence-ordered [`event`] log.
//! Every other crate reports *what the pipeline did* through this one;
//! nothing else in the workspace may read the wall clock (`clippy.toml`
//! disallows `Instant::now`; the `span` module holds the one
//! `allow`).
//!
//! ## One registry per pipeline thread
//!
//! [`registry()`] is the calling thread's `Registry`: counters, span
//! statistics and the event log behind one lock.  A counter's `add`, a
//! span's drop and an [`event`] land there.  The scan's `shard_map`, the
//! one place the workspace spawns threads, installs its caller's registry
//! in every worker, so a pipeline's snapshot is complete at any
//! `ALIAS_THREADS`, and two pipelines on two threads keep two registries.
//! A run touches the lock a few hundred times (hot loops count into
//! locals and add once per shard or per call), so it costs nothing
//! measurable.
//!
//! ## Determinism classes
//!
//! The repo's load-bearing property is a byte-identical
//! `EXPERIMENTS_MEASURED.md` for the same seed, run to run and at any
//! `ALIAS_THREADS`, and the metrics layer honours the same split:
//!
//! * [`DeterminismClass::Deterministic`] — values that are a pure
//!   function of the campaign inputs (probe counts, absorbed rows,
//!   candidate pairs, merged sets, union-find operations).  Addition
//!   commutes, so a total added from inside the scan's shard workers is
//!   still thread-count-invariant as long as each item contributes the
//!   same amount regardless of which shard processed it.
//!   [`MetricsSnapshot::deterministic_json`] renders exactly this subset
//!   and must be byte-identical run to run and across thread counts.
//! * [`DeterminismClass::Timing`] — counts that depend on scheduling or on
//!   the scan's shard decomposition (the scan's `shards_for` derives
//!   shard counts from the *hardware* parallelism), and span durations.
//!   These render only in the full [`MetricsSnapshot::to_json`], never in
//!   rendered experiment documents.
//!
//! ## Spans and events
//!
//! [`span()`] (or the [`span!`] macro, which formats a path) returns a
//! `SpanGuard`; guards nest through a thread-local stack, so a span's
//! *self* time is its total minus the time attributed to its children.
//! A span records when its guard drops, and the registry is the one place
//! its duration lands: no caller gets a wall-clock value back.  [`event`]
//! appends a label to the sequence-ordered log: it records *order*, not
//! time, so events emitted from serial orchestration points (campaign
//! phase boundaries) are part of the deterministic subset.

mod metric;
mod registry;
mod snapshot;
mod span;

pub use metric::{DeterminismClass, LazyCounter};
pub use registry::{event, registry};
pub use snapshot::{MetricsSnapshot, SpanSample};
pub use span::{span, span_owned};

/// Format a span path and enter it: `span!("scan.zmap")` or
/// `span!("resolve/technique/{}", name)`.
#[macro_export]
macro_rules! span {
    ($path:literal) => {
        $crate::span($path)
    };
    ($($arg:tt)*) => {
        $crate::span_owned(format!($($arg)*))
    };
}
