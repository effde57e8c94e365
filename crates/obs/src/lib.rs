//! # alias-obs
//!
//! The pipeline's observability substrate: a lock-free striped metrics
//! registry (monotonic [`Counter`]s, [`Gauge`]s and fixed-boundary
//! [`Histogram`]s), lightweight [`span()`] tracing with self/child time
//! attribution, and a sequence-ordered [`event`] log.  Every other crate
//! reports *what the pipeline did* through this one; nothing else in the
//! workspace may read the wall clock (`clippy.toml` disallows
//! `Instant::now`; the [`span`](mod@span) module holds the two `allow`s).
//!
//! ## Determinism classes
//!
//! The repo's load-bearing property is a byte-identical
//! `EXPERIMENTS_MEASURED.md` for the same seed, run to run and at any
//! `ALIAS_THREADS`, and the metrics layer honours the same split:
//!
//! * [`DeterminismClass::Deterministic`] — values that are a pure
//!   function of the campaign inputs (probe counts, absorbed rows,
//!   candidate pairs, merged sets, union-find operations).  Counter
//!   stripes are merged by commutative summation, so a total emitted
//!   from inside the scan's shard workers is still thread-count-invariant
//!   as long as each item contributes the same amount regardless of which
//!   shard processed it.
//!   [`MetricsSnapshot::deterministic_json`] renders exactly this subset
//!   and must be byte-identical run to run and across thread counts.
//! * [`DeterminismClass::Timing`] — wall-clock durations, shard
//!   imbalance, scratch-pool hit rates: anything that depends on
//!   scheduling or on the scan's shard decomposition
//!   (`alias_exec::shards_for` derives shard counts from the *hardware*
//!   parallelism).  These render only in the full
//!   [`MetricsSnapshot::to_json`] / [`MetricsSnapshot::to_prometheus`]
//!   output, never in rendered experiment documents.
//!
//! ## Hot-path discipline
//!
//! Counters are striped over per-thread atomic slots: `add` is one
//! relaxed `fetch_add` on the calling thread's stripe, and `value` merges
//! the stripes in stripe order.  Call sites hoist a handle through the
//! `static` [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] wrappers so
//! the registry lock is touched once per metric per process, not per
//! observation.
//!
//! ## Spans and events
//!
//! [`span()`] (or the [`span!`] macro, which formats a path) returns a
//! [`SpanGuard`]; guards nest through a thread-local stack, so a span's
//! *self* time is its total minus the time attributed to its children.
//! [`SpanGuard::finish`] hands the measured [`Duration`](std::time::Duration) back to the
//! caller — which is how `alias-resolve` derives its public
//! `technique_timings` without touching `Instant` itself.  [`event`] appends
//! a label to a global sequence-ordered log: it records *order*, not
//! time, so events emitted from serial orchestration points (campaign
//! phase boundaries) are part of the deterministic subset.

pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use metric::{
    Counter, DeterminismClass, Gauge, Histogram, LazyCounter, LazyGauge, LazyHistogram, MetricDesc,
};
pub use registry::{event, registry, Registry};
pub use snapshot::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SpanSample,
    DURATION_US_BOUNDARIES,
};
pub use span::{span, span_owned, SpanGuard, Stopwatch};

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
