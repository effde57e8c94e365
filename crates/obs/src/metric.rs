//! Metric primitives: striped counters, gauges, fixed-boundary
//! histograms, and the lazy `static` handles hot loops hoist.

use crate::registry::registry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of atomic stripes per counter.  A power of two comfortably
/// above the scan's worker-pool cap, so concurrent shard workers rarely
/// share a stripe.
const STRIPES: usize = 32;

/// Stripe assignment: each thread picks one stripe round-robin on first
/// touch and keeps it for its lifetime.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Whether a metric's value is part of the run-to-run, thread-count-
/// invariant determinism contract (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeterminismClass {
    /// A pure function of the campaign inputs: byte-identical run to run
    /// and at any `ALIAS_THREADS`, rendered by
    /// [`MetricsSnapshot::deterministic_json`](crate::MetricsSnapshot::deterministic_json).
    Deterministic,
    /// Depends on scheduling, the scan's shard decomposition or the wall
    /// clock: out-of-band of all rendered experiment output.
    Timing,
}

impl DeterminismClass {
    /// The class's lowercase label, as rendered in snapshots.
    pub fn label(self) -> &'static str {
        match self {
            DeterminismClass::Deterministic => "deterministic",
            DeterminismClass::Timing => "timing",
        }
    }
}

/// The static description a metric is registered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDesc {
    /// Dot-separated metric name, e.g. `scan.probes_emitted`.
    pub name: &'static str,
    /// Determinism class (see the crate docs).
    pub class: DeterminismClass,
    /// Unit label, e.g. `probes`, `rows`, `ns`, `x1000`.
    pub unit: &'static str,
    /// The pipeline stage that emits it: `exec`, `scan`, `store`,
    /// `merge`, `resolve` or `bench`.
    pub stage: &'static str,
}

impl MetricDesc {
    /// A descriptor from its four fields (`const`, so `static` handles
    /// can embed it).
    pub const fn new(
        name: &'static str,
        class: DeterminismClass,
        unit: &'static str,
        stage: &'static str,
    ) -> Self {
        MetricDesc {
            name,
            class,
            unit,
            stage,
        }
    }
}

/// A monotonic counter striped over per-thread atomic slots.
///
/// `add` is one relaxed `fetch_add` on the calling thread's stripe;
/// `value` merges the stripes in stripe order.  Summation is commutative,
/// so totals accumulated from inside shard workers are still
/// thread-count-invariant whenever each work item contributes the same
/// amount no matter which shard processed it.
#[derive(Debug)]
pub struct Counter {
    stripes: [AtomicU64; STRIPES],
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter {
            stripes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total: the stripes merged in stripe order.
    pub fn value(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    pub(crate) fn reset(&self) {
        for stripe in &self.stripes {
            stripe.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value / running-max gauge.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (running maximum).
    #[inline]
    pub fn max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A histogram over fixed, registration-time bucket boundaries.
///
/// `observe(v)` increments the first bucket whose upper boundary is
/// `>= v` (the last bucket is the overflow bucket), plus a striped
/// count/sum pair — every per-bucket cell is a striped [`Counter`], so
/// concurrent shard workers do not contend.
#[derive(Debug)]
pub struct Histogram {
    boundaries: &'static [u64],
    buckets: Vec<Counter>,
    count: Counter,
    sum: Counter,
}

impl Histogram {
    pub(crate) fn new(boundaries: &'static [u64]) -> Self {
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly increasing"
        );
        Histogram {
            boundaries,
            buckets: (0..=boundaries.len()).map(|_| Counter::new()).collect(),
            count: Counter::new(),
            sum: Counter::new(),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let slot = self
            .boundaries
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.boundaries.len());
        self.buckets[slot].incr();
        self.count.incr();
        self.sum.add(v);
    }

    /// The bucket boundaries the histogram was registered with.
    pub fn boundaries(&self) -> &'static [u64] {
        self.boundaries
    }

    /// Per-bucket counts, in boundary order (the final entry is the
    /// overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(Counter::value).collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.value()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.value()
    }

    pub(crate) fn reset(&self) {
        for bucket in &self.buckets {
            bucket.reset();
        }
        self.count.reset();
        self.sum.reset();
    }
}

/// A `static`-friendly counter handle: resolves its registry entry once,
/// then every `add` is a plain striped `fetch_add`.
///
/// ```
/// use alias_obs::{DeterminismClass, LazyCounter};
/// static ROWS: LazyCounter = LazyCounter::new(
///     "doc.rows_seen",
///     DeterminismClass::Deterministic,
///     "rows",
///     "store",
/// );
/// ROWS.add(3);
/// assert!(ROWS.value() >= 3);
/// ```
pub struct LazyCounter {
    desc: MetricDesc,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for the counter described by the four descriptor fields.
    pub const fn new(
        name: &'static str,
        class: DeterminismClass,
        unit: &'static str,
        stage: &'static str,
    ) -> Self {
        LazyCounter {
            desc: MetricDesc::new(name, class, unit, stage),
            cell: OnceLock::new(),
        }
    }

    /// The registered counter (registering it on first touch).
    pub fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| registry().counter(self.desc))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.get().incr();
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.get().value()
    }
}

/// A `static`-friendly gauge handle (see [`LazyCounter`]).
pub struct LazyGauge {
    desc: MetricDesc,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A handle for the gauge described by the four descriptor fields.
    pub const fn new(
        name: &'static str,
        class: DeterminismClass,
        unit: &'static str,
        stage: &'static str,
    ) -> Self {
        LazyGauge {
            desc: MetricDesc::new(name, class, unit, stage),
            cell: OnceLock::new(),
        }
    }

    /// The registered gauge (registering it on first touch).
    pub fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| registry().gauge(self.desc))
    }

    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.get().set(v);
    }

    /// Raise the gauge to `v` if larger.
    #[inline]
    pub fn max(&self, v: u64) {
        self.get().max(v);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.get().value()
    }
}

/// A `static`-friendly histogram handle (see [`LazyCounter`]).
pub struct LazyHistogram {
    desc: MetricDesc,
    boundaries: &'static [u64],
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A handle for the histogram described by the descriptor fields and
    /// its fixed bucket boundaries.
    pub const fn new(
        name: &'static str,
        class: DeterminismClass,
        unit: &'static str,
        stage: &'static str,
        boundaries: &'static [u64],
    ) -> Self {
        LazyHistogram {
            desc: MetricDesc::new(name, class, unit, stage),
            boundaries,
            cell: OnceLock::new(),
        }
    }

    /// The registered histogram (registering it on first touch).
    pub fn get(&self) -> &'static Histogram {
        self.cell
            .get_or_init(|| registry().histogram(self.desc, self.boundaries))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.get().observe(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 8_000);
        counter.reset();
        assert_eq!(counter.value(), 0);
    }

    #[test]
    fn gauge_set_and_max() {
        let gauge = Gauge::new();
        gauge.set(5);
        gauge.max(3);
        assert_eq!(gauge.value(), 5);
        gauge.max(9);
        assert_eq!(gauge.value(), 9);
        gauge.reset();
        assert_eq!(gauge.value(), 0);
    }

    #[test]
    fn histogram_buckets_observations() {
        static BOUNDS: [u64; 3] = [10, 100, 1_000];
        let histogram = Histogram::new(&BOUNDS);
        for v in [1, 10, 11, 500, 5_000] {
            histogram.observe(v);
        }
        assert_eq!(histogram.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(histogram.count(), 5);
        assert_eq!(histogram.sum(), 1 + 10 + 11 + 500 + 5_000);
        histogram.reset();
        assert_eq!(histogram.count(), 0);
        assert_eq!(histogram.bucket_counts(), vec![0, 0, 0, 0]);
    }
}
