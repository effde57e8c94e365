//! Counter descriptors: what a counter is called, what it counts and
//! whether its total is part of the determinism contract.

use crate::registry::with_current;

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
    pub(crate) fn label(self) -> &'static str {
        match self {
            DeterminismClass::Deterministic => "deterministic",
            DeterminismClass::Timing => "timing",
        }
    }
}

/// A counter's descriptor, `const` so call sites declare it as a `static`.
/// [`add`](Self::add) lands in the calling thread's
/// [`registry`](crate::registry()), which lists the counter from its first
/// touch on — an `add(0)` included.
///
/// ```
/// use alias_obs::{registry, DeterminismClass, LazyCounter};
/// static ROWS: LazyCounter = LazyCounter::new(
///     "doc.rows_seen",
///     DeterminismClass::Deterministic,
///     "rows",
///     "store",
/// );
/// ROWS.add(3);
/// assert_eq!(registry().snapshot().counters[0].value, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LazyCounter {
    pub(crate) name: &'static str,
    pub(crate) class: DeterminismClass,
    pub(crate) unit: &'static str,
    pub(crate) stage: &'static str,
}

impl LazyCounter {
    /// A counter named `name` (dot-separated, e.g. `scan.probes_emitted`),
    /// counting `unit`s, emitted by pipeline stage `stage`.
    pub const fn new(
        name: &'static str,
        class: DeterminismClass,
        unit: &'static str,
        stage: &'static str,
    ) -> Self {
        LazyCounter {
            name,
            class,
            unit,
            stage,
        }
    }

    /// Add `n` in the calling thread's registry.
    pub fn add(&self, n: u64) {
        with_current(|registry| registry.add(*self, n));
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }
}
