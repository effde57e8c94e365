//! The per-thread registry: counters, span statistics and the event log
//! behind one lock.

use crate::metric::LazyCounter;
use crate::snapshot::{CounterSample, MetricsSnapshot, SpanSample};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

thread_local! {
    static CURRENT: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// The calling thread's registry.
///
/// Every thread starts with an empty one of its own, so two pipelines run
/// on two threads never share a counter.  `alias_scan`'s `shard_map` hands its
/// caller's registry to the workers it spawns (`Registry::install`), so
/// what a shard job records lands where the caller will snapshot it.
pub fn registry() -> Registry {
    with_current(Registry::clone)
}

/// Run `f` on the calling thread's registry, creating it on first use.
pub(crate) fn with_current<T>(f: impl FnOnce(&Registry) -> T) -> T {
    CURRENT.with(|current| f(current.borrow_mut().get_or_insert_with(Registry::default)))
}

/// Append `label` to the calling thread's sequence-ordered event log.
///
/// The log records *order*, not time; call it only from serial
/// orchestration points (campaign phase boundaries, stage hand-offs) so
/// the sequence stays part of the deterministic subset.
pub fn event(label: impl Into<String>) {
    with_current(|registry| registry.lock().events.push(label.into()));
}

/// Aggregated statistics of one span path.
#[derive(Debug, Default)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

/// What a registry holds: name- and path-keyed `BTreeMap`s, so snapshots
/// come out sorted, and the event log in sequence order.
#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<&'static str, (LazyCounter, u64)>,
    spans: BTreeMap<String, SpanStats>,
    events: Vec<String>,
}

/// A metrics registry.  Clones are handles on the same tables.
#[derive(Debug, Clone, Default)]
pub struct Registry(Arc<Mutex<Tables>>);

impl Registry {
    /// Make this the calling thread's registry from now on: what a layer
    /// that spawns threads does with its caller's [`registry`] in each
    /// thread it starts.
    pub fn install(self) {
        CURRENT.with(|current| *current.borrow_mut() = Some(self));
    }

    /// The tables.  A thread that panicked while holding the lock left
    /// them valid — every update is one addition or one push — so a
    /// poisoned lock is taken over rather than passed on as a panic.
    fn lock(&self) -> MutexGuard<'_, Tables> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `n` to `counter`, listing it from now on.  The first
    /// descriptor under a name wins; a second, different one is a bug
    /// (`debug_assert`ed).
    pub(crate) fn add(&self, counter: LazyCounter, n: u64) {
        let mut tables = self.lock();
        let (registered, value) = tables.counters.entry(counter.name).or_insert((counter, 0));
        debug_assert_eq!(
            *registered, counter,
            "metric re-registered with a new descriptor"
        );
        *value += n;
    }

    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64, child_ns: u64) {
        let mut tables = self.lock();
        let stats = match tables.spans.get_mut(path) {
            Some(stats) => stats,
            None => tables.spans.entry(path.to_owned()).or_default(),
        };
        stats.count += 1;
        stats.total_ns += elapsed_ns;
        stats.child_ns += child_ns;
    }

    /// Forget every counter, span and event: the next snapshot lists only
    /// what is recorded after this call.
    pub fn reset(&self) {
        *self.lock() = Tables::default();
    }

    /// A point-in-time copy of every counter, span path and event, counters
    /// sorted by name and spans by path, events in sequence order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let tables = self.lock();
        let counters = tables
            .counters
            .values()
            .map(|&(counter, value)| CounterSample {
                name: counter.name,
                class: counter.class,
                unit: counter.unit,
                stage: counter.stage,
                value,
            });
        let spans = tables.spans.iter().map(|(path, stats)| SpanSample {
            path: path.clone(),
            count: stats.count,
            total_ns: stats.total_ns,
            self_ns: stats.total_ns.saturating_sub(stats.child_ns),
        });
        MetricsSnapshot {
            counters: counters.collect(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: spans.collect(),
            events: tables.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::DeterminismClass;

    static ALPHA: LazyCounter = LazyCounter::new(
        "test.registry.alpha",
        DeterminismClass::Deterministic,
        "items",
        "test",
    );
    static BETA: LazyCounter = LazyCounter::new(
        "test.registry.beta",
        DeterminismClass::Timing,
        "items",
        "test",
    );

    fn values(snapshot: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        snapshot
            .counters
            .iter()
            .map(|c| (c.name, c.value))
            .collect()
    }

    #[test]
    fn counters_sum_per_name_and_snapshot_sorted() {
        BETA.incr();
        ALPHA.add(2);
        ALPHA.add(0);
        BETA.add(4);
        let expected = vec![("test.registry.alpha", 2), ("test.registry.beta", 5)];
        assert_eq!(values(&registry().snapshot()), expected);
    }

    #[test]
    fn events_keep_sequence_order() {
        event("test.order.first");
        event("test.order.second");
        let snapshot = registry().snapshot();
        assert_eq!(snapshot.events, ["test.order.first", "test.order.second"]);
    }

    #[test]
    fn a_thread_counts_into_its_own_registry_or_the_one_it_installs() {
        ALPHA.add(1);
        let caller = registry();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                ALPHA.add(10);
                assert_eq!(
                    values(&registry().snapshot()),
                    [("test.registry.alpha", 10)]
                );
            });
            scope.spawn(|| {
                caller.clone().install();
                ALPHA.add(100);
            });
        });
        assert_eq!(
            values(&registry().snapshot()),
            [("test.registry.alpha", 101)]
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_under_the_lock_leaves_the_registry_usable() {
        static ALPHA_AGAIN: LazyCounter = LazyCounter::new(
            "test.registry.alpha",
            DeterminismClass::Timing,
            "items",
            "test",
        );
        ALPHA.add(1);
        let caller = registry();
        let panicked = std::thread::scope(|scope| {
            let clash = scope.spawn(|| {
                caller.clone().install();
                ALPHA_AGAIN.add(1);
            });
            clash.join().is_err()
        });
        assert!(panicked, "a clashing descriptor panics in debug builds");
        ALPHA.add(1);
        assert_eq!(values(&registry().snapshot()), [("test.registry.alpha", 2)]);
    }
}
