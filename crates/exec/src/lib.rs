//! # alias-exec
//!
//! Deterministic sharded execution for the scan layer.
//!
//! A scan phase is embarrassingly parallel once its work is partitioned by
//! address: every shard owns a disjoint slice of an address-indexed domain
//! (a permutation range, a target list) and can be processed
//! independently.  This crate provides the one execution primitive the
//! seven scanner entry points of `alias-scan` are written against:
//! [`shard_map`], backed by a `std::thread` worker pool whose shared state
//! (the shard cursor and the result slots) is guarded by `parking_lot`
//! locks.  Nothing above the observation store is sharded: grouping, the
//! partition merge and the joint-burst verification were slower at two
//! threads in every measurement (docs/PERF.md § PR 24) and run on the
//! calling thread.
//!
//! ## The shard-map contract
//!
//! Determinism is a hard requirement of the pipeline: the experiment output
//! must be byte-identical for any thread count.  The contract that makes
//! this composable is:
//!
//! 1. **Pure shards.** The shard job receives only its shard index; its
//!    result must be a function of that index (plus shared read-only
//!    state).  Jobs must not communicate or observe completion order.
//! 2. **Shard-ordered results.** [`shard_map`] returns `results[i] ==
//!    job(i)` positionally, no matter which worker finished first; the
//!    campaign absorbs them in that order, exactly like a serial loop.
//! 3. **Serial equivalence.** With `threads <= 1` the jobs run inline on
//!    the calling thread, in shard order.  Callers prove (in tests) that
//!    their sharded decomposition reproduces the serial algorithm for
//!    *any* shard/thread count, which then makes the thread count a pure
//!    performance knob.
//!
//! Panics in a shard job propagate to the caller once all workers have
//! stopped picking up new shards.
//!
//! ## Choosing a thread count
//!
//! [`threads_from_env`] reads the `ALIAS_THREADS` environment variable and
//! falls back to [`available_parallelism`]; the campaign, the resolver and
//! the experiment harness use it so a single knob controls every scan.

use alias_obs::{DeterminismClass, LazyCounter, LazyGauge, LazyHistogram, DURATION_US_BOUNDARIES};
use parking_lot::Mutex;
use std::ops::Range;

/// Parallel `shard_map` invocations (the inline serial path is not
/// counted — it exists precisely because no pool ran).
static SHARD_MAP_CALLS: LazyCounter = LazyCounter::new(
    "exec.shard_map_calls",
    DeterminismClass::Timing,
    "calls",
    "exec",
);

/// Shards executed by parallel `shard_map` pools.
static SHARDS_EXECUTED: LazyCounter = LazyCounter::new(
    "exec.shards_executed",
    DeterminismClass::Timing,
    "shards",
    "exec",
);

/// Wall-clock duration of each shard body, microseconds.
static SHARD_DURATION_US: LazyHistogram = LazyHistogram::new(
    "exec.shard_duration_us",
    DeterminismClass::Timing,
    "us",
    "exec",
    DURATION_US_BOUNDARIES,
);

/// Worst slowest/fastest shard ratio observed in any one `shard_map`
/// call, ×1000 (4000 = the slowest shard took 4× the fastest).
static SHARD_IMBALANCE: LazyGauge = LazyGauge::new(
    "exec.shard_imbalance_x1000",
    DeterminismClass::Timing,
    "x1000",
    "exec",
);

/// `ScratchPool::take` calls served from a returned buffer.
static SCRATCH_HITS: LazyCounter = LazyCounter::new(
    "exec.scratch_pool_hits",
    DeterminismClass::Timing,
    "takes",
    "exec",
);

/// `ScratchPool::take` calls that had to allocate a fresh buffer.
static SCRATCH_MISSES: LazyCounter = LazyCounter::new(
    "exec.scratch_pool_misses",
    DeterminismClass::Timing,
    "takes",
    "exec",
);

/// The number of hardware threads available, with a safe fallback of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many shards callers typically create per worker thread: more shards
/// than threads keeps the pool busy when per-shard cost is uneven, without
/// affecting the (shard-order-reduced, deterministic) output.
pub const SHARDS_PER_THREAD: usize = 4;

/// The shard count for a phase run with `threads` workers.
///
/// One worker means one shard: the serial run *is* the single-shard run,
/// so no caller forks on the thread count.  Beyond that, shards exist to
/// load-balance across *hardware* threads, so the count is derived from
/// `threads` capped at the available parallelism: requesting
/// more workers than the machine has cores used to multiply the number of
/// shards (and with it every per-shard fixed cost — boundary fast-forwards,
/// chunk allocation, splice bookkeeping) for zero balancing benefit, which
/// is exactly how an 8-thread run on a 1-core CI box ended up *slower* than
/// the serial one.  Shard count is a pure performance knob: the shard-reduce
/// contract makes the output byte-identical for any value, so deriving it
/// from the machine cannot change results.
pub fn shards_for(threads: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    threads.min(available_parallelism()) * SHARDS_PER_THREAD
}

/// A pool of reusable scratch buffers shared by shard workers.
///
/// Shard jobs that need transient working memory (a probe-response buffer, a
/// staging vector) would otherwise allocate it once per *shard*; the pool
/// caps that at once per *worker* by letting each job [`take`](Self::take) a
/// buffer at shard start and [`put`](Self::put) it back at shard end.
///
/// Determinism: a pooled buffer carries no data between shards — `take`
/// hands out either a fresh `T::default()` or a buffer that a previous shard
/// explicitly returned, and callers must clear/overwrite it before reading
/// (the `Vec` idiom: `buf.clear()` then fill).  Which physical buffer a
/// shard receives affects capacity only, never contents, so shard results
/// stay pure functions of the shard index.
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// Create an empty pool.
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Take a scratch buffer: a previously returned one if available,
    /// otherwise `T::default()`.  Contents are unspecified — clear before
    /// use.
    pub fn take(&self) -> T {
        match self.free.lock().pop() {
            Some(buffer) => {
                SCRATCH_HITS.incr();
                buffer
            }
            None => {
                SCRATCH_MISSES.incr();
                T::default()
            }
        }
    }

    /// Return a buffer to the pool for the next shard to reuse.
    pub fn put(&self, buffer: T) {
        self.free.lock().push(buffer);
    }
}

impl<T: Default> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Thread count from the `ALIAS_THREADS` environment variable.
///
/// Unset, empty or `0` mean "use [`available_parallelism`]"; anything else
/// that fails to parse as a positive integer warns on stderr and also falls
/// back, so a typo degrades performance instead of silently changing
/// results (which it never could — see the determinism contract).
pub fn threads_from_env() -> usize {
    threads_from_value(std::env::var("ALIAS_THREADS").ok().as_deref())
}

/// [`threads_from_env`]'s parsing rule, split out (and public) so callers
/// honouring `ALIAS_THREADS` can test the unset/`0`/garbage fallbacks
/// without mutating the process environment — concurrent `setenv` while
/// other threads read it is undefined behaviour on glibc.
pub fn threads_from_value(raw: Option<&str>) -> usize {
    match raw {
        Some(raw) if !raw.trim().is_empty() => match raw.trim().parse::<usize>() {
            Ok(0) => available_parallelism(),
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "warning: ALIAS_THREADS={raw:?} is not a positive integer; \
                     using the available parallelism ({})",
                    available_parallelism()
                );
                available_parallelism()
            }
        },
        _ => available_parallelism(),
    }
}

/// Split `[0, n)` into `shards` contiguous ranges whose lengths differ by at
/// most one, preserving order: concatenating the ranges yields `0..n`.
///
/// Fewer than `shards` ranges are returned when `n < shards` (empty shards
/// are never emitted); zero items yield no ranges.
pub fn split_even(n: u64, shards: usize) -> Vec<Range<u64>> {
    let shards = shards.max(1) as u64;
    let mut out = Vec::new();
    let base = n / shards;
    let extra = n % shards;
    let mut start = 0u64;
    for shard in 0..shards {
        let len = base + u64::from(shard < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `job(0..shards)` on a pool of `threads` workers and return the
/// results in shard order (`result[i] == job(i)`).
///
/// With `threads <= 1` or a single shard the jobs run inline, in order, on
/// the calling thread — the serial reference path.  Workers pull shard
/// indices from a `parking_lot`-guarded cursor, so shards of uneven cost
/// balance across the pool, but the returned vector is always positional.
///
/// The pool never exceeds the machine's [`available_parallelism`]: the
/// jobs are CPU-bound, so extra workers only time-slice the same cores —
/// on a 1-core box an 8-thread request degenerates to the inline serial
/// path instead of four context-switching workers.  Worker count is
/// invisible to the output (shard-ordered reduction), so the cap is a pure
/// performance decision.
pub fn shard_map<R, F>(shards: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if shards == 0 {
        return Vec::new();
    }
    let workers = threads.min(shards).min(available_parallelism());
    if workers <= 1 || shards == 1 {
        return (0..shards).map(job).collect();
    }
    let cursor = Mutex::new(0usize);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..shards).map(|_| None).collect());
    let durations_ns: Mutex<Vec<u64>> = Mutex::new(vec![0; shards]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let shard = {
                    let mut next = cursor.lock();
                    if *next >= shards {
                        return;
                    }
                    let shard = *next;
                    *next += 1;
                    shard
                };
                let watch = alias_obs::Stopwatch::start();
                let result = job(shard);
                let elapsed_ns = u64::try_from(watch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                slots.lock()[shard] = Some(result);
                durations_ns.lock()[shard] = elapsed_ns;
            });
        }
    });
    record_shard_timings(&durations_ns.into_inner());
    slots
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("every shard ran"))
        .collect()
}

/// Feed one parallel `shard_map` call's per-shard wall-clock durations
/// into the obs layer: the duration histogram, the call/shard counters,
/// and the slowest/fastest imbalance gauge (all Timing class —
/// out-of-band of every rendered experiment output).
fn record_shard_timings(durations_ns: &[u64]) {
    SHARD_MAP_CALLS.incr();
    SHARDS_EXECUTED.add(durations_ns.len() as u64);
    for &ns in durations_ns {
        SHARD_DURATION_US.observe(ns / 1_000);
    }
    if let (Some(&min), Some(&max)) = (durations_ns.iter().min(), durations_ns.iter().max()) {
        let imbalance_x1000 = max.saturating_mul(1_000) / min.max(1);
        SHARD_IMBALANCE.max(imbalance_x1000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_even_covers_the_range_in_order() {
        for n in [0u64, 1, 2, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 7, 8, 200] {
                let ranges = split_even(n, shards);
                let mut expected = 0u64;
                for range in &ranges {
                    assert_eq!(range.start, expected, "n={n} shards={shards}");
                    assert!(range.end > range.start, "empty shard for n={n}");
                    expected = range.end;
                }
                assert_eq!(expected, n, "n={n} shards={shards}");
                assert!(ranges.len() <= shards);
                // Balanced: lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.end - r.start).min(),
                    ranges.iter().map(|r| r.end - r.start).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn shard_map_is_positional_for_any_thread_count() {
        for threads in [1usize, 2, 3, 8, 32] {
            let results = shard_map(17, threads, |shard| shard * shard);
            assert_eq!(results, (0..17).map(|s| s * s).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_map_runs_every_shard_exactly_once() {
        let runs = AtomicUsize::new(0);
        let results = shard_map(100, 8, |shard| {
            runs.fetch_add(1, Ordering::Relaxed);
            shard
        });
        assert_eq!(runs.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn zero_shards_is_a_noop() {
        let results: Vec<u32> = shard_map(0, 4, |_| unreachable!("no shards"));
        assert!(results.is_empty());
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let results = shard_map(3, 64, |shard| shard + 1);
        assert_eq!(results, vec![1, 2, 3]);
    }

    #[test]
    fn shards_for_caps_at_available_parallelism() {
        let hw = available_parallelism();
        // One worker is one shard: the serial run of every phase.
        assert_eq!(shards_for(1), 1);
        assert_eq!(shards_for(0), 1);
        // Never more shards than the machine can balance across: requested
        // threads above the hardware still give one shard per hardware
        // worker × SHARDS_PER_THREAD.
        for threads in [2usize, 7, 8, 64] {
            let shards = shards_for(threads);
            assert_eq!(shards, threads.min(hw) * SHARDS_PER_THREAD);
            assert!(shards >= SHARDS_PER_THREAD);
        }
        assert_eq!(shards_for(hw + 64), hw * SHARDS_PER_THREAD);
    }

    #[test]
    fn scratch_pool_reuses_returned_buffers() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        let mut a = pool.take();
        assert!(a.is_empty());
        a.extend([1, 2, 3]);
        let capacity = a.capacity();
        pool.put(a);
        // The returned buffer comes back (capacity preserved); callers clear
        // it before use.
        let mut b = pool.take();
        b.clear();
        assert!(b.capacity() >= capacity);
        // The pool is empty again, so a second take allocates fresh.
        let c = pool.take();
        assert!(c.is_empty() && c.capacity() == 0);
    }

    #[test]
    fn scratch_pool_is_safe_from_shard_workers() {
        let pool: ScratchPool<Vec<usize>> = ScratchPool::new();
        let results = shard_map(64, 8, |shard| {
            let mut buf = pool.take();
            buf.clear();
            buf.extend(0..shard);
            let sum: usize = buf.iter().sum();
            pool.put(buf);
            sum
        });
        let expected: Vec<usize> = (0..64).map(|s| (0..s).sum()).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn parallel_shard_maps_feed_the_obs_timing_metrics() {
        if available_parallelism() < 2 {
            // The inline serial path records nothing — there is no pool
            // whose balance could be measured.
            return;
        }
        let _ = shard_map(8, 2, |shard| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (shard as u64 + 1)));
            shard
        });
        let snapshot = alias_obs::registry().snapshot();
        let calls = snapshot
            .counters
            .iter()
            .find(|c| c.name == "exec.shard_map_calls")
            .expect("call counter registered");
        assert!(calls.value >= 1);
        let imbalance = snapshot
            .gauges
            .iter()
            .find(|g| g.name == "exec.shard_imbalance_x1000")
            .expect("imbalance gauge registered");
        // A ratio is always >= 1.0 (i.e. >= 1000 in x1000 fixed point).
        assert!(imbalance.value >= 1_000, "imbalance {}", imbalance.value);
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let fresh = pool.take();
        pool.put(fresh);
        let _reused = pool.take();
        let snapshot = alias_obs::registry().snapshot();
        let hits = snapshot
            .counters
            .iter()
            .find(|c| c.name == "exec.scratch_pool_hits")
            .expect("hit counter registered");
        assert!(hits.value >= 1);
    }

    #[test]
    fn threads_value_parses_and_falls_back() {
        let fallback = available_parallelism();
        // Unset, empty, zero and garbage all fall back.
        assert_eq!(threads_from_value(None), fallback);
        assert_eq!(threads_from_value(Some("")), fallback);
        assert_eq!(threads_from_value(Some("   ")), fallback);
        assert_eq!(threads_from_value(Some("0")), fallback);
        assert_eq!(threads_from_value(Some("eight")), fallback);
        assert_eq!(threads_from_value(Some("-3")), fallback);
        // Valid positive integers are taken verbatim (whitespace tolerated).
        assert_eq!(threads_from_value(Some("1")), 1);
        assert_eq!(threads_from_value(Some("7")), 7);
        assert_eq!(threads_from_value(Some(" 16 ")), 16);
    }
}
