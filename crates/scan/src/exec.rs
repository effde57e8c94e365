//! Deterministic sharded execution for the scan layer.
//!
//! A scan phase is embarrassingly parallel once its work is partitioned by
//! address: every shard owns a disjoint slice of an address-indexed domain
//! (a permutation range, a target list) and can be processed
//! independently.  This module provides the one execution primitive the
//! seven scanner entry points of this crate are written against:
//! [`shard_map`], backed by a `std::thread` worker pool that takes shards
//! from an atomic cursor and puts results into slots behind one lock.
//! Nothing above the observation store is sharded: grouping, the
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

use alias_obs::{DeterminismClass, LazyCounter};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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

/// The number of hardware threads available, with a safe fallback of 1.
pub(crate) fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many shards callers typically create per worker thread: more shards
/// than threads keeps the pool busy when per-shard cost is uneven, without
/// affecting the (shard-order-reduced, deterministic) output.
pub(crate) const SHARDS_PER_THREAD: usize = 4;

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
pub(crate) fn shards_for(threads: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    threads.min(available_parallelism()) * SHARDS_PER_THREAD
}

/// Thread count from the `ALIAS_THREADS` environment variable.
///
/// Unset, empty or `0` mean "use `available_parallelism`"; anything else
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
pub(crate) fn threads_from_value(raw: Option<&str>) -> usize {
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
pub(crate) fn split_even(n: u64, shards: usize) -> Vec<Range<u64>> {
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
/// indices from an atomic cursor, so shards of uneven cost
/// balance across the pool, but the returned vector is always positional.
/// Every worker counts into the caller's `alias_obs::registry()`.
///
/// The pool never exceeds the machine's [`available_parallelism`]: the
/// jobs are CPU-bound, so extra workers only time-slice the same cores —
/// on a 1-core box an 8-thread request degenerates to the inline serial
/// path instead of four context-switching workers.  Worker count is
/// invisible to the output (shard-ordered reduction), so the cap is a pure
/// performance decision.
pub(crate) fn shard_map<R, F>(shards: usize, threads: usize, job: F) -> Vec<R>
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
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..shards).map(|_| None).collect());
    let registry = alias_obs::registry();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                registry.clone().install();
                loop {
                    // Relaxed: an index publishes nothing; results pass the lock.
                    let shard = cursor.fetch_add(1, Ordering::Relaxed);
                    if shard >= shards {
                        return;
                    }
                    let result = job(shard);
                    // Slots are written whole: a poisoned lock holds valid ones.
                    let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
                    slots[shard] = Some(result);
                }
            });
        }
    });
    SHARD_MAP_CALLS.incr();
    SHARDS_EXECUTED.add(shards as u64);
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("every shard ran"))
        .collect()
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
    fn shard_jobs_count_into_the_callers_registry() {
        static JOBS: LazyCounter = LazyCounter::new(
            "test.exec.jobs",
            DeterminismClass::Deterministic,
            "jobs",
            "exec",
        );
        let caller = std::thread::current().id();
        let elsewhere = shard_map(8, 2, |_| {
            JOBS.incr();
            std::thread::current().id() != caller
        });
        // Two hardware threads or more: a pool of two ran every job.
        let pooled = available_parallelism() >= 2;
        assert!(elsewhere.iter().all(|&e| e == pooled));
        let snapshot = alias_obs::registry().snapshot();
        let counters: Vec<(&str, u64)> = snapshot
            .counters
            .iter()
            .map(|c| (c.name, c.value))
            .collect();
        let mut expected = Vec::new();
        if pooled {
            expected.extend([("exec.shard_map_calls", 1), ("exec.shards_executed", 8)]);
        }
        expected.push(("test.exec.jobs", 8));
        assert_eq!(counters, expected);
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
