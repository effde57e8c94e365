//! The Monotonic Bounds Test (MBT).
//!
//! MIDAR's core insight: if two addresses share one IPID counter, then the
//! time-ordered merge of their samples must itself be a monotonically
//! increasing sequence (modulo 16-bit wrap-around).  The test tolerates a
//! bounded number of wraps, inferred from the counter velocity.

use alias_scan::ipid_probe::IpidSample;

/// Verdict of a monotonic bounds test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbtVerdict {
    /// The merged sequence is consistent with a single shared counter.
    Consistent,
    /// The merged sequence cannot come from a single monotonic counter.
    Inconsistent,
    /// Not enough samples to decide.
    Insufficient,
}

impl MbtVerdict {
    /// Whether the verdict supports aliasing.
    pub fn is_consistent(self) -> bool {
        self == MbtVerdict::Consistent
    }
}

/// Merge several per-address sample series by time and test whether the
/// result is a single monotonic (mod 2^16) sequence.
///
/// `max_velocity` is the highest counter velocity (increments per second)
/// considered testable; between consecutive samples the counter is allowed
/// to advance by at most `max_velocity * Δt + slack`, and never to go
/// backwards.
///
/// Two series that are each already in time order — what every prober
/// hands over, since probe timestamps are forced to increase — are merged
/// on the fly: no allocation, and the walk stops at the first violation.
/// Any other shape is collected and sorted first; the verdict is the same
/// either way.  A caller that tests one series against many others checks
/// its time order once with [`CheckedSeries`] instead.
pub fn monotonic_bounds_test(series: &[&[IpidSample]], max_velocity: f64) -> MbtVerdict {
    match series {
        [a, b] => CheckedSeries::new(a).pair_test(CheckedSeries::new(b), max_velocity),
        _ => collect_and_sort_test(series, max_velocity),
    }
}

/// A sample series with its time order checked once, for a sweep that
/// tests it against many others (MIDAR's discovery window, Speedtrap's
/// all-pairs pass) — [`monotonic_bounds_test`] re-validates both series on
/// every call.
#[derive(Debug, Clone, Copy)]
pub struct CheckedSeries<'a> {
    samples: &'a [IpidSample],
    time_ordered: bool,
}

impl<'a> CheckedSeries<'a> {
    /// Check `samples`' time order.
    pub fn new(samples: &'a [IpidSample]) -> Self {
        CheckedSeries {
            samples,
            time_ordered: is_time_ordered(samples),
        }
    }

    /// [`monotonic_bounds_test`] of this series and `other`.
    pub fn pair_test(self, other: CheckedSeries<'_>, max_velocity: f64) -> MbtVerdict {
        if self.time_ordered && other.time_ordered {
            streaming_pair_test(self.samples, other.samples, max_velocity)
        } else {
            collect_and_sort_test(&[self.samples, other.samples], max_velocity)
        }
    }
}

fn is_time_ordered(samples: &[IpidSample]) -> bool {
    samples.windows(2).all(|w| w[0].time <= w[1].time)
}

/// Whether a shared counter cannot have produced `next` right after `prev`.
///
/// A shared counter can only move forward; `delta` is the forward distance
/// mod 2^16.  If the counter moved further than the velocity bound allows,
/// the samples cannot be explained by one counter (either they are
/// unrelated, or the counter wrapped because it is too fast to be testable
/// — MIDAR rejects both).
fn step_is_impossible(prev: IpidSample, next: IpidSample, max_velocity: f64) -> bool {
    const SLACK: f64 = 64.0;
    let dt = next.time.since(prev.time).as_secs_f64();
    let delta = next.ipid.wrapping_sub(prev.ipid) as f64;
    (delta == 0.0 && dt > 0.0) || delta > max_velocity * dt + SLACK
}

/// The test over two time-ordered series, as a two-pointer merge.  On equal
/// timestamps the sample of `a` goes first, which is where a stable sort of
/// `a ++ b` puts it.
fn streaming_pair_test(a: &[IpidSample], b: &[IpidSample], max_velocity: f64) -> MbtVerdict {
    if a.len() < 2 || b.len() < 2 {
        return MbtVerdict::Insufficient;
    }
    let (mut i, mut j) = (0, 0);
    let mut prev: Option<IpidSample> = None;
    while i < a.len() || j < b.len() {
        let from_a = j == b.len() || (i < a.len() && a[i].time <= b[j].time);
        let next = if from_a {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        if prev.is_some_and(|prev| step_is_impossible(prev, next, max_velocity)) {
            return MbtVerdict::Inconsistent;
        }
        prev = Some(next);
    }
    MbtVerdict::Consistent
}

/// The test over any number of series in any order: collect, stable-sort
/// by time, walk.  Also the reference the streaming merge is tested
/// against.
fn collect_and_sort_test(series: &[&[IpidSample]], max_velocity: f64) -> MbtVerdict {
    let mut merged: Vec<IpidSample> = series.iter().flat_map(|s| s.iter().copied()).collect();
    if merged.len() < 4 || series.iter().any(|s| s.len() < 2) {
        return MbtVerdict::Insufficient;
    }
    merged.sort_by_key(|s| s.time);
    if merged
        .windows(2)
        .any(|w| step_is_impossible(w[0], w[1], max_velocity))
    {
        MbtVerdict::Inconsistent
    } else {
        MbtVerdict::Consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;
    use proptest::prelude::*;

    fn series(samples: &[(u64, u16)]) -> Vec<IpidSample> {
        samples
            .iter()
            .map(|&(ms, ipid)| IpidSample {
                time: SimTime(ms),
                ipid,
            })
            .collect()
    }

    #[test]
    fn shared_counter_is_consistent() {
        let a = series(&[(0, 100), (2_000, 110), (4_000, 122)]);
        let b = series(&[(1_000, 105), (3_000, 117), (5_000, 130)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 100.0),
            MbtVerdict::Consistent
        );
    }

    #[test]
    fn independent_counters_are_inconsistent() {
        // Two counters with far-apart bases: the interleaved sequence jumps
        // backwards (i.e. forward by an enormous amount mod 2^16).
        let a = series(&[(0, 100), (2_000, 110), (4_000, 122)]);
        let b = series(&[(1_000, 40_000), (3_000, 40_010), (5_000, 40_025)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 100.0),
            MbtVerdict::Inconsistent
        );
    }

    #[test]
    fn wraparound_within_velocity_bound_is_tolerated() {
        // Counter near the top of the range wraps; deltas stay small.
        let a = series(&[(0, 65_500), (2_000, 65_530), (4_000, 20)]);
        let b = series(&[(1_000, 65_515), (3_000, 5), (5_000, 40)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 100.0),
            MbtVerdict::Consistent
        );
    }

    #[test]
    fn high_velocity_counter_is_rejected() {
        // The counter advances ~30k per second: between 1-second samples the
        // allowed bound (velocity cap 1000/s) is exceeded.
        let a = series(&[(0, 0), (2_000, 60_000), (4_000, 54_464)]);
        let b = series(&[(1_000, 30_000), (3_000, 24_464), (5_000, 18_928)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 1_000.0),
            MbtVerdict::Inconsistent
        );
    }

    #[test]
    fn constant_ipids_are_inconsistent() {
        let a = series(&[(0, 0), (2_000, 0), (4_000, 0)]);
        let b = series(&[(1_000, 0), (3_000, 0), (5_000, 0)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 100.0),
            MbtVerdict::Inconsistent
        );
    }

    #[test]
    fn too_few_samples_is_insufficient() {
        let a = series(&[(0, 1)]);
        let b = series(&[(1_000, 2), (2_000, 3), (3_000, 4)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 100.0),
            MbtVerdict::Insufficient
        );
        assert!(!MbtVerdict::Insufficient.is_consistent());
        assert!(MbtVerdict::Consistent.is_consistent());
    }

    #[test]
    fn unsorted_and_many_series_take_the_sorting_path() {
        // The first series is out of time order; sorted, the pair is one
        // shared counter.
        let a = series(&[(2_000, 110), (0, 100), (4_000, 122)]);
        let b = series(&[(1_000, 105), (3_000, 117), (5_000, 130)]);
        assert!(!is_time_ordered(&a));
        assert_eq!(
            monotonic_bounds_test(&[&a, &b], 100.0),
            MbtVerdict::Consistent
        );
        // Three interleaved series of one counter.
        let a = series(&[(0, 100), (3_000, 115)]);
        let b = series(&[(1_000, 105), (4_000, 121)]);
        let c = series(&[(2_000, 110), (5_000, 126)]);
        assert_eq!(
            monotonic_bounds_test(&[&a, &b, &c], 100.0),
            MbtVerdict::Consistent
        );
    }

    /// A series of up to seven samples: half-second time steps that are
    /// often zero (equal timestamps within and across series) and small
    /// counter steps from `base`.
    fn walk(base: u16, steps: &[(u64, u16)]) -> Vec<IpidSample> {
        let (mut time, mut ipid) = (0, base);
        steps
            .iter()
            .map(|&(dt, di)| {
                time += dt * 500;
                ipid = ipid.wrapping_add(di);
                IpidSample {
                    time: SimTime(time),
                    ipid,
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn streaming_merge_agrees_with_collect_and_sort(
            base in any::<u16>(),
            // The second counter starts where the first does, or anywhere.
            offset in prop_oneof![Just(0u16), 0u16..200, any::<u16>()],
            steps_a in prop::collection::vec((0u64..3, 0u16..60), 0..8),
            steps_b in prop::collection::vec((0u64..3, 0u16..60), 0..8),
            max_velocity in prop_oneof![Just(0.0f64), Just(40.0), Just(1_500.0)],
        ) {
            let a = walk(base, &steps_a);
            let b = walk(base.wrapping_add(offset), &steps_b);
            prop_assert!(is_time_ordered(&a) && is_time_ordered(&b));
            prop_assert_eq!(
                streaming_pair_test(&a, &b, max_velocity),
                collect_and_sort_test(&[&a, &b], max_velocity)
            );
        }

        #[test]
        fn any_pair_gets_the_collect_and_sort_verdict(
            a in prop::collection::vec((0u64..8, 0u16..300), 0..7),
            b in prop::collection::vec((0u64..8, 0u16..300), 0..7),
        ) {
            // Raw (time, ipid) points, usually not in time order.
            let (a, b) = (series(&a), series(&b));
            prop_assert_eq!(
                monotonic_bounds_test(&[&a, &b], 1_500.0),
                collect_and_sort_test(&[&a, &b], 1_500.0)
            );
        }
    }
}
