//! The Monotonic Bounds Test (MBT).
//!
//! MIDAR's core insight: if two addresses share one IPID counter, then the
//! time-ordered merge of their samples must itself be a monotonically
//! increasing sequence (modulo 16-bit wrap-around).  The test tolerates a
//! bounded number of wraps, inferred from the counter velocity.

use crate::midar::MAX_VELOCITY;
use alias_netsim::{IpidSample, SimTime};
use alias_scan::ipid_probe::ROUNDS;

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

/// Merge several per-address sample series by time and test whether the
/// result is a single monotonic (mod 2^16) sequence.
///
/// Between consecutive samples the counter is allowed to advance by at
/// most `MAX_VELOCITY * Δt + slack`, and never to go backwards.
///
/// Two series that are each already in time order — what every prober
/// hands over, since probe timestamps are forced to increase — are merged
/// on the fly: no allocation, and the walk stops at the first violation.
/// Any other shape is collected and sorted first; the verdict is the same
/// either way.
pub fn monotonic_bounds_test(series: &[&[IpidSample]]) -> MbtVerdict {
    match series {
        [a, b] => pair_test_by(a, b, step_is_impossible),
        _ => collect_and_sort_test(series, step_is_impossible),
    }
}

/// The test of `a` and `b` with `impossible` as the step rule: the
/// streaming merge where both are in time order, else collect and sort.
#[inline(always)]
fn pair_test_by(
    a: &[IpidSample],
    b: &[IpidSample],
    impossible: impl Fn(IpidSample, IpidSample) -> bool,
) -> MbtVerdict {
    if is_time_ordered(a) && is_time_ordered(b) {
        streaming_pair_test(a, b, impossible)
    } else {
        collect_and_sort_test(&[a, b], impossible)
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
/// — MIDAR rejects both).  MIDAR's elimination stage stops probing a pair
/// at the first such step.
fn step_is_impossible(prev: IpidSample, next: IpidSample) -> bool {
    let dt = next.time.since(prev.time).as_secs_f64();
    let delta = next.ipid.wrapping_sub(prev.ipid) as f64;
    (delta == 0.0 && dt > 0.0) || delta > step_bound(dt)
}

/// The largest forward counter step [`step_is_impossible`] allows after
/// `dt` seconds: `MAX_VELOCITY` per second plus a slack of 64.
pub(crate) fn step_bound(dt: f64) -> f64 {
    const SLACK: f64 = 64.0;
    MAX_VELOCITY * dt + SLACK
}

/// MIDAR's step rule with the bound read from a table per millisecond
/// gap instead of evaluated in floating point.
///
/// A counter step is a whole number, so it exceeds the bound exactly when
/// it exceeds the bound's floor, and the table holds that floor for each
/// gap while the bound is below 65,535.  The bound grows with the gap, so
/// from the first gap where it reaches 65,535 on the table is *saturated*:
/// no 16-bit step can exceed it, and only a step of zero is impossible.
/// At `MAX_VELOCITY` that happens at 43,648 ms (43,648 entries, 85 KiB).
#[derive(Debug, Clone)]
pub struct StepBounds {
    /// `floor(bound)` per gap, for the gaps before saturation.
    floors: Vec<u16>,
}

impl StepBounds {
    /// The table, one allocation.
    pub fn new() -> Self {
        let bound_at = |gap: u64| step_bound(SimTime(gap).as_secs_f64());
        let saturation = (0..)
            .find(|&gap| bound_at(gap) >= f64::from(u16::MAX))
            .expect("the bound grows with the gap");
        StepBounds {
            floors: (0..saturation).map(|gap| bound_at(gap) as u16).collect(),
        }
    }

    /// Whether a shared counter cannot have produced `next` right after
    /// `prev`: the step rule of [`monotonic_bounds_test`], read from the
    /// table.
    #[inline]
    pub fn step_is_impossible(&self, prev: IpidSample, next: IpidSample) -> bool {
        let gap = next.time.since(prev.time).as_millis();
        let delta = next.ipid.wrapping_sub(prev.ipid);
        if delta == 0 {
            // The bound is at least the slack, which a zero step never
            // exceeds.
            return gap > 0;
        }
        delta > self.floor_at(gap)
    }

    /// The floor of the bound after `gap` ms, read as `u16::MAX` past the
    /// table (no step exceeds it).  Inside the table the bound is below
    /// 65,535, so a floor of `u16::MAX` means saturated.
    #[inline]
    fn floor_at(&self, gap: u64) -> u16 {
        self.floors.get(gap as usize).copied().unwrap_or(u16::MAX)
    }

    /// [`monotonic_bounds_test`] of two series, read from the table.
    pub fn pair_test(&self, a: &[IpidSample], b: &[IpidSample]) -> MbtVerdict {
        pair_test_by(a, b, |prev, next| self.step_is_impossible(prev, next))
    }
}

impl Default for StepBounds {
    fn default() -> Self {
        Self::new()
    }
}

/// A series as the kernel reads it: its first sample's time and its IPIDs
/// in round order.
#[derive(Debug, Clone, Copy)]
struct RegularSeries {
    start: u64,
    ipids: [u16; ROUNDS],
}

/// MIDAR's estimation series in columns, for a sweep that tests many pairs
/// of them (the discovery window): 32 bytes a series.
///
/// A round robin probes every target once a round, each at its round's
/// start plus its position, and a device answers every round or none
/// ([`alias_scan::ipid_probe::round_robin`]).  So a series of a responsive
/// target is *regular*: `ROUNDS` samples at `t0 + r·P`, with one period
/// `P` for the whole sweep.  Two regular series with `t0_a < t0_b` and
/// `g = t0_b − t0_a < P` merge as `a₀ b₀ a₁ b₁ …`, and the merge's steps
/// take only two gaps: `g` for the steps inside a round and `P − g` for
/// those that cross rounds.  The pair is consistent iff every within-round
/// step (mod 2¹⁶) lies in `[1, floor(g)]` and every cross-round step in
/// `[1, floor(P − g)]`: two reads of the [`StepBounds`] table and
/// fixed-length lanes with no early exit ([`SeriesColumns::kernel_test`]).
///
/// **The kernel serves every pair a discovery window tests.**  A target
/// reaches the window only if velocity estimation found it monotonic,
/// which takes three samples, so it answered every round and its series
/// is regular.  Two targets sit at two positions of the round robin's
/// list, `t0_b − t0_a` is the difference of the positions, and a period is
/// the list's length less one plus the round spacing: `0 < g < P` for
/// every pair of distinct targets.  No pair is left for the streaming test
/// on the samples, and none is handed one.
#[derive(Debug)]
pub struct SeriesColumns<'a> {
    bounds: &'a StepBounds,
    /// Every series' period.
    period: u64,
    /// Per series, in the order given.
    series: Vec<RegularSeries>,
}

impl<'a> SeriesColumns<'a> {
    /// The columns of regular series of one `period`, each given as its
    /// first sample's time and its IPIDs in round order, tested against
    /// `bounds`.
    pub fn new(
        period: u64,
        series: impl IntoIterator<Item = (u64, [u16; ROUNDS])>,
        bounds: &'a StepBounds,
    ) -> Self {
        let series = (series.into_iter())
            .map(|(start, ipids)| RegularSeries { start, ipids })
            .collect();
        SeriesColumns {
            bounds,
            period,
            series,
        }
    }

    /// The verdict of [`StepBounds::pair_test`] of series `i` (as `a`) and
    /// `j` by the two-gap kernel.  Their starts must be distinct and less
    /// than a period apart, as any two of a round robin's are.
    #[inline]
    pub fn kernel_test(&self, i: usize, j: usize) -> MbtVerdict {
        let (series_i, series_j) = (&self.series[i], &self.series[j]);
        let (start_i, start_j) = (series_i.start, series_j.start);
        let gap = start_i.abs_diff(start_j);
        debug_assert!(
            0 < gap && gap < self.period,
            "starts {start_i} and {start_j} with period {}",
            self.period
        );
        let within = self.bounds.floor_at(gap);
        let across = self.bounds.floor_at(self.period - gap);
        // The lead picked by index, not by a branch on the start order.
        let pair = [&series_i.ipids, &series_j.ipids];
        let trail_first = usize::from(start_j < start_i);
        let (a, b) = (pair[trail_first], pair[1 - trail_first]);
        // A step lies in [1, floor] iff one less, mod 2^16, is below the
        // floor (a zero step wraps to 65,535, which no floor exceeds).  The
        // lanes are or-ed, so none of them exits early.
        let past = |prev: u16, next: u16, floor: u16| {
            u16::from(next.wrapping_sub(prev).wrapping_sub(1) >= floor)
        };
        let mut past_bounds = 0;
        for r in 0..ROUNDS {
            past_bounds |= past(a[r], b[r], within);
        }
        for r in 0..ROUNDS - 1 {
            past_bounds |= past(b[r], a[r + 1], across);
        }
        match past_bounds {
            0 => MbtVerdict::Consistent,
            _ => MbtVerdict::Inconsistent,
        }
    }
}

/// The test over two time-ordered series, as a two-pointer merge.  On equal
/// timestamps the sample of `a` goes first, which is where a stable sort of
/// `a ++ b` puts it.
fn streaming_pair_test(
    a: &[IpidSample],
    b: &[IpidSample],
    impossible: impl Fn(IpidSample, IpidSample) -> bool,
) -> MbtVerdict {
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
        if prev.is_some_and(|prev| impossible(prev, next)) {
            return MbtVerdict::Inconsistent;
        }
        prev = Some(next);
    }
    MbtVerdict::Consistent
}

/// The test over any number of series in any order: collect, stable-sort
/// by time, walk.  Also the reference the streaming merge is tested
/// against.
fn collect_and_sort_test(
    series: &[&[IpidSample]],
    impossible: impl Fn(IpidSample, IpidSample) -> bool,
) -> MbtVerdict {
    let mut merged: Vec<IpidSample> = series.iter().flat_map(|s| s.iter().copied()).collect();
    if merged.len() < 4 || series.iter().any(|s| s.len() < 2) {
        return MbtVerdict::Insufficient;
    }
    merged.sort_by_key(|s| s.time);
    if merged.windows(2).any(|w| impossible(w[0], w[1])) {
        MbtVerdict::Inconsistent
    } else {
        MbtVerdict::Consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The streaming merge with the f64 step rule.
    fn streaming_pair_test(a: &[IpidSample], b: &[IpidSample]) -> MbtVerdict {
        super::streaming_pair_test(a, b, step_is_impossible)
    }

    /// The collect-and-sort reference with the f64 step rule.
    fn collect_and_sort_test(series: &[&[IpidSample]]) -> MbtVerdict {
        super::collect_and_sort_test(series, step_is_impossible)
    }

    /// A step of `delta` counter values over `gap` milliseconds.
    fn step(gap: u64, delta: u16) -> (IpidSample, IpidSample) {
        let prev = IpidSample {
            time: SimTime(1_000),
            ipid: 65_000,
        };
        let next = IpidSample {
            time: SimTime(1_000 + gap),
            ipid: prev.ipid.wrapping_add(delta),
        };
        (prev, next)
    }

    #[test]
    fn the_table_is_the_f64_rule_at_every_gap() {
        let bounds = StepBounds::new();
        // The cap saturates at 43,648 ms: the first gap whose bound
        // reaches 65,535.
        assert_eq!(bounds.floors.len(), 43_648);
        assert_eq!(*bounds.floors.last().expect("a table"), 65_534);
        // Up to saturation and as far again past it.
        for gap in 0..=2 * bounds.floors.len() as u64 {
            // Each side of the threshold, the ends of the range, and
            // the largest steps, which start past the 16-bit wrap.
            let bound = step_bound(SimTime(gap).as_secs_f64());
            let floor = bound.min(65_535.0) as u16;
            for delta in [
                0,
                1,
                floor.saturating_sub(1),
                floor,
                floor.saturating_add(1),
            ]
            .into_iter()
            .chain([32_768, 65_534, 65_535])
            {
                let (prev, next) = step(gap, delta);
                assert_eq!(
                    bounds.step_is_impossible(prev, next),
                    step_is_impossible(prev, next),
                    "gap {gap} delta {delta}"
                );
            }
        }
        // A zero step is impossible at any gap but zero, a step back in
        // time is a zero gap.
        let (prev, next) = step(1_000_000, 0);
        assert!(bounds.step_is_impossible(prev, next));
        assert!(!bounds.step_is_impossible(prev, prev));
        assert_eq!(
            bounds.step_is_impossible(next, prev),
            step_is_impossible(next, prev)
        );
    }

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
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Consistent);
    }

    #[test]
    fn independent_counters_are_inconsistent() {
        // Two counters with far-apart bases: the interleaved sequence jumps
        // backwards (i.e. forward by an enormous amount mod 2^16).
        let a = series(&[(0, 100), (2_000, 110), (4_000, 122)]);
        let b = series(&[(1_000, 40_000), (3_000, 40_010), (5_000, 40_025)]);
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Inconsistent);
    }

    #[test]
    fn wraparound_within_velocity_bound_is_tolerated() {
        // Counter near the top of the range wraps; deltas stay small.
        let a = series(&[(0, 65_500), (2_000, 65_530), (4_000, 20)]);
        let b = series(&[(1_000, 65_515), (3_000, 5), (5_000, 40)]);
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Consistent);
    }

    #[test]
    fn high_velocity_counter_is_rejected() {
        // The counter advances ~30k per second: between 1-second samples the
        // allowed bound (1,500/s and the slack) is exceeded.
        let a = series(&[(0, 0), (2_000, 60_000), (4_000, 54_464)]);
        let b = series(&[(1_000, 30_000), (3_000, 24_464), (5_000, 18_928)]);
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Inconsistent);
    }

    #[test]
    fn constant_ipids_are_inconsistent() {
        let a = series(&[(0, 0), (2_000, 0), (4_000, 0)]);
        let b = series(&[(1_000, 0), (3_000, 0), (5_000, 0)]);
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Inconsistent);
    }

    #[test]
    fn too_few_samples_is_insufficient() {
        let a = series(&[(0, 1)]);
        let b = series(&[(1_000, 2), (2_000, 3), (3_000, 4)]);
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Insufficient);
    }

    #[test]
    fn unsorted_and_many_series_take_the_sorting_path() {
        // The first series is out of time order; sorted, the pair is one
        // shared counter.
        let a = series(&[(2_000, 110), (0, 100), (4_000, 122)]);
        let b = series(&[(1_000, 105), (3_000, 117), (5_000, 130)]);
        assert!(!is_time_ordered(&a));
        assert_eq!(monotonic_bounds_test(&[&a, &b]), MbtVerdict::Consistent);
        // Three interleaved series of one counter.
        let a = series(&[(0, 100), (3_000, 115)]);
        let b = series(&[(1_000, 105), (4_000, 121)]);
        let c = series(&[(2_000, 110), (5_000, 126)]);
        assert_eq!(monotonic_bounds_test(&[&a, &b, &c]), MbtVerdict::Consistent);
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

    /// Two series of one length in a round robin's shape: the samples of
    /// one [`walk`] dealt out alternately, the second series' counter
    /// `offset` ahead, and swapped when `second_first` (so either series
    /// may lead).  Zero time steps put equal timestamps across the pair.
    fn alternating(
        base: u16,
        offset: u16,
        steps: &[(u64, u16)],
        second_first: bool,
    ) -> (Vec<IpidSample>, Vec<IpidSample>) {
        let steps = &steps[..steps.len() / 2 * 2];
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for (k, sample) in walk(base, steps).into_iter().enumerate() {
            if k % 2 == 0 {
                first.push(sample);
            } else {
                second.push(IpidSample {
                    ipid: sample.ipid.wrapping_add(offset),
                    ..sample
                });
            }
        }
        if second_first {
            (second, first)
        } else {
            (first, second)
        }
    }

    /// One merged step of a regular pair, relative to the floor of the
    /// bound at its gap.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// 1 to 100: inside any bound.
        Small(u16),
        /// The floor, less 0 to 2: inside the bound, at its edge.
        AtFloor(u16),
        /// One to three past the floor: outside it, unless saturated.
        PastFloor(u16),
        /// No step: impossible at any positive gap.
        Zero,
        /// Anything, wraps included.
        Any(u16),
    }

    /// Mostly steps inside the bound, so that about a quarter of the
    /// pairs are consistent.
    fn any_step() -> impl Strategy<Value = Step> {
        (0u8..53, any::<u16>()).prop_map(|(kind, value)| match kind {
            0..=39 => Step::Small(value % 100 + 1),
            40..=49 => Step::AtFloor(value % 3),
            50 => Step::PastFloor(value % 3),
            51 => Step::Zero,
            _ => Step::Any(value),
        })
    }

    /// Two regular series of `rounds` samples, `period` apart: the lead's
    /// starts at `start`, the trail's `gap` later, the counter read
    /// alternately and moved by `steps` (within a round, then across).
    fn regular_pair(
        start: u64,
        period: u64,
        gap: u64,
        base: u16,
        steps: &[Step],
    ) -> (Vec<IpidSample>, Vec<IpidSample>) {
        let floor = |gap: u64| step_bound(SimTime(gap).as_secs_f64()).min(65_535.0) as u16;
        let (mut lead, mut trail) = (Vec::new(), Vec::new());
        let mut ipid = base;
        for (k, step) in steps.iter().enumerate() {
            let round = (k / 2) as u64;
            let (time, floor) = match k % 2 {
                0 => (start + round * period, floor(period.saturating_sub(gap))),
                _ => (start + gap + round * period, floor(gap)),
            };
            if k > 0 {
                ipid = ipid.wrapping_add(match *step {
                    Step::Small(delta) | Step::Any(delta) => delta,
                    Step::AtFloor(less) => floor.saturating_sub(less),
                    Step::PastFloor(more) => floor.wrapping_add(1 + more),
                    Step::Zero => 0,
                });
            }
            let sample = IpidSample {
                time: SimTime(time),
                ipid,
            };
            match k % 2 {
                0 => lead.push(sample),
                _ => trail.push(sample),
            }
        }
        (lead, trail)
    }

    /// A regular series as the columns take it: its first sample's time
    /// and its IPIDs.
    fn row(samples: &[IpidSample]) -> (u64, [u16; ROUNDS]) {
        (
            samples[0].time.as_millis(),
            std::array::from_fn(|r| samples[r].ipid),
        )
    }

    proptest! {
        #[test]
        fn the_two_gap_kernel_is_the_bounds_test_on_regular_pairs(
            start in 0u64..1_000_000_000,
            period in prop_oneof![2u64..200, 40_000u64..140_000],
            // Per mille of the period.
            per_mille in prop::collection::vec(1u64..1_000, 8),
            base in any::<u16>(),
            steps in prop::collection::vec(any_step(), 24),
            trail_first in any::<bool>(),
        ) {
            // Random gaps, the shortest and the longest, and each side of
            // where the table saturates: every gap a round robin's two
            // distinct targets can have.
            let edges = [43_647, 43_648];
            let gaps = (per_mille.iter().map(|&m| period * m / 1_000))
                .chain([1, period - 1])
                .chain(edges.iter().flat_map(|&edge: &u64| [edge, period.saturating_sub(edge)]))
                .filter(|&gap| 0 < gap && gap < period);
            let bounds = StepBounds::new();
            for gap in gaps {
                let (lead, trail) = regular_pair(start, period, gap, base, &steps);
                let (a, b) = if trail_first { (trail, lead) } else { (lead, trail) };
                let columns = SeriesColumns::new(period, [row(&a), row(&b)], &bounds);
                let reference = monotonic_bounds_test(&[&a, &b]);
                let kernel = columns.kernel_test(0, 1);
                prop_assert!(
                    kernel == reference,
                    "period {period} gap {gap}: kernel {kernel:?}, reference {reference:?}"
                );
            }
        }

        #[test]
        fn the_kernel_is_the_bounds_test_on_every_pair_of_one_sweeps_columns(
            // Per series: its start (one series a start) and its counter's
            // base.
            shapes in prop::collection::vec((0u64..40_000, any::<u16>()), 2..8),
        ) {
            const PERIOD: u64 = 50_000;
            let mut shapes = shapes;
            shapes.sort_unstable_by_key(|&(start, _)| start);
            shapes.dedup_by_key(|&mut (start, _)| start);
            let series: Vec<Vec<IpidSample>> = shapes
                .iter()
                .map(|&(start, base)| {
                    (0..ROUNDS as u64)
                        .map(|r| IpidSample {
                            time: SimTime(start + r * PERIOD),
                            ipid: base.wrapping_add((r * 700) as u16),
                        })
                        .collect()
                })
                .collect();
            let bounds = StepBounds::new();
            let columns = SeriesColumns::new(PERIOD, series.iter().map(|s| row(s)), &bounds);
            for i in 0..series.len() {
                for j in (0..series.len()).filter(|&j| j != i) {
                    let reference = monotonic_bounds_test(&[&series[i], &series[j]]);
                    let kernel = columns.kernel_test(i, j);
                    prop_assert!(
                        kernel == reference,
                        "{i} {j}: kernel {kernel:?}, reference {reference:?}, {shapes:?}"
                    );
                }
            }
        }

        #[test]
        fn a_walk_finds_an_impossible_step_exactly_when_the_test_is_inconsistent(
            base in any::<u16>(),
            // Offsets on both sides of the bound after half a second (814)
            // and after a second (1,564).
            offset in prop_oneof![Just(0u16), 0u16..200, 700u16..1_700, any::<u16>()],
            steps in prop::collection::vec((1u64..3, 0u16..60), 4..16),
            second_first in any::<bool>(),
        ) {
            // What the elimination stage's stop rule sees: the pair's
            // replies in probe order, each against the one before.  Time
            // steps of at least one keep probe order and time order one.
            let (a, b) = alternating(base, offset, &steps, second_first);
            let probe_order: Vec<IpidSample> = if a[0].time < b[0].time {
                a.iter().zip(&b).flat_map(|(x, y)| [*x, *y]).collect()
            } else {
                b.iter().zip(&a).flat_map(|(x, y)| [*x, *y]).collect()
            };
            let stops = (probe_order.windows(2)).any(|w| step_is_impossible(w[0], w[1]));
            prop_assert_eq!(
                stops,
                monotonic_bounds_test(&[&a, &b]) == MbtVerdict::Inconsistent
            );
        }

        #[test]
        fn allys_walk_refutes_exactly_when_its_full_series_check_fails(
            base in any::<u16>(),
            offset in prop_oneof![Just(0u16), 0u16..200, 900u16..1_100, any::<u16>()],
            steps in prop::collection::vec((1u64..3, 0u16..600), 4..16),
            second_first in any::<bool>(),
        ) {
            use crate::ally::close;
            let (a, b) = alternating(base, offset, &steps, second_first);
            // Ally's check of a pair answered in full, as it ran before the
            // pair stopped early: each value close to the one probed before
            // it, within rounds (a[k], b[k]) and across them (b[k], a[k+1]).
            let within = a.iter().zip(&b).all(|(a, b)| close(*a, *b));
            let across = b.iter().zip(&a[1..]).all(|(b, a)| close(*b, *a));
            let probe_order: Vec<IpidSample> = a.iter().zip(&b).flat_map(|(x, y)| [*x, *y]).collect();
            let refuted = probe_order.windows(2).any(|w| !close(w[0], w[1]));
            prop_assert_eq!(refuted, !(within && across));
        }

        #[test]
        fn streaming_merge_agrees_with_collect_and_sort(
            base in any::<u16>(),
            // The second counter starts where the first does, near the
            // bound (814 after half a second, 1,564 after a second), or
            // anywhere.
            offset in prop_oneof![Just(0u16), 0u16..200, 700u16..1_700, any::<u16>()],
            steps_a in prop::collection::vec((0u64..3, 0u16..60), 0..8),
            steps_b in prop::collection::vec((0u64..3, 0u16..60), 0..8),
            second_first in any::<bool>(),
        ) {
            let a = walk(base, &steps_a);
            let b = walk(base.wrapping_add(offset), &steps_b);
            prop_assert!(is_time_ordered(&a) && is_time_ordered(&b));
            prop_assert_eq!(
                streaming_pair_test(&a, &b),
                collect_and_sort_test(&[&a, &b])
            );
            // A round robin's shape: two series of one length that
            // alternate, either one leading, ties across the pair included.
            let (a, b) = alternating(base, offset, &[steps_a, steps_b].concat(), second_first);
            prop_assert_eq!(a.len(), b.len());
            prop_assert!(is_time_ordered(&a) && is_time_ordered(&b));
            prop_assert_eq!(
                streaming_pair_test(&a, &b),
                collect_and_sort_test(&[&a, &b])
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
                monotonic_bounds_test(&[&a, &b]),
                collect_and_sort_test(&[&a, &b])
            );
        }
    }
}
