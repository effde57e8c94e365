//! Probe pacing in simulated time.
//!
//! The paper's ethics section commits to at most one probe per target per
//! second and an overall probe rate that does not stress networks.  The
//! scanners honour the same discipline against the simulator: a token bucket
//! paces probes and, as a side effect, determines how long (in simulated
//! time) a measurement campaign takes — which in turn interacts with churn.

use alias_netsim::SimTime;
use std::ops::Range;

/// A token bucket that hands out send times.
///
/// Internally the bucket keeps fractional-millisecond state so that rates
/// well above 1000 probes/second are honoured even though [`SimTime`] has
/// millisecond granularity.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    /// Sustained rate in probes per second.
    rate_pps: f64,
    /// Maximum burst size in probes.
    capacity: f64,
    /// Currently available tokens.
    tokens: f64,
    /// Last accounting instant, in fractional milliseconds.
    last_ms: f64,
}

impl TokenBucket {
    /// Create a bucket with the given sustained rate and burst capacity.
    ///
    /// # Panics
    /// Panics if `rate_pps` is not strictly positive.
    pub(crate) fn new(rate_pps: f64, capacity: f64, start: SimTime) -> Self {
        assert!(rate_pps > 0.0, "probe rate must be positive");
        TokenBucket {
            rate_pps,
            capacity: capacity.max(1.0),
            tokens: capacity.max(1.0),
            last_ms: start.as_millis() as f64,
        }
    }

    /// The one refill / wait step every pacing loop takes: refill for the
    /// time elapsed up to `now` (time never goes backwards) and, if no whole
    /// token is there yet, wait until one is.  Returns that instant and the
    /// whole tokens the bucket holds at it (at least one); the caller
    /// subtracts what it sends.  An on-time `now` below 2^53 is exact as an
    /// f64, so it goes back as it came, off the float round trip.
    #[inline]
    fn ready(&mut self, now: SimTime) -> (SimTime, u64) {
        let now_f = now.as_millis() as f64;
        let on_time = now_f >= self.last_ms && now.as_millis() < 1 << 53;
        let now_ms = now_f.max(self.last_ms);
        let elapsed_secs = (now_ms - self.last_ms) / 1_000.0;
        self.tokens = (self.tokens + elapsed_secs * self.rate_pps).min(self.capacity);
        self.last_ms = now_ms;
        if self.tokens >= 1.0 && on_time {
            (now, self.tokens.floor() as u64)
        } else if self.tokens >= 1.0 {
            (SimTime(now_ms.floor() as u64), self.tokens.floor() as u64)
        } else {
            let wait_ms = (1.0 - self.tokens) / self.rate_pps * 1_000.0;
            self.last_ms = now_ms + wait_ms;
            self.tokens = 1.0;
            (SimTime(self.last_ms.ceil() as u64), 1)
        }
    }

    /// Account for one probe and return the simulated time at which it is
    /// sent.  Time never goes backwards; if the bucket is empty the send
    /// time is pushed into the future.
    pub(crate) fn acquire(&mut self, now: SimTime) -> SimTime {
        let (at, _) = self.ready(now);
        self.tokens -= 1.0;
        at
    }

    /// One batched step of the self-clocked schedule: the time of the next
    /// probe group and how many probes share it, drained in one
    /// subtraction.  Same float trajectory as the per-probe loop: between
    /// two probes that share a send time every float operation of
    /// [`Self::acquire`] but the token decrement is a no-op (no time
    /// elapses, so the refill adds `0.0` and the `min` clamp returns the
    /// value unchanged), and `- 1.0` steps on a token count below the
    /// 64-probe capacity cap are exact in f64, so draining `floor(tokens)`
    /// at once lands on bit-identical state.  The caller (a
    /// [`ProbeSchedule`]) meters the group out probe by probe.
    fn schedule_group(&mut self, now: SimTime) -> (SimTime, u64) {
        let (at, available) = self.ready(now);
        self.tokens -= available as f64;
        (at, available)
    }
}

/// The precomputed send-time schedule of a self-clocked [`TokenBucket`].
///
/// Every scanner paces its probes with the feedback loop
/// `now = bucket.acquire(now)` — which makes the whole timestamp sequence a
/// pure function of `(rate, capacity, start)`.  `ProbeSchedule` walks that
/// sequence without per-probe float math: the bucket trajectory is advanced
/// one *send-time group* at a time (all probes sharing a timestamp in one
/// batch, bit-identical to the per-probe loop — see
/// `TokenBucket::schedule_group`), and
/// [`next_send_time`](Self::next_send_time) just meters the current group
/// out.  The hot path per probe is a counter decrement.
///
/// [`deal`](Self::deal) fast-forwards the schedule over each shard of a
/// scan phase in O(distinct send times): every shard worker resumes the
/// serial pacing exactly, and the phase's finish time is where the replay
/// ends.  At 200k pps a million-probe fast-forward is ~5k batch steps.
#[derive(Debug, Clone)]
pub(crate) struct ProbeSchedule {
    bucket: TokenBucket,
    /// Last send time handed out (the feedback value; `start` initially).
    now: SimTime,
    /// Send time of the group currently being metered out.
    group_time: SimTime,
    /// Probes left in the current group.
    group_left: u64,
}

impl ProbeSchedule {
    /// The schedule of `TokenBucket::new(rate_pps, capacity, start)` driven
    /// by the self-clocked acquire loop from `start`.
    pub(crate) fn new(rate_pps: f64, capacity: f64, start: SimTime) -> Self {
        ProbeSchedule {
            bucket: TokenBucket::new(rate_pps, capacity, start),
            now: start,
            group_time: start,
            group_left: 0,
        }
    }

    /// The send time of the next probe — the value the `acquire` feedback
    /// loop would produce.
    pub(crate) fn next_send_time(&mut self) -> SimTime {
        if self.group_left == 0 {
            let (time, count) = self.bucket.schedule_group(self.now);
            self.group_time = time;
            self.group_left = count;
        }
        self.group_left -= 1;
        self.now = self.group_time;
        self.group_time
    }

    /// Deal the schedule of `(rate_pps, capacity, start)` out over a phase
    /// whose shards take the contiguous probe ranges `shards`, in order:
    /// shard `i` gets the schedule after every probe of shards `0..i`.
    /// With it, the send time of the phase's last probe (`start` if there
    /// is none) — the one pacing replay of every scan phase.
    pub(crate) fn deal(
        rate_pps: f64,
        capacity: f64,
        start: SimTime,
        shards: &[Range<u64>],
    ) -> (Vec<ProbeSchedule>, SimTime) {
        let mut boundary = ProbeSchedule::new(rate_pps, capacity, start);
        let starts = shards
            .iter()
            .map(|range| {
                let state = boundary.clone();
                boundary.skip(range.end - range.start);
                state
            })
            .collect();
        (starts, boundary.now)
    }

    /// Fast-forward the schedule past `probes` sends, as if
    /// [`next_send_time`](Self::next_send_time) had been called that many times.
    fn skip(&mut self, probes: u64) {
        let mut remaining = probes;
        while remaining > 0 {
            if self.group_left == 0 {
                let (time, count) = self.bucket.schedule_group(self.now);
                self.group_time = time;
                self.group_left = count;
            }
            let take = self.group_left.min(remaining);
            self.group_left -= take;
            remaining -= take;
            self.now = self.group_time;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_pacing() {
        let start = SimTime::ZERO;
        let mut bucket = TokenBucket::new(10.0, 2.0, start);
        // Two probes ride the burst capacity.
        assert_eq!(bucket.acquire(start), start);
        assert_eq!(bucket.acquire(start), start);
        // The third waits ~100 ms.
        let third = bucket.acquire(start);
        assert!(third.as_millis() >= 100, "third probe at {third:?}");
        // The fourth waits ~100 ms more.
        let fourth = bucket.acquire(start);
        assert!(fourth.as_millis() >= third.as_millis() + 100);
    }

    #[test]
    fn refill_over_time() {
        let mut bucket = TokenBucket::new(10.0, 1.0, SimTime::ZERO);
        let _ = bucket.acquire(SimTime::ZERO);
        // After one second the bucket has refilled.
        let send = bucket.acquire(SimTime::from_secs(1));
        assert_eq!(send, SimTime::from_secs(1));
    }

    #[test]
    fn send_times_never_regress() {
        let mut bucket = TokenBucket::new(100.0, 1.0, SimTime::ZERO);
        let mut last = SimTime::ZERO;
        for i in 0..500u64 {
            // Caller time oscillates; send times must still be monotone.
            let now = SimTime(if i % 2 == 0 { i } else { i / 2 });
            let at = bucket.acquire(now);
            assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn sustained_rate_is_respected() {
        let mut bucket = TokenBucket::new(1_000.0, 10.0, SimTime::ZERO);
        let mut last = SimTime::ZERO;
        for _ in 0..5_000 {
            last = bucket.acquire(last);
        }
        // 5000 probes at 1000 pps should take ~5 simulated seconds.
        assert!(last.as_secs() >= 4 && last.as_secs() <= 6, "took {last:?}");
    }

    /// Campaign-relevant and adversarial `(rate, capacity)` corners: the
    /// four capacities the scanners actually use, sub-1000 pps rates that
    /// exercise fractional-millisecond waits, and rates far above 1000 pps
    /// where many probes share each millisecond.
    const SCHEDULE_CONFIGS: &[(f64, f64)] = &[
        (7.5, 1.0),
        (10.0, 2.0),
        (256.0, 4.0),
        (999.9, 4.5),
        (1_000.0, 16.0),
        (20_000.0, 32.0),
        (50_000.0, 32.0),
        (200_000.0, 64.0),
        (1_000_000.0, 64.0),
    ];

    #[test]
    fn probe_schedule_replays_the_acquire_loop_exactly() {
        for &(rate, capacity) in SCHEDULE_CONFIGS {
            let start = SimTime(5);
            let probes = 1_800u64;
            let mut manual = TokenBucket::new(rate, capacity, start);
            let mut now = start;
            let mut schedule = ProbeSchedule::new(rate, capacity, start);
            assert_eq!(schedule.now, start);
            for i in 0..probes {
                now = manual.acquire(now);
                let at = schedule.next_send_time();
                assert_eq!(
                    at, now,
                    "probe {i} diverged at rate={rate} capacity={capacity}"
                );
                assert_eq!(schedule.now, now);
            }
        }
    }

    #[test]
    fn probe_schedule_skip_matches_stepping() {
        for &(rate, capacity) in SCHEDULE_CONFIGS {
            let start = SimTime::ZERO;
            let probes = 1_200u64;
            // Reference send times from the stepped schedule.
            let mut stepped = ProbeSchedule::new(rate, capacity, start);
            let sends: Vec<SimTime> = (0..probes).map(|_| stepped.next_send_time()).collect();
            for split in [0, 1, 3, probes / 4, probes / 2, probes - 1, probes] {
                let mut skipped = ProbeSchedule::new(rate, capacity, start);
                skipped.skip(split);
                if split > 0 {
                    assert_eq!(skipped.now, sends[split as usize - 1]);
                }
                for expected in &sends[split as usize..] {
                    assert_eq!(
                        skipped.next_send_time(),
                        *expected,
                        "skip({split}) diverged at rate={rate} capacity={capacity}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_schedule_skip_zero_is_identity() {
        let mut schedule = ProbeSchedule::new(100.0, 4.0, SimTime(9));
        schedule.skip(0);
        assert_eq!(schedule.now, SimTime(9));
        let mut fresh = ProbeSchedule::new(100.0, 4.0, SimTime(9));
        assert_eq!(schedule.next_send_time(), fresh.next_send_time());
    }

    #[test]
    fn a_dealt_schedule_resumes_each_shard_where_stepping_is() {
        for &(rate, capacity) in SCHEDULE_CONFIGS {
            let (start, probes) = (SimTime(3), 1_000u64);
            let mut stepped = ProbeSchedule::new(rate, capacity, start);
            let sends: Vec<SimTime> = (0..probes).map(|_| stepped.next_send_time()).collect();
            for shards in [1, 2, 7, 64] {
                let ranges = crate::exec::split_even(probes, shards);
                let (starts, finished) = ProbeSchedule::deal(rate, capacity, start, &ranges);
                assert_eq!(finished, sends[probes as usize - 1]);
                for (range, mut schedule) in ranges.iter().zip(starts) {
                    for expected in &sends[range.start as usize..range.end as usize] {
                        assert_eq!(
                            schedule.next_send_time(),
                            *expected,
                            "{shards} shards at rate={rate} capacity={capacity}"
                        );
                    }
                }
            }
            // No probe: the phase ends where it starts.
            let (starts, finished) = ProbeSchedule::deal(rate, capacity, start, &[]);
            assert!(starts.is_empty());
            assert_eq!(finished, start);
        }
    }

    /// `ready` as it was before an on-time `now` was handed straight back:
    /// every send time takes the float round trip.  The reference for the
    /// test below.
    fn reference_ready(bucket: &mut TokenBucket, now: SimTime) -> (SimTime, u64) {
        let now_ms = (now.as_millis() as f64).max(bucket.last_ms);
        let elapsed_secs = (now_ms - bucket.last_ms) / 1_000.0;
        bucket.tokens = (bucket.tokens + elapsed_secs * bucket.rate_pps).min(bucket.capacity);
        bucket.last_ms = now_ms;
        if bucket.tokens >= 1.0 {
            (SimTime(now_ms.floor() as u64), bucket.tokens.floor() as u64)
        } else {
            let wait_ms = (1.0 - bucket.tokens) / bucket.rate_pps * 1_000.0;
            bucket.last_ms = now_ms + wait_ms;
            bucket.tokens = 1.0;
            (SimTime(bucket.last_ms.ceil() as u64), 1)
        }
    }

    #[test]
    fn ready_gives_what_the_float_round_trip_gave() {
        const TWO_53: u64 = 1 << 53;
        let starts = [
            0,
            17,
            1_814_400_000,
            TWO_53 - 40,
            TWO_53 - 3,
            TWO_53,
            TWO_53 + 5,
        ];
        for &(rate, capacity) in SCHEDULE_CONFIGS {
            for start in starts.map(SimTime) {
                let mut current = TokenBucket::new(rate, capacity, start);
                let mut reference = current.clone();
                let mut now = start;
                for i in 0..900u64 {
                    let got = current.ready(now);
                    let want = reference_ready(&mut reference, now);
                    let context =
                        format!("rate {rate} capacity {capacity} start {start:?} step {i}");
                    assert_eq!(got, want, "{context}");
                    assert_eq!(
                        current.tokens.to_bits(),
                        reference.tokens.to_bits(),
                        "{context}"
                    );
                    assert_eq!(
                        current.last_ms.to_bits(),
                        reference.last_ms.to_bits(),
                        "{context}"
                    );
                    current.tokens -= 1.0;
                    reference.tokens -= 1.0;
                    // Self-clocked, forced one past the send time as the
                    // IPID prober does, and oscillating behind it.
                    now = match i % 3 {
                        0 => got.0,
                        1 => got.0 + SimTime(1),
                        _ => SimTime(got.0.as_millis().saturating_sub(i % 7)),
                    };
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probe rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0.0, 1.0, SimTime::ZERO);
    }
}
