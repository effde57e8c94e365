//! Probe pacing in simulated time.
//!
//! The paper's ethics section commits to at most one probe per target per
//! second and an overall probe rate that does not stress networks.  The
//! scanners honour the same discipline against the simulator: a token bucket
//! paces probes and, as a side effect, determines how long (in simulated
//! time) a measurement campaign takes — which in turn interacts with churn.

use alias_netsim::SimTime;

/// A token bucket that hands out send times.
///
/// Internally the bucket keeps fractional-millisecond state so that rates
/// well above 1000 probes/second are honoured even though [`SimTime`] has
/// millisecond granularity.
#[derive(Debug, Clone)]
pub struct TokenBucket {
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
    pub fn new(rate_pps: f64, capacity: f64, start: SimTime) -> Self {
        assert!(rate_pps > 0.0, "probe rate must be positive");
        TokenBucket {
            rate_pps,
            capacity: capacity.max(1.0),
            tokens: capacity.max(1.0),
            last_ms: start.as_millis() as f64,
        }
    }

    /// The sustained rate in probes per second.
    pub fn rate_pps(&self) -> f64 {
        self.rate_pps
    }

    /// The one refill / wait step every pacing loop takes: refill for the
    /// time elapsed up to `now` (time never goes backwards) and, if no whole
    /// token is there yet, wait until one is.  Returns that instant and the
    /// whole tokens the bucket holds at it (at least one); the caller
    /// subtracts what it sends.
    #[inline]
    fn ready(&mut self, now: SimTime) -> (SimTime, u64) {
        let now_ms = (now.as_millis() as f64).max(self.last_ms);
        let elapsed_secs = (now_ms - self.last_ms) / 1_000.0;
        self.tokens = (self.tokens + elapsed_secs * self.rate_pps).min(self.capacity);
        self.last_ms = now_ms;
        if self.tokens >= 1.0 {
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
    pub fn acquire(&mut self, now: SimTime) -> SimTime {
        let (at, _) = self.ready(now);
        self.tokens -= 1.0;
        at
    }

    /// Time at which `count` probes finish when sent back to back starting
    /// from `start` (convenience for estimating campaign durations).
    pub fn duration_for(rate_pps: f64, count: u64) -> SimTime {
        SimTime(((count as f64 / rate_pps) * 1_000.0).ceil() as u64)
    }

    /// Replay `probes` acquires, feeding each send time back as the next
    /// call's `now` — exactly the pacing loop every scanner runs.  Returns
    /// the last send time (`now` unchanged when `probes == 0`).
    ///
    /// This is the shard fast-forward: cloning a bucket and advancing it to
    /// a shard's first probe index reproduces, probe for probe, the
    /// timestamps the serial scan would have assigned to that shard.
    ///
    /// The replay is batched per *send time*, not per probe.  In the
    /// self-clocked loop every float operation of [`Self::acquire`] other
    /// than the token decrement is a no-op between two probes that share a
    /// timestamp (elapsed time is zero, so the refill adds `0.0` and the
    /// `min` clamp returns the unchanged value), and consecutive `- 1.0`
    /// steps on a token count below the 64-probe capacity cap are exact in
    /// f64 — so draining `floor(tokens)` probes in one subtraction lands on
    /// bit-identical state.  That turns the O(probes) replay into
    /// O(distinct send times): at 200k pps a million-probe fast-forward
    /// collapses from a million acquires to ~5k batch steps.
    pub fn advance(&mut self, now: SimTime, probes: u64) -> SimTime {
        let mut now = now;
        let mut remaining = probes;
        while remaining > 0 {
            let (at, available) = self.ready(now);
            let burst = available.min(remaining);
            self.tokens -= burst as f64;
            remaining -= burst;
            now = at;
        }
        now
    }

    /// One batched step of the self-clocked schedule: the time of the next
    /// probe group and how many probes share it.  Same float trajectory as
    /// the per-probe loop (see [`Self::advance`]); the caller (a
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
/// [`TokenBucket::advance`]), and [`next_send_time`](Self::next_send_time) just meters the
/// current group out.  The hot path per probe is a counter decrement.
///
/// [`skip`](Self::skip) fast-forwards the schedule over a probe range in
/// O(distinct send times), which is what makes per-shard schedule hand-off
/// cheap: a sharded scan clones the schedule, skips it to the shard's first
/// probe index, and every worker resumes the serial pacing exactly.
#[derive(Debug, Clone)]
pub struct ProbeSchedule {
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
    pub fn new(rate_pps: f64, capacity: f64, start: SimTime) -> Self {
        ProbeSchedule {
            bucket: TokenBucket::new(rate_pps, capacity, start),
            now: start,
            group_time: start,
            group_left: 0,
        }
    }

    /// The send time of the next probe — the value the `acquire` feedback
    /// loop would produce.
    pub fn next_send_time(&mut self) -> SimTime {
        if self.group_left == 0 {
            let (time, count) = self.bucket.schedule_group(self.now);
            self.group_time = time;
            self.group_left = count;
        }
        self.group_left -= 1;
        self.now = self.group_time;
        self.group_time
    }

    /// Fast-forward the schedule past `probes` sends, as if
    /// [`next_send_time`](Self::next_send_time) had been called that many times.
    pub fn skip(&mut self, probes: u64) {
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

    /// The send time of the most recent probe (`start` before any).
    pub fn now(&self) -> SimTime {
        self.now
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

    #[test]
    fn advance_matches_the_manual_acquire_loop() {
        for (rate, capacity, probes) in [(10.0, 2.0, 25u64), (1_000.0, 10.0, 500), (7.5, 1.0, 13)] {
            let start = SimTime::ZERO;
            // Manual loop, as the scanners run it.
            let mut manual = TokenBucket::new(rate, capacity, start);
            let mut now = start;
            for _ in 0..probes {
                now = manual.acquire(now);
            }
            // Fast-forward in one call, and in two stacked calls.
            let mut forwarded = TokenBucket::new(rate, capacity, start);
            assert_eq!(forwarded.advance(start, probes), now);
            let mut split = TokenBucket::new(rate, capacity, start);
            let mid = split.advance(start, probes / 2);
            assert_eq!(split.advance(mid, probes - probes / 2), now);
            // The bucket state also matches: the next probe lands identically.
            assert_eq!(manual.acquire(now), forwarded.acquire(now));
        }
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
    fn advance_is_bit_identical_to_the_acquire_loop_across_configs() {
        for &(rate, capacity) in SCHEDULE_CONFIGS {
            let start = SimTime(17);
            let probes = 1_800u64;
            let mut manual = TokenBucket::new(rate, capacity, start);
            let mut now = start;
            let mut sends = Vec::with_capacity(probes as usize);
            for _ in 0..probes {
                now = manual.acquire(now);
                sends.push(now);
            }
            // Single-shot fast-forward lands on the same final send time.
            let mut forwarded = TokenBucket::new(rate, capacity, start);
            assert_eq!(
                forwarded.advance(start, probes),
                now,
                "advance diverged at rate={rate} capacity={capacity}"
            );
            // ...and on bit-identical internal state.
            assert_eq!(forwarded.tokens.to_bits(), manual.tokens.to_bits());
            assert_eq!(forwarded.last_ms.to_bits(), manual.last_ms.to_bits());
            // Every split point is a valid hand-off: advance to the split,
            // then replay the tail probe by probe — the tail timestamps
            // must match the serial run exactly.
            for split in [0, 1, 7, probes / 3, probes / 2, probes - 1, probes] {
                let mut bucket = TokenBucket::new(rate, capacity, start);
                let mut at = bucket.advance(start, split);
                for expected in &sends[split as usize..] {
                    at = bucket.acquire(at);
                    assert_eq!(
                        at, *expected,
                        "split={split} diverged at rate={rate} capacity={capacity}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_schedule_replays_the_acquire_loop_exactly() {
        for &(rate, capacity) in SCHEDULE_CONFIGS {
            let start = SimTime(5);
            let probes = 1_800u64;
            let mut manual = TokenBucket::new(rate, capacity, start);
            let mut now = start;
            let mut schedule = ProbeSchedule::new(rate, capacity, start);
            assert_eq!(schedule.now(), start);
            for i in 0..probes {
                now = manual.acquire(now);
                let at = schedule.next_send_time();
                assert_eq!(
                    at, now,
                    "probe {i} diverged at rate={rate} capacity={capacity}"
                );
                assert_eq!(schedule.now(), now);
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
                    assert_eq!(skipped.now(), sends[split as usize - 1]);
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
        assert_eq!(schedule.now(), SimTime(9));
        let mut fresh = ProbeSchedule::new(100.0, 4.0, SimTime(9));
        assert_eq!(schedule.next_send_time(), fresh.next_send_time());
    }

    #[test]
    fn advance_zero_probes_is_identity() {
        let mut bucket = TokenBucket::new(5.0, 1.0, SimTime::ZERO);
        assert_eq!(
            bucket.advance(SimTime::from_secs(3), 0),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn duration_estimate() {
        assert_eq!(TokenBucket::duration_for(1_000.0, 10_000).as_secs(), 10);
    }

    #[test]
    #[should_panic(expected = "probe rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0.0, 1.0, SimTime::ZERO);
    }
}
