//! Probe pacing in simulated time.
//!
//! The paper's ethics section commits to at most one probe per target per
//! second and an overall probe rate that does not stress networks.  The
//! scanners honour the same discipline against the simulator: every scan
//! phase sends at the pace of a token bucket and, as a side effect, its
//! send times determine how long (in simulated time) a measurement
//! campaign takes — which in turn interacts with churn.

use alias_netsim::SimTime;

/// The pace of one scan phase: a token bucket holding `burst` probes,
/// refilled at a sustained rate, each probe asking for its send time at the
/// one before it.
///
/// **Send times are closed-form.**  The full bucket sends `burst` probes at
/// the phase's start.  The next probe waits for a token, which arrives
/// within the millisecond, so it goes out a millisecond later; and over
/// that millisecond the bucket refills to `burst` again, since the rate is
/// at least `1,000 · (burst + 1)` pps ([`Pace::new`] checks it at compile
/// time).  So probe `k` goes out at the start for `k < burst` and
/// `1 + (k − burst) / (burst + 1)` ms after it otherwise: a phase sends
/// `burst + 1` probes a millisecond whatever its rate.  Each shard of a
/// phase takes its send times from its probes' indexes, with nothing to
/// replay.  The stepped bucket is the tests' reference.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pace {
    burst: u64,
}

impl Pace {
    /// The pace of a `burst`-probe bucket refilled at `rate_pps`.
    ///
    /// # Panics
    /// Panics (at compile time, in a `const`) if the bucket would not
    /// refill within a millisecond.
    pub(crate) const fn new(rate_pps: u64, burst: u64) -> Pace {
        assert!(
            rate_pps >= 1_000 * (burst + 1),
            "the bucket must refill within a millisecond"
        );
        Pace { burst }
    }

    /// When probe `k` of a phase started at `start` goes out.
    pub(crate) fn send_time(self, start: SimTime, k: u64) -> SimTime {
        match k.checked_sub(self.burst) {
            None => start,
            Some(late) => start + SimTime(1 + late / (self.burst + 1)),
        }
    }

    /// When the last of `probes` probes goes out: the phase's finish time
    /// (`start` if there is none).
    pub(crate) fn finish(self, start: SimTime, probes: u64) -> SimTime {
        probes
            .checked_sub(1)
            .map_or(start, |last| self.send_time(start, last))
    }
}

/// A token bucket that hands out send times: the stepped pacing every
/// closed-form schedule is held to.  It keeps fractional-millisecond state,
/// so that rates well above 1,000 probes a second are honoured at the
/// millisecond granularity of [`SimTime`].
#[cfg(test)]
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

#[cfg(test)]
impl TokenBucket {
    /// A full bucket with the given sustained rate and burst capacity.
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

    /// Account for one probe and return the simulated time at which it is
    /// sent: refill for the time elapsed up to `now` (time never goes
    /// backwards) and, if no whole token is there yet, wait until one is.
    pub(crate) fn acquire(&mut self, now: SimTime) -> SimTime {
        let now_ms = (now.as_millis() as f64).max(self.last_ms);
        let elapsed_secs = (now_ms - self.last_ms) / 1_000.0;
        self.tokens = (self.tokens + elapsed_secs * self.rate_pps).min(self.capacity);
        self.last_ms = now_ms;
        let at = if self.tokens >= 1.0 {
            SimTime(now_ms.floor() as u64)
        } else {
            let wait_ms = (1.0 - self.tokens) / self.rate_pps * 1_000.0;
            self.last_ms = now_ms + wait_ms;
            self.tokens = 1.0;
            SimTime(self.last_ms.ceil() as u64)
        };
        self.tokens -= 1.0;
        at
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// Assert that `pace`'s send times for `probes` probes from `start`
    /// are the self-clocked stepped bucket's, and so is its finish time.
    pub(crate) fn assert_pace_is_the_stepped_bucket(
        (rate_pps, burst): (u64, u64),
        start: SimTime,
        probes: u64,
    ) {
        let pace = Pace::new(rate_pps, burst);
        let mut bucket = TokenBucket::new(rate_pps as f64, burst as f64, start);
        let mut now = start;
        for k in 0..probes {
            now = bucket.acquire(now);
            assert_eq!(
                pace.send_time(start, k),
                now,
                "probe {k} of {probes} at {rate_pps} pps, burst {burst}, start {start:?}"
            );
        }
        assert_eq!(pace.finish(start, probes), now);
    }

    /// The three paces the scanners use, the slowest rate each burst
    /// admits, and a small burst.
    const PACES: [(u64, u64); 6] = [
        (50_000, 32),
        (200_000, 32),
        (200_000, 64),
        (33_000, 32),
        (65_000, 64),
        (2_000, 1),
    ];

    #[test]
    fn phase_send_times_are_the_stepped_buckets() {
        const TWO_31: u64 = 1 << 31;
        for pace in PACES {
            for start in [0, 1, 17, 1_814_400_000, TWO_31 - 40, TWO_31 - 3, TWO_31 + 5] {
                for probes in [0, 1, 31, 32, 33, 65, 5_000] {
                    assert_pace_is_the_stepped_bucket(pace, SimTime(start), probes);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "refill within a millisecond")]
    fn a_rate_that_sets_send_times_is_rejected() {
        let _ = Pace::new(49_999, 49);
    }

    #[test]
    #[should_panic(expected = "probe rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0.0, 1.0, SimTime::ZERO);
    }
}
