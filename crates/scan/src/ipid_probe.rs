//! IPID time-series collection for IPID-based alias resolution.
//!
//! MIDAR, Ally and RadarGun all work by sampling the IPv4 Identification
//! field of candidate addresses over time and testing whether the samples of
//! two addresses can be explained by a single shared counter.  This module
//! provides the probing schedules those baselines need:
//!
//! * round-robin sampling of a target set (MIDAR's estimation and discovery
//!   stages), and
//! * tightly interleaved sampling of a candidate pair (Ally, and MIDAR's
//!   elimination/corroboration stages).
//!
//! Both loops probe through a [`ProbeSession`] the caller holds for the
//! whole sweep, so the substrate's counter state is locked once per sweep
//! rather than once per probe.

use crate::rate::TokenBucket;
use alias_netsim::{DeviceId, ProbeContext, ProbeSession, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use serde::{Deserialize, Serialize};

/// Probe slots the IPID prober sent: one per target per round of a
/// round-robin sweep, `2 × probes_per_addr` per interleaved pair (a slot
/// whose target does not exist or does not answer still counts — it took
/// its turn in the schedule).
static IPID_PROBES: LazyCounter = LazyCounter::new(
    "scan.ipid_probes",
    DeterminismClass::Deterministic,
    "probes",
    "scan",
);

/// Times the stepped pair-pacing loop actually ran, i.e. misses of the
/// pair-schedule memo.  `pair tests / schedules` is the memo's ratio of
/// useful outcomes to attempts.
static IPID_PAIR_SCHEDULES: LazyCounter = LazyCounter::new(
    "scan.ipid_pair_schedules",
    DeterminismClass::Deterministic,
    "schedules",
    "scan",
);

/// One IPID sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpidSample {
    /// When the reply was received.
    pub time: SimTime,
    /// The observed IPID value.
    pub ipid: u16,
}

/// Whether a series holds enough samples to run a monotonicity test.
pub fn is_usable(samples: &[IpidSample]) -> bool {
    samples.len() >= 3
}

/// A probe target resolved against the IP index
/// ([`Internet::lookup`](alias_netsim::Internet::lookup)): the interface
/// behind an address, or `None` for an address no device owns.
pub type ResolvedTarget = Option<(DeviceId, usize)>;

/// Configuration of the IPID prober.
#[derive(Debug, Clone)]
pub struct IpidProberConfig {
    /// Samples collected per target per round.
    pub rounds: usize,
    /// Spacing between successive rounds.
    pub round_spacing: SimTime,
    /// Probe rate in packets per second.
    pub rate_pps: f64,
}

impl Default for IpidProberConfig {
    fn default() -> Self {
        IpidProberConfig {
            rounds: 30,
            round_spacing: SimTime::from_secs(10),
            rate_pps: 5_000.0,
        }
    }
}

/// The send-time offsets (from `start`) of one interleaved pair, as the
/// stepped pacing loop produced them, and the binade of `start` they are
/// exact for.
#[derive(Debug, Default)]
struct PairSchedule {
    /// Biased f64 exponent of the `start` the offsets were stepped from;
    /// `None` when there is nothing to reuse (no run yet, or a run whose
    /// send times crossed a binade boundary).
    binade: Option<u64>,
    /// One offset per probe slot, in probe order.
    offsets: Vec<u64>,
}

/// The binade (biased f64 exponent) a millisecond timestamp falls in.
fn binade(time: SimTime) -> u64 {
    (time.as_millis() as f64).to_bits() >> 52
}

impl PairSchedule {
    /// Whether the memoised offsets are the schedule of a `slots`-probe
    /// pair starting at `start`: same slot count, and `start` through the
    /// last send time inside the binade the offsets were stepped in.
    fn covers(&self, start: SimTime, slots: usize) -> bool {
        let last = self.offsets.last().copied().unwrap_or(0);
        self.offsets.len() == slots
            && self.binade == Some(binade(start))
            && self.binade == Some(binade(start + SimTime(last)))
    }
}

/// Collects IPID time series from the simulated Internet.
///
/// A prober is the unit of one sweep: it keeps the pair schedule it last
/// stepped (see [`collect_interleaved_pair`](Self::collect_interleaved_pair))
/// and tallies the pair probes it sent, adding them to the run's counters
/// once, when it is dropped.
#[derive(Debug)]
pub struct IpidProber {
    config: IpidProberConfig,
    schedule: PairSchedule,
    /// Probe slots of interleaved pairs sent so far.
    pair_probes: u64,
    /// Times the stepped pair loop ran.
    pair_schedules: u64,
}

impl Drop for IpidProber {
    fn drop(&mut self) {
        if self.pair_schedules > 0 {
            IPID_PROBES.add(self.pair_probes);
            IPID_PAIR_SCHEDULES.add(self.pair_schedules);
        }
    }
}

impl IpidProber {
    /// Create a prober with the given configuration.
    pub fn new(config: IpidProberConfig) -> Self {
        IpidProber {
            config,
            schedule: PairSchedule::default(),
            pair_probes: 0,
            pair_schedules: 0,
        }
    }

    /// Round-robin sample every target: one probe per target per round,
    /// `rounds` rounds, targets probed in order within a round.  Returns
    /// one series per target, in target order.
    ///
    /// The targets come resolved ([`ResolvedTarget`]): IPv4 and IPv6
    /// interfaces draw from the same device-wide counter (ICMP echo and
    /// fragment-eliciting probes in the field), and an address no device
    /// owns still takes its turn in the schedule and never answers.
    /// Unresponsive targets yield series with fewer (possibly zero)
    /// samples.
    ///
    /// The bucket is stepped probe by probe: its state crosses rounds (a
    /// round starts `round_spacing` after the previous one *ended*, and the
    /// strictly-increasing forcing feeds back into the refill arithmetic),
    /// so there is no per-round schedule to reuse the way a pair's is.
    pub fn collect_round_robin(
        &self,
        session: &mut ProbeSession<'_>,
        targets: &[ResolvedTarget],
        vantage: VantageKind,
        start: SimTime,
    ) -> Vec<Vec<IpidSample>> {
        let mut series: Vec<Vec<IpidSample>> = targets
            .iter()
            .map(|_| Vec::with_capacity(self.config.rounds))
            .collect();
        let mut bucket = TokenBucket::new(self.config.rate_pps, 16.0, start);
        let mut round_start = start;
        // Probe timestamps are forced to be strictly increasing so that the
        // time-ordered merge of any two series reflects the true probe
        // order, which the monotonic bounds test depends on.
        let mut last_sent = SimTime::ZERO;
        for _ in 0..self.config.rounds {
            let mut now = round_start;
            for (samples, target) in series.iter_mut().zip(targets) {
                now = bucket.acquire(now);
                if now <= last_sent {
                    now = last_sent + SimTime(1);
                }
                last_sent = now;
                let Some((device_id, iface_idx)) = *target else {
                    continue;
                };
                let ctx = ProbeContext { vantage, time: now };
                if let Some(echo) = session.identifier_probe_at(device_id, iface_idx, &ctx) {
                    samples.push(IpidSample {
                        time: echo.time,
                        ipid: echo.ipid,
                    });
                }
            }
            round_start = round_start.max(now) + self.config.round_spacing;
        }
        IPID_PROBES.add((targets.len() * self.config.rounds) as u64);
        series
    }

    /// Step the pair-pacing loop from `start` for `slots` probes and keep
    /// its send-time offsets.  This loop is the only definition of the
    /// pair schedule; [`PairSchedule`] stores its output and nothing else
    /// computes an offset.
    fn step_pair_schedule(&mut self, start: SimTime, slots: usize) {
        self.pair_schedules += 1;
        let offsets = &mut self.schedule.offsets;
        offsets.clear();
        offsets.reserve(slots);
        let mut bucket = TokenBucket::new(self.config.rate_pps, 4.0, start);
        let mut now = start;
        let mut last_sent = SimTime::ZERO;
        for _ in 0..slots {
            now = bucket.acquire(now);
            // Strictly increasing timestamps keep the merged probe order
            // recoverable by time (see collect_round_robin).
            if now <= last_sent {
                now = last_sent + SimTime(1);
            }
            last_sent = now;
            offsets.push(now.since(start).as_millis());
        }
        // Reusable only if the whole run stayed inside one binade.
        self.schedule.binade = (binade(start) == binade(now)).then_some(binade(start));
    }

    /// The send-time offsets of a `slots`-probe pair starting at `start`:
    /// the memoised ones where they are exact, freshly stepped otherwise.
    fn pair_offsets(&mut self, start: SimTime, slots: usize) -> &[u64] {
        if !self.schedule.covers(start, slots) {
            self.step_pair_schedule(start, slots);
        }
        &self.schedule.offsets
    }

    /// Tightly interleave probes to a pair of interfaces (A, B, A, B, ...),
    /// as the Ally test and MIDAR's elimination stage require.
    ///
    /// The targets come resolved ([`ResolvedTarget`]; `None` for an address
    /// that does not exist, which still takes its turn in the schedule and
    /// never answers).  Each target's samples are written into the buffer
    /// at its index, cleared first, so a caller testing many pairs reuses
    /// one buffer pair.  With every reply in, the probe order is
    /// `samples[0][0], samples[1][0], samples[0][1], ...`.
    ///
    /// **The schedule is memoised.**  A sweep tests hundreds of thousands
    /// of pairs whose send times are the same handful of offsets from
    /// `start`, so the stepped loop runs once and later pairs replay its
    /// offsets.  That is exact, not approximate, as long as `start` and the
    /// last send time stay in the binade (same f64 exponent) the offsets
    /// were stepped in: the loop only ever feeds integer-valued times back
    /// into the bucket, every integer below 2^52 is an even multiple of its
    /// binade's ulp — so the rounding of `now + wait` depends on `wait` and
    /// the ulp alone — and `now − last` is exact by Sterbenz's lemma.
    /// Across binades the offsets do move (at 3 pps, `start = 2^31 − 5`
    /// gives an offset of 1001 ms where `start = 1,814,400,000` gives 1000,
    /// and `start = 0` gives `1, 2, 3, 4, …` because nothing is ever sent
    /// at time zero), so a pair outside the memo's binade steps the loop
    /// again.
    pub fn collect_interleaved_pair(
        &mut self,
        session: &mut ProbeSession<'_>,
        targets: [ResolvedTarget; 2],
        probes_per_addr: usize,
        vantage: VantageKind,
        start: SimTime,
        samples: &mut [Vec<IpidSample>; 2],
    ) {
        samples[0].clear();
        samples[1].clear();
        let slots = probes_per_addr * 2;
        self.pair_probes += slots as u64;
        for (i, &offset) in self.pair_offsets(start, slots).iter().enumerate() {
            let Some((device_id, iface_idx)) = targets[i % 2] else {
                continue;
            };
            let ctx = ProbeContext {
                vantage,
                time: start + SimTime(offset),
            };
            if let Some(echo) = session.identifier_probe_at(device_id, iface_idx, &ctx) {
                samples[i % 2].push(IpidSample {
                    time: echo.time,
                    ipid: echo.ipid,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::ipid::IpidModel;
    use alias_netsim::{Internet, InternetBuilder, InternetConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::net::IpAddr;

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(202)).build()
    }

    fn pingable_device_addrs(internet: &Internet, shared_counter: bool) -> Option<Vec<IpAddr>> {
        internet
            .devices()
            .iter()
            .find(|d| {
                let model = internet.ipid_model(d.id);
                d.responds_to_ping
                    && d.ipv4_addrs().len() >= 2
                    && model.is_shared_monotonic() == shared_counter
                    && model
                        .velocity()
                        .map(|v| v < 1_000.0)
                        .unwrap_or(!shared_counter)
            })
            .map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4).collect())
    }

    fn resolve(internet: &Internet, addrs: &[IpAddr]) -> Vec<ResolvedTarget> {
        addrs.iter().map(|&addr| internet.lookup(addr)).collect()
    }

    #[test]
    fn round_robin_collects_full_series_for_responsive_targets() {
        let internet = internet();
        let targets: Vec<IpAddr> = internet
            .devices()
            .iter()
            .filter(|d| d.responds_to_ping)
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .take(10)
            .collect();
        let prober = IpidProber::new(IpidProberConfig {
            rounds: 5,
            ..Default::default()
        });
        let series = prober.collect_round_robin(
            &mut internet.probe_session(),
            &resolve(&internet, &targets),
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        assert_eq!(series.len(), targets.len());
        for s in &series {
            assert_eq!(s.len(), 5);
            assert!(is_usable(s));
            // Timestamps strictly increase.
            assert!(s.windows(2).all(|w| w[1].time > w[0].time));
        }
    }

    #[test]
    fn unresponsive_targets_yield_empty_series() {
        let internet = internet();
        let bogus: Vec<IpAddr> = vec!["198.51.100.77".parse().unwrap()];
        let prober = IpidProber::new(IpidProberConfig {
            rounds: 3,
            ..Default::default()
        });
        let series = prober.collect_round_robin(
            &mut internet.probe_session(),
            &resolve(&internet, &bogus),
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        assert_eq!(series.len(), 1);
        assert!(series[0].is_empty());
        assert!(!is_usable(&series[0]));
    }

    /// Probe a pair given by address and return the IPIDs in probe order
    /// (every probe answered).
    fn interleaved_ipids(internet: &Internet, a: IpAddr, b: IpAddr) -> Vec<u16> {
        let mut prober = IpidProber::new(IpidProberConfig::default());
        let mut samples = [Vec::new(), Vec::new()];
        prober.collect_interleaved_pair(
            &mut internet.probe_session(),
            [internet.lookup(a), internet.lookup(b)],
            10,
            VantageKind::Distributed,
            SimTime::ZERO,
            &mut samples,
        );
        assert_eq!(samples[0].len(), 10);
        assert_eq!(samples[1].len(), 10);
        samples[0]
            .iter()
            .zip(&samples[1])
            .flat_map(|(a, b)| [a.ipid, b.ipid])
            .collect()
    }

    #[test]
    fn interleaved_pair_from_shared_counter_interlocks() {
        let internet = internet();
        let Some(addrs) = pingable_device_addrs(&internet, true) else {
            // The tiny population may not contain a low-velocity shared
            // counter device that answers ping; nothing to assert then.
            return;
        };
        // A single shared counter sampled alternately produces a globally
        // increasing sequence (modulo wrap, which cannot occur in 20 probes
        // at low velocity).
        let values = interleaved_ipids(&internet, addrs[0], addrs[1]);
        assert!(
            values.windows(2).all(|w| w[1] > w[0]),
            "shared counter must interlock: {values:?}"
        );
    }

    #[test]
    fn interleaved_pair_from_random_counters_does_not_interlock() {
        let internet = internet();
        let device = internet.devices().iter().find(|d| {
            d.responds_to_ping
                && d.ipv4_addrs().len() >= 2
                && matches!(internet.ipid_model(d.id), IpidModel::Random)
        });
        let Some(device) = device else { return };
        let addrs: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
        let values = interleaved_ipids(&internet, addrs[0], addrs[1]);
        assert!(!values.windows(2).all(|w| w[1] > w[0]));
    }

    /// The send times of one pair as a fresh stepped loop assigns them: a
    /// new bucket, `slots` forced acquires, nothing memoised.  The
    /// reference for the memoised path.
    fn stepped_send_times(rate_pps: f64, slots: usize, start: SimTime) -> Vec<SimTime> {
        let mut bucket = TokenBucket::new(rate_pps, 4.0, start);
        let mut now = start;
        let mut last_sent = SimTime::ZERO;
        (0..slots)
            .map(|_| {
                now = bucket.acquire(now);
                if now <= last_sent {
                    now = last_sent + SimTime(1);
                }
                last_sent = now;
                now
            })
            .collect()
    }

    /// The send times `prober` uses for a pair at `start`.
    fn memoised_send_times(prober: &mut IpidProber, slots: usize, start: SimTime) -> Vec<SimTime> {
        let offsets = prober.pair_offsets(start, slots);
        offsets.iter().map(|&o| start + SimTime(o)).collect()
    }

    fn pair_prober(rate_pps: f64) -> IpidProber {
        IpidProber::new(IpidProberConfig {
            rounds: 1,
            round_spacing: SimTime::ZERO,
            rate_pps,
        })
    }

    #[test]
    fn memoised_pair_schedule_equals_a_fresh_stepped_loop() {
        // One prober per rate, reused across the whole sequence of starts
        // and slot counts, so a memo that goes stale is caught.
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_5c4e);
        let mut starts: Vec<u64> = vec![0, 1];
        for k in [20u32, 30, 31, 32, 40] {
            for j in 0..=40u64 {
                starts.push((1u64 << k) - j);
                starts.push((1u64 << k) + j);
            }
        }
        // Steady-state sweeps: consecutive pairs 200 ms apart, as Ally and
        // the elimination stage issue them, from a few anchors.
        for anchor in [1_814_400_000u64, (1 << 31) - 3_000, (1 << 40) - 2_000] {
            starts.extend((0..40).map(|i| anchor + i * 200));
        }
        starts.extend((0..400).map(|_| rng.gen_range(0..1u64 << 40)));
        let mut reused = 0u64;
        let mut pairs = 0u64;
        for rate in [3.0, 7.3, 20.0, 333.0, 999.9, 5_000.0, 50_000.0] {
            let mut prober = pair_prober(rate);
            for n in 2..=40usize {
                // Every start for a few slot counts, a sample for the rest.
                let stride = if n % 13 == 2 { 1 } else { 17 };
                for &start in starts.iter().skip(n % stride).step_by(stride) {
                    let start = SimTime(start);
                    assert_eq!(
                        memoised_send_times(&mut prober, 2 * n, start),
                        stepped_send_times(rate, 2 * n, start),
                        "rate {rate} n {n} start {start:?}"
                    );
                    pairs += 1;
                }
            }
            reused += pairs - prober.pair_schedules;
        }
        assert!(reused > 0, "the sequence must exercise the memo");
    }

    #[test]
    fn pair_schedules_differ_across_binades_and_at_time_zero() {
        // The two cases that rule out "offsets are independent of start".
        let times = |prober: &mut IpidProber, start: u64| -> Vec<u64> {
            let sends = memoised_send_times(prober, 12, SimTime(start));
            assert_eq!(
                sends,
                stepped_send_times(prober.config.rate_pps, 12, SimTime(start))
            );
            sends.iter().map(|t| t.as_millis() - start).collect()
        };
        let mut slow = pair_prober(3.0);
        assert_eq!(
            times(&mut slow, 1_814_400_000),
            [0, 1, 2, 3, 334, 667, 1_000, 1_334, 1_667, 2_000, 2_334, 2_667]
        );
        // Five milliseconds before 2^31 the run crosses into a binade with
        // twice the ulp, and two waits round the other way.
        assert_eq!(
            times(&mut slow, (1 << 31) - 5),
            [0, 1, 2, 3, 334, 667, 1_001, 1_334, 1_667, 2_001, 2_334, 2_667]
        );
        // Nothing is ever sent at time zero: the burst is forced apart.
        let mut fast = pair_prober(5_000.0);
        assert_eq!(times(&mut fast, 0)[..4], [1, 2, 3, 4]);
        assert_eq!(times(&mut fast, 1_000)[..4], [0, 1, 2, 3]);
        // The two schedules the study runs, by value.
        assert_eq!(
            times(&mut pair_prober(20.0), 1_814_400_000),
            [0, 1, 2, 3, 50, 100, 150, 200, 250, 300, 350, 400]
        );
        assert_eq!(
            times(&mut fast, 1_814_400_000),
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        );
    }

    /// The pair probe as it was before sessions and resolved targets: every
    /// probe steps its own bucket, looks its address up again and takes the
    /// substrate's lock for one probe.  The reference for the test below.
    fn address_based_pair(
        prober: &IpidProber,
        internet: &Internet,
        pair: [IpAddr; 2],
        probes_per_addr: usize,
        vantage: VantageKind,
        start: SimTime,
    ) -> [Vec<IpidSample>; 2] {
        let mut samples = [Vec::new(), Vec::new()];
        let mut bucket = TokenBucket::new(prober.config.rate_pps, 4.0, start);
        let mut now = start;
        let mut last_sent = SimTime::ZERO;
        for i in 0..probes_per_addr * 2 {
            now = bucket.acquire(now);
            if now <= last_sent {
                now = last_sent + SimTime(1);
            }
            last_sent = now;
            let ctx = ProbeContext { vantage, time: now };
            let target = pair[i % 2];
            let echo = if target.is_ipv6() {
                internet.ipv6_fragment_probe(target, &ctx)
            } else {
                internet.icmp_echo(target, &ctx)
            };
            if let Some(echo) = echo {
                samples[i % 2].push(IpidSample {
                    time: echo.time,
                    ipid: echo.ipid,
                });
            }
        }
        samples
    }

    #[test]
    fn resolved_pair_probe_matches_the_address_based_one() {
        // Probing advances device state, so each side gets its own
        // same-seed Internet and replays the same pairs in the same order.
        let (by_address, resolved) = (internet(), internet());
        let devices = by_address.devices();
        let v4 = |d: &alias_netsim::Device| d.ipv4_addrs().into_iter().map(IpAddr::V4);
        let multi: Vec<&alias_netsim::Device> = devices
            .iter()
            .filter(|d| d.responds_to_ping && d.ipv4_addrs().len() >= 2)
            .collect();
        let silent = devices
            .iter()
            .find(|d| !d.responds_to_ping && !d.ipv4_addrs().is_empty())
            .expect("the tiny population has hosts that ignore ping");
        let hidden = devices
            .iter()
            .find(|d| d.responds_to_ping && !d.visible_to_single_vp && !d.ipv4_addrs().is_empty())
            .expect("the tiny population has hosts one vantage point cannot see");
        let v6 = devices
            .iter()
            .find(|d| d.responds_to_ping && d.ipv6_addrs().len() >= 2)
            .expect("the tiny population has multi-address IPv6 hosts");
        let missing: IpAddr = "198.51.100.77".parse().unwrap();
        assert!(by_address.lookup(missing).is_none());

        let first = |d: &alias_netsim::Device| v4(d).next().unwrap();
        let mut pairs: Vec<[IpAddr; 2]> = Vec::new();
        for (device, next) in multi.iter().zip(multi.iter().skip(1)).take(12) {
            let addrs: Vec<IpAddr> = v4(device).collect();
            pairs.push([addrs[0], addrs[1]]); // aliases
            pairs.push([addrs[1], first(next)]); // two devices
        }
        assert!(pairs.len() >= 8);
        let live = first(multi[0]);
        pairs.push([live, first(silent)]);
        pairs.push([first(hidden), live]);
        pairs.push([missing, live]);
        pairs.push([live, missing]);
        pairs.push([missing, missing]);
        let v6_addrs: Vec<IpAddr> = v6.ipv6_addrs().into_iter().map(IpAddr::V6).collect();
        pairs.push([v6_addrs[0], v6_addrs[1]]);

        let mut prober = pair_prober(20.0);
        let mut buffers = [Vec::new(), Vec::new()];
        let mut answered = 0;
        // One session for the whole sweep on the resolved side; the
        // address side takes the lock probe by probe.
        let mut session = resolved.probe_session();
        for (n, pair) in pairs.iter().enumerate() {
            let start = SimTime(n as u64 * 700);
            let vantage = if n % 2 == 0 {
                VantageKind::SingleVp
            } else {
                VantageKind::Distributed
            };
            let expected = address_based_pair(&prober, &by_address, *pair, 6, vantage, start);
            prober.collect_interleaved_pair(
                &mut session,
                pair.map(|addr| resolved.lookup(addr)),
                6,
                vantage,
                start,
                &mut buffers,
            );
            assert_eq!(buffers, expected, "pair {pair:?}");
            answered += buffers[0].len() + buffers[1].len();
        }
        assert!(answered > 0);
        assert!(
            prober.pair_schedules < pairs.len() as u64,
            "later pairs replay the memoised schedule"
        );
        // Both sides left every device's IPID counter in the same state.
        let by_address = by_address.probe_session();
        for device in devices {
            assert_eq!(
                format!("{:?}", by_address.ipid_state(device.id)),
                format!("{:?}", session.ipid_state(device.id)),
                "device {:?}",
                device.id
            );
        }
    }
}
