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

use alias_netsim::{IpidSample, ProbeContext, ProbeSession, Route, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};

/// Probes the IPID prober sent: one per target per round of a round-robin
/// sweep, and per interleaved pair every probe up to the one that ended it
/// (a probe to an address nobody owns, or one that goes unanswered, still
/// counts — it was sent).
static IPID_PROBES: LazyCounter = LazyCounter::new(
    "scan.ipid_probes",
    DeterminismClass::Deterministic,
    "probes",
    "scan",
);

/// Interleaved pairs whose probing ended before their last slot, at an
/// unanswered probe or at a reply the stop rule refuted.
static IPID_PAIR_STOPS: LazyCounter = LazyCounter::new(
    "scan.ipid_pair_stops",
    DeterminismClass::Deterministic,
    "pairs",
    "scan",
);

/// How an interleaved pair test ended
/// ([`IpidProber::collect_interleaved_pair`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairEnd {
    /// Every probe was answered and no reply was refuted.
    Complete,
    /// A probe went unanswered; nothing after it was sent.
    Unanswered,
    /// The stop rule refuted a reply against the reply before it; that
    /// reply is the last sample, and nothing after it was sent.
    Refuted,
}

/// Rounds of the round robin ([`round_robin`]): samples per target.
pub const ROUNDS: usize = 12;

/// Pause between a round's last probe and the next round's first.
const ROUND_SPACING: SimTime = SimTime::from_secs(10);

/// Probe rate of the round robin, in packets per second.  At 1,000 pps or
/// more the pacing bucket gains a token a millisecond, so it never holds
/// back a probe sent a millisecond after the one before, and the send
/// times [`round_robin`] derives are the paced ones.
const ROUND_ROBIN_PPS: f64 = 5_000.0;
const _: () = assert!(ROUND_ROBIN_PPS >= 1_000.0);

/// Probes an interleaved pair sends before its gap paces it: the pacing
/// bucket's capacity ([`IpidProber::new`]).
const PAIR_BURST: u64 = 4;

/// A round robin's series ([`round_robin`]): per target the IPIDs of its
/// answered probes and their count, 25 bytes a target.  Target `t`'s probe
/// of round `r` went out at `round_starts[r] + t` ms.  A device answers
/// every round or none (reachability is the device's and the vantage's,
/// not the time's), so a target's IPIDs are rounds `0, 1, …` in order.
#[derive(Debug, Clone)]
pub struct IpidSeries {
    ipids: Vec<[u16; ROUNDS]>,
    /// Answers per target: the first so many of its IPIDs.
    answered: Vec<u8>,
    round_starts: [SimTime; ROUNDS],
}

impl IpidSeries {
    /// Targets the round robin probed.
    pub fn targets(&self) -> usize {
        self.answered.len()
    }

    /// The IPIDs the target at `target` in the round robin's list
    /// answered, in round order: all `ROUNDS` of them or none.
    pub fn ipids(&self, target: usize) -> &[u16] {
        &self.ipids[target][..usize::from(self.answered[target])]
    }

    /// When the target at `target` was probed in round `round`.
    pub fn sent_at(&self, target: usize, round: usize) -> SimTime {
        self.round_starts[round] + SimTime(target as u64)
    }

    /// The time between two rounds' starts: every series' period.
    pub fn period(&self) -> SimTime {
        self.round_starts[1].since(self.round_starts[0])
    }

    /// The series of the target at `target` as samples, in round order.
    pub fn samples(&self, target: usize) -> impl ExactSizeIterator<Item = IpidSample> + '_ {
        (self.ipids(target).iter().enumerate()).map(move |(round, &ipid)| IpidSample {
            time: self.sent_at(target, round),
            ipid,
        })
    }
}

/// Round-robin sample every target: one probe per target per round,
/// [`ROUNDS`] rounds, targets probed in order within a round.  Returns
/// one series per target, in target order.
///
/// The targets come routed
/// ([`Internet::route`](alias_netsim::Internet::route)): IPv4 and IPv6
/// interfaces draw from the same device-wide counter (ICMP echo and
/// fragment-eliciting probes in the field), and an address no device
/// owns (`None`) still takes its turn in the schedule and never
/// answers.  Unresponsive targets yield series with no samples.
///
/// **The schedule is closed-form.**  The round robin is paced by a
/// 16-probe token bucket at `ROUND_ROBIN_PPS`, send times forced to
/// increase strictly (so that the time-ordered merge of any two series is
/// the probe order, which the monotonic bounds test reads), and a round
/// starts `ROUND_SPACING` after the previous one's last probe.  The bucket
/// is asked at each previous send time, a millisecond apart, and gains at
/// least a token a millisecond, so it always holds one and never moves a
/// send time: only the forcing does.  Round 0 starts at `start` (1 ms if
/// `start` is zero: nothing is sent at time zero), target `t` goes out
/// `t` ms after its round's start, and every series is regular with one
/// period, `targets − 1` ms plus `ROUND_SPACING`.  The stepped loop that
/// paced slot by slot is the reference the tests hold this to.  The
/// session sends the probes ([`ProbeSession::identifier_probe_slots`]).
pub fn round_robin(
    session: &mut ProbeSession<'_>,
    targets: &[Option<Route>],
    vantage: VantageKind,
    start: SimTime,
) -> IpidSeries {
    let first = start.max(SimTime(1));
    let period = SimTime(targets.len().saturating_sub(1) as u64) + ROUND_SPACING;
    let round_starts =
        std::array::from_fn(|round| first + SimTime(round as u64 * period.as_millis()));
    let mut ipids = vec![[0; ROUNDS]; targets.len()];
    let answered = session.identifier_probe_slots(targets, &round_starts, vantage, &mut ipids);
    IPID_PROBES.add((targets.len() * ROUNDS) as u64);
    IpidSeries {
        ipids,
        answered,
        round_starts,
    }
}

/// Probes interleaved pairs of targets at one pace.
///
/// A prober is the unit of one sweep: it tallies the pair probes it sent,
/// adding them to the run's counters once, when it is dropped.
#[derive(Debug)]
pub struct IpidProber {
    /// Time between a pair's probes once its burst is spent.
    gap: SimTime,
    /// Probes of interleaved pairs sent so far.
    pair_probes: u64,
    /// Pairs that ended before their last slot.
    pair_stops: u64,
}

impl Drop for IpidProber {
    fn drop(&mut self) {
        if self.pair_probes > 0 {
            IPID_PROBES.add(self.pair_probes);
            IPID_PAIR_STOPS.add(self.pair_stops);
        }
    }
}

impl IpidProber {
    /// A prober whose pairs send four probes a millisecond apart and then
    /// one every `gap`: the pace of a four-probe token bucket at
    /// `1,000 / gap` pps, send times forced to increase strictly (so that
    /// the time-ordered merge of a pair's two series is its probe order).
    /// Ally's 20 pps is a 50 ms gap; at 1,000 pps or more only the forcing
    /// paces, which is a 1 ms gap.
    pub fn new(gap: SimTime) -> Self {
        IpidProber {
            gap,
            pair_probes: 0,
            pair_stops: 0,
        }
    }

    /// Probes of interleaved pairs sent so far, and pairs that ended before
    /// their last slot: what the prober adds to `scan.ipid_probes` and
    /// `scan.ipid_pair_stops` when it is dropped.
    pub fn pair_tally(&self) -> (u64, u64) {
        (self.pair_probes, self.pair_stops)
    }

    /// When slot `i` of a pair started at `start` goes out: a millisecond
    /// after the slot before it, from `start` (from 1 ms at time zero,
    /// where nothing is sent), or one `gap` a slot after the burst's last,
    /// whichever is later.
    fn slot_time(&self, start: SimTime, i: u64) -> SimTime {
        let forced = start.max(SimTime(1)) + SimTime(i);
        let paced = start + SimTime(self.gap.as_millis() * i.saturating_sub(PAIR_BURST - 1));
        forced.max(paced)
    }

    /// Tightly interleave probes to a pair of interfaces (A, B, A, B, ...),
    /// as the Ally test and MIDAR's elimination stage require, from
    /// `at.vantage` starting at `start = at.time`, and say how the pair
    /// ended.
    ///
    /// The targets come routed (`None` for an address that does not exist,
    /// which never answers).  Each target's samples
    /// are written into the buffer at its index, cleared first, so a caller
    /// testing many pairs reuses one buffer pair.  The probe order is
    /// `samples[0][0], samples[1][0], samples[0][1], ...`.
    ///
    /// **The pair stops early**, at the first unanswered probe or at the
    /// first reply for which `refutes(reply before, reply)` holds (that
    /// reply is kept).  Send times strictly increase, so the replies so far
    /// are the two series' time-ordered merge: a step-by-step test over it
    /// has already failed where the rule refutes.
    ///
    /// **Send times are closed-form**, a function of `start` and the
    /// prober's gap alone ([`new`](Self::new)): slot `i` goes out at
    /// `max(first + i, start + gap · (i − 3))` ms, where `first` is `start`,
    /// or 1 ms if `start` is zero (nothing is sent at time zero).
    pub fn collect_interleaved_pair(
        &mut self,
        session: &mut ProbeSession<'_>,
        targets: [Option<Route>; 2],
        probes_per_addr: usize,
        at: ProbeContext,
        samples: &mut [Vec<IpidSample>; 2],
        refutes: impl Fn(IpidSample, IpidSample) -> bool,
    ) -> PairEnd {
        samples[0].clear();
        samples[1].clear();
        let slots = probes_per_addr * 2;
        let (mut end, mut sent) = (PairEnd::Complete, slots);
        for i in 0..slots {
            let ctx = ProbeContext {
                time: self.slot_time(at.time, i as u64),
                ..at
            };
            let sample = targets[i % 2].and_then(|route| session.identifier_probe_at(route, &ctx));
            let Some(sample) = sample else {
                (end, sent) = (PairEnd::Unanswered, i + 1);
                break;
            };
            // Every earlier probe was answered: the other series' last
            // sample is the reply before this one.
            let previous = samples[1 - i % 2].last().copied();
            samples[i % 2].push(sample);
            if previous.is_some_and(|previous| refutes(previous, sample)) {
                (end, sent) = (PairEnd::Refuted, i + 1);
                break;
            }
        }
        self.pair_probes += sent as u64;
        self.pair_stops += u64::from(sent < slots);
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::TokenBucket;
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
            .find(|d| {
                let model = internet.ipid_model(d.id());
                d.responds_to_ping()
                    && d.ipv4_addrs().len() >= 2
                    && matches!(model, IpidModel::SharedMonotonic { .. }) == shared_counter
                    && model
                        .velocity()
                        .map(|v| v < 1_000.0)
                        .unwrap_or(!shared_counter)
            })
            .map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4).collect())
    }

    fn resolve(internet: &Internet, addrs: &[IpAddr]) -> Vec<Option<Route>> {
        addrs.iter().map(|&addr| internet.route(addr)).collect()
    }

    #[test]
    fn round_robin_collects_full_series_for_responsive_targets() {
        let internet = internet();
        let targets: Vec<IpAddr> = internet
            .devices()
            .filter(|d| d.responds_to_ping())
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .take(10)
            .collect();
        let series = round_robin(
            &mut internet.probe_session(),
            &resolve(&internet, &targets),
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        assert_eq!(series.targets(), targets.len());
        assert_eq!(series.period(), SimTime(10_009));
        for target in 0..series.targets() {
            let samples: Vec<IpidSample> = series.samples(target).collect();
            assert_eq!(samples.len(), ROUNDS);
            // Timestamps strictly increase.
            assert!(samples.windows(2).all(|w| w[1].time > w[0].time));
        }
    }

    #[test]
    fn unresponsive_targets_yield_empty_series() {
        let internet = internet();
        let bogus: Vec<IpAddr> = vec!["198.51.100.77".parse().unwrap()];
        let series = round_robin(
            &mut internet.probe_session(),
            &resolve(&internet, &bogus),
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        assert_eq!(series.targets(), 1);
        assert!(series.ipids(0).is_empty());
    }

    /// The round robin as it was before its schedule was closed-form and
    /// it probed device by device: one loop over the slots in send order,
    /// each paced by the token bucket and probed as it is paced.  The
    /// reference for the two tests below.
    fn slot_order_round_robin(
        session: &mut ProbeSession<'_>,
        targets: &[Option<Route>],
        vantage: VantageKind,
        start: SimTime,
    ) -> Vec<Vec<IpidSample>> {
        let mut series: Vec<Vec<IpidSample>> = targets.iter().map(|_| Vec::new()).collect();
        let mut bucket = TokenBucket::new(ROUND_ROBIN_PPS, 16.0, start);
        let mut round_start = start;
        let mut last_sent = SimTime::ZERO;
        for _ in 0..ROUNDS {
            let mut now = round_start;
            for (samples, target) in series.iter_mut().zip(targets) {
                now = bucket.acquire(now);
                if now <= last_sent {
                    now = last_sent + SimTime(1);
                }
                last_sent = now;
                let Some(route) = *target else {
                    continue;
                };
                let ctx = ProbeContext { vantage, time: now };
                samples.extend(session.identifier_probe_at(route, &ctx));
            }
            round_start = round_start.max(now) + ROUND_SPACING;
        }
        series
    }

    /// Run each sweep on two same-seed Internets, one through
    /// [`round_robin`] and one through [`slot_order_round_robin`], one
    /// session per side for all of them; compare every series, expanded
    /// to samples, then every device's counter state.  Returns the samples
    /// collected.
    fn assert_round_robin_matches_the_reference(
        build: impl Fn() -> Internet,
        sweeps: &[(Vec<IpAddr>, VantageKind, SimTime)],
    ) -> usize {
        let (reference, probed) = (build(), build());
        let mut samples = 0;
        {
            let (mut by_slot, mut by_device) = (reference.probe_session(), probed.probe_session());
            for (addrs, vantage, start) in sweeps {
                let targets = resolve(&probed, addrs);
                let expected = slot_order_round_robin(&mut by_slot, &targets, *vantage, *start);
                let series = round_robin(&mut by_device, &targets, *vantage, *start);
                assert_eq!(series.targets(), expected.len());
                for (target, want) in expected.iter().enumerate() {
                    assert_eq!(
                        series.samples(target).collect::<Vec<_>>(),
                        *want,
                        "{vantage:?} target {target} {}",
                        addrs[target]
                    );
                }
                samples += expected.iter().map(Vec::len).sum::<usize>();
            }
        }
        let (by_slot, by_device) = (reference.probe_session(), probed.probe_session());
        for device in probed.devices() {
            assert_eq!(
                format!("{:?}", by_device.ipid_state(device.id())),
                format!("{:?}", by_slot.ipid_state(device.id())),
                "device {:?}",
                device.id()
            );
        }
        samples
    }

    #[test]
    fn round_robin_matches_the_slot_order_reference() {
        let internet = internet();
        let devices = internet.devices();
        // Every address of every device, in address order as MIDAR and
        // Speedtrap take them, with addresses nobody owns between them and
        // one device's first address repeated.
        let mut addrs: Vec<IpAddr> = devices
            .clone()
            .flat_map(|d| d.interfaces().iter().map(|i| i.addr))
            .collect();
        addrs.sort_unstable();
        for k in 0..20u8 {
            addrs.insert(usize::from(k) * 37, IpAddr::from([198, 51, 100, k]));
        }
        let multi = devices.clone().find(|d| d.ipv4_addrs().len() >= 3).unwrap();
        let again = IpAddr::V4(multi.ipv4_addrs()[0]);
        addrs.extend([again, again]);
        assert!(addrs.iter().any(|a| internet.route(*a).is_none()));
        assert!(addrs.iter().any(IpAddr::is_ipv6));
        assert!(devices.clone().any(|d| !d.responds_to_ping()));
        assert!(devices
            .clone()
            .any(|d| d.responds_to_ping() && !d.visible_to_single_vp()));

        // Both vantages; three weeks in, and at time zero, where nothing
        // is sent and round 0 starts a millisecond late.
        let sweeps = [
            (addrs.clone(), VantageKind::SingleVp, SimTime::from_days(21)),
            (addrs, VantageKind::Distributed, SimTime::ZERO),
        ];
        let samples = assert_round_robin_matches_the_reference(self::internet, &sweeps);
        assert!(samples > 1_000, "only {samples} samples");
    }

    /// The same comparison over every pingable IPv4 address and then every
    /// pingable IPv6 address (Speedtrap runs MIDAR's estimation over
    /// IPv6), at paper scale (`cargo test --release -p alias-scan
    /// -- --ignored round_robin`).
    #[test]
    #[ignore = "paper scale: two Internets of ~90k devices"]
    fn paper_scale_round_robin_matches_the_slot_order_reference() {
        use alias_netsim::ScalePreset;
        let build = || {
            InternetBuilder::new(InternetConfig::preset(ScalePreset::PaperShape, 20230418)).build()
        };
        let internet = build();
        let pingable = |v6: bool| -> Vec<IpAddr> {
            let mut addrs: Vec<IpAddr> = internet
                .devices()
                .filter(|d| d.responds_to_ping())
                .flat_map(|d| d.interfaces().iter().map(|i| i.addr))
                .filter(|a| a.is_ipv6() == v6)
                .collect();
            addrs.sort_unstable();
            addrs
        };
        let epoch = SimTime::from_days(21);
        let sweeps = [
            (pingable(false), VantageKind::SingleVp, epoch),
            (
                pingable(true),
                VantageKind::SingleVp,
                epoch + SimTime::from_days(1),
            ),
        ];
        drop(internet);
        let samples = assert_round_robin_matches_the_reference(build, &sweeps);
        assert!(samples > 100_000, "only {samples} samples");
    }

    /// A stop rule that refutes nothing.
    fn never(_: IpidSample, _: IpidSample) -> bool {
        false
    }

    /// The context of a pair started at `start`.
    fn at(vantage: VantageKind, start: SimTime) -> ProbeContext {
        ProbeContext {
            vantage,
            time: start,
        }
    }

    /// Probe a pair given by address, refuting nothing, and return the
    /// IPIDs in probe order (every probe answered).
    fn interleaved_ipids(internet: &Internet, a: IpAddr, b: IpAddr) -> Vec<u16> {
        let mut prober = IpidProber::new(ELIMINATION.0);
        let mut samples = [Vec::new(), Vec::new()];
        let end = prober.collect_interleaved_pair(
            &mut internet.probe_session(),
            [internet.route(a), internet.route(b)],
            10,
            at(VantageKind::Distributed, SimTime::ZERO),
            &mut samples,
            never,
        );
        assert_eq!(end, PairEnd::Complete);
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
        let device = internet.devices().find(|d| {
            d.responds_to_ping()
                && d.ipv4_addrs().len() >= 2
                && matches!(internet.ipid_model(d.id()), IpidModel::Random)
        });
        let Some(device) = device else { return };
        let addrs: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
        let values = interleaved_ipids(&internet, addrs[0], addrs[1]);
        assert!(!values.windows(2).all(|w| w[1] > w[0]));
    }

    /// The two pair schedules in use, as a prober's gap and the rate of
    /// the stepped bucket it stands for: Ally's 20 pps, and MIDAR's
    /// elimination at 5,000 pps.
    const ALLY: (SimTime, f64) = (SimTime(50), 20.0);
    const ELIMINATION: (SimTime, f64) = (SimTime(1), 5_000.0);

    /// The send times of one pair as a fresh stepped loop assigns them: a
    /// new four-probe bucket, `slots` forced acquires.  The reference for
    /// [`IpidProber::slot_time`].
    fn stepped_send_times(rate_pps: f64, slots: usize, start: SimTime) -> Vec<SimTime> {
        let mut bucket = TokenBucket::new(rate_pps, PAIR_BURST as f64, start);
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
    fn slot_times(prober: &IpidProber, slots: usize, start: SimTime) -> Vec<SimTime> {
        (0..slots as u64)
            .map(|i| prober.slot_time(start, i))
            .collect()
    }

    /// Hold both pair schedules to the stepped loop for `n` probes an
    /// address, `n` in `2..=40`, over starts at time zero, around powers of
    /// two and steady-state sweeps; every start for the `n` where
    /// `every_start(n)`, every 17th otherwise.  Returns the pairs checked.
    fn assert_pair_times_are_the_stepped_loops(every_start: impl Fn(usize) -> bool) -> usize {
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
        let mut pairs = 0;
        for (gap, rate) in [ALLY, ELIMINATION] {
            let prober = IpidProber::new(gap);
            for n in 2..=40usize {
                let stride = if every_start(n) { 1 } else { 17 };
                for &start in starts.iter().skip(n % stride).step_by(stride) {
                    let start = SimTime(start);
                    assert_eq!(
                        slot_times(&prober, 2 * n, start),
                        stepped_send_times(rate, 2 * n, start),
                        "rate {rate} n {n} start {start:?}"
                    );
                    pairs += 1;
                }
            }
        }
        pairs
    }

    #[test]
    fn pair_send_times_are_a_fresh_stepped_loops() {
        let pairs = assert_pair_times_are_the_stepped_loops(|n| n % 13 == 2);
        assert!(pairs > 9_000, "only {pairs} pairs");
    }

    /// Every start for every `n` (`cargo test --release -p alias-scan --
    /// --ignored send_times`).
    #[test]
    #[ignore = "every start for every pair size: about 70,000 stepped pairs"]
    fn pair_send_times_equal_the_stepped_reference_at_every_start() {
        let pairs = assert_pair_times_are_the_stepped_loops(|_| true);
        assert!(pairs > 70_000, "only {pairs} pairs");
    }

    #[test]
    fn the_two_pair_schedules_by_value() {
        let offsets = |(gap, rate): (SimTime, f64), start: u64| -> Vec<u64> {
            let sends = slot_times(&IpidProber::new(gap), 12, SimTime(start));
            assert_eq!(sends, stepped_send_times(rate, 12, SimTime(start)));
            sends.iter().map(|t| t.as_millis() - start).collect()
        };
        let day_21 = SimTime::from_days(21).as_millis();
        assert_eq!(
            offsets(ALLY, day_21),
            [0, 1, 2, 3, 50, 100, 150, 200, 250, 300, 350, 400]
        );
        assert_eq!(
            offsets(ELIMINATION, day_21),
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        );
        // Nothing is ever sent at time zero: the burst is forced apart, and
        // the paced slots keep their times.
        assert_eq!(
            offsets(ALLY, 0),
            [1, 2, 3, 4, 50, 100, 150, 200, 250, 300, 350, 400]
        );
        assert_eq!(offsets(ELIMINATION, 0)[..4], [1, 2, 3, 4]);
        assert_eq!(offsets(ELIMINATION, 1_000)[..4], [0, 1, 2, 3]);
    }

    /// The pair probe as it was before sessions and resolved targets: every
    /// probe steps its own bucket, looks its address up again and takes the
    /// substrate's lock for one probe; it stops as the prober does, at the
    /// first unanswered probe or refuted reply.  The reference for the test
    /// below.
    fn address_based_pair(
        rate_pps: f64,
        internet: &Internet,
        pair: [IpAddr; 2],
        probes_per_addr: usize,
        at: ProbeContext,
        refutes: impl Fn(IpidSample, IpidSample) -> bool,
    ) -> ([Vec<IpidSample>; 2], PairEnd) {
        let mut samples = [Vec::new(), Vec::new()];
        let mut bucket = TokenBucket::new(rate_pps, PAIR_BURST as f64, at.time);
        let mut now = at.time;
        let mut last_sent = SimTime::ZERO;
        let mut order: Vec<IpidSample> = Vec::new();
        for i in 0..probes_per_addr * 2 {
            now = bucket.acquire(now);
            if now <= last_sent {
                now = last_sent + SimTime(1);
            }
            last_sent = now;
            let ctx = ProbeContext { time: now, ..at };
            let target = pair[i % 2];
            let sample = internet.route(target).and_then(|route| {
                let mut session = internet.probe_session();
                session.identifier_probe_at(route, &ctx)
            });
            let Some(sample) = sample else {
                return (samples, PairEnd::Unanswered);
            };
            samples[i % 2].push(sample);
            order.push(sample);
            if order.len() >= 2 && refutes(order[order.len() - 2], sample) {
                return (samples, PairEnd::Refuted);
            }
        }
        (samples, PairEnd::Complete)
    }

    /// A stop rule in the shape of the bounds test's: the counter may not
    /// stand still or move more than 1,500 per second plus 64.
    fn too_far(prev: IpidSample, next: IpidSample) -> bool {
        let delta = next.ipid.wrapping_sub(prev.ipid) as f64;
        delta == 0.0 || delta > 1.5 * next.time.since(prev.time).as_millis() as f64 + 64.0
    }

    #[test]
    fn a_stopped_pair_is_the_prefix_of_the_full_pair_up_to_its_first_refuted_step() {
        // Each device is probed in one pair only, so the two same-seed
        // Internets agree on every counter a pair reads.
        let (full, stopped) = (internet(), internet());
        let devices: Vec<alias_netsim::DeviceRef> = full
            .devices()
            .filter(|d| d.responds_to_ping() && d.ipv4_addrs().len() >= 2)
            .take(60)
            .collect();
        let first = |d: &alias_netsim::DeviceRef| IpAddr::V4(d.ipv4_addrs()[0]);
        let mut pairs: Vec<[IpAddr; 2]> = Vec::new();
        for chunk in devices.chunks_exact(3) {
            pairs.push([first(&chunk[0]), IpAddr::V4(chunk[0].ipv4_addrs()[1])]);
            pairs.push([first(&chunk[1]), first(&chunk[2])]);
        }
        let silent = full
            .devices()
            .find(|d| !d.responds_to_ping() && !d.ipv4_addrs().is_empty())
            .unwrap();
        pairs.push([first(&silent), first(&devices[0])]);

        let (mut full_prober, mut stopped_prober) =
            (IpidProber::new(ALLY.0), IpidProber::new(ALLY.0));
        let (mut full_samples, mut stopped_samples) =
            ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        let (mut full_session, mut stopped_session) =
            (full.probe_session(), stopped.probe_session());
        let mut refuted = 0;
        for (n, pair) in pairs.iter().enumerate() {
            let start = at(
                VantageKind::SingleVp,
                SimTime::from_days(21) + SimTime(n as u64 * 700),
            );
            let targets = pair.map(|addr| full.route(addr));
            let full_end = full_prober.collect_interleaved_pair(
                &mut full_session,
                targets,
                6,
                start,
                &mut full_samples,
                never,
            );
            let end = stopped_prober.collect_interleaved_pair(
                &mut stopped_session,
                targets,
                6,
                start,
                &mut stopped_samples,
                too_far,
            );
            // Probe order, as the bounds test's time-ordered merge reads it.
            let merged = |samples: &[Vec<IpidSample>; 2]| -> Vec<IpidSample> {
                let mut all: Vec<IpidSample> = samples.iter().flatten().copied().collect();
                all.sort_by_key(|sample| sample.time);
                all
            };
            let (whole, prefix) = (merged(&full_samples), merged(&stopped_samples));
            let first_refuted = whole.windows(2).position(|w| too_far(w[0], w[1]));
            match (full_end, first_refuted) {
                (PairEnd::Complete, Some(step)) => {
                    assert_eq!((end, &prefix[..]), (PairEnd::Refuted, &whole[..step + 2]));
                    refuted += 1;
                }
                _ => assert_eq!((end, &prefix), (full_end, &whole), "pair {pair:?}"),
            }
        }
        assert!(refuted > 0);
        assert!(stopped_prober.pair_probes < full_prober.pair_probes);
        assert!(stopped_prober.pair_stops > full_prober.pair_stops);
    }

    #[test]
    fn resolved_pair_probe_matches_the_address_based_one() {
        // Probing advances device state, so each side gets its own
        // same-seed Internet and replays the same pairs in the same order.
        let (by_address, resolved) = (internet(), internet());
        let devices = by_address.devices();
        let v4 = |d: alias_netsim::DeviceRef| d.ipv4_addrs().into_iter().map(IpAddr::V4);
        let v6 = |d: alias_netsim::DeviceRef<'_>| {
            let addrs = d.interfaces().iter().map(|i| i.addr);
            addrs
                .filter(IpAddr::is_ipv6)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let multi: Vec<alias_netsim::DeviceRef> = devices
            .clone()
            .filter(|d| d.responds_to_ping() && d.ipv4_addrs().len() >= 2)
            .collect();
        let silent = devices
            .clone()
            .find(|d| !d.responds_to_ping() && !d.ipv4_addrs().is_empty())
            .expect("the tiny population has hosts that ignore ping");
        let hidden = devices
            .clone()
            .find(|d| {
                d.responds_to_ping() && !d.visible_to_single_vp() && !d.ipv4_addrs().is_empty()
            })
            .expect("the tiny population has hosts one vantage point cannot see");
        let v6_host = devices
            .clone()
            .find(|d| d.responds_to_ping() && v6(*d).count() >= 2)
            .expect("the tiny population has multi-address IPv6 hosts");
        let missing: IpAddr = "198.51.100.77".parse().unwrap();
        assert!(by_address.route(missing).is_none());

        let first = |d: alias_netsim::DeviceRef| v4(d).next().unwrap();
        let mut pairs: Vec<[IpAddr; 2]> = Vec::new();
        for (&device, &next) in multi.iter().zip(multi.iter().skip(1)).take(12) {
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
        let v6_addrs: Vec<IpAddr> = v6(v6_host).collect();
        pairs.push([v6_addrs[0], v6_addrs[1]]);

        let mut prober = IpidProber::new(ALLY.0);
        let mut buffers = [Vec::new(), Vec::new()];
        let mut answered = 0;
        let mut ends = Vec::new();
        // One session for the whole sweep on the resolved side; the
        // address side takes the lock probe by probe.
        let mut session = resolved.probe_session();
        // Every pair twice: refuting nothing, then with a bounds rule.
        for (n, (pair, rule)) in (pairs.iter())
            .flat_map(|pair| [(pair, never as fn(_, _) -> _), (pair, too_far)])
            .enumerate()
        {
            let vantage = if n % 4 < 2 {
                VantageKind::SingleVp
            } else {
                VantageKind::Distributed
            };
            let start = at(vantage, SimTime(n as u64 * 700));
            let expected = address_based_pair(ALLY.1, &by_address, *pair, 6, start, rule);
            let end = prober.collect_interleaved_pair(
                &mut session,
                pair.map(|addr| resolved.route(addr)),
                6,
                start,
                &mut buffers,
                rule,
            );
            assert_eq!((&buffers, end), (&expected.0, expected.1), "pair {pair:?}");
            answered += buffers[0].len() + buffers[1].len();
            ends.push(end);
        }
        assert!(answered > 0);
        for end in [PairEnd::Complete, PairEnd::Unanswered, PairEnd::Refuted] {
            assert!(ends.contains(&end), "no pair ended {end:?}");
        }
        // Both sides left every device's IPID counter in the same state.
        let by_address = by_address.probe_session();
        for device in devices {
            assert_eq!(
                format!("{:?}", by_address.ipid_state(device.id())),
                format!("{:?}", session.ipid_state(device.id())),
                "device {:?}",
                device.id()
            );
        }
    }
}
