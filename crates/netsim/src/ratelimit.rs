//! Router-wide ICMP rate limiting: the receiver-side signal behind the
//! rate-limiting alias technique (Vermeulen et al., "Alias Resolution
//! Based on ICMP Rate Limiting", arXiv 2002.00252).
//!
//! Real routers police ICMP with **one token bucket per device**, not per
//! interface.  Probing any one interface drains the same bucket that every
//! sibling interface answers from — so two addresses whose loss patterns
//! are correlated under *joint* probing share a device, even when the
//! device exposes no SSH/BGP/SNMP identifier at all.
//!
//! `IcmpTokenBucket` mirrors the sender-side `TokenBucket` that
//! `alias-scan`'s tests hold its closed-form send times to
//! (`scan/rate.rs`): same rate/capacity parameters, same
//! fractional-millisecond accounting — but it decides whether an
//! *arriving* probe is answered instead of when a departing probe may be
//! sent.  A burst is evaluated against a bucket that starts **full**: the
//! prober enforces an inter-burst cool-down long enough to refill any
//! limiter, which both models the steady state a real limiter returns to
//! and makes every reply count a pure function of (limiter, rate, count) —
//! bursts against different targets can run in any order on any number of
//! shard workers with byte-identical results.
//!
//! The rate prober's escalation ladder is such a function of the limiter,
//! so [`RateLadders`] steps it once per limiter and hands each route its
//! limiter's ladder, and [`GroupBursts`] probes up to sixteen routes round
//! robin, stepping a shared limiter over its routes' merged arrivals and
//! answering a lone one from a per-limiter memo: which routes share a
//! limiter stays on this side.

use crate::clock::SimTime;
use crate::ids::Route;
use crate::internet::{Internet, ProbeContext};
use crate::vantage::VantageKind;

/// A device's router-wide ICMP rate-limiter parameters.  Plain data (no
/// interior mutability): burst evaluation builds its own transient
/// `IcmpTokenBucket`, so concurrent probes of different targets never
/// contend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcmpRateLimit {
    /// Sustained reply rate in packets per second.
    pub rate_pps: f64,
    /// Bucket capacity: replies answered back-to-back from a full bucket.
    pub burst: f64,
}

impl IcmpRateLimit {
    /// A limiter with the given sustained rate and burst capacity.
    pub(crate) const fn new(rate_pps: f64, burst: f64) -> Self {
        IcmpRateLimit { rate_pps, burst }
    }

    /// A limiter no realistic probing rate can trip — the builder's
    /// placeholder before the limiter-assignment pass runs.
    pub(crate) const UNLIMITED: IcmpRateLimit = IcmpRateLimit {
        rate_pps: 1e12,
        burst: 1e6,
    };
}

/// Receiver-side token bucket: the mirror of the sender-side `TokenBucket`
/// of `alias-scan`'s tests, with the same fractional-millisecond refill
/// arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct IcmpTokenBucket {
    rate_pps: f64,
    capacity: f64,
    tokens: f64,
    last_ms: f64,
}

impl IcmpTokenBucket {
    /// A bucket with `limit`'s parameters, full at time zero.
    pub(crate) fn full(limit: IcmpRateLimit) -> Self {
        assert!(limit.rate_pps > 0.0, "limiter rate must be positive");
        let capacity = limit.burst.max(1.0);
        IcmpTokenBucket {
            rate_pps: limit.rate_pps,
            capacity,
            tokens: capacity,
            last_ms: 0.0,
        }
    }

    /// Whether a probe arriving `at_ms` milliseconds into the burst is
    /// answered.  Refills for the elapsed time first; out-of-order arrival
    /// times are clamped forward like the sender bucket's `acquire`.
    pub(crate) fn allow(&mut self, at_ms: f64) -> bool {
        let at_ms = at_ms.max(self.last_ms);
        let elapsed_secs = (at_ms - self.last_ms) / 1000.0;
        self.tokens = (self.tokens + elapsed_secs * self.rate_pps).min(self.capacity);
        self.last_ms = at_ms;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Replies to a burst of `count` evenly paced probes at `rate_pps` against
/// a limiter starting from a full bucket.
///
/// A limiter refilling at least twice as fast as the burst arrives answers
/// every probe, so its bucket is not stepped.  The induction: the first
/// probe finds the full bucket, `max(burst, 1) ≥ 1` token; a probe that
/// finds at least one token leaves at least zero, and the next gap refills
/// `limit.rate_pps / rate_pps ≥ 2` tokens (or up to the capacity, itself
/// at least one), so the next probe finds at least one too.  The refill's
/// float error is a few ulps of the elapsed time, far below the spare
/// token.
pub(crate) fn solo_burst_replies(limit: IcmpRateLimit, rate_pps: f64, count: u32) -> u32 {
    assert!(rate_pps > 0.0, "probing rate must be positive");
    if limit.rate_pps >= 2.0 * rate_pps {
        return count;
    }
    stepped_burst_replies(limit, rate_pps, count)
}

/// [`solo_burst_replies`] by stepping the bucket through every probe.
fn stepped_burst_replies(limit: IcmpRateLimit, rate_pps: f64, count: u32) -> u32 {
    let gap_ms = 1000.0 / rate_pps;
    let mut bucket = IcmpTokenBucket::full(limit);
    (0..count)
        .filter(|&i| bucket.allow(i as f64 * gap_ms))
        .count() as u32
}

/// Most addresses one group burst probes ([`GroupBursts::burst`]).  At
/// the rate-limiting technique's top per-address rate, half the ladder's
/// 4,096 pps, sixteen streams are 32,768 pps in aggregate.
pub const GROUP_BURST_MAX: usize = 16;

/// Per-address replies to a group burst: `limiters.len()` addresses probed
/// round robin (slot `r·n + q` belongs to address `q`), `count` probes each
/// at `rate_pps` each, every address answered by its `(key, limit)`.  An
/// address alone on its limiter sees an evenly paced stream, a solo burst,
/// which `solo` answers; a limiter that two or more addresses share is
/// stepped once, over their merged arrivals.
fn group_burst_replies(
    limiters: &[(usize, IcmpRateLimit)],
    rate_pps: f64,
    count: u32,
    replies: &mut [u32],
    mut solo: impl FnMut(usize, IcmpRateLimit) -> u32,
) {
    let n = limiters.len();
    let gap_ms = 1000.0 / (rate_pps * n as f64);
    for (q, &(key, limit)) in limiters.iter().enumerate() {
        let shares = |&(other, _): &(usize, IcmpRateLimit)| other == key;
        if limiters[..q].iter().any(shares) {
            continue; // stepped with the limiter's first address
        }
        if !limiters[q + 1..].iter().any(shares) {
            replies[q] = solo(key, limit);
            continue;
        }
        let mut bucket = IcmpTokenBucket::full(limit);
        for (slot, reply) in replies.iter_mut().enumerate() {
            if shares(&limiters[slot]) {
                *reply = 0;
            }
        }
        for round in 0..count as usize {
            for slot in (q..n).filter(|&slot| shares(&limiters[slot])) {
                let at_ms = (round * n + slot) as f64 * gap_ms;
                replies[slot] += u32::from(bucket.allow(at_ms));
            }
        }
    }
}

/// [`RateLadders`] entry of a limiter no listed route leads to.
const UNSTEPPED: u32 = u32::MAX;
/// [`RateLadders`] entry of a limiter whose routes do not answer echo.
const SILENT: u32 = u32::MAX - 1;

/// Escalation ladders of ICMP bursts, stepped once per limiter
/// ([`Internet::rate_ladders`]) and read per route.
pub struct RateLadders<'a> {
    internet: &'a Internet,
    rounds: usize,
    /// Per limiter key: [`UNSTEPPED`], [`SILENT`] or its row of `losses`.
    rows: Vec<u32>,
    /// `rounds` losses a row; row 0, all zeros, serves every screened
    /// limiter, and each lossy one has a row of its own.
    losses: Vec<u8>,
}

impl RateLadders<'_> {
    /// The probes lost at each rate of the ladder along `route`, in ladder
    /// order (all zeros where none was lost even at the top rate), or `None`
    /// where the route does not answer echo.
    ///
    /// # Panics
    /// Panics if `route` was not among the routes the ladders were stepped
    /// for.
    pub fn of(&self, route: Route) -> Option<&[u8]> {
        let row = self.rows[self.internet.limiter(route).0];
        assert_ne!(row, UNSTEPPED, "{route:?} was not stepped");
        (row != SILENT).then(|| &self.losses[row as usize * self.rounds..][..self.rounds])
    }

    /// Limiters that lost probes at the top rate.
    pub fn lossy(&self) -> u64 {
        (self.losses.len() / self.rounds - 1) as u64
    }
}

/// Echo bursts at groups of up to [`GROUP_BURST_MAX`] routes probed round
/// robin ([`Internet::group_bursts`]): the joint test that tells a shared
/// limiter from independent ones.
///
/// Every address sees `rate_pps`, the group `n · rate_pps` in aggregate.
/// Routes that share a limiter drain one bucket at their summed rate, so a
/// limiter that loses nothing alone at `rate_pps` but loses at twice it
/// loses as soon as two of its routes are in the group.  Independent
/// limiters each see their own stream and lose what they would alone.  A
/// route alone on its limiter is answered from a memo of solo bursts kept
/// per limiter key (`Internet::limiter`), which stays on this side.
pub struct GroupBursts<'a> {
    internet: &'a Internet,
    /// Per limiter key: the last solo burst answered, `(rate bits, count,
    /// replies)`; rate bits 0, which no positive rate has, is unset.
    solo: Vec<(u64, u32, u32)>,
    replies: [u32; GROUP_BURST_MAX],
}

impl GroupBursts<'_> {
    /// Probe `routes` round robin, `count` echo requests each at `rate_pps`
    /// each, and count each route's replies (in `routes` order), or `None`
    /// where a route does not answer echo.  Like every burst, it starts
    /// from full buckets and reads the vantage, not the time.
    ///
    /// # Panics
    /// Panics if `routes` is empty or longer than [`GROUP_BURST_MAX`], or
    /// if `rate_pps` is not positive.
    pub fn burst(
        &mut self,
        routes: &[Route],
        rate_pps: f64,
        count: u32,
        ctx: &ProbeContext,
    ) -> Option<&[u32]> {
        let n = routes.len();
        assert!((1..=GROUP_BURST_MAX).contains(&n), "{n} routes in a group");
        assert!(rate_pps > 0.0, "probing rate must be positive");
        let internet = self.internet;
        if !routes
            .iter()
            .all(|&route| internet.ping_responds_at(route, ctx))
        {
            return None;
        }
        let mut limiters = [(0, IcmpRateLimit::UNLIMITED); GROUP_BURST_MAX];
        for (limiter, &route) in limiters.iter_mut().zip(routes) {
            *limiter = internet.limiter(route);
        }
        let (solo, replies) = (&mut self.solo, &mut self.replies[..n]);
        group_burst_replies(&limiters[..n], rate_pps, count, replies, |key, limit| {
            let memo = &mut solo[key];
            if memo.0 != rate_pps.to_bits() || memo.1 != count {
                *memo = (
                    rate_pps.to_bits(),
                    count,
                    solo_burst_replies(limit, rate_pps, count),
                );
            }
            memo.2
        });
        Some(replies)
    }
}

impl Internet {
    /// Step an escalation ladder, a burst of `count` echo requests at each
    /// of `rates` (ascending), for the limiter answering each of `routes`:
    /// once per limiter, however many of its routes are listed.
    ///
    /// A screening burst at the top rate runs first: a limiter that loses
    /// nothing there cannot lose at any lower rate (loss is monotone in the
    /// probing rate), so the rest of its ladder is skipped.  A burst reads
    /// the limiter and whether the route answers echo from `vantage`, not
    /// the time.
    ///
    /// # Panics
    /// Panics if `rates` is empty.
    pub fn rate_ladders(
        &self,
        routes: &[Route],
        rates: &[f64],
        count: u8,
        vantage: VantageKind,
    ) -> RateLadders<'_> {
        let ctx = ProbeContext {
            vantage,
            time: SimTime::ZERO,
        };
        let (&top, lower) = rates.split_last().expect("a ladder has at least one rate");
        let count = u32::from(count);
        let lost = |replies: u32| (count - replies) as u8;
        let (mut rows, mut losses) = (vec![UNSTEPPED; self.limiters()], vec![0; rates.len()]);
        for &route in routes {
            let row = &mut rows[self.limiter(route).0];
            if *row != UNSTEPPED {
                continue;
            }
            let burst = |rate| self.rate_burst_at(route, rate, count, &ctx);
            *row = match burst(top) {
                None => SILENT,
                Some(replies) if replies == count => 0,
                Some(top) => {
                    let next = u32::try_from(losses.len() / rates.len());
                    losses.extend(lower.iter().map(|&rate| burst(rate).map_or(0, lost)));
                    losses.push(lost(top));
                    next.expect("fewer limiters than 2^32")
                }
            };
        }
        RateLadders {
            internet: self,
            rounds: rates.len(),
            rows,
            losses,
        }
    }

    /// A memo-holding handle for group bursts ([`GroupBursts`]).
    pub fn group_bursts(&self) -> GroupBursts<'_> {
        GroupBursts {
            internet: self,
            solo: vec![(0, 0, 0); self.limiters()],
            replies: [0; GROUP_BURST_MAX],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_bucket_answers_the_burst_then_paces() {
        // Capacity 4, 100 pps, probes every 5 ms (200 pps): the burst plus
        // the half-token-per-gap refill carry the first seven probes, then
        // only every other probe finds a full token accumulated.
        let limit = IcmpRateLimit::new(100.0, 4.0);
        let mut bucket = IcmpTokenBucket::full(limit);
        let verdicts: Vec<bool> = (0..10).map(|i| bucket.allow(i as f64 * 5.0)).collect();
        assert_eq!(
            verdicts,
            [true, true, true, true, true, true, true, false, true, false]
        );
    }

    #[test]
    fn below_limit_bursts_lose_nothing() {
        let limit = IcmpRateLimit::new(500.0, 8.0);
        for rate in [50.0, 100.0, 400.0] {
            assert_eq!(solo_burst_replies(limit, rate, 24), 24, "rate {rate}");
        }
    }

    #[test]
    fn above_limit_bursts_lose_and_losses_grow_with_rate() {
        let limit = IcmpRateLimit::new(500.0, 8.0);
        let mut last = u32::MAX;
        for rate in [1000.0, 2000.0, 4000.0, 8000.0] {
            let replies = solo_burst_replies(limit, rate, 24);
            assert!(replies < 24, "rate {rate} should trip the limiter");
            assert!(replies <= last, "replies are monotone in the rate");
            last = replies;
        }
        // Analytic check: replies ≈ burst + sustained refill over the burst
        // duration (23 gaps at 1 ms each → 8 + 0.5 × 23 = 19.5 → the
        // half-token remainder rounds down).
        assert_eq!(solo_burst_replies(limit, 1000.0, 24), 19);
    }

    #[test]
    fn no_loss_at_a_rate_implies_no_loss_at_lower_rates() {
        // The prober's early-skip relies on monotonicity: a clean burst at
        // the top rate proves every lower rate is clean too.
        for limiter_rate in [120.0, 333.0, 999.0, 2500.0, 8000.0] {
            let limit = IcmpRateLimit::new(limiter_rate, 8.0);
            let mut seen_clean = false;
            for rate in [4096.0, 2048.0, 1024.0, 512.0, 256.0] {
                let clean = solo_burst_replies(limit, rate, 24) == 24;
                assert!(
                    !seen_clean || clean,
                    "limiter {limiter_rate}: lossy burst at {rate} below a clean rate"
                );
                seen_clean |= clean;
            }
        }
    }

    /// A group burst's replies with every solo burst stepped.
    fn group(limiters: &[(usize, IcmpRateLimit)], rate_pps: f64) -> Vec<u32> {
        let mut replies = vec![u32::MAX; limiters.len()];
        let solo = |_, limit| solo_burst_replies(limit, rate_pps, 24);
        group_burst_replies(limiters, rate_pps, 24, &mut replies, solo);
        replies
    }

    #[test]
    fn joint_probing_of_a_shared_bucket_shows_correlated_loss() {
        let limit = IcmpRateLimit::new(500.0, 8.0);
        // Solo at 512 pps: no loss (needs ~23 ms for 24 probes; the bucket
        // plus refill cover it).
        assert_eq!(solo_burst_replies(limit, 512.0, 24), 24);
        // Jointly probing two addresses of the same device at 512 pps each
        // (1024 pps combined) drains the shared bucket: both lose.
        let shared = group(&[(0, limit), (0, limit)], 512.0);
        assert!(shared.iter().sum::<u32>() < 48, "{shared:?}");
        // Two *independent* devices each see only their own 512 pps and
        // lose nothing.
        assert_eq!(group(&[(0, limit), (1, limit)], 512.0), [24, 24]);
    }

    /// The rate-limiting technique's regime: a limiter lossy at its first
    /// lossy ladder rate `R_fl` but not below it, probed at `R_fl / 2` each.
    fn lossy_at_twice(limiter_pps: f64) -> Option<f64> {
        let limit = IcmpRateLimit::new(limiter_pps, 8.0);
        let ladder = [256.0, 512.0, 1024.0, 2048.0, 4096.0];
        let first = ladder
            .into_iter()
            .find(|&r| solo_burst_replies(limit, r, 24) < 24)?;
        Some(first / 2.0)
    }

    proptest! {
        // A limiter with two or more routes in a group loses in total,
        // wherever its routes sit, and every independent limiter loses
        // nothing, as alone.
        #[test]
        fn a_shared_limiter_loses_and_independent_ones_do_not(
            limiter_pps in 120.0f64..2_500.0,
            others in prop::collection::vec(1.0f64..8.0, 0..GROUP_BURST_MAX - 1),
            shared_at in prop::collection::vec(0usize..GROUP_BURST_MAX, 2..GROUP_BURST_MAX + 1),
        ) {
            let rate = lossy_at_twice(limiter_pps).expect("lossy within the ladder");
            // Independent limiters at one to eight times the rate, and the
            // shared one inserted at two or more of the group's slots.
            let mut limiters: Vec<(usize, IcmpRateLimit)> = (others.iter().zip(1..))
                .map(|(&times, key)| (key, IcmpRateLimit::new(rate * times, 8.0)))
                .collect();
            prop_assume!(limiters.iter().all(|&(_, l)| solo_burst_replies(l, rate, 24) == 24));
            let shared = IcmpRateLimit::new(limiter_pps, 8.0);
            for &at in shared_at.iter().take(GROUP_BURST_MAX - limiters.len()) {
                limiters.insert(at % (limiters.len() + 1), (0, shared));
            }
            let replies = group(&limiters, rate);
            let on = |shared: bool| (limiters.iter().zip(&replies))
                .filter(move |((key, _), _)| (*key == 0) == shared)
                .map(|(_, &replies)| replies);
            let members = on(true).count() as u32;
            prop_assert!(members >= 2);
            prop_assert!(on(true).sum::<u32>() < 24 * members, "{limiters:?} {replies:?}");
            prop_assert!(on(false).all(|replies| replies == 24), "{limiters:?} {replies:?}");
        }

        #[test]
        fn a_limiter_twice_the_rate_answers_what_stepping_answers(
            burst in 1u32..=64,
            count in 1u32..=1_000,
            // A probing rate anywhere from 2^-8 to 2^21 pps, and a limiter
            // exactly twice as fast or up to 2^13 times as fast.
            rate_exp in -8i32..=20,
            rate_mantissa in 1.0f64..2.0,
            headroom in prop_oneof![
                Just(2.0f64),
                (1i32..=12, 1.0f64..2.0).prop_map(|(exp, mantissa)| mantissa * 2f64.powi(exp)),
            ],
        ) {
            let rate_pps = rate_mantissa * 2f64.powi(rate_exp);
            let limit = IcmpRateLimit::new(rate_pps * headroom, f64::from(burst));
            prop_assert!(limit.rate_pps >= 2.0 * rate_pps);
            prop_assert_eq!(stepped_burst_replies(limit, rate_pps, count), count);
            prop_assert_eq!(solo_burst_replies(limit, rate_pps, count), count);
        }
    }

    #[test]
    fn the_fast_path_starts_at_exactly_twice_the_rate() {
        // Just below twice the rate the bucket is stepped, and a long
        // enough burst loses a probe to the refill falling short.
        let limit = IcmpRateLimit::new(1_000.0, 1.0);
        assert_eq!(solo_burst_replies(limit, 500.0, 1_000), 1_000);
        assert_eq!(stepped_burst_replies(limit, 500.0, 1_000), 1_000);
        let below = IcmpRateLimit::new(999.0, 1.0);
        assert!(solo_burst_replies(below, 1_000.0, 1_000) < 1_000);
        assert_eq!(
            solo_burst_replies(below, 500.0, 1_000),
            stepped_burst_replies(below, 500.0, 1_000)
        );
    }

    #[test]
    fn unlimited_placeholder_never_trips() {
        assert_eq!(
            solo_burst_replies(IcmpRateLimit::UNLIMITED, 1e6, 1000),
            1000
        );
    }

    /// Ladders stepped once per limiter, read per route, equal each
    /// route's own bursts at every rate, unscreened and at a late time: a
    /// burst reads neither the time nor the other routes of its limiter.
    #[test]
    fn one_ladder_per_limiter_is_every_routes_own_bursts() {
        use crate::{InternetBuilder, InternetConfig};
        let mut config = InternetConfig::tiny(77);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        let routes: Vec<Route> = (internet.devices())
            .flat_map(|d| (0..d.interfaces().len()).map(move |i| d.route(i)))
            .collect();
        let rates = [256.0, 512.0, 1024.0, 2048.0, 4096.0];
        let mut silent = 0;
        for vantage in [VantageKind::SingleVp, VantageKind::Distributed] {
            let mut lossy = 0;
            let ladders = internet.rate_ladders(&routes, &rates, 24, vantage);
            let ctx = ProbeContext {
                vantage,
                time: SimTime::from_days(21),
            };
            for &route in &routes {
                let bursts: Option<Vec<u8>> = (rates.iter())
                    .map(|&rate| Some(24 - internet.rate_burst_at(route, rate, 24, &ctx)? as u8))
                    .collect();
                assert_eq!(ladders.of(route), bursts.as_deref(), "{route:?}");
                lossy += usize::from(bursts.as_ref().is_some_and(|b| b.iter().any(|&l| l > 0)));
                silent += usize::from(bursts.is_none());
            }
            // One row per lossy limiter: fewer than the lossy routes.
            assert!(ladders.lossy() > 0 && (ladders.lossy() as usize) < lossy);
        }
        assert!(silent > 0);
    }

    /// A tiny Internet with silent routers; a silent router's two routes;
    /// and routes of other devices that answer echo from `ctx`, each device
    /// once.
    fn sharers_and_others(ctx: &ProbeContext) -> (Internet, [Route; 2], Vec<Route>) {
        use crate::{DeviceKind, InternetBuilder, InternetConfig};
        let mut config = InternetConfig::tiny(29);
        config.devices.silent_routers = 10;
        let internet = InternetBuilder::new(config).build();
        let silent = (internet.devices())
            .find(|d| d.kind() == DeviceKind::SilentRouter && d.ipv4_addrs().len() >= 2)
            .expect("a multi-address silent router");
        let pair = [silent.route(0), silent.route(1)];
        let others = (internet.devices())
            .filter(|d| d.id() != silent.id() && !d.interfaces().is_empty())
            .map(|d| d.route(0))
            .filter(|&route| internet.ping_responds_at(route, ctx))
            .collect();
        (internet, pair, others)
    }

    #[test]
    fn a_route_alone_on_its_limiter_gets_its_solo_burst() {
        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: SimTime::from_secs(1),
        };
        let (internet, [route, _], others) = sharers_and_others(&ctx);
        let mut bursts = internet.group_bursts();
        let mut group = others[..GROUP_BURST_MAX - 1].to_vec();
        group.push(route);
        // Twice at each rate, the second answered from the memo, and at a
        // rate where the route loses alone as well as where it does not.
        for rate in [128.0, 1024.0, 1024.0, 128.0, 128.0] {
            let replies = bursts.burst(&group, rate, 24, &ctx).expect("all answer");
            for (&route, &replies) in group.iter().zip(replies) {
                let solo = internet.rate_burst_at(route, rate, 24, &ctx);
                assert_eq!(Some(replies), solo, "{route:?} at {rate} pps");
            }
        }
        let lossy = bursts.burst(&group, 1024.0, 24, &ctx).expect("all answer");
        assert!(
            lossy[GROUP_BURST_MAX - 1] < 24,
            "the silent route loses alone"
        );
        // A route that does not answer echo silences the group.
        let silent = (internet.devices())
            .map(|d| d.route(0))
            .find(|&route| !internet.ping_responds_at(route, &ctx))
            .expect("an unpingable device");
        group[0] = silent;
        assert!(bursts.burst(&group, 128.0, 24, &ctx).is_none());
    }

    /// Sixteen streams, the two sharers at slots 0 and 15: the slot-15
    /// probe comes one slot before the next slot-0 probe and takes the
    /// token the bucket refilled over fifteen slots, so every loss falls
    /// on the slot-0 stream.  Reading which stream lost would miss the
    /// match; the total does not.
    #[test]
    fn sharers_at_the_ends_of_a_group_put_all_the_loss_on_one_stream() {
        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: SimTime::from_secs(1),
        };
        let (internet, [a, b], others) = sharers_and_others(&ctx);
        let rate_fl = [256.0, 512.0, 1024.0, 2048.0, 4096.0]
            .into_iter()
            .find(|&rate| internet.rate_burst_at(a, rate, 24, &ctx) < Some(24))
            .expect("silent limiters trip within the ladder");
        let mut group = vec![a];
        group.extend_from_slice(&others[..GROUP_BURST_MAX - 2]);
        group.push(b);
        let mut bursts = internet.group_bursts();
        let replies = bursts
            .burst(&group, rate_fl / 2.0, 24, &ctx)
            .expect("all answer");
        assert_eq!((replies[0], replies[GROUP_BURST_MAX - 1]), (7, 24));
        assert!(replies[1..GROUP_BURST_MAX - 1].iter().all(|&r| r == 24));
    }
}
