//! ICMP rate-limiting probe campaign.
//!
//! The eighth resolution technique (Vermeulen et al., "Alias Resolution
//! Based on ICMP Rate Limiting") needs a different kind of measurement
//! than the banner grabs: per-address **loss patterns** under escalating
//! probe rates.  A router enforces one ICMP rate limiter across all of
//! its interfaces, so once the probing rate exceeds the limiter every
//! interface of the device starts dropping replies at the same rates —
//! the signal `alias-resolve`'s rate-limiting technique correlates.
//!
//! The prober runs in three steps:
//!
//! 1. **Discovery** — a ping sweep over the routed IPv4 space (walked by
//!    index through the simulator's slot table) and the IPv6 hitlist
//!    selects the echo-responsive addresses, each as the route it
//!    resolved to.
//! 2. **Ladders** — each target is burst-probed at a ladder of rates
//!    (`base · 2^round`).  A burst's reply count is a pure function of
//!    (limiter, rate, count), so the simulator steps the ladder once per
//!    limiter ([`Internet::rate_ladders`]), on the calling thread, before
//!    any shard runs.
//! 3. **Recording** — each target reads its limiter's ladder, and only its
//!    **lossy** rounds are recorded, as [`PayloadRef::RateLimit`]
//!    observations.
//!
//! Timestamps are slot-based — a pure function of the target's global
//! index and the round number — so the output is byte-identical for any
//! shard count without any pacing-state hand-off between shards.

use alias_netsim::ratelimit::RateLadders;
use alias_netsim::{Internet, ProbeContext, Route, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_store::{DataSource, PayloadRef, ShardColumns};
use std::net::{IpAddr, Ipv6Addr};

/// Targets skipped by the screening burst (zero loss at the top rate).
/// Ladders are pure per limiter, so the total is shard-independent even
/// though each shard worker adds its own count.
static SCREENED_TARGETS: LazyCounter = LazyCounter::new(
    "scan.rate_probe_screened",
    DeterminismClass::Deterministic,
    "targets",
    "scan",
);

/// Limiters whose ladder was stepped past the screen (lossy at the top
/// rate), once per limiter however many targets it answers: today one per
/// device.  Stepped on the calling thread before the shards run.
static STEPPED_LADDERS: LazyCounter = LazyCounter::new(
    "scan.rate_probe_ladders",
    DeterminismClass::Deterministic,
    "devices",
    "scan",
);

/// Lossy escalation rounds recorded as `RateLimit` observations.
static LOSSY_ROUNDS: LazyCounter = LazyCounter::new(
    "scan.rate_probe_lossy_rounds",
    DeterminismClass::Deterministic,
    "rounds",
    "scan",
);

/// Probing rate of round 0 in packets per second; round `r` probes at
/// `BASE_RATE_PPS · 2^r`.
const BASE_RATE_PPS: f64 = 256.0;

/// Number of escalation rounds.
const ROUNDS: u8 = 5;

/// Echo requests per burst (one burst per round); a round's loss fits a
/// byte.
const PROBES_PER_ROUND: u8 = 24;

/// Simulated time between consecutive rounds of one target.
const ROUND_SPACING: SimTime = SimTime(250);

/// Simulated time budgeted per target (all rounds).
const TARGET_SLOT: SimTime = SimTime(ROUND_SPACING.0 * ROUNDS as u64);

const _: () = assert!(ROUNDS >= 1, "need at least one escalation round");
const _: () = assert!(PROBES_PER_ROUND >= 1, "need at least one probe");

/// The rate-limiting probe phase takes no settings: this module's
/// constants fix its escalation ladder.  A campaign runs the phase when its
/// `rate_probe` holds one.
#[derive(Debug, Clone, Default)]
pub struct RateProbeConfig;

/// The probing rate of escalation round `round`.
fn round_rate(round: u8) -> f64 {
    BASE_RATE_PPS * f64::from(1u32 << u32::from(round))
}

/// Discover the echo-responsive target population: every address of the
/// routed IPv4 space plus the IPv6 hitlist that answers ping, as routes
/// (eight bytes a target, its address read back only when a lossy round
/// is recorded), with `threads` shard workers over the routed space.  A
/// pure membership filter with no measurement state, so concatenating the
/// per-shard survivors in shard order gives the same list for any thread
/// count; the (much smaller) IPv6 hitlist is filtered on the calling
/// thread.
pub fn discover_targets(
    internet: &Internet,
    hitlist_v6: &[Ipv6Addr],
    vantage: VantageKind,
    at: SimTime,
    threads: usize,
) -> Vec<Route> {
    let ctx = ProbeContext { vantage, time: at };
    let space = internet.routed_space();
    let pingable = |route: &Route| internet.ping_responds_at(*route, &ctx);
    let ranges = crate::exec::split_even(space.len(), crate::exec::shards_for(threads));
    let per_shard: Vec<Vec<Route>> = crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        let routes = (range.start..range.end).filter_map(|index| space.owner_at(index));
        routes.filter(pingable).collect()
    });
    let mut targets: Vec<Route> = per_shard.into_iter().flatten().collect();
    let hitlist = hitlist_v6
        .iter()
        .filter_map(|&v6| internet.route(IpAddr::V6(v6)));
    targets.extend(hitlist.filter(pingable));
    targets
}

/// The recording loop of one shard.  Target `global_offset + i` owns the
/// time slot starting at `phase_start + (global_offset + i) · TARGET_SLOT`,
/// so timestamps never depend on how the target list was split.
fn probe_slice(
    internet: &Internet,
    targets: &[Route],
    ladders: &RateLadders<'_>,
    global_offset: usize,
    phase_start: SimTime,
    columns: &mut ShardColumns,
) {
    let slot = TARGET_SLOT.as_millis();
    let (mut screened, mut lossy) = (0, 0);
    for (offset, &target) in targets.iter().enumerate() {
        let Some(losses) = ladders.of(target) else {
            continue;
        };
        if losses.iter().all(|&lost| lost == 0) {
            screened += 1;
            continue;
        }
        let t0 = phase_start + SimTime((global_offset + offset) as u64 * slot);
        let addr = internet.addr_at(target);
        let asn = internet.asn_at(target).0;
        for (round, &lost) in (0..ROUNDS).zip(losses) {
            if lost == 0 {
                continue;
            }
            lossy += 1;
            columns.push(
                addr,
                ServiceProtocol::IcmpRateLimit.default_port(),
                DataSource::Active,
                t0 + SimTime(u64::from(round) * ROUND_SPACING.as_millis()),
                Some(asn),
                PayloadRef::RateLimit {
                    round,
                    rate_pps: round_rate(round) as u32,
                    sent: u16::from(PROBES_PER_ROUND),
                    lost: u16::from(lost),
                },
            );
        }
    }
    // Added only when non-zero, so the counters a run lists are those a
    // per-target add would have listed.
    if screened > 0 {
        SCREENED_TARGETS.add(screened);
    }
    if lossy > 0 {
        LOSSY_ROUNDS.add(lossy);
    }
}

/// Probe every target through the escalation ladder: each limiter's
/// ladder is stepped once on the calling thread, then `threads`
/// shard workers record disjoint slices of the target list, returning
/// per-shard column chunks in shard order (the form the campaign store
/// absorbs).  Byte-identical for any thread count: timestamps are a pure
/// function of the global target index.
pub fn probe(
    internet: &Internet,
    targets: &[Route],
    vantage: VantageKind,
    start: SimTime,
    threads: usize,
) -> Vec<ShardColumns> {
    let rates: [f64; ROUNDS as usize] = std::array::from_fn(|round| round_rate(round as u8));
    let ladders = internet.rate_ladders(targets, &rates, PROBES_PER_ROUND, vantage);
    if ladders.lossy() > 0 {
        STEPPED_LADDERS.add(ladders.lossy());
    }
    let ranges = crate::exec::split_even(targets.len() as u64, crate::exec::shards_for(threads));
    crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        let mut columns = ShardColumns::new();
        probe_slice(
            internet,
            &targets[range.start as usize..range.end as usize],
            &ladders,
            range.start as usize,
            start,
            &mut columns,
        );
        columns
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_of;
    use alias_netsim::{DeviceKind, InternetBuilder, InternetConfig};
    use alias_store::{ObservationStore, ServicePayload};
    use std::collections::BTreeSet;

    fn internet_with_silent(seed: u64, silent: usize) -> Internet {
        let mut config = InternetConfig::tiny(seed);
        config.devices.silent_routers = silent;
        InternetBuilder::new(config).build()
    }

    /// Discovery (IPv4 only) plus probing from a single vantage point at
    /// time zero, both with `threads` workers.
    fn discover_and_probe(internet: &Internet, threads: usize) -> ObservationStore {
        let (vantage, start) = (VantageKind::SingleVp, SimTime::ZERO);
        let targets = discover_targets(internet, &[], vantage, start, threads);
        store_of(probe(internet, &targets, vantage, start, threads))
    }

    #[test]
    fn discovery_covers_silent_routers_and_both_families() {
        let internet = internet_with_silent(77, 10);
        let addrs = internet
            .devices()
            .flat_map(|d| d.interfaces().iter().map(|i| i.addr));
        let hitlist: Vec<Ipv6Addr> = addrs
            .filter_map(|addr| match addr {
                IpAddr::V6(v6) => Some(v6),
                IpAddr::V4(_) => None,
            })
            .collect();
        let discovered =
            discover_targets(&internet, &hitlist, VantageKind::SingleVp, SimTime::ZERO, 1);
        let targets: Vec<IpAddr> = discovered.iter().map(|&t| internet.addr_at(t)).collect();
        assert!(targets.iter().any(|a| a.is_ipv4()));
        assert!(targets.iter().any(|a| a.is_ipv6()));
        let ctx = ProbeContext {
            vantage: VantageKind::SingleVp,
            time: SimTime::ZERO,
        };
        for &addr in &targets {
            let route = internet.route(addr).expect("discovered addresses route");
            assert!(internet.ping_responds_at(route, &ctx));
        }
        // Every silent router's v4 interfaces are in the routed space and
        // answer ping, so discovery must pick all of them up.
        for device in internet.devices() {
            if device.kind() == DeviceKind::SilentRouter {
                for addr in device.ipv4_addrs() {
                    assert!(targets.contains(&IpAddr::V4(addr)), "missing {addr}");
                }
            }
        }
    }

    #[test]
    fn only_lossy_rounds_are_recorded_and_losses_are_plausible() {
        let internet = internet_with_silent(77, 10);
        let observations = discover_and_probe(&internet, 1).to_observations();
        assert!(!observations.is_empty());
        for obs in &observations {
            let ServicePayload::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            } = obs.payload
            else {
                panic!("unexpected payload {:?}", obs.payload)
            };
            assert!(round < ROUNDS);
            assert_eq!(f64::from(rate_pps), round_rate(round));
            assert_eq!(sent, u16::from(PROBES_PER_ROUND));
            assert!(lost >= 1 && lost <= sent);
            assert_eq!(obs.port, 0);
            assert!(obs.asn.is_some());
            // Only limiter-constrained device classes can lose packets at
            // these rates; endpoints' limiters sit far above the ladder.
            let device_id = internet.ground_truth().device_of(obs.addr).unwrap();
            let kind = internet.device(device_id).kind();
            assert!(
                matches!(
                    kind,
                    DeviceKind::IspRouter | DeviceKind::BorderRouter | DeviceKind::SilentRouter
                ),
                "unexpected lossy device kind {kind:?}"
            );
        }
    }

    #[test]
    fn lossy_rounds_form_a_suffix_of_the_ladder() {
        // Loss is monotone in the probing rate, so per address the recorded
        // rounds must be exactly the rounds from the first lossy one up.
        let internet = internet_with_silent(99, 8);
        let observations = discover_and_probe(&internet, 1).to_observations();
        // Group rounds per address without leaving id-space discipline: a
        // stable sort by address keeps each address's rounds in emission
        // (i.e. ascending) order.
        let mut pairs: Vec<(IpAddr, u8)> = observations
            .iter()
            .map(|obs| {
                let ServicePayload::RateLimit { round, .. } = obs.payload else {
                    unreachable!()
                };
                (obs.addr, round)
            })
            .collect();
        pairs.sort_by_key(|&(addr, _)| addr);
        let top = ROUNDS - 1;
        let mut i = 0;
        while i < pairs.len() {
            let addr = pairs[i].0;
            let mut rounds = Vec::new();
            while i < pairs.len() && pairs[i].0 == addr {
                rounds.push(pairs[i].1);
                i += 1;
            }
            let expected: Vec<u8> = (rounds[0]..=top).collect();
            assert_eq!(rounds, expected, "non-suffix lossy rounds for {addr}");
        }
    }

    /// The ladders of `targets`, stepped as the probe phase steps them.
    fn ladders<'a>(
        internet: &'a Internet,
        targets: &[Route],
        vantage: VantageKind,
    ) -> RateLadders<'a> {
        let rates: [f64; ROUNDS as usize] = std::array::from_fn(|round| round_rate(round as u8));
        internet.rate_ladders(targets, &rates, PROBES_PER_ROUND, vantage)
    }

    /// The devices behind the targets that lose probes.
    fn lossy_devices(internet: &Internet, targets: &[Route], vantage: VantageKind) -> usize {
        let ladders = ladders(internet, targets, vantage);
        let lossy = targets.iter().filter(|&&target| {
            let losses = ladders.of(target).unwrap_or_default();
            losses.iter().any(|&lost| lost > 0)
        });
        let truth = internet.ground_truth();
        let devices: BTreeSet<_> = lossy
            .map(|&t| truth.device_of(internet.addr_at(t)))
            .collect();
        devices.len()
    }

    /// The rate phase as one target at a time: each target's ladder
    /// stepped on its own, then every lossy round recorded.
    fn reference_ladders(
        internet: &Internet,
        targets: &[Route],
        vantage: VantageKind,
        start: SimTime,
    ) -> ShardColumns {
        let mut columns = ShardColumns::new();
        for (index, &target) in targets.iter().enumerate() {
            let t0 = start + SimTime(index as u64 * TARGET_SLOT.as_millis());
            let ladder = ladders(internet, &[target], vantage);
            let Some(losses) = ladder.of(target) else {
                continue;
            };
            for (round, &lost) in (0..ROUNDS).zip(losses) {
                if lost == 0 {
                    continue;
                }
                columns.push(
                    internet.addr_at(target),
                    ServiceProtocol::IcmpRateLimit.default_port(),
                    DataSource::Active,
                    t0 + SimTime(u64::from(round) * ROUND_SPACING.as_millis()),
                    Some(internet.asn_at(target).0),
                    PayloadRef::RateLimit {
                        round,
                        rate_pps: round_rate(round) as u32,
                        sent: u16::from(PROBES_PER_ROUND),
                        lost: u16::from(lost),
                    },
                );
            }
        }
        columns
    }

    #[test]
    fn one_ladder_per_limiter_records_what_a_ladder_per_target_records() {
        for seed in [77u64, 99, 2023] {
            let internet = internet_with_silent(seed, 10);
            let (vantage, start) = (VantageKind::SingleVp, SimTime(5_000));
            let targets = discover_targets(&internet, &[], vantage, start, 1);
            let reference = store_of(vec![reference_ladders(&internet, &targets, vantage, start)]);
            assert!(!reference.is_empty(), "seed={seed}");
            // Several lossy targets share a device: one ladder serves them.
            let rows = reference.to_observations();
            let lossy_targets: BTreeSet<IpAddr> = rows.iter().map(|o| o.addr).collect();
            let lossy_devices = lossy_devices(&internet, &targets, vantage);
            assert!(lossy_devices < lossy_targets.len(), "seed={seed}");
            assert_eq!(
                ladders(&internet, &targets, vantage).lossy(),
                lossy_devices as u64
            );
            for threads in [1usize, 2, 7] {
                let store = store_of(probe(&internet, &targets, vantage, start, threads));
                assert_eq!(store, reference, "seed={seed} threads={threads}");
            }
        }
    }

    #[test]
    fn the_ladder_counter_counts_lossy_devices_once_at_any_thread_count() {
        let internet = internet_with_silent(77, 10);
        let (vantage, start) = (VantageKind::SingleVp, SimTime::ZERO);
        let targets = discover_targets(&internet, &[], vantage, start, 1);
        let lossy = lossy_devices(&internet, &targets, vantage) as u64;
        assert!(lossy > 0);
        for threads in [1usize, 2, 7] {
            // A thread of its own: a fresh registry that only this run writes.
            let (internet, targets) = (&internet, &targets);
            let read = std::thread::scope(|scope| {
                let run = scope.spawn(move || {
                    probe(internet, targets, vantage, start, threads);
                    alias_obs::registry().snapshot()
                });
                run.join().expect("the run finishes")
            });
            let ladders = read
                .counters
                .iter()
                .find(|c| c.name == "scan.rate_probe_ladders");
            assert_eq!(ladders.map(|c| c.value), Some(lossy), "threads={threads}");
        }
    }

    #[test]
    fn sharded_rate_probing_is_byte_identical_to_serial() {
        for seed in [77u64, 2023] {
            let internet = internet_with_silent(seed, 10);
            let serial = discover_and_probe(&internet, 1);
            assert!(!serial.is_empty());
            for threads in [2usize, 7] {
                assert_eq!(
                    discover_and_probe(&internet, threads),
                    serial,
                    "seed={seed} threads={threads}"
                );
            }
        }
    }
}
