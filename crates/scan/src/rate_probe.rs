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
//!    selects the echo-responsive addresses, each with the interface it
//!    resolved to.
//! 2. **Ladders** — each target is burst-probed at a ladder of rates
//!    (`base · 2^round`).  A burst's reply count is a pure function of
//!    (device, rate, count), and the limiter is router-wide, so the
//!    ladder is a property of the device: each distinct device is stepped
//!    once, on the calling thread, before any shard runs.  A screening
//!    burst at the *highest* rate runs first: a device with zero loss
//!    there cannot lose packets at any lower rate (loss is monotone in the
//!    probing rate), so the rest of its ladder is skipped.
//! 3. **Recording** — each target reads its device's ladder, and only its
//!    **lossy** rounds are recorded, as [`PayloadRef::RateLimit`]
//!    observations.
//!
//! Timestamps are slot-based — a pure function of the target's global
//! index and the round number — so the output is byte-identical for any
//! shard count without any pacing-state hand-off between shards.

use alias_netsim::{DeviceId, Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_store::{DataSource, PayloadRef, ShardColumns};
use std::net::{IpAddr, Ipv6Addr};

/// Targets skipped by the screening burst (zero loss at the top rate).
/// Ladders are pure per device, so the total is shard-independent even
/// though each shard worker adds its own count.
static SCREENED_TARGETS: LazyCounter = LazyCounter::new(
    "scan.rate_probe_screened",
    DeterminismClass::Deterministic,
    "targets",
    "scan",
);

/// Devices whose ladder was stepped past the screen (lossy at the top
/// rate), once per device however many targets sit on it.  Stepped on the
/// calling thread before the shards run.
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

/// Echo requests per burst (one burst per round).
const PROBES_PER_ROUND: u16 = 24;

/// Simulated time between consecutive rounds of one target.
const ROUND_SPACING: SimTime = SimTime(250);

/// Simulated time budgeted per target (all rounds).
const TARGET_SLOT: SimTime = SimTime(ROUND_SPACING.0 * ROUNDS as u64);

const _: () = assert!(ROUNDS >= 1, "need at least one escalation round");
const _: () = assert!(PROBES_PER_ROUND >= 1, "need at least one probe");
const _: () = assert!(
    PROBES_PER_ROUND <= u8::MAX as u16,
    "a round's loss fits a byte"
);

/// The rate-limiting probe phase takes no settings: this module's
/// constants fix its escalation ladder.  A campaign runs the phase when its
/// `rate_probe` holds one.
#[derive(Debug, Clone, Default)]
pub struct RateProbeConfig;

/// An echo-responsive interface, as discovery resolved it: eight bytes a
/// target, its address read back from the device table only when a lossy
/// round is recorded.
#[derive(Debug, Clone, Copy)]
pub struct RateTarget {
    device: DeviceId,
    iface: u32,
}

impl RateTarget {
    fn new(device: DeviceId, iface: usize) -> Self {
        let iface = u32::try_from(iface).expect("a device has fewer than 2^32 interfaces");
        RateTarget { device, iface }
    }

    /// The probed address.
    fn addr(self, internet: &Internet) -> IpAddr {
        internet.device(self.device).interfaces()[self.iface as usize].addr
    }
}

/// What one device's limiter does to the escalation ladder.  Six bytes, so
/// the table over the paper-scale study's 93,600 devices is 548 KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ladder {
    /// No target on the device has been met yet.
    Unstepped,
    /// The device does not answer echo from the vantage.
    Silent,
    /// No loss at the top rate, so none anywhere on the ladder.
    Screened,
    /// Probes lost in each round; a zero is a lossless round.
    Lossy([u8; ROUNDS as usize]),
}

const _: () = assert!(std::mem::size_of::<Ladder>() == 1 + ROUNDS as usize);

/// The probing rate of escalation round `round`.
fn round_rate(round: u8) -> f64 {
    BASE_RATE_PPS * f64::from(1u32 << u32::from(round))
}

/// Discover the echo-responsive target population: every address of the
/// routed IPv4 space plus the IPv6 hitlist that answers ping, with
/// `threads` shard workers over the routed space.  A pure membership filter
/// with no measurement state, so concatenating the per-shard survivors in
/// shard order gives the same list for any thread count; the (much
/// smaller) IPv6 hitlist is filtered on the calling thread.
pub fn discover_targets(
    internet: &Internet,
    hitlist_v6: &[Ipv6Addr],
    vantage: VantageKind,
    at: SimTime,
    threads: usize,
) -> Vec<RateTarget> {
    let ctx = ProbeContext { vantage, time: at };
    let space = internet.routed_space();
    let ranges = crate::exec::split_even(space.len(), crate::exec::shards_for(threads));
    let per_shard: Vec<Vec<RateTarget>> = crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        (range.start..range.end)
            .filter_map(|index| {
                let (device, iface) = space.owner_at(index)?;
                (internet.ping_responds_at(device, &ctx)).then(|| RateTarget::new(device, iface))
            })
            .collect()
    });
    let mut targets: Vec<RateTarget> = per_shard.into_iter().flatten().collect();
    targets.extend(hitlist_v6.iter().filter_map(|&v6| {
        let (device, iface) = internet.lookup(IpAddr::V6(v6))?;
        (internet.ping_responds_at(device, &ctx)).then(|| RateTarget::new(device, iface))
    }));
    targets
}

/// Step the ladder of every device that holds a target, once each, into a
/// table indexed by device.  The screen is the top round's burst, so a
/// screened device is stepped once and a lossy one once per round.
fn step_ladders(internet: &Internet, targets: &[RateTarget], vantage: VantageKind) -> Vec<Ladder> {
    // A burst reads only the device's limiter and whether it answers echo
    // from the vantage, not the time.
    let ctx = ProbeContext {
        vantage,
        time: SimTime::ZERO,
    };
    let count = u32::from(PROBES_PER_ROUND);
    let lost = |replies: u32| (count - replies) as u8;
    let mut ladders = vec![Ladder::Unstepped; internet.devices().len()];
    let mut stepped = 0;
    for target in targets {
        let ladder = &mut ladders[target.device.0 as usize];
        if *ladder != Ladder::Unstepped {
            continue;
        }
        let burst = |round| internet.rate_burst_at(target.device, round_rate(round), count, &ctx);
        *ladder = match burst(ROUNDS - 1) {
            None => Ladder::Silent,
            Some(replies) if replies == count => Ladder::Screened,
            Some(top) => {
                stepped += 1;
                let mut losses = [0; ROUNDS as usize];
                for (round, loss) in (0..ROUNDS - 1).zip(&mut losses) {
                    *loss = burst(round).map_or(0, lost);
                }
                losses[usize::from(ROUNDS - 1)] = lost(top);
                Ladder::Lossy(losses)
            }
        };
    }
    if stepped > 0 {
        STEPPED_LADDERS.add(stepped);
    }
    ladders
}

/// The recording loop of one shard.  Target `global_offset + i` owns the
/// time slot starting at `phase_start + (global_offset + i) · TARGET_SLOT`,
/// so timestamps never depend on how the target list was split.
fn probe_slice(
    internet: &Internet,
    targets: &[RateTarget],
    ladders: &[Ladder],
    global_offset: usize,
    phase_start: SimTime,
    columns: &mut ShardColumns,
) {
    let slot = TARGET_SLOT.as_millis();
    let (mut screened, mut lossy) = (0, 0);
    for (offset, target) in targets.iter().enumerate() {
        let losses = match ladders[target.device.0 as usize] {
            Ladder::Lossy(losses) => losses,
            Ladder::Screened => {
                screened += 1;
                continue;
            }
            Ladder::Silent | Ladder::Unstepped => continue,
        };
        let t0 = phase_start + SimTime((global_offset + offset) as u64 * slot);
        let addr = target.addr(internet);
        let asn = internet.asn_at(target.device, target.iface as usize).0;
        for (round, &lost) in (0..ROUNDS).zip(&losses) {
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
                    sent: PROBES_PER_ROUND,
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

/// Probe every target through the escalation ladder: each distinct
/// device's ladder is stepped once on the calling thread, then `threads`
/// shard workers record disjoint slices of the target list, returning
/// per-shard column chunks in shard order (the form the campaign store
/// absorbs).  Byte-identical for any thread count: timestamps are a pure
/// function of the global target index.
pub fn probe(
    internet: &Internet,
    targets: &[RateTarget],
    vantage: VantageKind,
    start: SimTime,
    threads: usize,
) -> Vec<ShardColumns> {
    let ladders = step_ladders(internet, targets, vantage);
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
        let targets: Vec<IpAddr> = discovered.iter().map(|t| t.addr(&internet)).collect();
        assert!(targets.iter().any(|a| a.is_ipv4()));
        assert!(targets.iter().any(|a| a.is_ipv6()));
        let ctx = ProbeContext {
            vantage: VantageKind::SingleVp,
            time: SimTime::ZERO,
        };
        for (target, &addr) in discovered.iter().zip(&targets) {
            assert!(internet.ping_responds(addr, &ctx));
            let resolved = Some((target.device, target.iface as usize));
            assert_eq!(internet.lookup(addr), resolved);
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
            assert_eq!(sent, PROBES_PER_ROUND);
            assert!(lost >= 1 && lost <= sent);
            assert_eq!(obs.port, 0);
            assert!(obs.asn.is_some());
            // Only limiter-constrained device classes can lose packets at
            // these rates; endpoints' limiters sit far above the ladder.
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
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

    /// The rate phase as one target at a time: look the address up, screen
    /// it at the top rate, then burst it through every round.
    fn reference_ladders(internet: &Internet, addrs: &[IpAddr], start: SimTime) -> ShardColumns {
        let mut columns = ShardColumns::new();
        let count = u32::from(PROBES_PER_ROUND);
        for (index, &addr) in addrs.iter().enumerate() {
            let t0 = start + SimTime(index as u64 * TARGET_SLOT.as_millis());
            let (device, iface) = internet.lookup(addr).expect("discovered addresses resolve");
            let burst = |round, time| {
                let ctx = ProbeContext {
                    vantage: VantageKind::SingleVp,
                    time,
                };
                internet.rate_burst_at(device, round_rate(round), count, &ctx)
            };
            if burst(ROUNDS - 1, t0).is_none_or(|replies| replies == count) {
                continue;
            }
            for round in 0..ROUNDS {
                let time = t0 + SimTime(u64::from(round) * ROUND_SPACING.as_millis());
                let replies = burst(round, time).expect("the screen answered");
                if replies == count {
                    continue;
                }
                columns.push(
                    addr,
                    ServiceProtocol::IcmpRateLimit.default_port(),
                    DataSource::Active,
                    time,
                    Some(internet.asn_at(device, iface).0),
                    PayloadRef::RateLimit {
                        round,
                        rate_pps: round_rate(round) as u32,
                        sent: PROBES_PER_ROUND,
                        lost: PROBES_PER_ROUND - replies as u16,
                    },
                );
            }
        }
        columns
    }

    #[test]
    fn one_ladder_per_device_records_what_a_ladder_per_target_records() {
        for seed in [77u64, 99, 2023] {
            let internet = internet_with_silent(seed, 10);
            let (vantage, start) = (VantageKind::SingleVp, SimTime(5_000));
            let targets = discover_targets(&internet, &[], vantage, start, 1);
            let addrs: Vec<IpAddr> = targets.iter().map(|t| t.addr(&internet)).collect();
            let reference = store_of(vec![reference_ladders(&internet, &addrs, start)]);
            assert!(!reference.is_empty(), "seed={seed}");
            // Several targets share a device, and a ladder per device is
            // fewer than the lossy targets.
            let ladders = step_ladders(&internet, &targets, vantage);
            let lossy_devices = (ladders.iter())
                .filter(|l| matches!(l, Ladder::Lossy(_)))
                .count();
            let lossy_targets = (targets.iter())
                .filter(|t| matches!(ladders[t.device.0 as usize], Ladder::Lossy(_)))
                .count();
            assert!(lossy_devices < lossy_targets, "seed={seed}");
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
        let ladders = step_ladders(&internet, &targets, vantage);
        let lossy = ladders.iter().filter(|l| matches!(l, Ladder::Lossy(_)));
        let lossy = lossy.count() as u64;
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
