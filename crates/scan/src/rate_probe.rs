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
//! The prober runs in two steps:
//!
//! 1. **Discovery** — a ping sweep over the routed IPv4 space (walked by
//!    index through the simulator's slot table) and the IPv6 hitlist
//!    selects the echo-responsive addresses.
//! 2. **Escalation rounds** — each target is burst-probed at a ladder of
//!    rates (`base · 2^round`).  A screening burst at the *highest* rate
//!    runs first: a target with zero loss there cannot lose packets at
//!    any lower rate (loss is monotone in the probing rate), so the whole
//!    ladder is skipped.  Only **lossy** rounds are recorded, as
//!    [`PayloadRef::RateLimit`] observations.
//!
//! Timestamps are slot-based — a pure function of the target's global
//! index and the round number — so the output is byte-identical for any
//! shard count without any pacing-state hand-off between shards.

use alias_netsim::{Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_store::{DataSource, PayloadRef, ShardColumns};
use std::net::{IpAddr, Ipv6Addr};

/// Targets skipped by the screening burst (zero loss at the top rate).
/// Bursts are pure per target, so the total is shard-independent even
/// though the counter is bumped from inside shard workers.
static SCREENED_TARGETS: LazyCounter = LazyCounter::new(
    "scan.rate_probe_screened",
    DeterminismClass::Deterministic,
    "targets",
    "scan",
);

/// Lossy escalation rounds recorded as `RateLimit` observations.
static LOSSY_ROUNDS: LazyCounter = LazyCounter::new(
    "scan.rate_probe_lossy_rounds",
    DeterminismClass::Deterministic,
    "rounds",
    "scan",
);

/// Configuration of the rate-limiting prober.
#[derive(Debug, Clone)]
pub struct RateProbeConfig {
    /// Probing rate of round 0 in packets per second; round `r` probes at
    /// `base_rate_pps · 2^r`.
    pub base_rate_pps: f64,
    /// Number of escalation rounds.
    pub rounds: u8,
    /// Echo requests per burst (one burst per round).
    pub probes_per_round: u16,
    /// Simulated time between consecutive rounds of one target.
    pub round_spacing: SimTime,
    /// Data source label stamped on produced records.
    pub source: DataSource,
}

impl Default for RateProbeConfig {
    fn default() -> Self {
        RateProbeConfig {
            base_rate_pps: 256.0,
            rounds: 5,
            probes_per_round: 24,
            round_spacing: SimTime(250),
            source: DataSource::Active,
        }
    }
}

impl RateProbeConfig {
    /// The probing rate of escalation round `round`.
    pub fn round_rate(&self, round: u8) -> f64 {
        self.base_rate_pps * f64::from(1u32 << u32::from(round))
    }

    /// Simulated time budgeted per target (all rounds).
    pub fn target_slot(&self) -> SimTime {
        SimTime(self.round_spacing.as_millis() * u64::from(self.rounds))
    }
}

/// The ICMP rate-limiting prober.
#[derive(Debug, Clone)]
pub struct RateProber {
    config: RateProbeConfig,
}

impl RateProber {
    /// Create a prober with the given configuration.
    pub fn new(config: RateProbeConfig) -> Self {
        assert!(config.rounds >= 1, "need at least one escalation round");
        assert!(config.probes_per_round >= 1, "need at least one probe");
        RateProber { config }
    }

    /// The prober configuration.
    pub fn config(&self) -> &RateProbeConfig {
        &self.config
    }

    /// Discover the echo-responsive target population: every address of
    /// the routed IPv4 space plus the IPv6 hitlist that answers ping, with
    /// `threads` shard workers over the routed space.  A pure membership
    /// filter with no measurement state, so concatenating the per-shard
    /// survivors in shard order gives the same list for any thread count;
    /// the (much smaller) IPv6 hitlist is filtered on the calling thread.
    pub fn discover_targets(
        &self,
        internet: &Internet,
        hitlist_v6: &[Ipv6Addr],
        vantage: VantageKind,
        at: SimTime,
        threads: usize,
    ) -> Vec<IpAddr> {
        let ctx = ProbeContext { vantage, time: at };
        let space = internet.routed_space();
        let ranges = alias_exec::split_even(space.len(), alias_exec::shards_for(threads));
        let per_shard: Vec<Vec<IpAddr>> = alias_exec::shard_map(ranges.len(), threads, |shard| {
            let range = &ranges[shard];
            (range.start..range.end)
                .filter_map(|index| {
                    let (device_id, _) = space.owner_at(index)?;
                    internet
                        .ping_responds_at(device_id, &ctx)
                        .then(|| IpAddr::V4(space.addr_at(index)))
                })
                .collect()
        });
        let mut targets: Vec<IpAddr> = per_shard.into_iter().flatten().collect();
        targets.extend(
            hitlist_v6
                .iter()
                .map(|&a| IpAddr::V6(a))
                .filter(|&a| internet.ping_responds(a, &ctx)),
        );
        targets
    }

    /// The probe loop of one shard.  Target `global_offset + i` owns the
    /// time slot starting at `phase_start + (global_offset + i) ·
    /// target_slot`, so timestamps never depend on how the target list was
    /// split.
    fn probe_slice(
        &self,
        internet: &Internet,
        targets: &[IpAddr],
        global_offset: usize,
        vantage: VantageKind,
        phase_start: SimTime,
        columns: &mut ShardColumns,
    ) {
        let cfg = &self.config;
        let slot = cfg.target_slot().as_millis();
        let sent = cfg.probes_per_round;
        let count = u32::from(sent);
        for (offset, &addr) in targets.iter().enumerate() {
            let t0 = phase_start + SimTime((global_offset + offset) as u64 * slot);
            // The limiter is router-wide: resolve the target once and burst
            // the device through the whole ladder (an unrouted address can
            // never answer, exactly as an unresolvable one).
            let Some((device_id, iface_idx)) = internet.lookup(addr) else {
                continue;
            };
            // Screening burst at the top rate: no loss there means no loss
            // anywhere on the ladder (monotonicity), so skip the target.
            // Bursts are pure — the limiter is evaluated from a full
            // bucket every time — so the screen costs nothing downstream.
            let top = cfg.rounds - 1;
            let ctx = ProbeContext { vantage, time: t0 };
            let Some(replies) = internet.rate_burst_at(device_id, cfg.round_rate(top), count, &ctx)
            else {
                continue;
            };
            if replies == count {
                SCREENED_TARGETS.incr();
                continue;
            }
            for round in 0..cfg.rounds {
                let time = t0 + SimTime(u64::from(round) * cfg.round_spacing.as_millis());
                let ctx = ProbeContext { vantage, time };
                let rate = cfg.round_rate(round);
                let Some(replies) = internet.rate_burst_at(device_id, rate, count, &ctx) else {
                    continue;
                };
                let lost = sent - replies as u16;
                if lost == 0 {
                    continue;
                }
                LOSSY_ROUNDS.incr();
                columns.push(
                    addr,
                    ServiceProtocol::IcmpRateLimit.default_port(),
                    cfg.source,
                    time,
                    Some(internet.asn_at(device_id, iface_idx).0),
                    PayloadRef::RateLimit {
                        round,
                        rate_pps: rate as u32,
                        sent,
                        lost,
                    },
                );
            }
        }
    }

    /// Probe every target through the escalation ladder with `threads`
    /// shard workers over disjoint slices of the target list, returning
    /// per-shard column chunks in shard order (the form the campaign store
    /// absorbs).  Byte-identical for any thread count: timestamps are a
    /// pure function of the global target index.
    pub fn probe(
        &self,
        internet: &Internet,
        targets: &[IpAddr],
        vantage: VantageKind,
        start: SimTime,
        threads: usize,
    ) -> Vec<ShardColumns> {
        let ranges = alias_exec::split_even(targets.len() as u64, alias_exec::shards_for(threads));
        alias_exec::shard_map(ranges.len(), threads, |shard| {
            let range = &ranges[shard];
            let mut columns = ShardColumns::new();
            self.probe_slice(
                internet,
                &targets[range.start as usize..range.end as usize],
                range.start as usize,
                vantage,
                start,
                &mut columns,
            );
            columns
        })
    }
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
    fn discover_and_probe(
        prober: &RateProber,
        internet: &Internet,
        threads: usize,
    ) -> ObservationStore {
        let (vantage, start) = (VantageKind::SingleVp, SimTime::ZERO);
        let targets = prober.discover_targets(internet, &[], vantage, start, threads);
        store_of(prober.probe(internet, &targets, vantage, start, threads))
    }

    #[test]
    fn discovery_covers_silent_routers_and_both_families() {
        let internet = internet_with_silent(77, 10);
        let prober = RateProber::new(RateProbeConfig::default());
        let hitlist: Vec<Ipv6Addr> = internet
            .devices()
            .iter()
            .flat_map(|d| d.ipv6_addrs())
            .collect();
        let targets =
            prober.discover_targets(&internet, &hitlist, VantageKind::SingleVp, SimTime::ZERO, 1);
        assert!(targets.iter().any(|a| a.is_ipv4()));
        assert!(targets.iter().any(|a| a.is_ipv6()));
        let ctx = ProbeContext {
            vantage: VantageKind::SingleVp,
            time: SimTime::ZERO,
        };
        for &addr in &targets {
            assert!(internet.ping_responds(addr, &ctx));
        }
        // Every silent router's v4 interfaces are in the routed space and
        // answer ping, so discovery must pick all of them up.
        for device in internet.devices() {
            if device.kind == DeviceKind::SilentRouter {
                for addr in device.ipv4_addrs() {
                    assert!(targets.contains(&IpAddr::V4(addr)), "missing {addr}");
                }
            }
        }
    }

    #[test]
    fn only_lossy_rounds_are_recorded_and_losses_are_plausible() {
        let internet = internet_with_silent(77, 10);
        let prober = RateProber::new(RateProbeConfig::default());
        let cfg = prober.config().clone();
        let observations = discover_and_probe(&prober, &internet, 1).to_observations();
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
            assert!(round < cfg.rounds);
            assert_eq!(f64::from(rate_pps), cfg.round_rate(round));
            assert_eq!(sent, cfg.probes_per_round);
            assert!(lost >= 1 && lost <= sent);
            assert_eq!(obs.port, 0);
            assert!(obs.asn.is_some());
            // Only limiter-constrained device classes can lose packets at
            // these rates; endpoints' limiters sit far above the ladder.
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
            let kind = internet.device(device_id).kind;
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
        let prober = RateProber::new(RateProbeConfig::default());
        let observations = discover_and_probe(&prober, &internet, 1).to_observations();
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
        let top = prober.config().rounds - 1;
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

    #[test]
    fn sharded_rate_probing_is_byte_identical_to_serial() {
        for seed in [77u64, 2023] {
            let internet = internet_with_silent(seed, 10);
            let prober = RateProber::new(RateProbeConfig::default());
            let serial = discover_and_probe(&prober, &internet, 1);
            assert!(!serial.is_empty());
            for threads in [2usize, 7] {
                assert_eq!(
                    discover_and_probe(&prober, &internet, threads),
                    serial,
                    "seed={seed} threads={threads}"
                );
            }
        }
    }
}
