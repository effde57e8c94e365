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

use crate::rate::TokenBucket;
use alias_netsim::{DeviceId, Internet, ProbeContext, SimTime, VantageKind};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// One IPID sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpidSample {
    /// When the reply was received.
    pub time: SimTime,
    /// The observed IPID value.
    pub ipid: u16,
}

/// The IPID samples collected for one address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpidTimeSeries {
    /// The probed address.
    pub addr: IpAddr,
    /// Samples in probe order.
    pub samples: Vec<IpidSample>,
}

impl IpidTimeSeries {
    /// Whether enough samples were collected to run a monotonicity test.
    pub fn is_usable(&self) -> bool {
        self.samples.len() >= 3
    }
}

/// A probe target resolved against the IP index ([`Internet::lookup`]):
/// the interface behind an address, or `None` for an address no device
/// owns.
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

/// Collects IPID time series from the simulated Internet.
#[derive(Debug, Clone)]
pub struct IpidProber {
    config: IpidProberConfig,
}

impl IpidProber {
    /// Create a prober with the given configuration.
    pub fn new(config: IpidProberConfig) -> Self {
        IpidProber { config }
    }

    /// Round-robin sample every target: one probe per target per round,
    /// `rounds` rounds, targets probed in order within a round.
    ///
    /// IPv4 targets are sampled with ICMP echo probes, IPv6 targets with
    /// fragment-eliciting probes, both drawing from the same device-wide
    /// counter.  Unresponsive
    /// targets yield series with fewer (possibly zero) samples.
    ///
    /// The probe loop cannot use the precomputed bucket schedule — the
    /// strictly-increasing timestamp forcing feeds back into the bucket's
    /// refill arithmetic — but the target set is fixed across rounds, so
    /// each address is resolved against the IP index once up front rather
    /// than once per sample.
    pub fn collect_round_robin(
        &self,
        internet: &Internet,
        targets: &[IpAddr],
        vantage: VantageKind,
        start: SimTime,
    ) -> Vec<IpidTimeSeries> {
        let mut series: Vec<IpidTimeSeries> = targets
            .iter()
            .map(|&addr| IpidTimeSeries {
                addr,
                samples: Vec::with_capacity(self.config.rounds),
            })
            .collect();
        // Resolve every target once; the per-round loop probes through the
        // resolved interface (`None` for addresses that do not exist, which
        // never answer — exactly as the per-probe lookup would conclude).
        let resolved: Vec<ResolvedTarget> =
            targets.iter().map(|&addr| internet.lookup(addr)).collect();
        let mut bucket = TokenBucket::new(self.config.rate_pps, 16.0, start);
        let mut round_start = start;
        // Probe timestamps are forced to be strictly increasing so that the
        // time-ordered merge of any two series reflects the true probe
        // order, which the monotonic bounds test depends on.
        let mut last_sent = SimTime::ZERO;
        for _ in 0..self.config.rounds {
            let mut now = round_start;
            for (entry, target) in series.iter_mut().zip(&resolved) {
                now = bucket.acquire(now);
                if now <= last_sent {
                    now = last_sent + SimTime(1);
                }
                last_sent = now;
                let Some((device_id, iface_idx)) = *target else {
                    continue;
                };
                let ctx = ProbeContext { vantage, time: now };
                if let Some(echo) = internet.identifier_probe_at(device_id, iface_idx, &ctx) {
                    entry.samples.push(IpidSample {
                        time: echo.time,
                        ipid: echo.ipid,
                    });
                }
            }
            round_start = round_start.max(now) + self.config.round_spacing;
        }
        series
    }

    /// Tightly interleave probes to a pair of interfaces (A, B, A, B, ...),
    /// as the Ally test and MIDAR's elimination stage require.
    ///
    /// The targets come resolved ([`Internet::lookup`], once per target
    /// rather than once per probe; `None` for an address that does not
    /// exist, which still takes its turn in the schedule and never
    /// answers).  Each target's samples are written into the buffer at its
    /// index, cleared first, so a caller testing many pairs reuses one
    /// buffer pair.  With every reply in, the probe order is
    /// `samples[0][0], samples[1][0], samples[0][1], ...`.
    pub fn collect_interleaved_pair(
        &self,
        internet: &Internet,
        targets: [ResolvedTarget; 2],
        probes_per_addr: usize,
        vantage: VantageKind,
        start: SimTime,
        samples: &mut [Vec<IpidSample>; 2],
    ) {
        samples[0].clear();
        samples[1].clear();
        let mut bucket = TokenBucket::new(self.config.rate_pps, 4.0, start);
        let mut now = start;
        let mut last_sent = SimTime::ZERO;
        for i in 0..probes_per_addr * 2 {
            now = bucket.acquire(now);
            // Strictly increasing timestamps keep the merged probe order
            // recoverable by time (see collect_round_robin).
            if now <= last_sent {
                now = last_sent + SimTime(1);
            }
            last_sent = now;
            let Some((device_id, iface_idx)) = targets[i % 2] else {
                continue;
            };
            let ctx = ProbeContext { vantage, time: now };
            if let Some(echo) = internet.identifier_probe_at(device_id, iface_idx, &ctx) {
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
    use alias_netsim::{InternetBuilder, InternetConfig};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(202)).build()
    }

    fn pingable_device_addrs(internet: &Internet, shared_counter: bool) -> Option<Vec<IpAddr>> {
        internet
            .devices()
            .iter()
            .find(|d| {
                d.responds_to_ping
                    && d.ipv4_addrs().len() >= 2
                    && d.ipid.lock().model().is_shared_monotonic() == shared_counter
                    && d.ipid
                        .lock()
                        .model()
                        .velocity()
                        .map(|v| v < 1_000.0)
                        .unwrap_or(!shared_counter)
            })
            .map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4).collect())
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
            &internet,
            &targets,
            VantageKind::Distributed,
            SimTime::ZERO,
        );
        assert_eq!(series.len(), targets.len());
        for s in &series {
            assert_eq!(s.samples.len(), 5);
            assert!(s.is_usable());
            // Timestamps strictly increase.
            assert!(s.samples.windows(2).all(|w| w[1].time > w[0].time));
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
        let series =
            prober.collect_round_robin(&internet, &bogus, VantageKind::Distributed, SimTime::ZERO);
        assert_eq!(series.len(), 1);
        assert!(series[0].samples.is_empty());
        assert!(!series[0].is_usable());
    }

    /// Probe a pair given by address and return the IPIDs in probe order
    /// (every probe answered).
    fn interleaved_ipids(internet: &Internet, a: IpAddr, b: IpAddr) -> Vec<u16> {
        let prober = IpidProber::new(IpidProberConfig::default());
        let mut samples = [Vec::new(), Vec::new()];
        prober.collect_interleaved_pair(
            internet,
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
                && matches!(d.ipid.lock().model(), IpidModel::Random)
        });
        let Some(device) = device else { return };
        let addrs: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
        let values = interleaved_ipids(&internet, addrs[0], addrs[1]);
        assert!(!values.windows(2).all(|w| w[1] > w[0]));
    }

    /// The pair probe as it was before targets came resolved: every probe
    /// looks its address up again.  The reference for the test below.
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

        let prober = IpidProber::new(IpidProberConfig {
            rounds: 1,
            round_spacing: SimTime::ZERO,
            rate_pps: 20.0,
        });
        let mut buffers = [Vec::new(), Vec::new()];
        let mut answered = 0;
        for (n, pair) in pairs.iter().enumerate() {
            let start = SimTime(n as u64 * 700);
            let vantage = if n % 2 == 0 {
                VantageKind::SingleVp
            } else {
                VantageKind::Distributed
            };
            let expected = address_based_pair(&prober, &by_address, *pair, 6, vantage, start);
            prober.collect_interleaved_pair(
                &resolved,
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
        // Both sides left every device's IPID counter in the same state.
        for (a, b) in by_address.devices().iter().zip(resolved.devices()) {
            assert_eq!(
                format!("{:?}", a.ipid.lock()),
                format!("{:?}", b.ipid.lock()),
                "device {:?}",
                a.id
            );
        }
    }
}
