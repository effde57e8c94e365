//! The Ally pairwise test (Rocketfuel).
//!
//! Ally probes two candidate addresses in tight alternation and accepts them
//! as aliases when the interleaved IPID sequence is in order and the values
//! stay close together — the behaviour of one shared counter.

use alias_netsim::{Internet, ProbeSession, SimTime, VantageKind};
use alias_scan::ipid_probe::{IpidProber, IpidProberConfig, IpidSample, ResolvedTarget};
use std::net::IpAddr;

/// Verdict of an Ally test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllyVerdict {
    /// The pair behaves like one shared counter.
    Alias,
    /// The pair cannot share a counter.
    NotAlias,
    /// One or both addresses did not answer enough probes.
    Unresponsive,
}

/// Probes sent to each address of a pair.
const PROBES_PER_ADDR: usize = 6;

/// Runs Ally tests; a sweep over many pairs keeps one tester so every test
/// after the first reuses its two sample buffers and the prober's one
/// memoised pair schedule.
#[derive(Debug)]
pub struct AllyTester {
    prober: IpidProber,
    samples: [Vec<IpidSample>; 2],
}

impl Default for AllyTester {
    fn default() -> Self {
        AllyTester {
            prober: IpidProber::new(IpidProberConfig {
                rounds: 1,
                round_spacing: SimTime::ZERO,
                rate_pps: 20.0,
            }),
            samples: [
                Vec::with_capacity(PROBES_PER_ADDR),
                Vec::with_capacity(PROBES_PER_ADDR),
            ],
        }
    }
}

impl AllyTester {
    /// A tester with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Test a pair of interfaces already resolved with
    /// [`Internet::lookup`], probing through the session the sweep holds.
    pub fn test(
        &mut self,
        session: &mut ProbeSession<'_>,
        pair: [ResolvedTarget; 2],
        vantage: VantageKind,
        start: SimTime,
    ) -> AllyVerdict {
        self.prober.collect_interleaved_pair(
            session,
            pair,
            PROBES_PER_ADDR,
            vantage,
            start,
            &mut self.samples,
        );
        let [a, b] = &self.samples;
        if a.len() < PROBES_PER_ADDR || b.len() < PROBES_PER_ADDR {
            return AllyVerdict::Unresponsive;
        }
        // In-order check with a tolerance on the gap between consecutive
        // values (Ally's classic "within 200, in order" heuristic, scaled
        // for the probe spacing used here).  Every probe was answered, so
        // the probe order is a[0], b[0], a[1], b[1], ...
        const MAX_GAP: u16 = 1_000;
        let close = |from: u16, to: u16| {
            let delta = to.wrapping_sub(from);
            delta > 0 && delta < MAX_GAP
        };
        let within_rounds = a.iter().zip(b).all(|(a, b)| close(a.ipid, b.ipid));
        let across_rounds = b.iter().zip(&a[1..]).all(|(b, a)| close(b.ipid, a.ipid));
        if within_rounds && across_rounds {
            AllyVerdict::Alias
        } else {
            AllyVerdict::NotAlias
        }
    }
}

/// Run one Ally test against the simulated Internet.
pub fn ally_test(
    internet: &Internet,
    a: IpAddr,
    b: IpAddr,
    vantage: VantageKind,
    start: SimTime,
) -> AllyVerdict {
    AllyTester::new().test(
        &mut internet.probe_session(),
        [internet.lookup(a), internet.lookup(b)],
        vantage,
        start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::ipid::IpidModel;
    use alias_netsim::{DeviceKind, InternetBuilder, InternetConfig};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(909)).build()
    }

    /// Find a pingable multi-address device with the requested counter model.
    fn device_pair(internet: &Internet, want_shared: bool) -> Option<(IpAddr, IpAddr)> {
        internet
            .devices()
            .find(|d| {
                let model = internet.ipid_model(d.id());
                d.responds_to_ping()
                    && d.ipv4_addrs().len() >= 2
                    && model.is_shared_monotonic() == want_shared
                    && model.velocity().map(|v| v < 500.0).unwrap_or(!want_shared)
            })
            .map(|d| {
                let addrs = d.ipv4_addrs();
                (IpAddr::V4(addrs[0]), IpAddr::V4(addrs[1]))
            })
    }

    #[test]
    fn shared_counter_pair_is_alias() {
        let internet = internet();
        if let Some((a, b)) = device_pair(&internet, true) {
            assert_eq!(
                ally_test(&internet, a, b, VantageKind::Distributed, SimTime::ZERO),
                AllyVerdict::Alias
            );
        }
    }

    #[test]
    fn addresses_of_different_devices_are_not_aliases() {
        let internet = internet();
        // Take first addresses of two different pingable routers with
        // shared counters; their bases almost surely differ.
        let routers: Vec<alias_netsim::DeviceRef> = internet
            .devices()
            .filter(|d| {
                d.responds_to_ping()
                    && matches!(d.kind(), DeviceKind::IspRouter | DeviceKind::BorderRouter)
                    && !d.ipv4_addrs().is_empty()
                    && matches!(
                        internet.ipid_model(d.id()),
                        IpidModel::SharedMonotonic { .. } | IpidModel::Random
                    )
            })
            .take(2)
            .collect();
        if routers.len() == 2 {
            let a = IpAddr::V4(routers[0].ipv4_addrs()[0]);
            let b = IpAddr::V4(routers[1].ipv4_addrs()[0]);
            let verdict = ally_test(&internet, a, b, VantageKind::Distributed, SimTime::ZERO);
            assert_ne!(verdict, AllyVerdict::Alias);
        }
    }

    #[test]
    fn unresponsive_target_yields_unresponsive() {
        let internet = internet();
        let dead: IpAddr = "198.18.0.1".parse().unwrap();
        let live = internet
            .devices()
            .find(|d| d.responds_to_ping() && !d.ipv4_addrs().is_empty())
            .map(|d| IpAddr::V4(d.ipv4_addrs()[0]))
            .unwrap();
        assert_eq!(
            ally_test(
                &internet,
                live,
                dead,
                VantageKind::Distributed,
                SimTime::ZERO
            ),
            AllyVerdict::Unresponsive
        );
    }
}
