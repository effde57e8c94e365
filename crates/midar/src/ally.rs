//! The Ally pairwise test (Rocketfuel).
//!
//! Ally probes two candidate addresses in tight alternation and accepts them
//! as aliases when the interleaved IPID sequence is in order and the values
//! stay close together — the behaviour of one shared counter.  Probing stops
//! at the first reply that is not close to the one before it.

use alias_netsim::{IpidSample, ProbeContext, ProbeSession, Route, SimTime, VantageKind};
use alias_scan::ipid_probe::{IpidProber, PairEnd};

/// Verdict of an Ally test: how its pair ended.  A pair ends at whichever
/// comes first in probe order, its first reply that is not close to the
/// one before it or its first unanswered probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllyVerdict {
    /// The pair behaves like one shared counter.
    Alias,
    /// The pair cannot share a counter.
    NotAlias,
    /// A probe went unanswered before any reply refuted the pair.
    Unresponsive,
}

/// Probes sent to each address of a pair.
const PROBES_PER_ADDR: usize = 6;

/// Whether a shared counter could read `to` right after `from`: in order,
/// with a tolerance on the gap (Ally's classic "within 200, in order"
/// heuristic, scaled for the probe spacing used here).
pub(crate) fn close(from: IpidSample, to: IpidSample) -> bool {
    const MAX_GAP: u16 = 1_000;
    let delta = to.ipid.wrapping_sub(from.ipid);
    delta > 0 && delta < MAX_GAP
}

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
            prober: IpidProber::new(20.0),
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

    /// Test a pair of interfaces already routed with
    /// [`Internet::route`](alias_netsim::Internet::route), probing through
    /// the session the sweep holds.
    pub fn test(
        &mut self,
        session: &mut ProbeSession<'_>,
        pair: [Option<Route>; 2],
        vantage: VantageKind,
        start: SimTime,
    ) -> AllyVerdict {
        let end = self.prober.collect_interleaved_pair(
            session,
            pair,
            PROBES_PER_ADDR,
            ProbeContext {
                vantage,
                time: start,
            },
            &mut self.samples,
            |from, to| !close(from, to),
        );
        match end {
            PairEnd::Complete => AllyVerdict::Alias,
            PairEnd::Refuted => AllyVerdict::NotAlias,
            PairEnd::Unanswered => AllyVerdict::Unresponsive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::ipid::IpidModel;
    use alias_netsim::{DeviceKind, Internet, InternetBuilder, InternetConfig};
    use std::net::IpAddr;

    /// One Ally test of two addresses, each looked up, in a session of
    /// its own.
    fn ally_test(internet: &Internet, a: IpAddr, b: IpAddr) -> AllyVerdict {
        AllyTester::new().test(
            &mut internet.probe_session(),
            [internet.route(a), internet.route(b)],
            VantageKind::Distributed,
            SimTime::ZERO,
        )
    }

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
                    && matches!(model, IpidModel::SharedMonotonic { .. }) == want_shared
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
            assert_eq!(ally_test(&internet, a, b), AllyVerdict::Alias);
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
            let verdict = ally_test(&internet, a, b);
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
        assert_eq!(ally_test(&internet, live, dead), AllyVerdict::Unresponsive);
    }
}
