//! The Ally pairwise test (Rocketfuel).
//!
//! Ally probes two candidate addresses in tight alternation and accepts them
//! as aliases when the interleaved IPID sequence is in order and the values
//! stay close together — the behaviour of one shared counter.  Probing stops
//! at the first reply that is not close to the one before it.
//! [`AllyTechnique`] runs the test over a sliding window of the campaign's
//! IPv4 targets.

use crate::baselines::{compact_sets, resolve_counter, FamilyTargets};
use crate::midar::PAIR_SPACING;
use crate::technique::{ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::union_find::UnionFind;
use alias_netsim::{IpidSample, ProbeContext, ProbeSession, Route, SimTime, VantageKind};
use alias_obs::LazyCounter;
use alias_scan::ipid_probe::{IpidProber, PairEnd};
use alias_scan::CampaignData;

/// Pairs the Ally sweep probed: its window's pairs less those whose two
/// addresses were already joined (serial, so a pure function of the
/// campaign's addresses).
static ALLY_PAIR_TESTS: LazyCounter = resolve_counter("ally.pair_tests", "pairs");

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

/// Time between a pair's probes once the prober's burst is spent: Ally's
/// 20 probes a second.
const PROBE_GAP: SimTime = SimTime(50);

/// Whether a shared counter could read `to` right after `from`: in order,
/// with a tolerance on the gap (Ally's classic "within 200, in order"
/// heuristic, scaled for the probe spacing used here).
pub(crate) fn close(from: IpidSample, to: IpidSample) -> bool {
    const MAX_GAP: u16 = 1_000;
    let delta = to.ipid.wrapping_sub(from.ipid);
    delta > 0 && delta < MAX_GAP
}

/// Runs Ally tests; a sweep over many pairs keeps one tester so every test
/// after the first reuses its two sample buffers.
#[derive(Debug)]
pub struct AllyTester {
    prober: IpidProber,
    samples: [Vec<IpidSample>; 2],
}

impl Default for AllyTester {
    fn default() -> Self {
        AllyTester {
            prober: IpidProber::new(PROBE_GAP),
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

/// Width of the Ally sweep's sliding window over the sorted target list.
const ALLY_WINDOW: usize = 4;

/// The Ally baseline: pairwise shared-counter tests over a sliding window
/// of the campaign's (sorted) responsive IPv4 addresses, confirmed pairs
/// merged with union–find.
///
/// Exhaustive pairwise Ally is quadratic and was never run at Internet
/// scale; like MIDAR's discovery stage, this implementation only tests
/// pairs within a few positions of each other.  Numerically close
/// addresses are the classic alias candidates (router interfaces drawn
/// from the same prefix), so the window catches most of what exhaustive
/// testing would.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllyTechnique;

impl ResolutionTechnique for AllyTechnique {
    fn name(&self) -> &'static str {
        "ally"
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let FamilyTargets { ids, routes } = ctx.targets.ipv4();
        // One session and one tester for the whole sweep: every pair test
        // writes into the tester's one pair of sample buffers.
        let mut session = ctx.internet.probe_session();
        let mut tester = AllyTester::new();
        let mut pair_tests = 0u64;
        let mut uf = UnionFind::new(ids.len());
        let mut testable = vec![false; ids.len()];
        let mut now = ctx.probe_start;
        for i in 0..ids.len() {
            let window_end = (i + 1 + ALLY_WINDOW).min(ids.len());
            for j in i + 1..window_end {
                // A joined pair keeps its place in the schedule unprobed.
                now += PAIR_SPACING;
                if uf.connected(i, j) {
                    continue;
                }
                pair_tests += 1;
                let pair = [routes[i], routes[j]];
                match tester.test(&mut session, pair, ctx.vantage, now) {
                    AllyVerdict::Alias => {
                        uf.union(i, j);
                        testable[i] = true;
                        testable[j] = true;
                    }
                    AllyVerdict::NotAlias => {
                        testable[i] = true;
                        testable[j] = true;
                    }
                    AllyVerdict::Unresponsive => {}
                }
            }
        }
        ALLY_PAIR_TESTS.add(pair_tests);
        let testable_ids = (ids.iter().zip(&testable))
            .filter(|&(_, &t)| t)
            .map(|(&id, _)| id)
            .collect();
        TechniqueResult::from_compact(
            self.name().to_owned(),
            compact_sets(&uf.groups(), ids),
            testable_ids,
            now,
            data.interner().clone(),
        )
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
