//! The ICMP rate-limiting technique (Vermeulen et al., PAM 2020): the
//! eighth resolution technique, and the only one that works on devices
//! with **every identifier service disabled**.
//!
//! A router enforces one ICMP rate limiter across all of its interfaces.
//! The campaign's rate-probe phase (`alias_scan::rate_probe`) records, per
//! address, which escalation rounds were lossy and how lossy — the
//! device-wide **loss signature**.  This technique then:
//!
//! 1. groups addresses by identical loss signature (candidate clusters —
//!    pure id-space bookkeeping over the campaign's [`AddrId`]s);
//! 2. verifies each cluster with live **group bursts**: up to sixteen
//!    addresses probed round robin at `R_fl / 2` each, `R_fl` the cluster's
//!    lowest lossy rate.  Interfaces of one device drain a shared bucket at
//!    `R_fl` or more and lose packets; an address alone on its limiter sees
//!    only its `R_fl / 2` stream, which its limiter — loss-free at that rate
//!    by construction of the signature — absorbs without loss.  The walk
//!    keeps a list of **roots**, one per limiter found so far: a member is
//!    tested against the most recent root alone, then against the others
//!    fifteen at a time, and becomes a root itself only when none of them
//!    shares its limiter, so the roots stay pairwise independent and a
//!    burst holds at most one pair that shares.  A burst is read by its
//!    total loss: none means no root in it shares the member's limiter, a
//!    root that lost is the one that does, and where only the member lost
//!    the burst's roots are bisected.  The verdict is exact, not
//!    statistical, because the simulator's limiter is deterministic;
//! 3. reports each root with the members that joined it as an alias set,
//!    in the pipeline's canonical order.
//!
//! Because the signal needs no SSH banner, BGP identifier, SNMP engine ID,
//! usable IPID counter or ICMP error source, the technique uniquely covers
//! the simulator's `SilentRouter` population.

use crate::baselines::resolve_counter;
use crate::midar::PAIR_SPACING;
use crate::technique::{ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_intern::{AddrId, CompactAliasSet};
use alias_netsim::ratelimit::{GroupBursts, GROUP_BURST_MAX};
use alias_netsim::{ProbeContext, Route, ServiceProtocol};
use alias_obs::LazyCounter;
use alias_scan::{CampaignData, PayloadRef};
use std::collections::BTreeMap;
use std::ops::Range;

/// Signature clusters of two or more members selected for verification.
/// Every counter below is a pure function of the campaign inputs.
static CANDIDATE_CLUSTERS: LazyCounter =
    resolve_counter("resolve.rate_candidate_clusters", "clusters");

/// Group bursts sent by the verification walk (the name predates group
/// bursts, when each burst tested one candidate pair).
static CANDIDATE_PAIRS: LazyCounter = resolve_counter("resolve.rate_candidate_pairs", "bursts");

/// Members that joined a root: each is one alias verdict.
static JOINT_ALIAS_VERDICTS: LazyCounter =
    resolve_counter("resolve.rate_joint_alias_verdicts", "verdicts");

/// Members the walk left alone: their burst budget ran out, or a burst
/// went unanswered, before every root was tested.
static GAVE_UP: LazyCounter = resolve_counter("resolve.rate_gave_up", "members");

/// Echo requests the walk's bursts sent (the campaign's probes are
/// `scan.probes_emitted`).
static ECHO_PROBES: LazyCounter = resolve_counter("resolve.rate_echo_probes", "probes");

/// One recorded lossy round: (round, rate_pps, sent, lost).  Sorted per
/// address, the vector of these is the device-wide loss signature.
type LossRound = (u8, u32, u16, u16);

/// Roots one group burst tests a member against: the roots' streams and
/// the member's fill a group.
const ROOTS_PER_BURST: usize = GROUP_BURST_MAX - 1;

/// Bursts one member may take.  A search takes one burst for the most
/// recent root, one per further chunk of [`ROOTS_PER_BURST`] roots, and at
/// most four more to bisect the chunk that holds its root; 64 covers a
/// cluster of 886 roots.  A member of a larger cluster is left alone
/// (`resolve.rate_gave_up`), which bounds the walk's cost per member.
const MEMBER_BURSTS: u32 = 64;

/// The ICMP rate-limiting technique.
///
/// Consumes the campaign's `IcmpRateLimit` observations and verifies
/// signature clusters with live group bursts: it probes, like the
/// baselines.
#[derive(Debug, Clone, Copy, Default)]
pub struct RateLimitTechnique;

impl ResolutionTechnique for RateLimitTechnique {
    fn name(&self) -> &'static str {
        "ratelimit"
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        // Per-address loss signatures, straight off the columnar store.
        let view = data
            .store()
            .select_protocol(ServiceProtocol::IcmpRateLimit, None);
        let mut signatures: BTreeMap<AddrId, Vec<LossRound>> = BTreeMap::new();
        for obs in view.iter() {
            let PayloadRef::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            } = obs.payload
            else {
                continue;
            };
            signatures
                .entry(obs.addr_id)
                .or_default()
                .push((round, rate_pps, sent, lost));
        }
        for signature in signatures.values_mut() {
            signature.sort_unstable();
        }
        let testable: Vec<AddrId> = signatures.keys().copied().collect();

        // Candidate clusters: identical signature, two or more members.
        let mut clusters: BTreeMap<Vec<LossRound>, Vec<AddrId>> = BTreeMap::new();
        for (id, signature) in signatures {
            clusters.entry(signature).or_default().push(id);
        }

        let interner = data.interner().clone();
        let mut walk = Walk {
            bursts: ctx.internet.group_bursts(),
            probe: ProbeContext {
                vantage: ctx.vantage,
                time: ctx.probe_start,
            },
            rate_pps: 0.0,
            count: 0,
            group: Vec::with_capacity(GROUP_BURST_MAX),
            spent: 0,
            sent: 0,
            probes: 0,
        };
        let mut sets: Vec<CompactAliasSet> = Vec::new();
        let (mut candidate_clusters, mut alias_verdicts, mut gave_up) = (0, 0, 0);
        for (signature, mut members) in clusters {
            if members.len() < 2 {
                continue;
            }
            candidate_clusters += 1;
            members.sort_unstable();
            // The group bursts run at half the cluster's lowest lossy rate
            // per address: a shared limiter stays lossy there, while an
            // independent same-signature limiter — loss-free below `rate_fl`
            // — absorbs its stream without loss.
            let (_, first_rate, first_sent, _) = signature[0];
            walk.rate_pps = f64::from(first_rate) / 2.0;
            walk.count = u32::from(first_sent);
            // `groups[k]` is root `k`'s set, the root first.
            let mut roots: Vec<Route> = Vec::new();
            let mut groups: Vec<Vec<AddrId>> = Vec::new();
            for id in members {
                let Some(route) = ctx.internet.route(interner.addr(id)) else {
                    gave_up += 1;
                    continue;
                };
                match walk.search(&roots, route) {
                    Ok(Some(k)) => {
                        alias_verdicts += 1;
                        groups[k].push(id);
                    }
                    Ok(None) => {
                        roots.push(route);
                        groups.push(vec![id]);
                    }
                    Err(GaveUp) => gave_up += 1,
                }
            }
            let aliased = groups.into_iter().filter(|group| group.len() >= 2);
            sets.extend(aliased.map(CompactAliasSet::from_ids));
        }
        // Added only when the walk ran, so a run with no candidate cluster
        // lists none of them.
        if candidate_clusters > 0 {
            CANDIDATE_CLUSTERS.add(candidate_clusters);
            CANDIDATE_PAIRS.add(walk.sent);
            JOINT_ALIAS_VERDICTS.add(alias_verdicts);
            GAVE_UP.add(gave_up);
            ECHO_PROBES.add(walk.probes);
        }

        let finished_at = walk.probe.time;
        TechniqueResult::from_compact(
            self.name().to_owned(),
            sets,
            testable,
            finished_at,
            interner,
        )
    }
}

/// A member the walk left alone before testing it against every root.
struct GaveUp;

/// How one group burst reads, by its total loss.
enum Verdict {
    /// Nobody lost: no root of the burst shares the member's limiter.
    Independent,
    /// The `k`th root of the burst lost: it shares the member's limiter.
    Root(usize),
    /// Only the member lost: one of the burst's roots shares its limiter.
    MemberLost,
}

/// The verification walk's probing state, across clusters.
struct Walk<'a> {
    bursts: GroupBursts<'a>,
    /// The vantage, and the time of the last burst.
    probe: ProbeContext,
    /// The current cluster's per-address rate and probes per address.
    rate_pps: f64,
    count: u32,
    /// The routes of one burst: the roots', then the member's.
    group: Vec<Route>,
    /// Bursts the current member took.
    spent: u32,
    /// Bursts sent, and echo requests.
    sent: u64,
    probes: u64,
}

impl Walk<'_> {
    /// The index of the root in `roots` that shares `member`'s limiter, or
    /// `None` if none does: the most recent root alone first, then the
    /// others [`ROOTS_PER_BURST`] at a time, newest first.
    fn search(&mut self, roots: &[Route], member: Route) -> Result<Option<usize>, GaveUp> {
        self.spent = 0;
        let (mut end, mut width) = (roots.len(), 1);
        while end > 0 {
            let start = end.saturating_sub(width);
            if let Some(k) = self.find_in(roots, start..end, member)? {
                return Ok(Some(k));
            }
            (end, width) = (start, ROOTS_PER_BURST);
        }
        Ok(None)
    }

    /// The root of `roots[range]` that shares `member`'s limiter, if any.
    /// Once a burst has shown that the range holds it, the range is
    /// bisected: its first half is probed, and a burst with no loss leaves
    /// the second.
    fn find_in(
        &mut self,
        roots: &[Route],
        mut range: Range<usize>,
        member: Route,
    ) -> Result<Option<usize>, GaveUp> {
        let mut holds = false;
        loop {
            if holds && range.len() == 1 {
                return Ok(Some(range.start));
            }
            let probed = match holds {
                true => range.start..range.start + range.len() / 2,
                false => range.clone(),
            };
            match self.burst(&roots[probed.clone()], member)? {
                Verdict::Independent if holds => range = probed.end..range.end,
                Verdict::Independent => return Ok(None),
                Verdict::Root(k) => return Ok(Some(probed.start + k)),
                Verdict::MemberLost => (range, holds) = (probed, true),
            }
        }
    }

    /// One group burst, `roots` then `member`, one `PAIR_SPACING` after the
    /// last.  The member's budget is counted first and refused past
    /// [`MEMBER_BURSTS`].
    fn burst(&mut self, roots: &[Route], member: Route) -> Result<Verdict, GaveUp> {
        self.spent += 1;
        if self.spent > MEMBER_BURSTS {
            return Err(GaveUp);
        }
        self.group.clear();
        self.group.extend_from_slice(roots);
        self.group.push(member);
        self.probe.time += PAIR_SPACING;
        self.sent += 1;
        self.probes += (self.group.len() as u64) * u64::from(self.count);
        let count = self.count;
        let replies = (self.bursts)
            .burst(&self.group, self.rate_pps, count, &self.probe)
            .ok_or(GaveUp)?;
        if replies.iter().all(|&r| r == count) {
            return Ok(Verdict::Independent);
        }
        let roots = &replies[..replies.len() - 1];
        Ok(match roots.iter().position(|&r| r < count) {
            Some(k) => Verdict::Root(k),
            None => Verdict::MemberLost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdentifierTechnique, ProbeTargets};
    use alias_netsim::{DeviceKind, Internet, InternetBuilder, InternetConfig, VantageKind};
    use alias_scan::campaign::{ActiveCampaign, CampaignConfig};
    use alias_scan::RateProbeConfig;
    use std::collections::BTreeSet;
    use std::net::IpAddr;

    fn silent_internet(seed: u64) -> Internet {
        let mut config = InternetConfig::tiny(seed);
        config.devices.silent_routers = 10;
        InternetBuilder::new(config).build()
    }

    fn rate_campaign(internet: &Internet) -> CampaignData {
        ActiveCampaign::new(CampaignConfig {
            rate_probe: Some(RateProbeConfig),
            ..Default::default()
        })
        .run(internet)
    }

    fn resolve(internet: &Internet, data: &CampaignData) -> TechniqueResult {
        let targets = ProbeTargets::new(data, internet);
        let ctx = TechniqueCtx {
            internet,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        RateLimitTechnique.resolve(data, &ctx)
    }

    #[test]
    fn every_reported_set_is_one_ground_truth_device() {
        let internet = silent_internet(7);
        let data = rate_campaign(&internet);
        let result = resolve(&internet, &data);
        assert!(result.set_count() > 0);
        for set in result.alias_sets() {
            let devices: BTreeSet<_> = set
                .iter()
                .map(|&addr| {
                    internet
                        .ground_truth()
                        .device_of(addr)
                        .expect("known address")
                })
                .collect();
            assert_eq!(devices.len(), 1, "impure alias set {set:?}");
        }
    }

    /// Every address of a device answers from the device's limiter, so
    /// its signature is the device's: the walk, which tests each member
    /// against every root of its cluster, must report exactly the devices
    /// with two or more testable addresses, and give up on no member.
    #[test]
    fn the_walk_reports_exactly_the_multi_address_lossy_devices() {
        let internet = silent_internet(7);
        let data = rate_campaign(&internet);
        let (result, gave_up) = std::thread::scope(|scope| {
            let run = scope.spawn(|| {
                let result = resolve(&internet, &data);
                let counters = alias_obs::registry().snapshot().counters;
                let gave_up = counters.iter().find(|c| c.name == "resolve.rate_gave_up");
                (result, gave_up.expect("the walk ran").value)
            });
            run.join().expect("the technique runs")
        });
        let truth = internet.ground_truth();
        let mut by_device: BTreeMap<_, BTreeSet<IpAddr>> = BTreeMap::new();
        for addr in result.testable() {
            let device = truth.device_of(addr).expect("known address");
            by_device.entry(device).or_default().insert(addr);
        }
        let expected: BTreeSet<BTreeSet<IpAddr>> = (by_device.into_values())
            .filter(|addrs| addrs.len() >= 2)
            .collect();
        assert!(expected.len() >= 2);
        assert_eq!(
            result.alias_sets().into_iter().collect::<BTreeSet<_>>(),
            expected
        );
        assert_eq!(gave_up, 0);
    }

    #[test]
    fn silent_routers_are_resolved_by_rate_limiting_alone() {
        // The tentpole scenario: devices with no SSH, BGP, SNMP, usable
        // IPID or ICMP error source.  The identifier techniques cannot
        // even make them testable; the rate-limiting technique aliases
        // their (ping-visible, lossy) IPv4 interfaces completely.
        let internet = silent_internet(7);
        let data = rate_campaign(&internet);
        let result = resolve(&internet, &data);

        let mut silent_addrs: Vec<IpAddr> = internet
            .devices()
            .filter(|d| d.kind() == DeviceKind::SilentRouter)
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        silent_addrs.sort_unstable();
        assert!(!silent_addrs.is_empty());

        // Every multi-interface silent router appears as one alias set
        // covering all of its IPv4 interfaces.
        let sets = result.alias_sets();
        for device in internet.devices() {
            if device.kind() != DeviceKind::SilentRouter {
                continue;
            }
            let v4: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
            if v4.len() < 2 {
                continue;
            }
            assert!(
                sets.iter().any(|s| v4.iter().all(|a| s.contains(a))),
                "silent router {:?} not aliased",
                device.id()
            );
        }

        // The identifier techniques never even see those addresses.
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        for technique in [
            IdentifierTechnique::ssh(),
            IdentifierTechnique::bgp(),
            IdentifierTechnique::snmpv3(),
        ] {
            let other = technique.resolve(&data, &ctx);
            assert!(
                other
                    .testable()
                    .iter()
                    .all(|a| silent_addrs.binary_search(a).is_err()),
                "{} should not cover silent routers",
                other.technique
            );
        }
    }

    #[test]
    fn no_rate_observations_means_an_empty_result() {
        // Campaigns without the opt-in probe phase give the technique
        // nothing to work with: no testable addresses, no sets.
        let internet = silent_internet(7);
        let data = ActiveCampaign::new(CampaignConfig::default()).run(&internet);
        let result = resolve(&internet, &data);
        assert_eq!(result.set_count(), 0);
        assert_eq!(result.testable_count(), 0);
    }
}
