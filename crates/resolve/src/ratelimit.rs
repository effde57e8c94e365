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
//! 2. verifies candidates with a live **joint burst**: probing two
//!    addresses in an interleaved stream at the cluster's lowest lossy
//!    rate `R_fl`.  Interfaces of one device drain a shared bucket and
//!    keep losing packets; interfaces of two different devices each see
//!    only an `R_fl / 2` stream, which their limiters — loss-free at that
//!    rate by construction of the signature — absorb without loss.  The
//!    verdict is exact, not statistical, because the simulator's limiter
//!    is deterministic;
//! 3. unions verified pairs and reports groups of two or more as alias
//!    sets, in the pipeline's canonical order.
//!
//! Because the signal needs no SSH banner, BGP identifier, SNMP engine ID,
//! usable IPID counter or ICMP error source, the technique uniquely covers
//! the simulator's `SilentRouter` population.

use crate::technique::{DataRequirement, ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::intern::{AddrId, CompactAliasSet};
use alias_core::union_find::UnionFind;
use alias_netsim::{ProbeContext, ServiceProtocol, SimTime};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::{CampaignData, PayloadRef};
use std::collections::BTreeMap;

/// Signature clusters of two or more members selected for verification.
/// All three counters below are pure functions of the campaign inputs.
static CANDIDATE_CLUSTERS: LazyCounter = LazyCounter::new(
    "resolve.rate_candidate_clusters",
    DeterminismClass::Deterministic,
    "clusters",
    "resolve",
);

/// Candidate pairs batched for joint-burst verification.
static CANDIDATE_PAIRS: LazyCounter = LazyCounter::new(
    "resolve.rate_candidate_pairs",
    DeterminismClass::Deterministic,
    "pairs",
    "resolve",
);

/// Joint bursts whose verdict was alias evidence (a union was applied).
static JOINT_ALIAS_VERDICTS: LazyCounter = LazyCounter::new(
    "resolve.rate_joint_alias_verdicts",
    DeterminismClass::Deterministic,
    "verdicts",
    "resolve",
);

/// One recorded lossy round: (round, rate_pps, sent, lost).  Sorted per
/// address, the vector of these is the device-wide loss signature.
type LossRound = (u8, u32, u16, u16);

/// The ICMP rate-limiting technique.
///
/// Consumes the campaign's `IcmpRateLimit` observations and verifies
/// signature clusters with live joint bursts, so it declares both
/// [`DataRequirement::Observations`] and [`DataRequirement::LiveProbing`]
/// — the resolver schedules it serially like the other probing
/// techniques.
#[derive(Debug, Clone)]
pub struct RateLimitTechnique {
    /// Simulated pause between consecutive joint bursts.
    pub pair_spacing: SimTime,
    /// How many distinct union-find roots (most recent first) a new
    /// cluster member is tested against before giving up.  Interfaces of
    /// one device sort adjacently most of the time; a little look-back
    /// recovers the cases where two same-signature devices interleave.
    pub recovery_roots: usize,
}

impl Default for RateLimitTechnique {
    fn default() -> Self {
        RateLimitTechnique {
            pair_spacing: SimTime(200),
            recovery_roots: 3,
        }
    }
}

impl RateLimitTechnique {
    /// The default signature-cluster + joint-burst pipeline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResolutionTechnique for RateLimitTechnique {
    fn name(&self) -> &'static str {
        "ratelimit"
    }

    fn required_sources(&self) -> Vec<DataRequirement> {
        vec![
            DataRequirement::Observations(ServiceProtocol::IcmpRateLimit),
            DataRequirement::LiveProbing,
        ]
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
        let mut now = ctx.probe_start;
        let mut sets: Vec<CompactAliasSet> = Vec::new();
        for (signature, mut members) in clusters {
            if members.len() < 2 {
                continue;
            }
            CANDIDATE_CLUSTERS.incr();
            members.sort_unstable();
            // The joint test runs at the cluster's lowest lossy rate: a
            // shared limiter stays lossy there, while two independent
            // same-signature limiters — loss-free below `rate_fl` — each
            // absorb their half-rate stream without loss.
            let (_, first_rate, first_sent, _) = signature[0];
            let rate_fl = f64::from(first_rate);
            let count = u32::from(first_sent);
            // Round-based pair walk: every round picks each pending member's
            // next candidate pair against the forest as of the round start,
            // then probes the pairs and applies the verdicts in batch order,
            // one `pair_spacing` step per pair.  The joint burst is a pure
            // function of the substrate, so a verdict applied before the
            // next pair is probed cannot change that pair's outcome.
            let mut uf = UnionFind::new(members.len());
            let mut tested: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
            let mut done: Vec<bool> = vec![false; members.len()];
            loop {
                let mut batch: Vec<(usize, usize, usize)> = Vec::new();
                for i in 1..members.len() {
                    if done[i] {
                        continue;
                    }
                    let my_root = uf.find(i);
                    let candidate = (0..i).rev().find_map(|j| {
                        let root = uf.find(j);
                        (root != my_root && !tested[i].contains(&root)).then_some((j, root))
                    });
                    match candidate {
                        Some((j, root)) => batch.push((i, j, root)),
                        None => done[i] = true,
                    }
                }
                if batch.is_empty() {
                    break;
                }
                CANDIDATE_PAIRS.add(batch.len() as u64);
                for (i, j, root) in batch {
                    now += self.pair_spacing;
                    let probe_ctx = ProbeContext {
                        vantage: ctx.vantage,
                        time: now,
                    };
                    let replies = ctx.internet.icmp_joint_rate_burst(
                        interner.addr(members[j]),
                        interner.addr(members[i]),
                        rate_fl,
                        count,
                        &probe_ctx,
                    );
                    tested[i].push(root);
                    match replies {
                        // Any joint loss at `rate_fl` is alias evidence:
                        // two independent limiters of this signature lose
                        // nothing at half that rate.
                        Some((replies_a, replies_b)) if replies_a + replies_b < 2 * count => {
                            JOINT_ALIAS_VERDICTS.incr();
                            uf.union(j, i);
                            done[i] = true;
                        }
                        Some(_) if tested[i].len() >= self.recovery_roots => {
                            done[i] = true;
                        }
                        Some(_) => {}
                        // Unresponsive pair: the root counts as visited
                        // but not against the recovery budget.
                        None => {}
                    }
                }
            }
            for group in uf.groups() {
                if group.len() >= 2 {
                    sets.push(CompactAliasSet::from_ids(
                        group.into_iter().map(|k| members[k]).collect(),
                    ));
                }
            }
        }

        TechniqueResult::from_compact(self.name().to_owned(), sets, testable, now, interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdentifierTechnique, ProbeTargets};
    use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
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
            rate_probe: Some(RateProbeConfig::default()),
            ..Default::default()
        })
        .run(internet)
    }

    fn resolve(internet: &Internet, data: &CampaignData) -> TechniqueResult {
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let targets = ProbeTargets::new(data, internet);
        let ctx = TechniqueCtx {
            internet,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        RateLimitTechnique::new().resolve(data, &ctx)
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
                .map(|&addr| internet.lookup(addr).expect("known address").0)
                .collect();
            assert_eq!(devices.len(), 1, "impure alias set {set:?}");
        }
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
            .iter()
            .filter(|d| d.kind == DeviceKind::SilentRouter)
            .flat_map(|d| d.ipv4_addrs().into_iter().map(IpAddr::V4))
            .collect();
        silent_addrs.sort_unstable();
        assert!(!silent_addrs.is_empty());

        // Every multi-interface silent router appears as one alias set
        // covering all of its IPv4 interfaces.
        let sets = result.alias_sets();
        for device in internet.devices() {
            if device.kind != DeviceKind::SilentRouter {
                continue;
            }
            let v4: Vec<IpAddr> = device.ipv4_addrs().into_iter().map(IpAddr::V4).collect();
            if v4.len() < 2 {
                continue;
            }
            assert!(
                sets.iter().any(|s| v4.iter().all(|a| s.contains(a))),
                "silent router {:?} not aliased",
                device.id
            );
        }

        // The identifier techniques never even see those addresses.
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
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
