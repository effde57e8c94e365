//! The classic baselines as techniques: MIDAR, Ally, Speedtrap and
//! iffinder, wrapped behind [`ResolutionTechnique`] so they are
//! interchangeable with the identifier techniques.
//!
//! All four perform **live follow-up probing** against the measurement
//! substrate (declared via [`DataRequirement::LiveProbing`]), starting at
//! `ctx.probe_start` with targets drawn from the campaign's responsive
//! addresses — one address-sorted list per family, shared by all four
//! through [`ProbeTargets`], so a technique works on positions in that
//! list and hands back ids by one array read.  Probing advances shared
//! per-device counter state, so the [`Resolver`](crate::Resolver) runs
//! them one at a time in registration order, and each technique holds the
//! substrate's one [`ProbeSession`](alias_netsim::ProbeSession) for its
//! whole sweep.

use crate::technique::{DataRequirement, ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_core::union_find::UnionFind;
use alias_midar::ally::{AllyTester, AllyVerdict};
use alias_midar::iffinder::iffinder_scan;
use alias_midar::speedtrap::speedtrap_group;
use alias_midar::{Midar, MidarConfig};
use alias_netsim::{Internet, SimTime};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::ipid_probe::{is_usable, IpidProber, IpidProberConfig, ResolvedTarget};
use alias_scan::CampaignData;
use std::net::IpAddr;
use std::sync::OnceLock;

/// Pair tests run by the Ally sweep (serial, so a pure function of the
/// campaign's addresses).
static ALLY_PAIR_TESTS: LazyCounter = LazyCounter::new(
    "ally.pair_tests",
    DeterminismClass::Deterministic,
    "pairs",
    "resolve",
);

/// The campaign's addresses of one family as probe targets: two parallel
/// arrays, to which a baseline adds its own (a series or a testable flag
/// per target).
#[derive(Debug)]
pub struct FamilyTargets {
    /// The campaign ids of the family's addresses, in address order.
    pub ids: Vec<AddrId>,
    /// Each target's interface, resolved against the IP index once.
    pub resolved: Vec<ResolvedTarget>,
}

/// The target lists the probing baselines work from: the campaign's
/// distinct addresses per family, sorted by address, as ids with their
/// resolved interfaces.  One instance serves a whole
/// [`Resolver::resolve_data`](crate::Resolver::resolve_data); each family
/// is collected, sorted and looked up the first time a technique asks for
/// it, so a run with no probing baseline never pays for it and a run with
/// four pays once.
pub struct ProbeTargets<'a> {
    data: &'a CampaignData,
    internet: &'a Internet,
    ipv4: OnceLock<FamilyTargets>,
    ipv6: OnceLock<FamilyTargets>,
}

impl<'a> ProbeTargets<'a> {
    /// Target lists over `data`'s addresses, resolved against `internet`.
    pub fn new(data: &'a CampaignData, internet: &'a Internet) -> Self {
        ProbeTargets {
            data,
            internet,
            ipv4: OnceLock::new(),
            ipv6: OnceLock::new(),
        }
    }

    /// The campaign's IPv4 addresses.
    pub fn ipv4(&self) -> &FamilyTargets {
        self.ipv4.get_or_init(|| self.family(false))
    }

    /// The campaign's IPv6 addresses.
    pub fn ipv6(&self) -> &FamilyTargets {
        self.ipv6.get_or_init(|| self.family(true))
    }

    /// The campaign interner already holds every observed address exactly
    /// once, so this is a filter + sort of the id table rather than a scan
    /// over all observations.  Within a family, address order is the order
    /// of the addresses' bits, which sorts as plain integers.
    fn family(&self, ipv6: bool) -> FamilyTargets {
        let interner = self.data.interner();
        let mut sorted: Vec<(u128, AddrId)> = (interner.addrs().iter())
            .enumerate()
            .filter(|(_, addr)| addr.is_ipv6() == ipv6)
            .map(|(id, addr)| {
                let bits = match *addr {
                    IpAddr::V4(v4) => u128::from(u32::from(v4)),
                    IpAddr::V6(v6) => u128::from(v6),
                };
                (bits, AddrId(id as u32))
            })
            .collect();
        sorted.sort_unstable();
        let ids: Vec<AddrId> = sorted.into_iter().map(|(_, id)| id).collect();
        FamilyTargets {
            resolved: (ids.iter())
                .map(|&id| self.internet.lookup(interner.addr(id)))
                .collect(),
            ids,
        }
    }
}

/// Index groups over `ids` (a baseline's alias sets, by target position)
/// as id-space sets.
fn compact_sets(groups: &[Vec<usize>], ids: &[AddrId]) -> Vec<CompactAliasSet> {
    groups
        .iter()
        .map(|group| CompactAliasSet::from_ids(group.iter().map(|&i| ids[i]).collect()))
        .collect()
}

/// The MIDAR baseline: estimation → discovery → elimination over the
/// campaign's responsive IPv4 addresses (wraps [`alias_midar::Midar`]).
#[derive(Debug, Clone, Default)]
pub struct MidarTechnique {
    /// The wrapped pipeline's configuration.
    pub config: MidarConfig,
    /// Optional cap on the number of (sorted) targets probed, to bound the
    /// simulated run time on large campaigns.  `None` probes everything.
    pub max_targets: Option<usize>,
}

impl MidarTechnique {
    /// The default MIDAR pipeline over every responsive IPv4 address.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResolutionTechnique for MidarTechnique {
    fn name(&self) -> &'static str {
        "midar"
    }

    fn required_sources(&self) -> Vec<DataRequirement> {
        vec![DataRequirement::LiveProbing]
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let family = ctx.targets.ipv4();
        let cap = self.max_targets.unwrap_or(usize::MAX).min(family.ids.len());
        let (ids, resolved) = (&family.ids[..cap], &family.resolved[..cap]);
        let outcome =
            Midar::new(self.config.clone()).resolve(ctx.internet, resolved, ctx.probe_start);
        TechniqueResult::from_compact(
            self.name().to_owned(),
            compact_sets(&outcome.alias_sets, ids),
            outcome.testable.iter().map(|&i| ids[i]).collect(),
            outcome.finished_at,
            data.interner().clone(),
        )
    }
}

/// The Ally baseline: pairwise shared-counter tests over a sliding window
/// of the campaign's (sorted) responsive IPv4 addresses, confirmed pairs
/// merged with union–find.
///
/// Exhaustive pairwise Ally is quadratic and was never run at Internet
/// scale; like MIDAR's discovery stage, this implementation only tests
/// pairs within `window` positions of each other.  Numerically close
/// addresses are the classic alias candidates (router interfaces drawn
/// from the same prefix), so the window catches most of what exhaustive
/// testing would.
#[derive(Debug, Clone)]
pub struct AllyTechnique {
    /// Width of the sliding window over the sorted target list.
    pub window: usize,
    /// Simulated pause between consecutive pair tests.
    pub pair_spacing: SimTime,
}

impl Default for AllyTechnique {
    fn default() -> Self {
        AllyTechnique {
            window: 4,
            pair_spacing: SimTime(200),
        }
    }
}

impl AllyTechnique {
    /// The default windowed Ally sweep.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResolutionTechnique for AllyTechnique {
    fn name(&self) -> &'static str {
        "ally"
    }

    fn required_sources(&self) -> Vec<DataRequirement> {
        vec![DataRequirement::LiveProbing]
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let FamilyTargets { ids, resolved } = ctx.targets.ipv4();
        // One session and one tester for the whole sweep: every pair test
        // writes into the tester's one pair of sample buffers.
        let mut session = ctx.internet.probe_session();
        let mut tester = AllyTester::new();
        let mut pair_tests = 0u64;
        let mut uf = UnionFind::new(ids.len());
        let mut testable = vec![false; ids.len()];
        let mut now = ctx.probe_start;
        for i in 0..ids.len() {
            let window_end = (i + 1 + self.window).min(ids.len());
            for j in i + 1..window_end {
                now += self.pair_spacing;
                pair_tests += 1;
                let pair = [resolved[i], resolved[j]];
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
        let groups: Vec<Vec<usize>> = (uf.groups().into_iter()).filter(|g| g.len() >= 2).collect();
        let testable_ids = (ids.iter().zip(&testable))
            .filter(|&(_, &t)| t)
            .map(|(&id, _)| id)
            .collect();
        TechniqueResult::from_compact(
            self.name().to_owned(),
            compact_sets(&groups, ids),
            testable_ids,
            now,
            data.interner().clone(),
        )
    }
}

/// The Speedtrap baseline: fragment-identifier time series of the
/// campaign's responsive IPv6 addresses, grouped by the monotonic bounds
/// test (wraps [`alias_midar::speedtrap::speedtrap_group`]).
#[derive(Debug, Clone)]
pub struct SpeedtrapTechnique {
    /// Sampling rounds per target.
    pub rounds: usize,
    /// Spacing between successive rounds.
    pub round_spacing: SimTime,
    /// Probe rate in packets per second.
    pub rate_pps: f64,
    /// Highest counter velocity (increments/second) considered testable.
    pub max_velocity: f64,
}

impl Default for SpeedtrapTechnique {
    fn default() -> Self {
        SpeedtrapTechnique {
            rounds: 6,
            round_spacing: SimTime::from_secs(10),
            rate_pps: 5_000.0,
            max_velocity: 1_500.0,
        }
    }
}

impl SpeedtrapTechnique {
    /// The default Speedtrap sweep.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResolutionTechnique for SpeedtrapTechnique {
    fn name(&self) -> &'static str {
        "speedtrap"
    }

    fn required_sources(&self) -> Vec<DataRequirement> {
        vec![DataRequirement::LiveProbing]
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let FamilyTargets { ids, resolved } = ctx.targets.ipv6();
        let prober = IpidProber::new(IpidProberConfig {
            rounds: self.rounds,
            round_spacing: self.round_spacing,
            rate_pps: self.rate_pps,
        });
        let series = prober.collect_round_robin(
            &mut ctx.internet.probe_session(),
            resolved,
            ctx.vantage,
            ctx.probe_start,
        );
        let finished_at = series
            .iter()
            .flat_map(|s| s.last().map(|x| x.time))
            .max()
            .unwrap_or(ctx.probe_start);
        let testable = (ids.iter().zip(&series))
            .filter(|(_, s)| is_usable(s))
            .map(|(&id, _)| id)
            .collect();
        TechniqueResult::from_compact(
            self.name().to_owned(),
            compact_sets(&speedtrap_group(&series, self.max_velocity), ids),
            testable,
            finished_at,
            data.interner().clone(),
        )
    }
}

/// The iffinder baseline: UDP datagrams to a closed port on every
/// responsive IPv4 address, aliasing addresses whose ICMP error comes back
/// from a different source (wraps [`alias_midar::iffinder::iffinder_scan`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct IffinderTechnique;

impl IffinderTechnique {
    /// The common-source-address sweep.
    pub fn new() -> Self {
        IffinderTechnique
    }
}

impl ResolutionTechnique for IffinderTechnique {
    fn name(&self) -> &'static str {
        "iffinder"
    }

    fn required_sources(&self) -> Vec<DataRequirement> {
        vec![DataRequirement::LiveProbing]
    }

    fn resolve(&self, data: &CampaignData, ctx: &TechniqueCtx<'_>) -> TechniqueResult {
        let interner = data.interner();
        let targets: Vec<IpAddr> = (ctx.targets.ipv4().ids.iter())
            .map(|&id| interner.addr(id))
            .collect();
        let outcome = iffinder_scan(ctx.internet, &targets, ctx.vantage, ctx.probe_start);
        // Positive alias evidence is the only per-address signal the scan
        // reports, so "testable" is the addresses involved in a discovered
        // pair.  ICMP errors can arrive from interfaces the campaign never
        // observed, so this goes through the address entry point, which
        // extends a private interner copy for novel sources.
        let testable: Vec<IpAddr> = outcome.pairs.iter().flat_map(|(a, b)| [*a, *b]).collect();
        TechniqueResult::from_addr_sets(
            self.name().to_owned(),
            outcome
                .alias_sets
                .into_iter()
                .map(|set| set.into_iter().collect())
                .collect(),
            testable,
            // iffinder_scan advances the clock by one millisecond per
            // probed target.
            ctx.probe_start + SimTime(targets.len() as u64),
            interner.clone(),
        )
    }
}

/// Precision of a technique's sets against ground truth: used by tests and
/// examples to show every baseline keeps its classic "precise but shallow"
/// behaviour when run through the trait-object path.  Takes id-space sets
/// plus the interner they are relative to (a [`TechniqueResult`]'s
/// `compact_sets()` / `interner()` pair plugs straight in).
pub fn true_pair_fraction(
    sets: &[CompactAliasSet],
    interner: &AddrInterner,
    truth: &alias_netsim::GroundTruth,
) -> f64 {
    let mut pairs = 0usize;
    let mut correct = 0usize;
    for set in sets {
        let members = set.ids();
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                pairs += 1;
                if truth.are_aliases(interner.addr(members[i]), interner.addr(members[j])) {
                    correct += 1;
                }
            }
        }
    }
    if pairs == 0 {
        1.0
    } else {
        correct as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
    use alias_netsim::{InternetBuilder, InternetConfig, VantageKind};
    use alias_scan::campaign::ActiveCampaign;

    fn setup(seed: u64) -> (alias_netsim::Internet, CampaignData) {
        let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
        let data = ActiveCampaign::with_defaults(&internet).run(&internet);
        (internet, data)
    }

    #[test]
    fn probe_targets_are_the_campaign_addresses_in_address_order() {
        // What every baseline derived for itself before the list was
        // shared: the distinct observed addresses of one family, sorted.
        let (internet, data) = setup(77);
        let targets = ProbeTargets::new(&data, &internet);
        for (family, ipv6) in [(targets.ipv4(), false), (targets.ipv6(), true)] {
            let mut observed: Vec<IpAddr> = (data.store().to_observations())
                .iter()
                .map(|o| o.addr)
                .filter(|a| a.is_ipv6() == ipv6)
                .collect();
            observed.sort_unstable();
            observed.dedup();
            assert!(observed.len() > 1, "ipv6={ipv6}");
            let addrs: Vec<IpAddr> = (family.ids.iter())
                .map(|&id| data.interner().addr(id))
                .collect();
            assert_eq!(addrs, observed);
            let lookups: Vec<ResolvedTarget> = addrs.iter().map(|&a| internet.lookup(a)).collect();
            assert_eq!(family.resolved, lookups);
            assert!(family.resolved.iter().all(Option::is_some));
        }
    }

    #[test]
    fn probing_baselines_only_claim_true_aliases() {
        let (internet, data) = setup(77);
        let truth = internet.ground_truth();
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        let techniques: Vec<Box<dyn ResolutionTechnique>> = vec![
            Box::new(MidarTechnique::new()),
            Box::new(AllyTechnique::new()),
            Box::new(SpeedtrapTechnique::new()),
            Box::new(IffinderTechnique::new()),
        ];
        for technique in &techniques {
            assert_eq!(
                technique.required_sources(),
                vec![DataRequirement::LiveProbing]
            );
            let result = technique.resolve(&data, &ctx);
            assert_eq!(result.technique, technique.name());
            let precision = true_pair_fraction(result.compact_sets(), result.interner(), &truth);
            assert!(
                precision > 0.95,
                "{}: precision {:.3} over {} sets",
                technique.name(),
                precision,
                result.set_count()
            );
        }
    }

    #[test]
    fn speedtrap_groups_ipv6_counters() {
        let (internet, data) = setup(78);
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            targets: &targets,
        };
        let result = SpeedtrapTechnique::new().resolve(&data, &ctx);
        // Every address it reasons about is IPv6.
        assert!(result.testable().iter().all(|a| a.is_ipv6()));
        assert!(result.alias_sets().iter().flatten().all(|a| a.is_ipv6()));
        assert!(
            result.testable_count() > 0,
            "the tiny campaign observes IPv6 addresses with usable counters"
        );
    }
}
