//! The classic baselines as techniques: MIDAR, Ally, Speedtrap and
//! iffinder, wrapped behind [`ResolutionTechnique`] so they are
//! interchangeable with the identifier techniques.
//!
//! All four perform **live follow-up probing** against the measurement
//! substrate (declared via [`DataRequirement::LiveProbing`]), starting at
//! `ctx.probe_start` with targets drawn from the campaign's responsive
//! addresses.  Probing advances shared per-device counter state, so the
//! [`Resolver`](crate::Resolver) runs them serially in registration order —
//! which keeps every output byte-identical for any thread count.

use crate::technique::{DataRequirement, ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_core::union_find::UnionFind;
use alias_midar::ally::{AllyTester, AllyVerdict};
use alias_midar::iffinder::iffinder_scan;
use alias_midar::speedtrap::speedtrap_group;
use alias_midar::{Midar, MidarConfig};
use alias_netsim::SimTime;
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::ipid_probe::{IpidProber, IpidProberConfig, ResolvedTarget};
use alias_scan::CampaignData;
use std::net::IpAddr;

/// Pair tests run by the Ally sweep (serial, so a pure function of the
/// campaign's addresses).
static ALLY_PAIR_TESTS: LazyCounter = LazyCounter::new(
    "ally.pair_tests",
    DeterminismClass::Deterministic,
    "pairs",
    "resolve",
);

/// Sorted, deduplicated campaign addresses of one family — the target list
/// the probing baselines work from.  The campaign interner already holds
/// every observed address exactly once, so this is a filter + sort of the
/// id table rather than a scan over all observations.
fn campaign_targets(data: &CampaignData, ipv6: bool) -> Vec<IpAddr> {
    let mut addrs: Vec<IpAddr> = data
        .interner()
        .addrs()
        .iter()
        .copied()
        .filter(|a| a.is_ipv6() == ipv6)
        .collect();
    addrs.sort_unstable();
    addrs
}

/// Intern one probe-derived address set against the campaign interner.
/// Probing baselines only reason about campaign targets, so every member
/// is already interned; the panic documents that invariant.
fn compact_set<'a>(
    addrs: impl IntoIterator<Item = &'a IpAddr>,
    interner: &AddrInterner,
) -> CompactAliasSet {
    CompactAliasSet::from_ids(
        addrs
            .into_iter()
            .map(|&addr| {
                interner
                    .get(addr)
                    .expect("probing baselines only report campaign addresses")
            })
            .collect(),
    )
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
        let mut targets = campaign_targets(data, false);
        if let Some(cap) = self.max_targets {
            targets.truncate(cap);
        }
        let outcome =
            Midar::new(self.config.clone()).resolve(ctx.internet, &targets, ctx.probe_start);
        let interner = data.interner().clone();
        let sets = outcome
            .alias_sets
            .iter()
            .map(|set| compact_set(set, &interner))
            .collect();
        let testable = outcome
            .testable
            .iter()
            .map(|&addr| {
                interner
                    .get(addr)
                    .expect("probing baselines only report campaign addresses")
            })
            .collect();
        TechniqueResult::from_compact(
            self.name().to_owned(),
            sets,
            testable,
            outcome.finished_at,
            interner,
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
        let targets = campaign_targets(data, false);
        let interner = data.interner().clone();
        // Targets are campaign addresses, so each has an id already; the
        // sweep tracks testability per target index and resolves to ids at
        // the end.
        let target_ids: Vec<AddrId> = targets
            .iter()
            .map(|&addr| {
                interner
                    .get(addr)
                    .expect("probing baselines only report campaign addresses")
            })
            .collect();
        // Each target is resolved against the IP index once, and every pair
        // test writes into the tester's one pair of sample buffers.
        let resolved: Vec<ResolvedTarget> = targets
            .iter()
            .map(|&addr| ctx.internet.lookup(addr))
            .collect();
        let mut tester = AllyTester::new();
        let mut pair_tests = 0u64;
        let mut uf = UnionFind::new(targets.len());
        let mut testable = vec![false; targets.len()];
        let mut now = ctx.probe_start;
        for i in 0..targets.len() {
            let window_end = (i + 1 + self.window).min(targets.len());
            for j in i + 1..window_end {
                now += self.pair_spacing;
                pair_tests += 1;
                let pair = [resolved[i], resolved[j]];
                match tester.test(ctx.internet, pair, ctx.vantage, now) {
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
        let alias_sets = uf
            .groups()
            .into_iter()
            .filter(|g| g.len() >= 2)
            .map(|g| CompactAliasSet::from_ids(g.into_iter().map(|i| target_ids[i]).collect()))
            .collect();
        let testable_ids = target_ids
            .iter()
            .zip(&testable)
            .filter(|&(_, &t)| t)
            .map(|(&id, _)| id)
            .collect();
        TechniqueResult::from_compact(
            self.name().to_owned(),
            alias_sets,
            testable_ids,
            now,
            interner,
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
        let targets = campaign_targets(data, true);
        let prober = IpidProber::new(IpidProberConfig {
            rounds: self.rounds,
            round_spacing: self.round_spacing,
            rate_pps: self.rate_pps,
        });
        let series =
            prober.collect_round_robin(ctx.internet, &targets, ctx.vantage, ctx.probe_start);
        let finished_at = series
            .iter()
            .flat_map(|s| s.samples.last().map(|x| x.time))
            .max()
            .unwrap_or(ctx.probe_start);
        let interner = data.interner().clone();
        let testable = series
            .iter()
            .filter(|s| s.is_usable())
            .map(|s| {
                interner
                    .get(s.addr)
                    .expect("probing baselines only report campaign addresses")
            })
            .collect();
        let sets = speedtrap_group(&series, self.max_velocity)
            .iter()
            .map(|set| compact_set(set, &interner))
            .collect();
        TechniqueResult::from_compact(
            self.name().to_owned(),
            sets,
            testable,
            finished_at,
            interner,
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
        let targets = campaign_targets(data, false);
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
            data.interner().clone(),
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
    fn probing_baselines_only_claim_true_aliases() {
        let (internet, data) = setup(77);
        let truth = internet.ground_truth();
        let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            threads: 1,
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
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: VantageKind::SingleVp,
            threads: 1,
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
