//! The [`Resolver`]: one builder-style entry point orchestrating scan,
//! per-technique resolution and cross-technique merging.

use crate::baselines::ProbeTargets;
use crate::report::{
    CoverageStats, ResolutionReport, TechniqueAgreement, TechniqueCoverage, TechniqueTiming,
};
use crate::technique::{ResolutionTechnique, TechniqueCtx, TechniqueResult};
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_core::merge::{merge_labeled_compact, MergedSet};
use alias_core::validation::{common_ids, cross_validate};
use alias_netsim::Internet;
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::campaign::{ActiveCampaign, CampaignConfig};
use alias_scan::CampaignData;
use std::sync::Arc;

/// Technique pairs whose agreement the coverage statistics computed: one
/// per unordered pair of registered techniques.
static AGREEMENT_PAIRS: LazyCounter = LazyCounter::new(
    "resolve.agreement_pairs",
    DeterminismClass::Deterministic,
    "pairs",
    "resolve",
);

/// Builder for a [`Resolver`].
pub struct ResolverBuilder {
    techniques: Vec<Box<dyn ResolutionTechnique>>,
    extraction: ExtractionConfig,
    campaign: CampaignConfig,
    threads: usize,
}

impl ResolverBuilder {
    fn new() -> Self {
        ResolverBuilder {
            techniques: Vec::new(),
            extraction: ExtractionConfig::paper(),
            campaign: CampaignConfig::default(),
            threads: alias_scan::threads_from_env(),
        }
    }

    /// Register a technique (resolution order follows registration order).
    ///
    /// Any [`ResolutionTechnique`] implementation plugs in here — the
    /// built-ins and your own.  The worked example below wires up the
    /// ICMP rate-limiting technique end to end: a population with silent
    /// routers, a campaign that runs the escalating-rate probe phase, and
    /// a resolver combining the paper's identifier techniques with
    /// [`RateLimitTechnique`](crate::RateLimitTechnique):
    ///
    /// ```
    /// use alias_netsim::{InternetBuilder, InternetConfig};
    /// use alias_resolve::{RateLimitTechnique, Resolver};
    /// use alias_scan::campaign::CampaignConfig;
    /// use alias_scan::RateProbeConfig;
    ///
    /// // A population containing routers with every identifier service
    /// // disabled — only their ICMP rate limiter gives them away.
    /// let mut config = InternetConfig::tiny(7);
    /// config.devices.silent_routers = 6;
    /// let internet = InternetBuilder::new(config).build();
    ///
    /// // The campaign must opt in to the rate-probe phase; without it
    /// // the technique has no observations to correlate.
    /// let campaign = CampaignConfig {
    ///     rate_probe: Some(RateProbeConfig::default()),
    ///     ..Default::default()
    /// };
    ///
    /// let report = Resolver::builder()
    ///     .paper_techniques()
    ///     .technique(RateLimitTechnique::new())
    ///     .campaign(campaign)
    ///     .build()
    ///     .resolve(&internet);
    ///
    /// let ratelimit = report.technique("ratelimit").expect("registered");
    /// assert!(ratelimit.set_count() > 0);
    /// ```
    pub fn technique<T: ResolutionTechnique + 'static>(mut self, technique: T) -> Self {
        self.techniques.push(Box::new(technique));
        self
    }

    /// Register the paper's three identifier techniques (SSH, BGP, SNMPv3).
    pub fn paper_techniques(self) -> Self {
        self.technique(crate::IdentifierTechnique::ssh())
            .technique(crate::IdentifierTechnique::bgp())
            .technique(crate::IdentifierTechnique::snmpv3())
    }

    /// Register every technique in the workspace: the paper's three
    /// identifier techniques, the four classic baselines and the ICMP
    /// rate-limiting technique — eight in all.  Remember that the
    /// rate-limiting technique only produces results when the campaign
    /// ran the rate-probe phase ([`CampaignConfig::rate_probe`]).
    pub fn all_techniques(self) -> Self {
        self.paper_techniques()
            .technique(crate::MidarTechnique::new())
            .technique(crate::AllyTechnique::new())
            .technique(crate::SpeedtrapTechnique::new())
            .technique(crate::IffinderTechnique::new())
            .technique(crate::RateLimitTechnique::new())
    }

    /// Worker threads for the scan [`Resolver::resolve`] runs (default:
    /// `ALIAS_THREADS`, or every hardware thread).  It overrides the
    /// campaign configuration's own count and never changes an output
    /// byte; everything after the scan runs on the calling thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Identifier-extraction policies shared by the identifier techniques
    /// (default: the paper's).
    pub fn extraction(mut self, config: ExtractionConfig) -> Self {
        self.extraction = config;
        self
    }

    /// Campaign configuration used when the resolver runs the scan itself
    /// ([`Resolver::resolve`]).
    pub fn campaign(mut self, config: CampaignConfig) -> Self {
        self.campaign = config;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Resolver {
        Resolver {
            techniques: self.techniques,
            extractor: IdentifierExtractor::new(self.extraction),
            campaign: self.campaign,
            threads: self.threads,
        }
    }
}

/// One entry point for every alias-resolution technique: runs (or is
/// handed) a measurement campaign, resolves every registered
/// [`ResolutionTechnique`], and consolidates the results into a
/// [`ResolutionReport`].
///
/// Orchestration is deterministic: techniques run one at a time in
/// registration order (probes advance shared counter state, so their order
/// is part of the result), and the cross-technique merge unions compact id
/// sets over the campaign interner, reducing in canonical order.
pub struct Resolver {
    techniques: Vec<Box<dyn ResolutionTechnique>>,
    extractor: IdentifierExtractor,
    campaign: CampaignConfig,
    threads: usize,
}

impl Resolver {
    /// Start building a resolver.
    pub fn builder() -> ResolverBuilder {
        ResolverBuilder::new()
    }

    /// Names of the registered techniques, in registration order.
    pub fn technique_names(&self) -> Vec<&'static str> {
        self.techniques.iter().map(|t| t.name()).collect()
    }

    /// Run the full pipeline: active measurement campaign (with the
    /// builder's campaign configuration), per-technique resolution, merge.
    /// The produced campaign data is returned inside the report.
    pub fn resolve(&self, internet: &Internet) -> ResolutionReport {
        let stage = alias_obs::span("resolve/campaign");
        let data = ActiveCampaign::new(self.campaign.clone())
            .with_threads(self.threads)
            .run(internet);
        drop(stage);
        let mut report = self.resolve_data(internet, &data);
        report.campaign = Some(data);
        report
    }

    /// Resolve pre-collected campaign data (no scan stage): per-technique
    /// resolution, then the cross-technique merge.
    ///
    /// Techniques run one at a time, in registration order: live probes
    /// advance shared device state, and each `resolve_ms` measures one
    /// technique with the machine to itself.
    pub fn resolve_data(&self, internet: &Internet, data: &CampaignData) -> ResolutionReport {
        let mut techniques = Vec::with_capacity(self.techniques.len());
        let mut technique_timings = Vec::with_capacity(self.techniques.len());
        {
            // The probing baselines' shared target lists live as long as
            // the techniques run, not through the merge.
            let targets = ProbeTargets::new(data, internet);
            let ctx = TechniqueCtx {
                internet,
                extractor: &self.extractor,
                probe_start: data.finished_at,
                vantage: self.campaign.vantage,
                targets: &targets,
            };
            for technique in &self.techniques {
                let span = alias_obs::span!("resolve/technique/{}", technique.name());
                let result = technique.resolve(data, &ctx);
                technique_timings.push(TechniqueTiming {
                    technique: result.technique.clone(),
                    resolve_ms: span.finish().as_millis() as u64,
                });
                techniques.push(result);
            }
        }

        // Merge + statistics stage.  The unified id space is built once and
        // shared by the merge and the pairwise agreement statistics.
        let stage = alias_obs::span("resolve/merge");
        let unified = UnifiedSpace::build(data, &techniques);
        let merged = self.merge(&unified, &techniques);
        let coverage = self.coverage(&unified, &techniques, &merged);
        drop(stage);

        ResolutionReport {
            campaign: None,
            techniques,
            merged,
            coverage,
            technique_timings,
        }
    }

    /// Union sets that share at least one address, across techniques — the
    /// paper's consolidation, directly on the unified id space.
    fn merge(&self, unified: &UnifiedSpace, techniques: &[TechniqueResult]) -> Vec<MergedSet> {
        let inputs: Vec<(&str, &[CompactAliasSet])> = techniques
            .iter()
            .enumerate()
            .map(|(i, t)| (t.technique.as_str(), unified.sets_of(i, t)))
            .collect();
        merge_labeled_compact(&inputs, &unified.interner)
    }

    fn coverage(
        &self,
        unified: &UnifiedSpace,
        techniques: &[TechniqueResult],
        merged: &[MergedSet],
    ) -> CoverageStats {
        let per_technique = techniques
            .iter()
            .map(|t| TechniqueCoverage {
                technique: t.technique.clone(),
                alias_sets: t.set_count(),
                covered_addresses: t.covered_addresses(),
                testable_addresses: t.testable_count(),
            })
            .collect();
        // The pairwise agreement statistics run entirely in the unified id
        // space.  Agreement counts only compare memberships, which the
        // bijective address ↔ id relabeling preserves, so the numbers are
        // identical to the former address-set formulation.
        let span = alias_obs::span("agreement");
        let mut agreements = Vec::new();
        for i in 0..techniques.len() {
            for j in i + 1..techniques.len() {
                let (a, b) = (&techniques[i], &techniques[j]);
                let common = common_ids(unified.testable_of(i, a), unified.testable_of(j, b));
                agreements.push(TechniqueAgreement {
                    a: a.technique.clone(),
                    b: b.technique.clone(),
                    result: cross_validate(unified.sets_of(i, a), unified.sets_of(j, b), &common),
                });
            }
        }
        AGREEMENT_PAIRS.add(agreements.len() as u64);
        drop(span);
        CoverageStats {
            per_technique,
            merged_sets: merged.len(),
            merged_addresses: crate::report::distinct_addresses(merged),
            agreements,
        }
    }
}

/// Every technique result brought into one id space.
///
/// Techniques normally share the campaign interner as-is; one that
/// extended it (or used a foreign interner) has its sets and testable ids
/// re-interned into the unified space — ids of campaign addresses are
/// preserved, so the common case stays translation-free (`None` entries
/// borrow straight from the result).
struct UnifiedSpace {
    interner: Arc<AddrInterner>,
    sets: Vec<Option<Vec<CompactAliasSet>>>,
    testables: Vec<Option<Vec<AddrId>>>,
}

impl UnifiedSpace {
    fn build(data: &CampaignData, techniques: &[TechniqueResult]) -> Self {
        let base = data.interner().clone();
        let mut interner: Arc<AddrInterner> = base.clone();
        let mut sets = Vec::with_capacity(techniques.len());
        let mut testables = Vec::with_capacity(techniques.len());
        for t in techniques {
            // Campaign-interner ids stay valid in the unified space (it
            // only ever extends the base), so results that share the
            // campaign id space need no translation.
            if Arc::ptr_eq(t.interner(), &base) {
                sets.push(None);
                testables.push(None);
                continue;
            }
            let target = Arc::make_mut(&mut interner);
            sets.push(Some(
                t.compact_sets()
                    .iter()
                    .map(|set| {
                        CompactAliasSet::from_ids(
                            set.iter()
                                .map(|id| target.intern(t.interner().addr(id)))
                                .collect(),
                        )
                    })
                    .collect(),
            ));
            let mut ids: Vec<AddrId> = t
                .testable_ids()
                .iter()
                .map(|&id| target.intern(t.interner().addr(id)))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            testables.push(Some(ids));
        }
        UnifiedSpace {
            interner,
            sets,
            testables,
        }
    }

    /// Technique `i`'s sets in the unified space.
    fn sets_of<'a>(&'a self, i: usize, t: &'a TechniqueResult) -> &'a [CompactAliasSet] {
        self.sets[i].as_deref().unwrap_or_else(|| t.compact_sets())
    }

    /// Technique `i`'s sorted distinct testable ids in the unified space.
    fn testable_of<'a>(&'a self, i: usize, t: &'a TechniqueResult) -> &'a [AddrId] {
        self.testables[i]
            .as_deref()
            .unwrap_or_else(|| t.testable_ids())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IffinderTechnique, MidarTechnique};
    use alias_netsim::{InternetBuilder, InternetConfig};
    use std::collections::BTreeSet;

    fn tiny_internet(seed: u64) -> Internet {
        InternetBuilder::new(InternetConfig::tiny(seed)).build()
    }

    #[test]
    fn resolver_runs_scan_resolution_and_merge() {
        let internet = tiny_internet(41);
        let resolver = Resolver::builder().paper_techniques().build();
        assert_eq!(resolver.technique_names(), vec!["ssh", "bgp", "snmpv3"]);
        let report = resolver.resolve(&internet);
        assert!(report.campaign.is_some());
        assert_eq!(report.techniques.len(), 3);
        assert_eq!(report.technique_timings.len(), 3);
        assert!(!report.merged.is_empty());
        assert_eq!(report.coverage.merged_sets, report.merged.len());
        assert_eq!(report.coverage.merged_addresses, report.merged_addresses());
        // 3 techniques -> 3 pairwise agreements.
        assert_eq!(report.coverage.agreements.len(), 3);
        assert!(report.technique("ssh").is_some());
        assert!(report.technique("midar").is_none());
    }

    #[test]
    fn resolver_output_is_identical_for_any_thread_count() {
        let internet = tiny_internet(42);
        let serial = Resolver::builder()
            .paper_techniques()
            .threads(1)
            .build()
            .resolve(&internet);
        for threads in [2usize, 7] {
            let sharded = Resolver::builder()
                .paper_techniques()
                .threads(threads)
                .build()
                .resolve(&internet);
            assert_eq!(
                sharded.campaign.as_ref().unwrap().store(),
                serial.campaign.as_ref().unwrap().store(),
                "threads={threads}"
            );
            assert_eq!(sharded.techniques, serial.techniques, "threads={threads}");
            assert_eq!(sharded.merged, serial.merged, "threads={threads}");
        }
    }

    #[test]
    fn merge_unions_overlapping_sets_across_techniques() {
        let internet = tiny_internet(43);
        let data = ActiveCampaign::with_defaults(&internet).run(&internet);
        let report = Resolver::builder()
            .paper_techniques()
            .build()
            .resolve_data(&internet, &data);
        assert!(report.campaign.is_none());
        // Sets sharing an address are unioned, so the merged view can only
        // have fewer or equal sets than the techniques list separately.
        let total_sets: usize = report.techniques.iter().map(|t| t.set_count()).sum();
        assert!(report.merged.len() <= total_sets);
        // Multi-protocol devices produce sets carrying several labels.
        assert!(report.merged.iter().any(|m| m.labels.len() > 1));
    }

    #[test]
    fn techniques_run_in_registration_order() {
        // Mixing identifier and probing techniques keeps results positional.
        let internet = tiny_internet(44);
        let resolver = Resolver::builder()
            .technique(MidarTechnique::new())
            .paper_techniques()
            .technique(IffinderTechnique::new())
            .build();
        let report = resolver.resolve(&internet);
        let names: Vec<&str> = report
            .techniques
            .iter()
            .map(|t| t.technique.as_str())
            .collect();
        assert_eq!(names, vec!["midar", "ssh", "bgp", "snmpv3", "iffinder"]);
        let timing_names: Vec<&str> = report
            .technique_timings
            .iter()
            .map(|t| t.technique.as_str())
            .collect();
        assert_eq!(timing_names, names);
    }

    #[test]
    fn eight_technique_report_shows_silent_routers_only_under_ratelimit() {
        // The tentpole acceptance scenario, at the report level: with
        // silent routers in the population and the rate-probe phase
        // enabled, the full eight-technique resolver reports alias sets
        // over silent-router addresses — and the rate-limiting technique
        // is the only one whose sets touch them.
        use alias_netsim::DeviceKind;
        use alias_scan::RateProbeConfig;
        use std::net::IpAddr;

        let mut config = InternetConfig::tiny(46);
        config.devices.silent_routers = 8;
        let internet = InternetBuilder::new(config).build();
        let report = Resolver::builder()
            .all_techniques()
            .campaign(CampaignConfig {
                rate_probe: Some(RateProbeConfig::default()),
                ..Default::default()
            })
            .build()
            .resolve(&internet);
        assert_eq!(report.techniques.len(), 8);
        // Coverage and agreement rows include the new technique.
        assert!(report
            .coverage
            .per_technique
            .iter()
            .any(|c| c.technique == "ratelimit" && c.alias_sets > 0));
        assert_eq!(report.coverage.agreements.len(), 8 * 7 / 2);

        let mut silent_addrs: Vec<IpAddr> = internet
            .devices()
            .iter()
            .filter(|d| d.kind == DeviceKind::SilentRouter)
            .flat_map(|d| d.interfaces.iter().map(|i| i.addr))
            .collect();
        silent_addrs.sort_unstable();
        let mut ratelimit_covered = 0usize;
        for technique in &report.techniques {
            let covered: usize = technique
                .alias_sets()
                .iter()
                .flatten()
                .filter(|a| silent_addrs.binary_search(a).is_ok())
                .count();
            if technique.technique == "ratelimit" {
                ratelimit_covered = covered;
            } else {
                assert_eq!(
                    covered, 0,
                    "{} unexpectedly covers silent routers",
                    technique.technique
                );
            }
        }
        assert!(ratelimit_covered >= 2, "ratelimit finds silent aliases");
        // The merged view therefore contains sets labelled only by the
        // new technique.
        assert!(report
            .merged
            .iter()
            .any(|m| m.labels == BTreeSet::from(["ratelimit".to_owned()])
                && m.addrs
                    .iter()
                    .all(|a| silent_addrs.binary_search(a).is_ok())));
    }

    #[test]
    fn seven_technique_output_ignores_the_rate_limit_machinery() {
        // Backwards-compatibility guarantee: without registering the new
        // technique (and without the opt-in probe phase), the seven
        // existing techniques produce byte-identical output at 1 and 8
        // threads even when silent routers exist in the population.
        let mut config = InternetConfig::tiny(47);
        config.devices.silent_routers = 6;
        let internet = InternetBuilder::new(config).build();
        let seven = |threads: usize| {
            Resolver::builder()
                .paper_techniques()
                .technique(MidarTechnique::new())
                .technique(crate::AllyTechnique::new())
                .technique(crate::SpeedtrapTechnique::new())
                .technique(IffinderTechnique::new())
                .threads(threads)
                .build()
                .resolve(&internet)
        };
        let serial = seven(1);
        assert_eq!(serial.techniques.len(), 7);
        let threaded = seven(8);
        assert_eq!(
            threaded.campaign.as_ref().unwrap().store(),
            serial.campaign.as_ref().unwrap().store()
        );
        assert_eq!(threaded.techniques, serial.techniques);
        assert_eq!(threaded.merged, serial.merged);
        assert_eq!(
            threaded.coverage.merged_addresses,
            serial.coverage.merged_addresses
        );
    }
}
