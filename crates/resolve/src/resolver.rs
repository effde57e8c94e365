//! The [`Resolver`]: one builder-style entry point orchestrating scan,
//! per-technique resolution and cross-technique merging.

use crate::baselines::ProbeTargets;
use crate::report::ResolutionReport;
use crate::technique::{ResolutionTechnique, TechniqueCtx};
use alias_netsim::Internet;
use alias_scan::campaign::{ActiveCampaign, CampaignConfig};
use alias_scan::CampaignData;

/// Builder for a [`Resolver`].
pub struct ResolverBuilder {
    techniques: Vec<Box<dyn ResolutionTechnique>>,
    campaign: CampaignConfig,
    threads: usize,
}

impl ResolverBuilder {
    fn new() -> Self {
        ResolverBuilder {
            techniques: Vec::new(),
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
    ///     rate_probe: Some(RateProbeConfig),
    ///     ..Default::default()
    /// };
    ///
    /// let report = Resolver::builder()
    ///     .paper_techniques()
    ///     .technique(RateLimitTechnique)
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
            .technique(crate::MidarTechnique)
            .technique(crate::AllyTechnique)
            .technique(crate::SpeedtrapTechnique)
            .technique(crate::IffinderTechnique)
            .technique(crate::RateLimitTechnique)
    }

    /// Worker threads for the scan [`Resolver::resolve`] runs (default:
    /// `ALIAS_THREADS`, or every hardware thread).  It overrides the
    /// campaign configuration's own count and never changes an output
    /// byte; everything after the scan runs on the calling thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
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
    campaign: CampaignConfig,
    threads: usize,
}

impl Resolver {
    /// Start building a resolver.
    pub fn builder() -> ResolverBuilder {
        ResolverBuilder::new()
    }

    /// Run the full pipeline: active measurement campaign (with the
    /// builder's campaign configuration), per-technique resolution, merge.
    /// The produced campaign data is returned inside the report.
    pub fn resolve(&self, internet: &Internet) -> ResolutionReport {
        let stage = alias_obs::span("resolve/campaign");
        let data = ActiveCampaign::new(CampaignConfig {
            threads: self.threads,
            ..self.campaign.clone()
        })
        .run(internet);
        drop(stage);
        let mut report = self.resolve_data(internet, &data);
        report.campaign = Some(data);
        report
    }

    /// Resolve pre-collected campaign data (no scan stage): per-technique
    /// resolution, each under its `resolve/technique/<name>` span, then the
    /// cross-technique merge ([`ResolutionReport::from_techniques`]).
    ///
    /// Techniques run one at a time, in registration order: live probes
    /// advance shared device state, and each span measures one technique
    /// with the machine to itself.
    pub fn resolve_data(&self, internet: &Internet, data: &CampaignData) -> ResolutionReport {
        let mut techniques = Vec::with_capacity(self.techniques.len());
        {
            // The probing baselines' shared target lists live as long as
            // the techniques run, not through the merge.
            let targets = ProbeTargets::new(data, internet);
            let ctx = TechniqueCtx {
                internet,
                probe_start: data.finished_at,
                vantage: self.campaign.vantage,
                targets: &targets,
            };
            for technique in &self.techniques {
                let _span = alias_obs::span!("resolve/technique/{}", technique.name());
                techniques.push(technique.resolve(data, &ctx));
            }
        }
        ResolutionReport::from_techniques(techniques, data.interner())
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
        let report = resolver.resolve(&internet);
        assert!(report.campaign.is_some());
        let names: Vec<&str> = report.techniques.iter().map(|t| &*t.technique).collect();
        assert_eq!(names, ["ssh", "bgp", "snmpv3"]);
        assert!(!report.merged.is_empty());
        let merged: BTreeSet<_> = report.merged.iter().flat_map(|set| &set.addrs).collect();
        // Counted without a tree: the merged sets are a partition.
        let members: usize = report.merged.iter().map(|set| set.addrs.len()).sum();
        assert_eq!(members, merged.len());
        // 3 techniques -> 3 pairwise agreements, each on demand.
        for (a, b) in [("ssh", "bgp"), ("ssh", "snmpv3"), ("bgp", "snmpv3")] {
            assert!(report.agreement(a, b).is_some(), "{a}-{b}");
        }
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
        let data = ActiveCampaign::new(CampaignConfig {
            hitlist_coverage: internet.config().visibility.hitlist_coverage,
            ..Default::default()
        })
        .run(&internet);
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
            .technique(MidarTechnique)
            .paper_techniques()
            .technique(IffinderTechnique)
            .build();
        let report = resolver.resolve(&internet);
        let names: Vec<&str> = report
            .techniques
            .iter()
            .map(|t| t.technique.as_str())
            .collect();
        assert_eq!(names, vec!["midar", "ssh", "bgp", "snmpv3", "iffinder"]);
    }

    #[test]
    fn midar_probes_from_the_campaign_vantage() {
        // Devices a single vantage point cannot see answer a distributed
        // campaign, so MIDAR, probing from that same vantage, must be able
        // to test their addresses.
        use alias_netsim::VantageKind;
        use std::net::IpAddr;

        let internet = tiny_internet(48);
        let hidden: Vec<IpAddr> = internet
            .devices()
            .filter(|d| {
                let model = internet.ipid_model(d.id());
                !d.visible_to_single_vp()
                    && d.responds_to_ping()
                    && matches!(model, alias_netsim::ipid::IpidModel::SharedMonotonic { velocity } if velocity < 300.0)
            })
            .flat_map(|d| d.answering(alias_netsim::ServiceProtocol::Ssh))
            .filter(IpAddr::is_ipv4)
            .collect();
        assert!(!hidden.is_empty(), "seed 48 has a hidden, usable counter");
        let report = Resolver::builder()
            .technique(MidarTechnique)
            .campaign(CampaignConfig {
                vantage: VantageKind::Distributed,
                ..Default::default()
            })
            .build()
            .resolve(&internet);
        let testable = report.technique("midar").unwrap().testable();
        assert!(
            hidden.iter().any(|addr| testable.contains(addr)),
            "no hidden address of {hidden:?} was testable"
        );
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
                rate_probe: Some(RateProbeConfig),
                ..Default::default()
            })
            .build()
            .resolve(&internet);
        assert_eq!(report.techniques.len(), 8);
        // Coverage and agreement rows include the new technique.
        assert!(report.technique("ratelimit").unwrap().set_count() > 0);
        for technique in &report.techniques[..7] {
            let row = report.agreement(&technique.technique, "ratelimit");
            assert!(row.is_some(), "{}", technique.technique);
        }

        let mut silent_addrs: Vec<IpAddr> = internet
            .devices()
            .filter(|d| d.kind() == DeviceKind::SilentRouter)
            .flat_map(|d| d.interfaces().iter().map(|i| i.addr))
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
                .technique(MidarTechnique)
                .technique(crate::AllyTechnique)
                .technique(crate::SpeedtrapTechnique)
                .technique(IffinderTechnique)
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
    }
}
