//! Trait-object parity: for every [`ResolutionTechnique`] impl, the
//! `resolve()` output equals the legacy direct-call path — at tiny scale,
//! across three seeds.
//!
//! The probing baselines advance shared per-device counter state, so each
//! side of the comparison replays the *same sequence* of probing runs
//! against a freshly built (hence identically seeded) Internet: trait-object
//! calls on one substrate, direct legacy calls on the other.

use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::identifier::ProtocolIdentifier;
use alias_core::merge::MergedSet;
use alias_core::union_find::UnionFind;
use alias_midar::ally::{ally_test, AllyVerdict};
use alias_midar::iffinder::iffinder_scan;
use alias_midar::speedtrap::speedtrap_group;
use alias_midar::{Midar, MidarConfig};
use alias_netsim::{Internet, InternetBuilder, InternetConfig, ServiceProtocol};
use alias_resolve::{
    canonical_sets, AllyTechnique, IdentifierTechnique, IffinderTechnique, MidarTechnique,
    ProbeTargets, ResolutionTechnique, SpeedtrapTechnique, TechniqueCtx, TechniqueResult,
};
use alias_scan::campaign::{ActiveCampaign, CampaignData};
use alias_scan::ipid_probe::{IpidProber, IpidProberConfig, ResolvedTarget};
use alias_scan::ObservationStore;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::IpAddr;

const SEEDS: [u64; 3] = [7, 404, 2023];

fn build(seed: u64) -> Internet {
    InternetBuilder::new(InternetConfig::tiny(seed)).build()
}

/// The pre-interning grouping path, spelled out the legacy way: a map
/// keyed by owned [`ProtocolIdentifier`] values collecting
/// `BTreeSet<IpAddr>` members, non-singleton sets sorted the way the
/// collection + canonical passes used to compose (size descending, then
/// smallest member — restably sorted by smallest member).
// The sets leave the map in hash order and are sorted into a total order
// below; `ProtocolIdentifier` has no `Ord`, so no `BTreeMap` here.
#[allow(clippy::disallowed_methods)]
fn legacy_grouping<'a, I>(observations: I, extractor: &IdentifierExtractor) -> Vec<BTreeSet<IpAddr>>
where
    I: IntoIterator<Item = &'a alias_scan::ServiceObservation>,
{
    let mut by_identifier: HashMap<ProtocolIdentifier, BTreeSet<IpAddr>> = HashMap::new();
    for observation in observations {
        if let Some(identifier) = extractor.extract(observation) {
            by_identifier
                .entry(identifier)
                .or_default()
                .insert(observation.addr);
        }
    }
    let mut sets: Vec<BTreeSet<IpAddr>> = by_identifier
        .into_values()
        .filter(|set| set.len() >= 2)
        .collect();
    // The canonical total order: smallest member, larger set first on
    // ties, then the full member sequence.  (The historical spelling
    // sorted by (len desc, first member) and then stably by first member,
    // which under-determined the order when sets tied on both — the
    // interned pipeline's total order is what the oracle must match.)
    sets.sort_by(|a, b| {
        a.iter()
            .next()
            .cmp(&b.iter().next())
            .then_with(|| b.len().cmp(&a.len()))
            .then_with(|| a.iter().cmp(b.iter()))
    });
    sets
}

/// The pre-interning merge path, spelled out the legacy way: address →
/// index map, union–find over the indices, `BTreeMap`/`BTreeSet`
/// materialisation, canonical order by smallest member.
fn legacy_merge(inputs: &[(&str, Vec<BTreeSet<IpAddr>>)]) -> Vec<MergedSet> {
    let mut index: BTreeMap<IpAddr, usize> = BTreeMap::new();
    for (_, sets) in inputs {
        for set in sets {
            for &addr in set {
                let next = index.len();
                index.entry(addr).or_insert(next);
            }
        }
    }
    let mut uf = UnionFind::new(index.len());
    for (_, sets) in inputs {
        for set in sets {
            let mut iter = set.iter();
            if let Some(first) = iter.next() {
                let first_index = index[first];
                for addr in iter {
                    uf.union(first_index, index[addr]);
                }
            }
        }
    }
    let mut members: BTreeMap<usize, BTreeSet<IpAddr>> = BTreeMap::new();
    for (&addr, &idx) in &index {
        members.entry(uf.find(idx)).or_default().insert(addr);
    }
    let mut labels: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (label, sets) in inputs {
        for set in sets {
            if let Some(first) = set.iter().next() {
                let root = uf.find(index[first]);
                labels.entry(root).or_default().insert((*label).to_owned());
            }
        }
    }
    let mut merged: Vec<MergedSet> = members
        .into_iter()
        .map(|(root, addrs)| MergedSet {
            addrs,
            labels: labels.remove(&root).unwrap_or_default(),
        })
        .collect();
    merged.sort_by(|a, b| a.addrs.iter().next().cmp(&b.addrs.iter().next()));
    merged
}

/// Sorted distinct campaign addresses of one family (the baselines' target
/// derivation, spelled out the legacy way).
fn targets(data: &CampaignData, ipv6: bool) -> Vec<IpAddr> {
    let addrs: BTreeSet<IpAddr> = data
        .store()
        .to_observations()
        .iter()
        .map(|o| o.addr)
        .filter(|a| a.is_ipv6() == ipv6)
        .collect();
    addrs.into_iter().collect()
}

/// Index groups over `addrs` (what the IPID baselines report since they
/// take resolved targets) as canonical address sets.
fn address_sets(groups: Vec<Vec<usize>>, addrs: &[IpAddr]) -> Vec<BTreeSet<IpAddr>> {
    canonical_sets(
        groups
            .into_iter()
            .map(|g| g.into_iter().map(|i| addrs[i]).collect())
            .collect(),
    )
}

fn lookups(internet: &Internet, addrs: &[IpAddr]) -> Vec<ResolvedTarget> {
    addrs.iter().map(|&addr| internet.lookup(addr)).collect()
}

/// The legacy direct-call equivalent of one technique, replayed against
/// `internet` (which must hold the same counter state the trait-object run
/// saw when it probed).
fn legacy_resolve(
    name: &str,
    internet: &Internet,
    data: &CampaignData,
    extractor: &IdentifierExtractor,
) -> Vec<BTreeSet<IpAddr>> {
    match name {
        "ssh" | "bgp" | "snmpv3" => {
            let protocol = match name {
                "ssh" => ServiceProtocol::Ssh,
                "bgp" => ServiceProtocol::Bgp,
                _ => ServiceProtocol::Snmpv3,
            };
            let rows = data.store().to_observations();
            legacy_grouping(rows.iter().filter(|o| o.protocol() == protocol), extractor)
        }
        "midar" => {
            let addrs = targets(data, false);
            let outcome = Midar::new(MidarConfig::default()).resolve(
                internet,
                &lookups(internet, &addrs),
                data.finished_at,
            );
            address_sets(outcome.alias_sets, &addrs)
        }
        "ally" => {
            let addrs = targets(data, false);
            let defaults = AllyTechnique::default();
            let mut uf = UnionFind::new(addrs.len());
            let mut now = data.finished_at;
            for i in 0..addrs.len() {
                let window_end = (i + 1 + defaults.window).min(addrs.len());
                for j in i + 1..window_end {
                    now += defaults.pair_spacing;
                    if ally_test(
                        internet,
                        addrs[i],
                        addrs[j],
                        alias_netsim::VantageKind::SingleVp,
                        now,
                    ) == AllyVerdict::Alias
                    {
                        uf.union(i, j);
                    }
                }
            }
            let groups = uf.groups().into_iter().filter(|g| g.len() >= 2);
            address_sets(groups.collect(), &addrs)
        }
        "speedtrap" => {
            let defaults = SpeedtrapTechnique::default();
            let prober = IpidProber::new(IpidProberConfig {
                rounds: defaults.rounds,
                round_spacing: defaults.round_spacing,
                rate_pps: defaults.rate_pps,
            });
            let addrs = targets(data, true);
            let series = prober.collect_round_robin(
                &mut internet.probe_session(),
                &lookups(internet, &addrs),
                alias_netsim::VantageKind::SingleVp,
                data.finished_at,
            );
            address_sets(speedtrap_group(&series, defaults.max_velocity), &addrs)
        }
        "iffinder" => {
            let outcome = iffinder_scan(
                internet,
                &targets(data, false),
                alias_netsim::VantageKind::SingleVp,
                data.finished_at,
            );
            canonical_sets(outcome.alias_sets)
        }
        other => panic!("unknown technique {other}"),
    }
}

#[test]
fn every_technique_matches_its_legacy_path_across_seeds() {
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    for seed in SEEDS {
        // Two identically seeded substrates: the trait-object runs probe
        // one, the legacy replay probes the other, in the same order.
        let trait_side = build(seed);
        let legacy_side = build(seed);
        let data = ActiveCampaign::with_defaults(&trait_side).run(&trait_side);
        assert_eq!(
            data.store(),
            ActiveCampaign::with_defaults(&legacy_side)
                .run(&legacy_side)
                .store(),
            "identically seeded substrates must scan identically (seed={seed})"
        );

        let techniques: Vec<Box<dyn ResolutionTechnique>> = vec![
            Box::new(IdentifierTechnique::ssh()),
            Box::new(IdentifierTechnique::bgp()),
            Box::new(IdentifierTechnique::snmpv3()),
            Box::new(MidarTechnique::new()),
            Box::new(AllyTechnique::new()),
            Box::new(SpeedtrapTechnique::new()),
            Box::new(IffinderTechnique::new()),
        ];
        let targets = ProbeTargets::new(&data, &trait_side);
        let ctx = TechniqueCtx {
            internet: &trait_side,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: alias_netsim::VantageKind::SingleVp,
            targets: &targets,
        };
        // Trait-object pass first, then the legacy replay in the same
        // order — both substrates see identical probe sequences.
        let results: Vec<TechniqueResult> =
            techniques.iter().map(|t| t.resolve(&data, &ctx)).collect();
        for result in &results {
            let legacy = legacy_resolve(&result.technique, &legacy_side, &data, &extractor);
            assert_eq!(
                result.alias_sets(),
                legacy,
                "technique={} seed={seed}",
                result.technique
            );
        }
    }
}

#[test]
fn interned_merge_matches_the_legacy_merge_across_seeds() {
    // The id-based pipeline end to end (grouping on IdentId/AddrId, merge
    // on AddrId) against the legacy String/BTreeSet spelling, for real
    // campaigns over three seeds.
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    for seed in SEEDS {
        let internet = build(seed);
        let data = ActiveCampaign::with_defaults(&internet).run(&internet);
        let rows = data.store().to_observations();
        let protocols = [
            ServiceProtocol::Ssh,
            ServiceProtocol::Bgp,
            ServiceProtocol::Snmpv3,
        ];
        let legacy_inputs: Vec<(&str, Vec<BTreeSet<IpAddr>>)> = protocols
            .iter()
            .map(|&p| {
                (
                    p.name(),
                    legacy_grouping(rows.iter().filter(|o| o.protocol() == p), &extractor),
                )
            })
            .collect();
        let legacy_merged = legacy_merge(&legacy_inputs);
        let report = alias_resolve::Resolver::builder()
            .paper_techniques()
            .build()
            .resolve_data(&internet, &data);
        assert_eq!(
            report.merged, legacy_merged,
            "merged sets diverge from the legacy path (seed={seed})"
        );
        for (result, (name, legacy_sets)) in report.techniques.iter().zip(&legacy_inputs) {
            assert_eq!(&result.technique, name);
            assert_eq!(&result.alias_sets(), legacy_sets, "seed={seed}");
        }
    }
}

mod proptest_interned_parity {
    use super::*;
    use alias_netsim::SimTime;
    use alias_scan::{DataSource, ServiceObservation, ServicePayload};
    use alias_wire::snmp::EngineId;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit, SshObservation};
    use proptest::prelude::*;

    /// An SSH observation of `addr` from the device identified by `key`.
    fn ssh_obs(addr: IpAddr, key: u8) -> ServiceObservation {
        ServiceObservation {
            addr,
            port: 22,
            source: DataSource::Active,
            timestamp: SimTime::ZERO,
            asn: None,
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![key; 32])),
            }),
        }
    }

    /// An SNMPv3 observation of `addr` from the engine identified by `engine`.
    fn snmp_obs(addr: IpAddr, engine: u8) -> ServiceObservation {
        ServiceObservation {
            addr,
            port: 161,
            source: DataSource::Active,
            timestamp: SimTime::ZERO,
            asn: None,
            payload: ServicePayload::Snmpv3 {
                engine_id: EngineId::from_enterprise_mac(9, [engine, 0, 0, 0, 0, 1]),
                engine_boots: 1,
                engine_time: 60,
            },
        }
    }

    fn addr(raw: u16) -> IpAddr {
        IpAddr::from([10, 0, (raw >> 8) as u8, (raw & 0xff) as u8])
    }

    proptest! {
        // Random batches of SSH + SNMPv3 observations (shared addresses
        // included, so the cross-protocol merge has real work): the
        // interned path — grouping by IdentId over the campaign AddrId
        // space, merging on ids — must be set-for-set identical to the
        // legacy owned-String / BTreeSet spelling.
        #[test]
        fn proptest_interned_pipeline_matches_legacy(
            ssh in prop::collection::vec((0u16..120, 0u8..24), 0..60),
            snmp in prop::collection::vec((0u16..120, 0u8..12), 0..40),
        ) {
            let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
            let observations: Vec<ServiceObservation> = ssh
                .iter()
                .map(|&(a, key)| ssh_obs(addr(a), key))
                .chain(snmp.iter().map(|&(a, engine)| snmp_obs(addr(a), engine)))
                .collect();
            let data = CampaignData::from_store(ObservationStore::from_observations(
                observations.clone(),
            ));
            let legacy_inputs: Vec<(&str, Vec<BTreeSet<IpAddr>>)> = [
                ServiceProtocol::Ssh,
                ServiceProtocol::Snmpv3,
            ]
            .iter()
            .map(|&p| {
                (
                    p.name(),
                    legacy_grouping(
                        observations.iter().filter(|o| o.protocol() == p),
                        &extractor,
                    ),
                )
            })
            .collect();
            let legacy_merged = legacy_merge(&legacy_inputs);

            let internet = build(1);
            let report = alias_resolve::Resolver::builder()
                .technique(IdentifierTechnique::ssh())
                .technique(IdentifierTechnique::snmpv3())
                    .build()
                .resolve_data(&internet, &data);
            prop_assert_eq!(&report.merged, &legacy_merged);
            for (result, (_, legacy_sets)) in report.techniques.iter().zip(&legacy_inputs) {
                prop_assert_eq!(&result.alias_sets(), legacy_sets);
            }
        }
    }
}

#[test]
fn at_least_one_baseline_produces_sets_somewhere() {
    // Guard against the parity test passing vacuously (empty == empty): over
    // the three seeds, every technique family must produce output at least
    // once at tiny scale.
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let mut produced: BTreeSet<&'static str> = BTreeSet::new();
    for seed in SEEDS {
        let internet = build(seed);
        let data = ActiveCampaign::with_defaults(&internet).run(&internet);
        let targets = ProbeTargets::new(&data, &internet);
        let ctx = TechniqueCtx {
            internet: &internet,
            extractor: &extractor,
            probe_start: data.finished_at,
            vantage: alias_netsim::VantageKind::SingleVp,
            targets: &targets,
        };
        let techniques: Vec<Box<dyn ResolutionTechnique>> = vec![
            Box::new(IdentifierTechnique::ssh()),
            Box::new(IdentifierTechnique::bgp()),
            Box::new(IdentifierTechnique::snmpv3()),
            Box::new(MidarTechnique::new()),
            Box::new(AllyTechnique::new()),
            Box::new(SpeedtrapTechnique::new()),
            Box::new(IffinderTechnique::new()),
        ];
        for technique in &techniques {
            if technique.resolve(&data, &ctx).set_count() > 0 {
                produced.insert(technique.name());
            }
        }
    }
    for name in ["ssh", "bgp", "snmpv3", "midar", "speedtrap", "iffinder"] {
        assert!(
            produced.contains(name),
            "{name} produced no sets on any seed; produced: {produced:?}"
        );
    }
}
