//! Cross-crate integration tests: the full pipeline from a generated
//! Internet through scanning, identifier extraction, alias/dual-stack
//! grouping, validation and baselines — checked against ground truth.

use alias_intern::{AddrId, AddrInterner, CompactAliasSet};
use alias_resolution::core::alias_set::{group_view_by_source, FamilyGrouping, SourceGroups};
use alias_resolution::core::dual_stack::DualStackReport;
use alias_resolution::core::merge::{merge_labeled_compact, ProtocolAttribution};
use alias_resolution::core::validation::{common_ids, cross_validate};
use alias_resolution::prelude::*;
use std::collections::BTreeSet;
use std::net::IpAddr;

const PROTOCOLS: [ServiceProtocol; 3] = [
    ServiceProtocol::Ssh,
    ServiceProtocol::Bgp,
    ServiceProtocol::Snmpv3,
];

fn build_and_scan(seed: u64) -> (Internet, CampaignData) {
    let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
    let data = ActiveCampaign::new(CampaignConfig {
        hitlist_coverage: internet.config().visibility.hitlist_coverage,
        ..Default::default()
    })
    .run(&internet);
    (internet, data)
}

/// One protocol's identifier groups over the campaign, in its id space.
fn keyed_pass(
    data: &CampaignData,
    protocol: ServiceProtocol,
    extraction: ExtractionConfig,
) -> SourceGroups {
    let view = data.store().select_protocol(protocol, None);
    group_view_by_source(&view, &IdentifierExtractor::new(extraction))
}

/// One protocol's alias sets under the paper's identifier policies.
fn grouping(data: &CampaignData, protocol: ServiceProtocol) -> FamilyGrouping {
    keyed_pass(data, protocol, ExtractionConfig::paper()).project(None, data.interner())
}

/// Resolve id-space sets to addresses, for scoring against ground truth.
fn resolved(sets: &[CompactAliasSet], interner: &AddrInterner) -> Vec<BTreeSet<IpAddr>> {
    sets.iter().map(|set| set.to_addr_set(interner)).collect()
}

/// The three protocols' IPv4 alias sets, labelled for a merge.
fn labeled_ipv4(data: &CampaignData) -> Vec<(&'static str, FamilyGrouping)> {
    PROTOCOLS
        .iter()
        .map(|&p| (p.name(), grouping(data, p)))
        .collect()
}

fn merge_inputs<'a>(
    labeled: &'a [(&'static str, FamilyGrouping)],
) -> Vec<(&'static str, &'a [CompactAliasSet])> {
    labeled
        .iter()
        .map(|(label, grouping)| (*label, grouping.family_sets(false)))
        .collect()
}

#[test]
fn protocol_identifiers_group_addresses_of_the_same_device() {
    let (internet, data) = build_and_scan(101);
    let truth = internet.ground_truth();
    for protocol in PROTOCOLS {
        let sets = resolved(
            grouping(&data, protocol).family_sets(false),
            data.interner(),
        );
        // Precision: in the absence of heavy churn and with the full
        // identifiers, nearly every inferred pair is a true alias pair.
        let score = truth.score_sets(sets.iter().map(|s| s.iter()));
        assert!(
            score.precision() > 0.95,
            "{} precision {:.3} too low",
            protocol.name(),
            score.precision()
        );
    }
}

#[test]
fn ssh_recall_covers_most_reachable_alias_pairs() {
    let (internet, data) = build_and_scan(102);
    let truth = internet.ground_truth();
    let ssh = grouping(&data, ServiceProtocol::Ssh);
    let sets = resolved(ssh.family_sets(false), data.interner());
    let score = truth.score_sets(sets.iter().map(|s| s.iter()));
    // Recall over the addresses SSH produced output for: the identifier is
    // device-wide, so recall should be near-perfect.
    assert!(score.recall() > 0.9, "ssh recall {:.3}", score.recall());
}

#[test]
fn dual_stack_sets_pair_true_dual_stack_devices() {
    let (internet, data) = build_and_scan(103);
    let truth = internet.ground_truth();
    let ssh = grouping(&data, ServiceProtocol::Ssh);
    let report = DualStackReport::from_grouping(&ssh, data.interner());
    assert!(
        report.set_count() > 0,
        "tiny preset should contain dual-stack SSH devices"
    );
    for set in &report.sets {
        let mut devices = BTreeSet::new();
        for &id in set.ipv4.iter().chain(set.ipv6.iter()) {
            let addr = data.interner().addr(id);
            devices.insert(truth.device_of(addr).expect("observed addresses exist"));
        }
        assert_eq!(
            devices.len(),
            1,
            "dual-stack set spans several devices: {set:?}"
        );
    }
}

#[test]
fn union_analysis_attributes_sets_to_protocols() {
    let (_, data) = build_and_scan(104);
    let labeled = labeled_ipv4(&data);
    let merged = merge_labeled_compact(&merge_inputs(&labeled), data.interner());
    assert!(!merged.is_empty());
    let attribution = ProtocolAttribution::compute(&merged);
    assert_eq!(attribution.total, merged.len());
    // SSH/BGP must identify sets SNMPv3 alone cannot — the paper's headline.
    assert!(attribution.ssh_or_bgp > attribution.snmpv3_only);
}

#[test]
fn cross_protocol_validation_agrees_on_shared_devices() {
    let (_, data) = build_and_scan(105);
    let ssh = grouping(&data, ServiceProtocol::Ssh);
    let snmp = grouping(&data, ServiceProtocol::Snmpv3);
    // Both sides live in the campaign's id space: the validator is
    // id-native, and the responsive ids come straight off the id column.
    let responsive_ipv4 = |protocol: ServiceProtocol| -> Vec<AddrId> {
        let view = data.store().select_protocol(protocol, None);
        let mut ids: Vec<AddrId> = (0..view.len())
            .map(|i| view.addr_id_at(i))
            .filter(|&id| data.interner().addr(id).is_ipv4())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let ssh_ids = responsive_ipv4(ServiceProtocol::Ssh);
    let snmp_ids = responsive_ipv4(ServiceProtocol::Snmpv3);
    let common = common_ids(&ssh_ids, &snmp_ids);
    let result = cross_validate(ssh.family_sets(false), snmp.family_sets(false), &common);
    // With a single-snapshot scan (no churn between sources) the two exact
    // techniques must agree on essentially every comparable set.
    assert!(
        result.agreement_rate().is_some_and(|rate| rate > 0.9),
        "agreement {:?} (sample {})",
        result.agreement_rate(),
        result.sample_size
    );
}

#[test]
fn midar_baseline_confirms_a_subset_of_ssh_sets_without_false_merges() {
    let (internet, data) = build_and_scan(106);
    let truth = internet.ground_truth();
    let ssh = grouping(&data, ServiceProtocol::Ssh);
    let sample: Vec<BTreeSet<IpAddr>> = resolved(ssh.family_sets(false), data.interner())
        .into_iter()
        .filter(|s| s.len() <= 10)
        .collect();
    let targets: Vec<IpAddr> = sample.iter().flatten().copied().collect();
    let routes: Vec<_> = targets.iter().map(|&a| internet.route(a)).collect();
    let outcome = midar_resolve(&internet, &routes, VantageKind::SingleVp, SimTime::ZERO);
    // MIDAR cannot test every address...
    assert!(outcome.testable.len() <= targets.len());
    // ...but what it does confirm is correct.
    for set in &outcome.alias_sets {
        let members: Vec<IpAddr> = set.iter().map(|&i| targets[i]).collect();
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                assert!(truth.device_of(members[i]).is_some());
                assert_eq!(truth.device_of(members[i]), truth.device_of(members[j]));
            }
        }
    }
}

#[test]
fn censys_snapshot_extends_single_vp_coverage() {
    let internet = InternetBuilder::new(InternetConfig::tiny(107)).build();
    let active = ActiveCampaign::new(CampaignConfig {
        hitlist_coverage: internet.config().visibility.hitlist_coverage,
        ..Default::default()
    })
    .run(&internet)
    .into_store();
    let (censys, _) =
        CensysSnapshot::collect(&internet, CensysConfig::default()).into_default_port();

    let count_ssh = |store: &ObservationStore| {
        store
            .select_protocol(ServiceProtocol::Ssh, None)
            .iter()
            .filter(|o| !o.is_ipv6())
            .map(|o| o.addr)
            .collect::<BTreeSet<IpAddr>>()
            .len()
    };
    let mut union = active.clone();
    union.extend_from(&censys);
    let active_ips = count_ssh(&active);
    let union_ips = count_ssh(&union);
    assert!(
        union_ips > active_ips,
        "union {union_ips} vs active {active_ips}"
    );
}

#[test]
fn identifier_policy_ablation_shows_why_the_full_identifier_is_used() {
    let (_, data) = build_and_scan(108);
    let full = keyed_pass(&data, ServiceProtocol::Ssh, ExtractionConfig::paper());
    let key_only = keyed_pass(
        &data,
        ServiceProtocol::Ssh,
        ExtractionConfig {
            ssh: SshIdentifierPolicy::KeyOnly,
        },
    );
    // Both policies identify the same addresses...
    let identified = |pass: &SourceGroups| -> BTreeSet<AddrId> {
        pass.members().iter().map(|&(id, _)| id).collect()
    };
    assert_eq!(identified(&key_only), identified(&full));
    // ...but key-only grouping can only be coarser (or equal): it merges
    // devices that share factory-default keys, so every full-identifier
    // set lies inside one key-only set.
    let key_only = key_only.project(None, data.interner());
    for set in full.project(None, data.interner()).sets() {
        assert!(
            key_only
                .sets()
                .iter()
                .any(|coarse| set.iter().all(|id| coarse.contains(id))),
            "a full-identifier set is split across key-only sets"
        );
    }
}

#[test]
fn resolver_composes_all_seven_techniques_through_one_pipeline() {
    // The redesign's acceptance story: SSH, BGP, SNMPv3, MIDAR, Ally,
    // Speedtrap and iffinder all run through the same trait-object path of
    // one Resolver, producing comparable per-technique results and one
    // merged view.
    let internet = InternetBuilder::new(InternetConfig::tiny(111)).build();
    let resolver = Resolver::builder()
        .paper_techniques()
        .technique(MidarTechnique)
        .technique(AllyTechnique)
        .technique(SpeedtrapTechnique)
        .technique(IffinderTechnique)
        .threads(2)
        .build();
    let report = resolver.resolve(&internet);
    let names: Vec<&str> = report.techniques.iter().map(|t| &*t.technique).collect();
    assert_eq!(
        names,
        [
            "ssh",
            "bgp",
            "snmpv3",
            "midar",
            "ally",
            "speedtrap",
            "iffinder"
        ]
    );
    // 7 techniques -> C(7,2) = 21 pairwise agreement rows, each on demand.
    let mut rows = 0;
    for (i, a) in names.iter().enumerate() {
        for b in &names[i + 1..] {
            assert!(report.agreement(a, b).is_some(), "{a}-{b}");
            rows += 1;
        }
    }
    assert_eq!(rows, 21);
    assert!(!report.merged.is_empty());

    // The paper's headline, visible straight from the report: the
    // application-layer identifiers cover far more than the baselines.
    let ssh = report.technique("ssh").unwrap();
    let midar = report.technique("midar").unwrap();
    assert!(ssh.covered_addresses() > midar.covered_addresses());

    // Everything any technique claimed is also correct against ground
    // truth (churn-free snapshot, exact identifiers, precise baselines).
    let truth = internet.ground_truth();
    for technique in &report.techniques {
        let sets = technique.alias_sets();
        let score = truth.score_sets(sets.iter().map(|s| s.iter()));
        assert!(
            score.precision() > 0.95 || sets.is_empty(),
            "{}: precision {:.3}",
            technique.technique,
            score.precision()
        );
    }
}

#[test]
fn resolver_merge_extends_single_technique_coverage() {
    let internet = InternetBuilder::new(InternetConfig::tiny(112)).build();
    let report = Resolver::builder()
        .paper_techniques()
        .build()
        .resolve(&internet);
    // Merged (multi-protocol) coverage is at least any single technique's.
    let best = report
        .techniques
        .iter()
        .map(|t| t.covered_addresses())
        .max()
        .unwrap();
    let merged: usize = report.merged.iter().map(|set| set.addrs.len()).sum();
    assert!(merged >= best);
    // Labels survive the merge: some set is corroborated by 2+ protocols.
    assert!(report.merged.iter().any(|m| m.labels.len() >= 2));
}

#[test]
fn parallel_execution_reproduces_the_serial_pipeline_end_to_end() {
    // The facade-level determinism guarantee: campaign observations — and
    // so the merged union sets derived from them — are identical whether
    // the scan runs serially or sharded over a worker pool (2 and 7
    // threads, two seeds).
    for seed in [109u64, 110] {
        let internet = InternetBuilder::new(InternetConfig::tiny(seed)).build();
        let serial = ActiveCampaign::new(CampaignConfig {
            hitlist_coverage: internet.config().visibility.hitlist_coverage,
            threads: 1,
            ..Default::default()
        })
        .run(&internet);
        let labeled = labeled_ipv4(&serial);
        let merged_serial = merge_labeled_compact(&merge_inputs(&labeled), serial.interner());
        for threads in [2usize, 7] {
            let sharded = ActiveCampaign::new(CampaignConfig {
                hitlist_coverage: internet.config().visibility.hitlist_coverage,
                threads,
                ..Default::default()
            })
            .run(&internet);
            assert_eq!(
                sharded.store(),
                serial.store(),
                "seed={seed} threads={threads}"
            );
            let labeled = labeled_ipv4(&sharded);
            assert_eq!(
                merge_labeled_compact(&merge_inputs(&labeled), sharded.interner()),
                merged_serial,
                "seed={seed} threads={threads}"
            );
        }
    }
}
