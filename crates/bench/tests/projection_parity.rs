//! The report's groupings are projections of one keyed pass per protocol
//! over the union store, and its merges are id-space partitions.  Each is
//! checked here against the same answer reached another way: the
//! resolver's own grouping of the active rows, a direct grouping of each
//! store, and a merge of re-interned address sets.  So are the two figures
//! the narrative statistics read off those passes instead of computing
//! afresh: the key-only SSH set count and the ground-truth scores.

use alias_bench::Experiment;
use alias_core::alias_set::{group_view_compact, FamilyGrouping};
use alias_core::identifier::SshIdentifierPolicy;
use alias_core::intern::{sort_canonical_compact, AddrInterner, CompactAliasSet};
use alias_core::merge::merge_labeled_compact;
use alias_core::{ExtractionConfig, IdentifierExtractor};
use alias_netsim::{PairwiseScore, ScalePreset};
use alias_scan::{DataSource, ServiceProtocol};
use std::collections::BTreeSet;
use std::net::IpAddr;

const PROTOCOLS: [ServiceProtocol; 3] = [
    ServiceProtocol::Ssh,
    ServiceProtocol::Bgp,
    ServiceProtocol::Snmpv3,
];

/// A projection's alias sets in the canonical order techniques use.
fn canonical(grouping: &FamilyGrouping, interner: &AddrInterner) -> Vec<CompactAliasSet> {
    let mut sets = grouping.sets().to_vec();
    sort_canonical_compact(&mut sets, interner);
    sets
}

fn resolved(sets: &[CompactAliasSet], interner: &AddrInterner) -> Vec<BTreeSet<IpAddr>> {
    sets.iter().map(|set| set.to_addr_set(interner)).collect()
}

fn check_projections(exp: &Experiment, context: &str) {
    let union_ids = exp.union.interner();
    for protocol in PROTOCOLS {
        let name = protocol.name();
        // Active: the resolver grouped the same rows, and active ids are
        // the union store's ids.
        let technique = exp.resolution.technique(name).expect("paper technique");
        assert_eq!(
            canonical(
                &exp.collection(protocol, Some(DataSource::Active)),
                union_ids
            ),
            technique.compact_sets(),
            "{context} {name} active"
        );
        // Union: a direct id-space grouping of the union store.
        let direct = group_view_compact(
            &exp.union.select_protocol(protocol, None),
            &exp.extractor,
            1,
        );
        assert_eq!(
            canonical(&exp.collection(protocol, None), union_ids),
            direct.sets,
            "{context} {name} union"
        );
        // Censys: its own store has its own id space, so compare addresses.
        let direct = group_view_compact(
            &exp.censys.select_protocol(protocol, None),
            &exp.extractor,
            1,
        );
        let projected = exp.collection(protocol, Some(DataSource::Censys));
        assert_eq!(
            resolved(&canonical(&projected, union_ids), union_ids),
            resolved(&direct.sets, exp.censys.interner()),
            "{context} {name} censys"
        );
    }
}

/// Merge address sets the way the tables did before they ran in the union
/// store's id space: intern them into a private space first.
fn merge_reinterned(
    inputs: &[(&str, &[CompactAliasSet])],
    interner: &AddrInterner,
) -> Vec<alias_core::merge::MergedSet> {
    let mut space = AddrInterner::new();
    let reinterned: Vec<(&str, Vec<CompactAliasSet>)> = inputs
        .iter()
        .map(|&(label, sets)| {
            let sets = sets
                .iter()
                .map(|set| CompactAliasSet::from_addr_set(&set.to_addr_set(interner), &mut space))
                .collect();
            (label, sets)
        })
        .collect();
    let borrowed: Vec<(&str, &[CompactAliasSet])> = reinterned
        .iter()
        .map(|(label, sets)| (*label, sets.as_slice()))
        .collect();
    merge_labeled_compact(&borrowed, &space)
}

fn check_partitions(exp: &Experiment, context: &str) {
    let interner = exp.union.interner();
    let union = PROTOCOLS.map(|p| exp.collection(p, None));
    for ipv6 in [false, true] {
        let inputs: Vec<(&str, &[CompactAliasSet])> = PROTOCOLS
            .iter()
            .zip(&union)
            .map(|(p, grouping)| (p.name(), grouping.family_sets(ipv6)))
            .collect();
        assert_eq!(
            exp.family_partition(ipv6, None).materialise(interner),
            merge_reinterned(&inputs, interner),
            "{context} ipv6={ipv6} union"
        );
    }
    // SNMPv3 contributes its active sets to the Censys row of Table 3.
    let censys = [
        exp.collection(ServiceProtocol::Ssh, Some(DataSource::Censys)),
        exp.collection(ServiceProtocol::Bgp, Some(DataSource::Censys)),
        exp.collection(ServiceProtocol::Snmpv3, Some(DataSource::Active)),
    ];
    let inputs: Vec<(&str, &[CompactAliasSet])> = PROTOCOLS
        .iter()
        .zip(&censys)
        .map(|(p, grouping)| (p.name(), grouping.family_sets(false)))
        .collect();
    assert_eq!(
        exp.family_partition(false, Some(DataSource::Censys))
            .materialise(interner),
        merge_reinterned(&inputs, interner),
        "{context} censys"
    );
    let inputs: Vec<(&str, &[CompactAliasSet])> = PROTOCOLS
        .iter()
        .zip(&union)
        .map(|(p, grouping)| (p.name(), grouping.dual_stack_sets()))
        .collect();
    assert_eq!(
        exp.dual_stack_partition().materialise(interner),
        merge_reinterned(&inputs, interner),
        "{context} dual-stack"
    );
}

/// The key-only SSH set count derived from the full-identifier pass is
/// what grouping the same rows by host key alone counts.
fn check_key_only_count(exp: &Experiment, context: &str) {
    let key_only = IdentifierExtractor::new(ExtractionConfig {
        ssh: SshIdentifierPolicy::KeyOnly,
        ..ExtractionConfig::paper()
    });
    let view = exp.union.select_protocol(ServiceProtocol::Ssh, None);
    let direct = group_view_compact(&view, &key_only, 1);
    let pass = exp.keyed_pass(ServiceProtocol::Ssh);
    assert_eq!(
        pass.coarser_set_count(&exp.union, &key_only),
        direct.sets.len(),
        "{context} key-only"
    );
}

/// The three ways to label a set's members with devices — a `GroundTruth`
/// map, the Internet's IP index, the experiment's device column — score
/// every protocol's sets alike.
fn check_scores(exp: &Experiment, context: &str) {
    let truth = exp.internet.ground_truth();
    let addrs = exp.union.interner().addrs();
    let devices = exp.device_column();
    for protocol in PROTOCOLS {
        for ipv6 in [false, true] {
            let collection = exp.collection(protocol, None);
            let sets = collection.family_sets(ipv6);
            let resolved = || {
                let sets = sets.iter();
                sets.map(|set| set.ids().iter().map(|id| &addrs[id.index()]))
            };
            let by_column = PairwiseScore::of_labelled_sets(
                sets.iter()
                    .map(|set| set.iter().map(|id| (id, devices[id.index()]))),
            );
            let context = format!("{context} {} ipv6={ipv6}", protocol.name());
            assert_eq!(truth.score_sets(resolved()), by_column, "{context}");
            assert_eq!(exp.internet.score_sets(resolved()), by_column, "{context}");
            assert!(by_column.inferred_pairs > 0 || sets.is_empty(), "{context}");
        }
    }
}

fn check(preset: ScalePreset) {
    for seed in [7u64, 14, 404, 2023] {
        let exp = Experiment::run(preset, seed);
        let context = format!("{preset:?} seed={seed}");
        check_projections(&exp, &context);
        check_partitions(&exp, &context);
        check_key_only_count(&exp, &context);
        check_scores(&exp, &context);
    }
}

#[test]
fn projections_and_partitions_match_direct_computation_at_tiny() {
    check(ScalePreset::Tiny);
}

#[test]
fn projections_and_partitions_match_direct_computation_at_small() {
    check(ScalePreset::Small);
}
