//! Alias-set grouping scalability: identifier extraction and grouping over a
//! growing number of observations, plus the identifier-policy ablation
//! (key-only vs. the paper's combined SSH identifier), the key-only set
//! count read off the full pass, and ground-truth scoring of the grouped
//! sets.

use alias_bench::Experiment;
use alias_core::alias_set::group_view_compact;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::identifier::SshIdentifierPolicy;
use alias_netsim::ScalePreset;
use alias_scan::{ObservationStore, ServiceProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_grouping(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let ssh_observations = experiment
        .union
        .select_protocol(ServiceProtocol::Ssh, None)
        .to_observations();

    let mut group = c.benchmark_group("alias_grouping");
    for fraction in [4usize, 2, 1] {
        let rows = ssh_observations.len() / fraction;
        let store = ObservationStore::from_observations(ssh_observations[..rows].to_vec());
        group.bench_with_input(
            BenchmarkId::new("ssh_full_identifier", rows),
            &store,
            |b, store| {
                let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
                let view = store.select_protocol(ServiceProtocol::Ssh, None);
                b.iter(|| group_view_compact(&view, &extractor, 1))
            },
        );
    }
    group.finish();

    // Ablation: grouping cost and outcome per SSH identifier policy.
    let view = experiment.union.select_protocol(ServiceProtocol::Ssh, None);
    let mut ablation = c.benchmark_group("identifier_policy_ablation");
    for (name, policy) in [
        ("key_only", SshIdentifierPolicy::KeyOnly),
        (
            "key_and_capabilities",
            SshIdentifierPolicy::KeyAndCapabilities,
        ),
        ("full", SshIdentifierPolicy::Full),
    ] {
        ablation.bench_function(name, |b| {
            let extractor = IdentifierExtractor::new(ExtractionConfig {
                ssh: policy,
                ..ExtractionConfig::paper()
            });
            b.iter(|| group_view_compact(&view, &extractor, 1))
        });
    }
    ablation.finish();

    // The narrative statistics' two derived figures, as `stats` computes
    // them once the passes are memoised.
    let mut derived = c.benchmark_group("grouping_derived");
    let key_only = IdentifierExtractor::new(ExtractionConfig {
        ssh: SshIdentifierPolicy::KeyOnly,
        ..ExtractionConfig::paper()
    });
    let full_pass = experiment.keyed_pass(ServiceProtocol::Ssh);
    derived.bench_function("key_only_count_small", |b| {
        b.iter(|| full_pass.coarser_set_count(&experiment.union, &key_only))
    });
    let addrs = experiment.union.interner().addrs();
    let collections = [
        ServiceProtocol::Ssh,
        ServiceProtocol::Bgp,
        ServiceProtocol::Snmpv3,
    ]
    .map(|protocol| experiment.collection(protocol, None));
    derived.bench_function("truth_score_small", |b| {
        b.iter(|| {
            collections.each_ref().map(|collection| {
                let sets = collection.family_sets(false).iter();
                experiment
                    .internet
                    .score_sets(sets.map(|set| set.ids().iter().map(|id| &addrs[id.index()])))
            })
        })
    });
    derived.finish();
}

criterion_group!(benches, bench_grouping);
criterion_main!(benches);
