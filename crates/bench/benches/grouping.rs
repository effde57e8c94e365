//! Alias-set grouping scalability: identifier extraction and grouping over a
//! growing number of observations, plus the identifier-policy ablation
//! (key-only vs. the paper's combined SSH identifier).

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
}

criterion_group!(benches, bench_grouping);
criterion_main!(benches);
