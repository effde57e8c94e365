//! Alias-set grouping scalability: identifier extraction and grouping over a
//! growing number of observations, plus the identifier-policy ablation
//! (key-only vs. the paper's combined SSH identifier).

use alias_bench::Experiment;
use alias_core::alias_set::group_observations_compact;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::identifier::SshIdentifierPolicy;
use alias_netsim::ScalePreset;
use alias_scan::{ServiceObservation, ServiceProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_grouping(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let ssh_observations: Vec<_> = experiment
        .union
        .select_protocol(ServiceProtocol::Ssh, None)
        .to_observations();
    let refs: Vec<&ServiceObservation> = ssh_observations.iter().collect();
    let interner = experiment.union.interner();

    let mut group = c.benchmark_group("alias_grouping");
    for fraction in [4usize, 2, 1] {
        let slice = &refs[..refs.len() / fraction];
        group.bench_with_input(
            BenchmarkId::new("ssh_full_identifier", slice.len()),
            slice,
            |b, slice| {
                let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
                b.iter(|| group_observations_compact(slice, &extractor, interner, 1))
            },
        );
    }
    group.finish();

    // Ablation: grouping cost and outcome per SSH identifier policy.
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
            b.iter(|| group_observations_compact(&refs, &extractor, interner, 1))
        });
    }
    ablation.finish();
}

criterion_group!(benches, bench_grouping);
criterion_main!(benches);
