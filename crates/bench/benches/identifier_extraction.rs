//! Identifier extraction + grouping on the interned hot path: the
//! id-space microbenchmark tracking this refactored stage alongside
//! `parallel_merge` — serial vs sharded `group_observations_compact`.

use alias_bench::Experiment;
use alias_core::alias_set::group_observations_compact;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_core::intern::AddrInterner;
use alias_netsim::ScalePreset;
use alias_scan::{ServiceObservation, ServiceProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_identifier_extraction(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let ssh_observations: Vec<ServiceObservation> = experiment
        .union
        .select_protocol(ServiceProtocol::Ssh, None)
        .to_observations();
    let refs: Vec<&ServiceObservation> = ssh_observations.iter().collect();
    let interner = AddrInterner::from_addrs(ssh_observations.iter().map(|o| o.addr));

    let mut group = c.benchmark_group("identifier_extraction");
    group.bench_function("compact_serial", |b| {
        b.iter(|| group_observations_compact(&refs, &extractor, &interner, 1))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("compact_sharded", threads),
            &threads,
            |b, &threads| {
                b.iter(|| group_observations_compact(&refs, &extractor, &interner, threads))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_identifier_extraction);
criterion_main!(benches);
