//! Identifier extraction + grouping on the interned hot path: the
//! id-space microbenchmark tracking this stage alongside `parallel_merge`
//! — `group_view_compact` over the union store's SSH rows, by thread count.

use alias_bench::Experiment;
use alias_core::alias_set::group_view_compact;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_netsim::ScalePreset;
use alias_scan::ServiceProtocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_identifier_extraction(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let view = experiment.union.select_protocol(ServiceProtocol::Ssh, None);

    let mut group = c.benchmark_group("identifier_extraction");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("compact", threads),
            &threads,
            |b, &threads| b.iter(|| group_view_compact(&view, &extractor, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_identifier_extraction);
criterion_main!(benches);
