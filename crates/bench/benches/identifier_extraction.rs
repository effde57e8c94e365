//! Identifier extraction + grouping on the interned hot path:
//! `group_view_compact` over the union store's SSH rows.

use alias_bench::Experiment;
use alias_core::alias_set::group_view_compact;
use alias_core::extract::{ExtractionConfig, IdentifierExtractor};
use alias_netsim::ScalePreset;
use alias_scan::ServiceProtocol;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_identifier_extraction(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let extractor = IdentifierExtractor::new(ExtractionConfig::paper());
    let view = experiment.union.select_protocol(ServiceProtocol::Ssh, None);

    c.bench_function("identifier_extraction/compact", |b| {
        b.iter(|| group_view_compact(&view, &extractor, 1))
    });
}

criterion_group!(benches, bench_identifier_extraction);
criterion_main!(benches);
