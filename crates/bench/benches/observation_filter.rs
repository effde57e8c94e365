//! Columnar selection at paper scale: the filter workload every
//! identifier technique and dataset table runs over the union dataset.
//!
//! * `columnar_select` — `ObservationStore::select` over the two one-byte
//!   filter columns (the hot path every identifier technique runs on);
//! * `columnar_addrs` — selection plus resolving each matching row's
//!   address through the `AddrId` column, the responsive-address workload
//!   of the dataset tables.

use alias_bench::Experiment;
use alias_netsim::ScalePreset;
use alias_scan::{DataSource, ServiceProtocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_observation_filter(c: &mut Criterion) {
    // The ISSUE asks for paper scale: the union store at PaperShape holds
    // the full campaign + snapshot row population the tables filter.
    let experiment = Experiment::run(ScalePreset::PaperShape, 11);
    let store = &experiment.union;

    let mut group = c.benchmark_group("observation_filter");
    for protocol in [ServiceProtocol::Ssh, ServiceProtocol::Snmpv3] {
        group.bench_with_input(
            BenchmarkId::new("columnar_select", protocol.name()),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    black_box(
                        store
                            .select_protocol(protocol, Some(DataSource::Active))
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("columnar_addrs", protocol.name()),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    let view = store.select_protocol(protocol, Some(DataSource::Active));
                    let mut v4 = 0usize;
                    for i in 0..view.len() {
                        if !view.addr_at(i).is_ipv6() {
                            v4 += 1;
                        }
                    }
                    black_box(v4)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_observation_filter);
criterion_main!(benches);
