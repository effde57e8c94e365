//! Columnar selection at paper scale: the filter workload every
//! identifier technique and dataset table runs over the union dataset.
//!
//! * `columnar_select` — `ObservationStore::select` over the two one-byte
//!   filter columns (the hot path every identifier technique runs on);
//! * `columnar_addrs` — selection plus resolving each matching row's
//!   address through the `AddrId` column, the responsive-address workload
//!   of the dataset tables;
//! * `store_union_copy_small` / `store_drop_small` — the union store's
//!   `clone` + `extend_from`, and freeing it, each timed without the other
//!   (small scale: a copy is buffers, not rows, so it scales with bytes).

use alias_bench::Experiment;
use alias_netsim::ScalePreset;
use alias_scan::{DataSource, ServiceProtocol};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
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

fn bench_store_copy_and_drop(c: &mut Criterion) {
    let experiment = Experiment::run(ScalePreset::Small, 11);
    let (active, censys) = (&experiment.active, &experiment.censys);
    c.bench_function("store_union_copy_small", |b| {
        b.iter_batched(
            || (),
            |()| {
                let mut union = active.clone();
                union.extend_from(censys);
                union
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("store_drop_small", |b| {
        b.iter_batched(|| experiment.union.clone(), drop, BatchSize::LargeInput)
    });
}

criterion_group!(benches, bench_store_copy_and_drop, bench_observation_filter);
criterion_main!(benches);
