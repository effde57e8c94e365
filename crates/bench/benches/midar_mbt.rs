//! IPID baseline micro-benchmarks: the monotonic bounds test and velocity
//! estimation that MIDAR runs for every candidate pair, and the agreement
//! projection every pair of techniques goes through.

use alias_core::intern::{AddrId, CompactAliasSet};
use alias_core::validation::cross_validate;
use alias_midar::mbt::monotonic_bounds_test;
use alias_midar::velocity::estimate_velocity;
use alias_netsim::SimTime;
use alias_scan::ipid_probe::{IpidSample, IpidTimeSeries};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn synthetic_series(base: u16, velocity: f64, samples: usize) -> Vec<IpidSample> {
    (0..samples)
        .map(|i| IpidSample {
            time: SimTime(i as u64 * 1_000),
            ipid: base
                .wrapping_add((velocity * i as f64) as u16)
                .wrapping_add(i as u16),
        })
        .collect()
}

fn bench_mbt(c: &mut Criterion) {
    let a = synthetic_series(100, 12.0, 30);
    let b = synthetic_series(105, 12.0, 30);
    c.bench_function("mbt_consistent_pair", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&[&a, &b]), 1_500.0))
    });
    let unrelated = synthetic_series(40_000, 12.0, 30);
    c.bench_function("mbt_inconsistent_pair", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&[&a, &unrelated]), 1_500.0))
    });

    // Ten times the samples, the violation still at the first merged step:
    // what is left is the time-order check of the two inputs.
    let long = synthetic_series(100, 12.0, 300);
    let long_unrelated = synthetic_series(40_000, 12.0, 300);
    c.bench_function("mbt_inconsistent_early_exit", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&[&long, &long_unrelated]), 1_500.0))
    });

    let series = IpidTimeSeries {
        addr: "192.0.2.1".parse().unwrap(),
        samples: a.clone(),
    };
    c.bench_function("velocity_estimation", |bench| {
        bench.iter(|| estimate_velocity(black_box(&series), 1_500.0))
    });
}

/// One agreement row at the silent study's shape: two techniques of 3,000
/// sets each over 60,000 addresses, 30,000 of them testable by both.
fn bench_cross_validate(c: &mut Criterion) {
    let sets = |stride: u32| -> Vec<CompactAliasSet> {
        (0..3_000u32)
            .map(|i| {
                let size = 2 + i % 9;
                CompactAliasSet::from_ids(
                    (0..size)
                        .map(|k| AddrId((i * 20 + k * stride) % 60_000))
                        .collect(),
                )
            })
            .collect()
    };
    let (a, b) = (sets(1), sets(2));
    let common: Vec<AddrId> = (0..30_000).map(|i| AddrId(2 * i)).collect();
    c.bench_function("cross_validate_3k_sets_30k_universe", |bench| {
        bench.iter(|| cross_validate(black_box(&a), black_box(&b), black_box(&common)))
    });
}

criterion_group!(benches, bench_mbt, bench_cross_validate);
criterion_main!(benches);
