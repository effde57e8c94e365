//! IPID baseline micro-benchmarks: the monotonic bounds test and velocity
//! estimation that MIDAR runs for every candidate pair, one pair probe and
//! one round-robin sweep through a held probe session, and the agreement
//! projection every pair of techniques goes through.

use alias_core::intern::{AddrId, CompactAliasSet};
use alias_core::validation::cross_validate;
use alias_midar::ally::AllyTester;
use alias_midar::mbt::monotonic_bounds_test;
use alias_midar::velocity::estimate_velocity;
use alias_netsim::{InternetBuilder, InternetConfig, SimTime, VantageKind};
use alias_scan::ipid_probe::{IpidProber, IpidProberConfig, IpidSample, ResolvedTarget};
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

    c.bench_function("velocity_estimation", |bench| {
        bench.iter(|| estimate_velocity(black_box(&a), 1_500.0))
    });
}

/// Live probing in steady state, three simulated weeks in: one pair test of
/// each of the study's two pair sweeps (12 probes through a held session,
/// buffers and schedule warm), and one estimation-shaped round-robin.
fn bench_probing(c: &mut Criterion) {
    let internet = InternetBuilder::new(InternetConfig::tiny(42)).build();
    let pingable: Vec<ResolvedTarget> = internet
        .devices()
        .iter()
        .filter(|d| d.responds_to_ping)
        .flat_map(|d| d.ipv4_addrs())
        .map(|addr| internet.lookup(addr.into()))
        .collect();
    let pair = [pingable[0], pingable[1]];
    let epoch = SimTime::from_days(21);
    let mut session = internet.probe_session();

    let mut group = c.benchmark_group("pair_probe");
    let mut tester = AllyTester::new();
    let mut now = epoch;
    group.bench_function("ally_20pps", |bench| {
        bench.iter(|| {
            now += SimTime(200);
            tester.test(&mut session, black_box(pair), VantageKind::Distributed, now)
        })
    });
    let mut prober = IpidProber::new(IpidProberConfig {
        rounds: 1,
        round_spacing: SimTime::ZERO,
        rate_pps: 5_000.0,
    });
    let mut samples = [Vec::new(), Vec::new()];
    let mut now = epoch;
    group.bench_function("elimination_5000pps", |bench| {
        bench.iter(|| {
            now += SimTime(200);
            prober.collect_interleaved_pair(
                &mut session,
                black_box(pair),
                6,
                VantageKind::Distributed,
                now,
                &mut samples,
            );
            monotonic_bounds_test(&[&samples[0], &samples[1]], 1_500.0)
        })
    });
    group.finish();

    let targets: Vec<ResolvedTarget> = pingable.iter().copied().cycle().take(1_000).collect();
    let prober = IpidProber::new(IpidProberConfig {
        rounds: 12,
        round_spacing: SimTime::from_secs(10),
        rate_pps: 5_000.0,
    });
    let mut group = c.benchmark_group("round_robin");
    group.bench_function("1k_targets_12_rounds", |bench| {
        bench.iter(|| {
            prober.collect_round_robin(
                &mut session,
                black_box(&targets),
                VantageKind::Distributed,
                epoch,
            )
        })
    });
    group.finish();
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

criterion_group!(benches, bench_mbt, bench_probing, bench_cross_validate);
criterion_main!(benches);
