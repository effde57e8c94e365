//! IPID baseline micro-benchmarks: the monotonic bounds test and velocity
//! estimation that MIDAR runs for every candidate pair, MIDAR's discovery
//! window with the step bound evaluated, read from a table, and read by
//! the two-gap kernel over the series' columns, one pair
//! probe and one round-robin sweep through a held probe session, and the
//! agreement projection every pair of techniques goes through.

use alias_core::validation::cross_validate;
use alias_intern::{AddrId, CompactAliasSet};
use alias_netsim::{
    InternetBuilder, InternetConfig, IpidSample, ProbeContext, Route, SimTime, VantageKind,
};
use alias_resolve::mbt::{monotonic_bounds_test, MbtVerdict, SeriesColumns, StepBounds};
use alias_resolve::velocity::estimate_velocity;
use alias_resolve::AllyTester;
use alias_scan::ipid_probe::{round_robin, IpidProber, ROUNDS};
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
        bench.iter(|| monotonic_bounds_test(black_box(&[&a, &b])))
    });
    let unrelated = synthetic_series(40_000, 12.0, 30);
    c.bench_function("mbt_inconsistent_pair", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&[&a, &unrelated])))
    });

    // Ten times the samples, the violation still at the first merged step:
    // what is left is the time-order check of the two inputs.
    let long = synthetic_series(100, 12.0, 300);
    let long_unrelated = synthetic_series(40_000, 12.0, 300);
    c.bench_function("mbt_inconsistent_early_exit", |bench| {
        bench.iter(|| monotonic_bounds_test(black_box(&[&long, &long_unrelated])))
    });

    c.bench_function("velocity_estimation", |bench| {
        bench.iter(|| estimate_velocity(black_box(&a)))
    });
}

/// Twelve rounds of `targets` series in a round robin's shape: a round
/// spreads its probes over 79 s, as MIDAR's one probe a millisecond does
/// over the study's 78,970 targets, and the next starts 10 s after it
/// ends.  Targets `8m` to `8m + 7` read one counter, so about 30 % of a
/// window's pairs are consistent (the study's discovery finds 27 %); the
/// probe order within a round is a fixed shuffle.  Returned sorted by
/// velocity, as the discovery window walks them.
fn round_robin_series(targets: u64) -> Vec<Vec<IpidSample>> {
    let mut series: Vec<(u64, Vec<IpidSample>)> = (0..targets)
        .map(|t| {
            let counter = t / 8;
            let velocity = 10 + counter % 97 * 10;
            let base = (counter * 7_919) as u16;
            let offset = (t * 7_919) % targets * ROUND_MS / targets;
            let samples = (0..ROUNDS as u64)
                .map(|round| {
                    let time = round * ROUND_PERIOD_MS + offset;
                    IpidSample {
                        time: SimTime(time),
                        ipid: base.wrapping_add((velocity * time / 1_000) as u16),
                    }
                })
                .collect();
            (velocity, samples)
        })
        .collect();
    series.sort_by_key(|&(velocity, _)| velocity);
    series.into_iter().map(|(_, samples)| samples).collect()
}

/// A round spread over 79 s, and the 10 s before the next.
const ROUND_MS: u64 = 79_000;
const ROUND_PERIOD_MS: u64 = ROUND_MS + 10_000;

/// MIDAR's discovery window (each series against the next 23) over 4,000
/// round-robin series: the step bound evaluated in f64 at every step, read
/// from MIDAR's table, and the two-gap kernel over the series' columns
/// (every series here is regular and the starts distinct, as a round
/// robin's are, so the kernel serves every pair).
fn bench_discovery_window(c: &mut Criterion) {
    const WINDOW: usize = 24;
    let series = round_robin_series(4_000);
    let window = |test: &dyn Fn(usize, usize) -> MbtVerdict| {
        let mut consistent = 0u32;
        for i in 0..series.len() {
            for j in i + 1..(i + WINDOW).min(series.len()) {
                consistent += u32::from(test(i, j) == MbtVerdict::Consistent);
            }
        }
        consistent
    };
    let bounds = StepBounds::new();
    let f64_step = |i: usize, j: usize| monotonic_bounds_test(&[&series[i], &series[j]]);
    let table = |i: usize, j: usize| bounds.pair_test(&series[i], &series[j]);
    let rows = series.iter().map(|samples| {
        let start = samples[0].time.as_millis();
        (start, std::array::from_fn(|round| samples[round].ipid))
    });
    let columns = SeriesColumns::new(ROUND_PERIOD_MS, rows, &bounds);
    let kernel = |i: usize, j: usize| columns.kernel_test(i, j);
    assert_eq!(window(&f64_step), window(&table));
    assert_eq!(window(&table), window(&kernel));
    let mut group = c.benchmark_group("discovery_window_4k");
    group.bench_function("f64_step", |bench| {
        bench.iter(|| window(black_box(&f64_step)))
    });
    group.bench_function("table", |bench| bench.iter(|| window(black_box(&table))));
    group.bench_function("kernel", |bench| bench.iter(|| window(black_box(&kernel))));
    group.finish();
}

/// Live probing in steady state, three simulated weeks in: one pair test of
/// each of the study's two pair sweeps (up to 12 probes through a held
/// session, stopping where the sweep's rule refutes, buffers and schedule
/// warm), and one estimation-shaped round-robin.
fn bench_probing(c: &mut Criterion) {
    let internet = InternetBuilder::new(InternetConfig::tiny(42)).build();
    let pingable: Vec<Option<Route>> = internet
        .devices()
        .filter(|d| d.responds_to_ping())
        .flat_map(|d| d.ipv4_addrs())
        .map(|addr| internet.route(addr.into()))
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
    let mut prober = IpidProber::new(SimTime(1));
    let bounds = StepBounds::new();
    let mut samples = [Vec::new(), Vec::new()];
    let mut now = epoch;
    group.bench_function("elimination_5000pps", |bench| {
        bench.iter(|| {
            now += SimTime(200);
            prober.collect_interleaved_pair(
                &mut session,
                black_box(pair),
                6,
                ProbeContext {
                    vantage: VantageKind::Distributed,
                    time: now,
                },
                &mut samples,
                |prev, next| bounds.step_is_impossible(prev, next),
            );
            bounds.pair_test(&samples[0], &samples[1])
        })
    });
    group.finish();

    let targets: Vec<Option<Route>> = pingable.iter().copied().cycle().take(1_000).collect();
    let mut group = c.benchmark_group("round_robin");
    group.bench_function("1k_targets_12_rounds", |bench| {
        bench.iter(|| {
            round_robin(
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

criterion_group!(
    benches,
    bench_mbt,
    bench_discovery_window,
    bench_probing,
    bench_cross_validate
);
criterion_main!(benches);
