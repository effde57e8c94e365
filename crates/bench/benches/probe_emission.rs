//! Probe-emission throughput at paper scale: how many probes per second
//! the hot scan loops push through the simulator, at 1 and 8 threads.
//!
//! Two loops bracket the emission cost spectrum: the ZMap-like SYN sweep
//! (cheapest per probe — schedule slot, index lookup, port dispatch) and
//! the ICMP rate-limiting prober (most expensive — screening plus an
//! escalation ladder of bursts per responsive target).  Each group prints
//! its per-iteration element count first, so probes/sec is
//! `elements / (ns-per-iter * 1e-9)` straight off the output — a
//! regression in per-probe constant cost is visible regardless of
//! population size.

use alias_netsim::{InternetBuilder, InternetConfig, ScalePreset, SimTime, VantageKind};
use alias_scan::rate_probe::{RateProbeConfig, RateProber};
use alias_scan::zmap::{ZmapConfig, ZmapScanner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_probe_emission(c: &mut Criterion) {
    let internet = InternetBuilder::new(InternetConfig::preset(ScalePreset::PaperShape, 3)).build();
    let (vantage, start) = (VantageKind::Distributed, SimTime::ZERO);
    let zmap = ZmapScanner::new(ZmapConfig::default());
    let probes_sent = zmap.scan_ipv4(&internet, vantage, start, 1).probes_sent;
    println!("probe_emission/zmap: {probes_sent} SYN probes per iteration");

    let mut group = c.benchmark_group("probe_emission/zmap");
    for threads in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| zmap.scan_ipv4(&internet, vantage, start, threads)),
        );
    }
    group.finish();

    let prober = RateProber::new(RateProbeConfig::default());
    let targets = prober.discover_targets(&internet, &[], vantage, start, 1);
    println!(
        "probe_emission/rate_probe: {} targets per iteration",
        targets.len()
    );
    let mut group = c.benchmark_group("probe_emission/rate_probe");
    for threads in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| prober.probe(&internet, &targets, vantage, start, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_probe_emission);
criterion_main!(benches);
