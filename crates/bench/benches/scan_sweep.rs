//! Scanning throughput: the three routed-space sweeps (ZMap-like SYN,
//! SNMPv3 discovery, rate-probe ping discovery) and the ZGrab-like service
//! grab over a small synthetic Internet, plus Internet generation itself.

use alias_netsim::{InternetBuilder, InternetConfig, ServiceProtocol, SimTime, VantageKind};
use alias_scan::rate_probe::{RateProbeConfig, RateProber};
use alias_scan::snmp::{SnmpScanConfig, SnmpScanner};
use alias_scan::zgrab::{ZgrabConfig, ZgrabScanner};
use alias_scan::zmap::{ZmapConfig, ZmapScanner};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_scanning(c: &mut Criterion) {
    let internet = InternetBuilder::new(InternetConfig::small(3)).build();
    let zmap = ZmapScanner::new(ZmapConfig::default());
    c.bench_function("zmap_ipv4_sweep_small", |b| {
        b.iter(|| zmap.scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1))
    });

    let syn = zmap.scan_ipv4(&internet, VantageKind::Distributed, SimTime::ZERO, 1);
    let ssh_targets = syn.on_port(22).to_vec();
    let zgrab = ZgrabScanner::new(ZgrabConfig::default());
    c.bench_function("zgrab_ssh_grab_small", |b| {
        b.iter(|| {
            zgrab.grab(
                &internet,
                &ssh_targets,
                22,
                ServiceProtocol::Ssh,
                VantageKind::Distributed,
                SimTime::ZERO,
                1,
            )
        })
    });

    let snmp = SnmpScanner::new(SnmpScanConfig::default());
    c.bench_function("snmp_routed_sweep_small", |b| {
        b.iter(|| snmp.scan_routed_space(&internet, VantageKind::Distributed, SimTime::ZERO, 1))
    });

    let prober = RateProber::new(RateProbeConfig::default());
    c.bench_function("rate_probe_discovery_small", |b| {
        b.iter(|| {
            prober.discover_targets(&internet, &[], VantageKind::Distributed, SimTime::ZERO, 1)
        })
    });

    c.bench_function("internet_generation_small", |b| {
        b.iter(|| InternetBuilder::new(InternetConfig::small(3)).build())
    });
}

criterion_group!(benches, bench_scanning);
criterion_main!(benches);
