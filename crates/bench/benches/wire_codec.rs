//! Wire codec throughput: parsing and emitting the protocol messages the
//! scanners handle millions of times per campaign, through the doors the
//! simulated servers and the scan use — every emit into a reused buffer,
//! every parse in place.

use alias_wire::bgp::{messages, Capability, OpenMessage, OptionalParameter};
use alias_wire::snmp::{EngineId, Snmpv3Message, UsmSecurityParameters};
use alias_wire::ssh::{parse_packet, Banner, HostKey, HostKeyAlgorithm, KexInit};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::net::Ipv4Addr;

fn bench_bgp(c: &mut Criterion) {
    let open = OpenMessage {
        version: 4,
        my_as: 23_456,
        hold_time: 90,
        bgp_identifier: Ipv4Addr::new(148, 170, 0, 33),
        optional_parameters: vec![
            OptionalParameter::Capability(Capability::RouteRefreshCisco),
            OptionalParameter::Capability(Capability::RouteRefresh),
            OptionalParameter::Capability(Capability::FourOctetAs { asn: 396_982 }),
        ],
    };
    let emit = |open: &OpenMessage, out: &mut Vec<u8>| {
        let params = open.optional_parameters.iter().map(|param| param.as_ref());
        OpenMessage::emit_parts(4, open.my_as, 90, open.bgp_identifier, params, out);
    };
    let mut bytes = Vec::new();
    emit(&open, &mut bytes);
    let mut out = Vec::new();
    c.bench_function("bgp_open_emit", |b| {
        b.iter(|| {
            out.clear();
            emit(black_box(&open), &mut out);
        })
    });
    c.bench_function("bgp_open_parse", |b| {
        b.iter(|| messages(black_box(&bytes)).next().unwrap())
    });
}

fn bench_ssh(c: &mut Criterion) {
    let kex = KexInit::typical_openssh();
    let mut packet_bytes = Vec::new();
    kex.emit_packet(&kex.cookie, &mut packet_bytes);
    let banner = Banner::new("OpenSSH_9.2p1", Some("Debian-2+deb12u2")).unwrap();
    let mut banner_bytes = Vec::new();
    banner.emit(&mut banner_bytes);
    c.bench_function("ssh_kexinit_parse", |b| {
        b.iter(|| {
            let (payload, _) = parse_packet(black_box(&packet_bytes)).unwrap();
            KexInit::parse_borrowed(payload).unwrap()
        })
    });
    c.bench_function("ssh_kexinit_fingerprint", |b| {
        b.iter(|| black_box(&kex).capability_fingerprint())
    });
    c.bench_function("ssh_banner_parse", |b| {
        b.iter(|| Banner::parse_borrowed(black_box(&banner_bytes)).unwrap())
    });
    let key = HostKey::new(HostKeyAlgorithm::Ed25519, vec![7u8; 32]);
    c.bench_function("ssh_hostkey_fingerprint", |b| {
        b.iter(|| black_box(&key).fingerprint())
    });
}

fn bench_snmp(c: &mut Criterion) {
    let engine_id = EngineId(EngineId::enterprise_mac_bytes(9, [1, 2, 3, 4, 5, 6]).to_vec());
    let report = Snmpv3Message::Report {
        msg_id: 99,
        usm: UsmSecurityParameters {
            engine_id: engine_id.clone(),
            engine_boots: 12,
            engine_time: 34_567,
            user_name: Vec::new(),
        },
        unknown_engine_ids: 1,
    };
    let mut bytes = Vec::new();
    report.encode_into(&mut bytes);
    let mut out = Vec::new();
    c.bench_function("snmpv3_report_emit", |b| {
        b.iter(|| {
            out.clear();
            black_box(&report).encode_into(&mut out);
        })
    });
    c.bench_function("snmpv3_report_parse", |b| {
        b.iter(|| Snmpv3Message::parse(black_box(&bytes)).unwrap())
    });
    // One whole discovery exchange as a sweep runs it: the request encoded
    // into a reused buffer, the agent's Report into another, the Report
    // parsed.
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    c.bench_function("snmpv3_discovery_exchange", |b| {
        b.iter(|| {
            request.clear();
            reply.clear();
            let msg_id = black_box(0x0101);
            Snmpv3Message::DiscoveryRequest { msg_id }.encode_into(&mut request);
            Snmpv3Message::encode_report_into(
                &mut reply,
                msg_id,
                engine_id.as_bytes(),
                12,
                34_567,
                1,
            );
            Snmpv3Message::parse(black_box(&reply)).unwrap()
        })
    });
}

criterion_group!(benches, bench_bgp, bench_ssh, bench_snmp);
criterion_main!(benches);
