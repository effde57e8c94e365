//! SNMPv3 engine-discovery scanning.
//!
//! The paper supplements its SSH/BGP technique with the earlier SNMPv3
//! engine-ID technique (Albakour et al., IMC 2021) and uses it as a baseline
//! and validation source.  This scanner sends the unauthenticated discovery
//! GET to each target and records the engine ID from the Report response.
//! The Internet-wide pass walks the indices of the simulator's routed space
//! and resolves each through its slot table; an explicit target list is
//! resolved through the IP index.  Either way one request buffer and one
//! reply buffer serve a whole shard.

use crate::rate::Pace;
use alias_netsim::{internet::SNMP_PORT, Internet, ProbeContext, Route, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_store::{DataSource, PayloadRef, ShardColumns};
use alias_wire::snmp::Snmpv3Message;
use std::net::IpAddr;

/// Discovery datagrams sent: every swept index and every listed target,
/// whether or not anything lives there.  Accumulated at the serial assembly
/// point.
static SNMP_PROBES: LazyCounter = LazyCounter::new(
    "scan.snmp_probes",
    DeterminismClass::Deterministic,
    "probes",
    "scan",
);

/// Reports that parsed into an SNMPv3 observation row.
static SNMP_REPORTS: LazyCounter = LazyCounter::new(
    "scan.snmp_reports",
    DeterminismClass::Deterministic,
    "rows",
    "scan",
);

/// Discovery's pace: a 32-probe bucket at the SYN sweep's rate, so 33
/// requests a millisecond.
const PACE: Pace = Pace::new(crate::zmap::RATE_PPS, 32);

/// The probe loop of one shard: one paced discovery request per target, the
/// first of them the pass's probe `global_offset`, which sets the message
/// ids (the global sequence) and the send times; results are pushed into
/// `columns`.
///
/// Targets arrive as an iterator of addresses, each with its route or
/// `None` where no interface holds it (the datagram is sent anyway), so the
/// routed-space sweep never materialises its address list.  An unpopulated
/// target takes its place in the schedule (the probe *is* sent) but skips
/// its send time, request construction, probe dispatch and ASN attribution
/// entirely — none of which can be observed for an address that does not
/// exist — and a populated one gets its request encoded only if an agent there reads it (the simulator
/// calls the writer past its visibility and listening checks).  The
/// request and the reply live in two buffers reused across the shard: the
/// only allocation a stored row costs here is its engine ID.
fn scan_slice(
    internet: &Internet,
    targets: impl Iterator<Item = Option<(IpAddr, Route)>>,
    global_offset: u64,
    vantage: VantageKind,
    start: SimTime,
    columns: &mut ShardColumns,
) {
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    for (k, target) in (global_offset..).zip(targets) {
        let Some((addr, route)) = target else {
            continue;
        };
        let now = PACE.send_time(start, k);
        let msg_id = 0x0101 + k as i64;
        let request = &mut request;
        let write_request = move || {
            // Moved out of the closure, the borrow can lend the bytes out.
            let request = request;
            request.clear();
            Snmpv3Message::DiscoveryRequest { msg_id }.encode_into(request);
            &request[..]
        };
        let ctx = ProbeContext { vantage, time: now };
        if !internet.snmp_probe_into(route, write_request, &ctx, &mut reply) {
            continue;
        }
        let Ok(Snmpv3Message::Report { usm, .. }) = Snmpv3Message::parse(&reply) else {
            continue;
        };
        columns.push(
            addr,
            SNMP_PORT,
            DataSource::Active,
            now,
            Some(internet.asn_at(route).0),
            PayloadRef::Snmpv3 {
                engine_id: usm.engine_id.as_bytes(),
                engine_boots: usm.engine_boots,
                engine_time: usm.engine_time,
            },
        );
    }
}

/// Probe every address in `targets` with an engine-discovery request, with
/// `threads` shard workers over disjoint slices of the target list; returns
/// the per-shard column chunks in shard order (the form the campaign store
/// absorbs).
///
/// Byte-identical for any thread count: a target's send time and message
/// id are functions of its place in `targets`, so the engine-time values in
/// the Report payloads — which depend on the probe time — match probe for
/// probe.
pub(crate) fn scan(
    internet: &Internet,
    targets: &[IpAddr],
    vantage: VantageKind,
    start: SimTime,
    threads: usize,
) -> Vec<ShardColumns> {
    let ranges = crate::exec::split_even(targets.len() as u64, crate::exec::shards_for(threads));
    let shards = crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        let mut columns = ShardColumns::new();
        scan_slice(
            internet,
            targets[range.start as usize..range.end as usize]
                .iter()
                .map(|&addr| Some((addr, internet.route(addr)?))),
            range.start,
            vantage,
            start,
            &mut columns,
        );
        columns
    });
    count_pass(targets.len() as u64, &shards);
    shards
}

/// Probe every IPv4 address in the routed prefixes (the paper's
/// Internet-wide SNMPv3 scan) with `threads` shard workers, returning
/// per-shard column chunks in shard order.
///
/// The routed space is walked by index ([`Internet::routed_space`]) rather
/// than materialised as an address list — at the larger scale tiers the
/// list alone would dwarf the scan's useful output — and an index becomes
/// an address only where the slot table says an interface holds it.
pub fn scan_routed_space(
    internet: &Internet,
    vantage: VantageKind,
    start: SimTime,
    threads: usize,
) -> Vec<ShardColumns> {
    let space = internet.routed_space();
    let ranges = crate::exec::split_even(space.len(), crate::exec::shards_for(threads));
    let shards = crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        let mut columns = ShardColumns::new();
        scan_slice(
            internet,
            (range.start..range.end).map(|index| {
                let route = space.owner_at(index)?;
                Some((IpAddr::V4(space.addr_at(index)), route))
            }),
            range.start,
            vantage,
            start,
            &mut columns,
        );
        columns
    });
    count_pass(space.len(), &shards);
    shards
}

/// Account one finished discovery pass: `probes` datagrams sent, one report
/// per stored row.
fn count_pass(probes: u64, shards: &[ShardColumns]) {
    SNMP_PROBES.add(probes);
    SNMP_REPORTS.add(shards.iter().map(|shard| shard.len() as u64).sum());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_of;
    use alias_netsim::{InternetBuilder, InternetConfig, ServiceProtocol};
    use alias_store::{ObservationStore, ServicePayload};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(55)).build()
    }

    /// The routed-space scan from a distributed vantage at time zero.
    fn routed_space_scan(internet: &Internet, threads: usize) -> ObservationStore {
        store_of(scan_routed_space(
            internet,
            VantageKind::Distributed,
            SimTime::ZERO,
            threads,
        ))
    }

    /// Sorted, distinct copy of an address list (id-space discipline:
    /// comparisons run on ordered vectors, not address sets).
    fn sorted_distinct(addrs: impl IntoIterator<Item = IpAddr>) -> Vec<IpAddr> {
        let mut addrs: Vec<IpAddr> = addrs.into_iter().collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
    }

    #[test]
    fn scan_finds_every_visible_snmp_interface() {
        let internet = internet();
        let expected = sorted_distinct(
            internet
                .devices()
                .flat_map(|d| d.answering(ServiceProtocol::Snmpv3))
                .filter(|a| a.is_ipv4()),
        );
        assert!(!expected.is_empty());
        let observations = routed_space_scan(&internet, 1).to_observations();
        let found = sorted_distinct(observations.iter().map(|o| o.addr));
        assert_eq!(found, expected);
    }

    #[test]
    fn engine_id_matches_ground_truth_device() {
        let internet = internet();
        for obs in &routed_space_scan(&internet, 1).to_observations() {
            let device_id = internet.ground_truth().device_of(obs.addr).unwrap();
            let device = internet.device(device_id);
            let expected = device.snmp().unwrap().engine_id;
            match &obs.payload {
                ServicePayload::Snmpv3 { engine_id, .. } => {
                    assert_eq!(engine_id.as_bytes(), expected)
                }
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_snmp_scan_is_byte_identical_to_serial() {
        // Engine-time values in the Report payloads depend on probe time,
        // so whole-store equality proves the shards date and number their
        // requests as one shard does — for the routed-space sweep and for an
        // explicit target list.
        let internet = internet();
        let serial = routed_space_scan(&internet, 1);
        assert!(!serial.is_empty());
        let targets: Vec<IpAddr> = serial.interner().addrs().to_vec();
        let listed = |threads| {
            store_of(scan(
                &internet,
                &targets,
                VantageKind::Distributed,
                SimTime::ZERO,
                threads,
            ))
        };
        let serial_listed = listed(1);
        assert_eq!(serial_listed.len(), targets.len());
        for threads in [2usize, 7] {
            assert_eq!(
                routed_space_scan(&internet, threads),
                serial,
                "threads={threads}"
            );
            assert_eq!(listed(threads), serial_listed, "threads={threads}");
        }
    }

    #[test]
    fn explicit_target_scan_only_touches_targets() {
        let internet = internet();
        let targets: Vec<IpAddr> = internet
            .devices()
            .find_map(|d| d.answering(ServiceProtocol::Snmpv3).next())
            .into_iter()
            .collect();
        let observations = store_of(scan(
            &internet,
            &targets,
            VantageKind::Distributed,
            SimTime::ZERO,
            1,
        ))
        .to_observations();
        assert_eq!(observations.len(), 1);
        assert_eq!(observations[0].addr, targets[0]);
        assert_eq!(observations[0].port, SNMP_PORT);
    }
}
