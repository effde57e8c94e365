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

use crate::rate::ProbeSchedule;
use alias_netsim::{internet::SNMP_PORT, DeviceId, Internet, ProbeContext, SimTime, VantageKind};
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

/// One target of a discovery pass, resolved: its address and the interface
/// holding it, or `None` where nothing does (the datagram is sent anyway).
type ResolvedTarget = Option<(IpAddr, DeviceId, usize)>;

/// Configuration of the SNMPv3 scanner.
#[derive(Debug, Clone)]
pub struct SnmpScanConfig {
    /// Probe rate in packets per second.
    pub rate_pps: f64,
    /// Data source label stamped on produced records.
    pub source: DataSource,
}

impl Default for SnmpScanConfig {
    fn default() -> Self {
        SnmpScanConfig {
            rate_pps: 50_000.0,
            source: DataSource::Active,
        }
    }
}

/// The SNMPv3 discovery scanner.
#[derive(Debug, Clone)]
pub struct SnmpScanner {
    config: SnmpScanConfig,
}

impl SnmpScanner {
    /// Create a scanner with the given configuration.
    pub fn new(config: SnmpScanConfig) -> Self {
        SnmpScanner { config }
    }

    /// The probe loop of one shard: one paced discovery request per target,
    /// with message ids continuing the global sequence from `global_offset`
    /// and send times drawn from `schedule`; results are pushed into
    /// `columns`.
    ///
    /// Targets arrive resolved and as an iterator, so the routed-space sweep
    /// never materialises its address list.  An unpopulated target consumes
    /// its schedule slot (the probe *is* sent) but skips request
    /// construction, probe dispatch and ASN attribution entirely — none of
    /// which can be observed for an address that does not exist.  The
    /// request and the reply live in two buffers reused across the shard:
    /// the only allocation a stored row costs here is its engine ID.
    fn scan_slice(
        &self,
        internet: &Internet,
        targets: impl Iterator<Item = ResolvedTarget>,
        global_offset: usize,
        vantage: VantageKind,
        schedule: &mut ProbeSchedule,
        columns: &mut ShardColumns,
    ) {
        let (mut request, mut reply) = (Vec::new(), Vec::new());
        for (offset, target) in targets.enumerate() {
            let now = schedule.next_send_time();
            let Some((addr, device_id, iface_idx)) = target else {
                continue;
            };
            let msg_id = 0x0101 + (global_offset + offset) as i64;
            request.clear();
            Snmpv3Message::DiscoveryRequest { msg_id }.encode_into(&mut request);
            let ctx = ProbeContext { vantage, time: now };
            if !internet.snmp_probe_into(device_id, iface_idx, &request, &ctx, &mut reply) {
                continue;
            }
            let Ok(Snmpv3Message::Report { usm, .. }) = Snmpv3Message::parse(&reply) else {
                continue;
            };
            columns.push(
                addr,
                SNMP_PORT,
                self.config.source,
                now,
                Some(internet.asn_at(device_id, iface_idx).0),
                PayloadRef::Snmpv3 {
                    engine_id: usm.engine_id.as_bytes(),
                    engine_boots: usm.engine_boots,
                    engine_time: usm.engine_time,
                },
            );
        }
    }

    /// Probe every address in `targets` with an engine-discovery request,
    /// with `threads` shard workers over disjoint slices of the target
    /// list; returns the per-shard column chunks in shard order (the form
    /// the campaign store absorbs).
    ///
    /// Byte-identical for any thread count: shards resume the one-shard
    /// token-bucket schedule (fast-forwarded to their first target) and use
    /// the same global message-id sequence, so the engine-time values in
    /// the Report payloads — which depend on the probe time — match probe
    /// for probe.
    pub fn scan(
        &self,
        internet: &Internet,
        targets: &[IpAddr],
        vantage: VantageKind,
        start: SimTime,
        threads: usize,
    ) -> Vec<ShardColumns> {
        let ranges = alias_exec::split_even(targets.len() as u64, alias_exec::shards_for(threads));
        let starts = self.schedule_starts(&ranges, start);
        let shards = alias_exec::shard_map(ranges.len(), threads, |shard| {
            let range = &ranges[shard];
            let mut schedule = starts[shard].clone();
            let mut columns = ShardColumns::new();
            self.scan_slice(
                internet,
                targets[range.start as usize..range.end as usize]
                    .iter()
                    .map(|&addr| {
                        let (device_id, iface_idx) = internet.lookup(addr)?;
                        Some((addr, device_id, iface_idx))
                    }),
                range.start as usize,
                vantage,
                &mut schedule,
                &mut columns,
            );
            columns
        });
        count_pass(targets.len() as u64, &shards);
        shards
    }

    /// Deal the pacing schedule out at the shard boundaries: shard `i`
    /// receives the schedule state after every probe of shards `0..i`,
    /// batched per send time so the whole pass is cheap even when the
    /// sharded space runs to tens of millions of probes.
    fn schedule_starts(
        &self,
        ranges: &[std::ops::Range<u64>],
        start: SimTime,
    ) -> Vec<ProbeSchedule> {
        let mut boundary = ProbeSchedule::new(self.config.rate_pps, 32.0, start);
        ranges
            .iter()
            .map(|range| {
                let state = boundary.clone();
                boundary.skip(range.end - range.start);
                state
            })
            .collect()
    }

    /// Probe every IPv4 address in the routed prefixes (the paper's
    /// Internet-wide SNMPv3 scan) with `threads` shard workers, returning
    /// per-shard column chunks in shard order.
    ///
    /// The routed space is walked by index
    /// ([`Internet::routed_space`]) rather than materialised as an address
    /// list — at the larger scale tiers the list alone would dwarf the
    /// scan's useful output — and an index becomes an address only where
    /// the slot table says an interface holds it.
    pub fn scan_routed_space(
        &self,
        internet: &Internet,
        vantage: VantageKind,
        start: SimTime,
        threads: usize,
    ) -> Vec<ShardColumns> {
        let space = internet.routed_space();
        let ranges = alias_exec::split_even(space.len(), alias_exec::shards_for(threads));
        let starts = self.schedule_starts(&ranges, start);
        let shards = alias_exec::shard_map(ranges.len(), threads, |shard| {
            let range = &ranges[shard];
            let mut schedule = starts[shard].clone();
            let mut columns = ShardColumns::new();
            self.scan_slice(
                internet,
                (range.start..range.end).map(|index| {
                    let (device_id, iface_idx) = space.owner_at(index)?;
                    Some((IpAddr::V4(space.addr_at(index)), device_id, iface_idx))
                }),
                range.start as usize,
                vantage,
                &mut schedule,
                &mut columns,
            );
            columns
        });
        count_pass(space.len(), &shards);
        shards
    }
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
    use alias_netsim::{InternetBuilder, InternetConfig};
    use alias_store::{ObservationStore, ServicePayload};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(55)).build()
    }

    /// The routed-space scan from a distributed vantage at time zero.
    fn routed_space_scan(internet: &Internet, threads: usize) -> ObservationStore {
        store_of(
            SnmpScanner::new(SnmpScanConfig::default()).scan_routed_space(
                internet,
                VantageKind::Distributed,
                SimTime::ZERO,
                threads,
            ),
        )
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
                .iter()
                .flat_map(|d| d.snmp_responding_addrs())
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
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
            let device = internet.device(device_id);
            let expected = &device.snmp.as_ref().unwrap().engine_id;
            match &obs.payload {
                ServicePayload::Snmpv3 { engine_id, .. } => assert_eq!(engine_id, expected),
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_snmp_scan_is_byte_identical_to_serial() {
        // Engine-time values in the Report payloads depend on probe time,
        // so whole-store equality proves the shards resume the one-shard
        // pacing and message-id schedules exactly — for the routed-space
        // sweep and for an explicit target list.
        let internet = internet();
        let serial = routed_space_scan(&internet, 1);
        assert!(!serial.is_empty());
        let targets: Vec<IpAddr> = serial.interner().addrs().to_vec();
        let listed = |threads| {
            store_of(SnmpScanner::new(SnmpScanConfig::default()).scan(
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
        let device = internet
            .devices()
            .iter()
            .find(|d| !d.snmp_responding_addrs().is_empty())
            .unwrap();
        let targets = vec![device.snmp_responding_addrs()[0]];
        let observations = store_of(SnmpScanner::new(SnmpScanConfig::default()).scan(
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
