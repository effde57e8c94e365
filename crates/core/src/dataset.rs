//! Dataset overview statistics (the paper's Table 1).

use alias_scan::{ObservationStore, ServiceProtocol};
use std::collections::BTreeMap;

/// Distinct-IP and distinct-AS counts for one slice of the data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Distinct responsive addresses.
    pub ips: usize,
    /// Distinct origin ASes.
    pub asns: usize,
}

impl DatasetSummary {
    /// Every Table 1 cell of one store from one pass over its columns: a
    /// summary per protocol row (`TABLE_PROTOCOLS` order, then every
    /// protocol together) and address family (`[IPv4, IPv6]`).
    ///
    /// Each cell equals a filter over the store's rows (the tests' row
    /// reference), but the pass reads only the protocol, id and ASN
    /// columns — payloads are never touched — and distinctness is a bit per
    /// cell: per dense id for addresses, per AS number for origin ASes.
    pub fn cells_of_store(store: &ObservationStore) -> [[DatasetSummary; 2]; 4] {
        const ALL: usize = TABLE_PROTOCOLS.len();
        // Per id: bit 7 its family, and a bit per table row that has seen it.
        let mut ids: Vec<u8> = (store.interner().addrs().iter())
            .map(|addr| u8::from(addr.is_ipv6()) << 7)
            .collect();
        // Per AS number: bit `2 * row + family` for each cell that has seen it.
        let mut asns: BTreeMap<u32, u8> = BTreeMap::new();
        // What the rows lately recorded there, by AS number modulo the
        // length: ASes are few and rows many, so nearly every row finds its
        // bits already in and skips the map (a search of ≈ 28 ns).
        const RECENT: usize = 1024;
        let mut recent = [(0u32, 0u8); RECENT];
        let mut cells = [[DatasetSummary::default(); 2]; ALL + 1];
        let columns = store.protocols().iter().zip(store.addr_ids());
        for ((&protocol, &id), &asn) in columns.zip(store.asns()) {
            let of_protocol = TABLE_PROTOCOLS.iter().position(|&p| p == protocol);
            let id = &mut ids[id.index()];
            let family = usize::from(*id >> 7);
            let mut seeing = 0;
            for row in of_protocol.into_iter().chain([ALL]) {
                if *id >> row & 1 == 0 {
                    *id |= 1 << row;
                    cells[row][family].ips += 1;
                }
                seeing |= 1 << (2 * row + family);
            }
            if let Some(asn) = asn {
                let recent = &mut recent[asn as usize % RECENT];
                if recent.0 != asn {
                    *recent = (asn, 0);
                }
                if seeing & !recent.1 != 0 {
                    recent.1 |= seeing;
                    *asns.entry(asn).or_default() |= seeing;
                }
            }
        }
        for seen in asns.into_values() {
            for (row, cell) in cells.iter_mut().enumerate() {
                for (family, cell) in cell.iter_mut().enumerate() {
                    cell.asns += usize::from(seen >> (2 * row + family) & 1);
                }
            }
        }
        cells
    }
}

/// The protocols Table 1 gives a row each, in row order.
pub(crate) const TABLE_PROTOCOLS: [ServiceProtocol; 3] = [
    ServiceProtocol::Ssh,
    ServiceProtocol::Bgp,
    ServiceProtocol::Snmpv3,
];

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;
    use alias_scan::{DataSource, ServiceObservation, ServicePayload};
    use alias_wire::snmp::EngineId;
    use std::collections::BTreeSet;
    use std::net::IpAddr;

    /// Filter describing one Table 1 cell.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct DatasetFilter {
        /// Restrict to one protocol (`None` = all protocols, i.e. the union row).
        protocol: Option<ServiceProtocol>,
        /// Restrict to one data source (`None` = union of sources).
        source: Option<DataSource>,
        /// Restrict to IPv6 (`true`) or IPv4 (`false`).
        ipv6: bool,
    }

    impl DatasetSummary {
        /// Compute the summary of all observations matching `filter`: the row
        /// reference `cells_of_store` is held to.
        fn compute<'a, I>(observations: I, filter: DatasetFilter) -> Self
        where
            I: IntoIterator<Item = &'a ServiceObservation>,
        {
            // Collect-then-dedup instead of a tree set: distinctness is the
            // only thing needed, and the sort happens once at the end.
            let mut ips: Vec<IpAddr> = Vec::new();
            let mut asns: BTreeSet<u32> = BTreeSet::new();
            for obs in observations {
                if obs.is_ipv6() != filter.ipv6 {
                    continue;
                }
                if let Some(protocol) = filter.protocol {
                    if obs.protocol() != protocol {
                        continue;
                    }
                }
                if let Some(source) = filter.source {
                    if obs.source != source {
                        continue;
                    }
                }
                ips.push(obs.addr);
                if let Some(asn) = obs.asn {
                    asns.insert(asn);
                }
            }
            ips.sort_unstable();
            ips.dedup();
            DatasetSummary {
                ips: ips.len(),
                asns: asns.len(),
            }
        }
    }

    fn snmp_obs(addr: &str, asn: u32, source: DataSource) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 161,
            source,
            timestamp: SimTime::ZERO,
            asn: Some(asn),
            payload: ServicePayload::Snmpv3 {
                engine_id: EngineId(EngineId::enterprise_mac_bytes(9, [0; 6]).to_vec()),
                engine_boots: 1,
                engine_time: 1,
            },
        }
    }

    #[test]
    fn filters_by_protocol_source_and_family() {
        let observations = [
            snmp_obs("10.0.0.1", 100, DataSource::Active),
            snmp_obs("10.0.0.2", 100, DataSource::Active),
            snmp_obs("10.0.0.2", 100, DataSource::Censys), // same IP, other source
            snmp_obs("2001:db8::1", 200, DataSource::Active),
        ];
        let v4_active = DatasetSummary::compute(
            observations.iter(),
            DatasetFilter {
                protocol: Some(ServiceProtocol::Snmpv3),
                source: Some(DataSource::Active),
                ipv6: false,
            },
        );
        assert_eq!(v4_active, DatasetSummary { ips: 2, asns: 1 });

        let v4_union_sources = DatasetSummary::compute(
            observations.iter(),
            DatasetFilter {
                protocol: Some(ServiceProtocol::Snmpv3),
                source: None,
                ipv6: false,
            },
        );
        assert_eq!(
            v4_union_sources.ips, 2,
            "union must not double count the shared IP"
        );

        let v6 = DatasetSummary::compute(
            observations.iter(),
            DatasetFilter {
                protocol: None,
                source: None,
                ipv6: true,
            },
        );
        assert_eq!(v6, DatasetSummary { ips: 1, asns: 1 });

        let ssh_only = DatasetSummary::compute(
            observations.iter(),
            DatasetFilter {
                protocol: Some(ServiceProtocol::Ssh),
                source: None,
                ipv6: false,
            },
        );
        assert_eq!(ssh_only, DatasetSummary::default());
    }

    #[test]
    fn store_cells_match_the_row_iterator_for_every_cell() {
        let mut observations = vec![
            snmp_obs("10.0.0.1", 100, DataSource::Active),
            snmp_obs("10.0.0.2", 100, DataSource::Active),
            snmp_obs("10.0.0.2", 100, DataSource::Censys),
            snmp_obs("10.0.0.2", 300, DataSource::Censys),
            snmp_obs("2001:db8::1", 200, DataSource::Active),
            snmp_obs("2001:db8::2", 100, DataSource::Active),
            // Two AS numbers that share a slot of the recent-AS memo,
            // taking it from each other row after row.
            snmp_obs("10.0.0.3", 1_124, DataSource::Active),
            snmp_obs("10.0.0.4", 100, DataSource::Active),
            snmp_obs("10.0.0.5", 1_124, DataSource::Active),
        ];
        // A protocol with no row of its own counts in the last one only,
        // and a row without an AS counts its address alone.
        observations.push(ServiceObservation {
            addr: "10.0.0.7".parse().unwrap(),
            port: 0,
            source: DataSource::Active,
            timestamp: SimTime::ZERO,
            asn: None,
            payload: ServicePayload::RateLimit {
                round: 0,
                rate_pps: 256,
                sent: 24,
                lost: 3,
            },
        });
        let store = alias_scan::ObservationStore::from_observations(observations.clone());
        let cells = DatasetSummary::cells_of_store(&store);
        let rows = TABLE_PROTOCOLS.map(Some).into_iter().chain([None]);
        for (row, protocol) in rows.enumerate() {
            for ipv6 in [false, true] {
                let filter = DatasetFilter {
                    protocol,
                    source: None,
                    ipv6,
                };
                assert_eq!(
                    cells[row][usize::from(ipv6)],
                    DatasetSummary::compute(observations.iter(), filter),
                    "{filter:?}"
                );
            }
        }
        assert_eq!(cells[2][0], DatasetSummary { ips: 5, asns: 3 });
        assert_eq!(cells[3][0], DatasetSummary { ips: 6, asns: 3 });
        assert_eq!(cells[3][1], DatasetSummary { ips: 2, asns: 2 });
    }
}
