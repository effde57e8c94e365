//! Dataset overview statistics (the paper's Table 1).

use alias_scan::{DataSource, ObservationStore, ServiceObservation, ServiceProtocol};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::IpAddr;

/// Distinct-IP and distinct-AS counts for one slice of the data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Distinct responsive addresses.
    pub ips: usize,
    /// Distinct origin ASes.
    pub asns: usize,
}

/// Filter describing one Table 1 cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetFilter {
    /// Restrict to one protocol (`None` = all protocols, i.e. the union row).
    pub protocol: Option<ServiceProtocol>,
    /// Restrict to one data source (`None` = union of sources).
    pub source: Option<DataSource>,
    /// Restrict to IPv6 (`true`) or IPv4 (`false`).
    pub ipv6: bool,
}

impl DatasetSummary {
    /// Compute the summary of all observations matching `filter`.
    pub fn compute<'a, I>(observations: I, filter: DatasetFilter) -> Self
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

    /// Compute the summary straight from a columnar store.
    ///
    /// Equivalent to [`Self::compute`] over the store's rows, but the
    /// filter pass reads only the one-byte filter columns plus the id column —
    /// payloads are never touched, and distinct-IP counting is a bitmap
    /// probe over the dense id space instead of a `BTreeSet` insert.
    pub fn from_store(store: &ObservationStore, filter: DatasetFilter) -> Self {
        let interner = store.interner();
        // Per-id membership flags instead of BTreeSets: the id space is
        // dense, so distinctness is two bitmap probes per matching row.
        let mut ip_seen = vec![false; interner.len()];
        let mut ips = 0usize;
        let mut asns: BTreeSet<u32> = BTreeSet::new();
        let protocols = store.protocols();
        let sources = store.sources();
        let addrs = store.addr_ids();
        let store_asns = store.asns();
        for row in 0..store.len() {
            if filter.protocol.is_some_and(|p| protocols[row] != p)
                || filter.source.is_some_and(|s| sources[row] != s)
            {
                continue;
            }
            let id = addrs[row];
            if interner.addr(id).is_ipv6() != filter.ipv6 {
                continue;
            }
            if !std::mem::replace(&mut ip_seen[id.index()], true) {
                ips += 1;
            }
            if let Some(asn) = store_asns[row] {
                asns.insert(asn);
            }
        }
        DatasetSummary {
            ips,
            asns: asns.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::SimTime;
    use alias_scan::ServicePayload;
    use alias_wire::snmp::EngineId;

    fn snmp_obs(addr: &str, asn: u32, source: DataSource) -> ServiceObservation {
        ServiceObservation {
            addr: addr.parse().unwrap(),
            port: 161,
            source,
            timestamp: SimTime::ZERO,
            asn: Some(asn),
            payload: ServicePayload::Snmpv3 {
                engine_id: EngineId::from_enterprise_mac(9, [0; 6]),
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
    fn store_summary_matches_the_row_iterator_for_every_filter() {
        let observations = [
            snmp_obs("10.0.0.1", 100, DataSource::Active),
            snmp_obs("10.0.0.2", 100, DataSource::Active),
            snmp_obs("10.0.0.2", 100, DataSource::Censys),
            snmp_obs("2001:db8::1", 200, DataSource::Active),
        ];
        let store = alias_scan::ObservationStore::from_observations(observations.to_vec());
        for protocol in [
            None,
            Some(ServiceProtocol::Snmpv3),
            Some(ServiceProtocol::Ssh),
        ] {
            for source in [None, Some(DataSource::Active), Some(DataSource::Censys)] {
                for ipv6 in [false, true] {
                    let filter = DatasetFilter {
                        protocol,
                        source,
                        ipv6,
                    };
                    assert_eq!(
                        DatasetSummary::from_store(&store, filter),
                        DatasetSummary::compute(observations.iter(), filter),
                        "{filter:?}"
                    );
                }
            }
        }
    }
}
