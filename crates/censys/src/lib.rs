//! # alias-censys
//!
//! A Censys-like snapshot provider for the simulated Internet.
//!
//! The paper complements its own single-vantage-point scans with a Censys
//! snapshot taken roughly three weeks earlier.  Censys differs from the
//! active scans in ways that matter for the results:
//!
//! * it scans from a **distributed** fleet, so rate limiting and IDS filters
//!   hide fewer hosts from it (it finds ~6M more SSH hosts in Table 1);
//! * it scans **all ports**, so part of its SSH data sits on non-standard
//!   ports that the paper excludes;
//! * its coverage of the simulated population is itself imperfect;
//! * it is a **snapshot from an earlier date**, so churn separates it from
//!   the active measurements;
//! * its IPv6 coverage is negligible, which is why the paper excludes
//!   Censys IPv6 data.
//!
//! All of those behaviours are reproduced by [`CensysSnapshot::collect`].
//! Snapshots serialise to JSON so experiments can cache them on disk like
//! real Censys exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use alias_netsim::{Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_scan::zgrab::parse_payload;
use alias_scan::{DataSource, ServiceObservation};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Configuration of a snapshot collection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CensysConfig {
    /// The snapshot date (simulated); the paper's snapshot predates the
    /// active scan by three weeks.
    pub snapshot_time: SimTime,
    /// Non-standard ports a fraction of SSH hosts are additionally listed on.
    pub extra_ssh_ports: Vec<u16>,
    /// Seed for the coverage / extra-port sampling.
    pub seed: u64,
    /// Whether to include (the tiny amount of) IPv6 data Censys has.
    pub include_ipv6: bool,
}

impl Default for CensysConfig {
    fn default() -> Self {
        CensysConfig {
            snapshot_time: SimTime::ZERO,
            extra_ssh_ports: vec![2222, 2022, 830, 8022],
            seed: 0xce9515,
            include_ipv6: false,
        }
    }
}

/// A collected snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CensysSnapshot {
    /// The configuration the snapshot was collected with.
    pub config: CensysConfig,
    /// All service observations in the snapshot, default and non-standard
    /// ports alike.
    pub observations: Vec<ServiceObservation>,
}

impl CensysSnapshot {
    /// Crawl the simulated Internet the way the Censys fleet would.
    pub fn collect(internet: &Internet, config: CensysConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: config.snapshot_time,
        };
        let nonstandard_fraction = internet
            .config()
            .visibility
            .censys_nonstandard_port_fraction;
        let mut observations = Vec::new();
        let mut session = Vec::new();

        for device in internet.devices() {
            if !device.censys_covered {
                continue;
            }
            let per_protocol = [
                (ServiceProtocol::Ssh, 22, device.ssh_responding_addrs()),
                (ServiceProtocol::Bgp, 179, device.bgp_responding_addrs()),
            ];
            for (protocol, port, addr) in
                per_protocol
                    .into_iter()
                    .flat_map(|(protocol, port, addrs)| {
                        addrs.into_iter().map(move |addr| (protocol, port, addr))
                    })
            {
                if addr.is_ipv6() && !config.include_ipv6 {
                    continue;
                }
                let Some((device_id, iface)) = internet.lookup(addr) else {
                    continue;
                };
                if !internet.service_session_into(device_id, iface, port, &ctx, &mut session) {
                    continue;
                }
                let Some(payload) = parse_payload(protocol, &session) else {
                    continue;
                };
                let base = ServiceObservation {
                    addr,
                    port,
                    source: DataSource::Censys,
                    timestamp: config.snapshot_time,
                    asn: Some(internet.asn_at(device_id, iface).0),
                    payload,
                };
                // A fraction of SSH hosts also appear on a non-standard port.
                if protocol == ServiceProtocol::Ssh
                    && !config.extra_ssh_ports.is_empty()
                    && rng.gen_bool(nonstandard_fraction)
                {
                    let extra_port =
                        config.extra_ssh_ports[rng.gen_range(0..config.extra_ssh_ports.len())];
                    let mut extra = base.clone();
                    extra.port = extra_port;
                    observations.push(extra);
                }
                observations.push(base);
            }
        }
        CensysSnapshot {
            config,
            observations,
        }
    }

    /// Observations restricted to the protocols' default ports — the view
    /// the paper uses ("we only consider hosts that are running SSH and BGP
    /// on the default ports").
    pub fn default_port_observations(&self) -> Vec<ServiceObservation> {
        self.observations
            .iter()
            .filter(|o| o.is_default_port())
            .cloned()
            .collect()
    }

    /// Consume the snapshot into its default-port observations (the rows
    /// [`Self::default_port_observations`] clones) and the number of
    /// non-standard-port rows left behind — for a caller that keeps only
    /// those two, nothing is copied.
    pub fn into_default_port(self) -> (Vec<ServiceObservation>, usize) {
        let mut observations = self.observations;
        let total = observations.len();
        observations.retain(ServiceObservation::is_default_port);
        let nonstandard = total - observations.len();
        (observations, nonstandard)
    }

    /// Observations on non-standard ports (excluded from the analysis but
    /// reported in the dataset overview).
    pub fn nonstandard_port_observations(&self) -> Vec<&ServiceObservation> {
        self.observations
            .iter()
            .filter(|o| !o.is_default_port())
            .collect()
    }

    /// Distinct addresses present in the snapshot.
    pub fn address_count(&self) -> usize {
        let mut addrs: Vec<IpAddr> = self.observations.iter().map(|o| o.addr).collect();
        addrs.sort();
        addrs.dedup();
        addrs.len()
    }

    /// Serialise the snapshot to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Load a snapshot from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(606)).build()
    }

    #[test]
    fn snapshot_marks_every_record_as_censys() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        assert!(!snapshot.observations.is_empty());
        for obs in &snapshot.observations {
            assert_eq!(obs.source, DataSource::Censys);
            assert!(!obs.is_ipv6(), "IPv6 must be excluded by default");
        }
    }

    #[test]
    fn coverage_skips_uncovered_devices() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        for obs in &snapshot.observations {
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
            assert!(internet.device(device_id).censys_covered);
        }
        // Some devices exist that Censys does not cover at all.
        assert!(internet.devices().iter().any(|d| !d.censys_covered));
    }

    #[test]
    fn censys_sees_hosts_the_single_vp_misses() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let invisible_but_seen = snapshot.observations.iter().any(|obs| {
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
            !internet.device(device_id).visible_to_single_vp
        });
        assert!(
            invisible_but_seen,
            "distributed scanning must see rate-limited hosts"
        );
    }

    #[test]
    fn nonstandard_ports_exist_and_are_filterable() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let nonstandard = snapshot.nonstandard_port_observations();
        assert!(!nonstandard.is_empty());
        for obs in &nonstandard {
            assert!(snapshot.config.extra_ssh_ports.contains(&obs.port));
        }
        let default_only = snapshot.default_port_observations();
        assert!(default_only.iter().all(|o| o.is_default_port()));
        assert_eq!(
            default_only.len() + nonstandard.len(),
            snapshot.observations.len()
        );
        // The consuming partition is the same split, moved instead of cloned.
        let nonstandard = nonstandard.len();
        assert_eq!(snapshot.into_default_port(), (default_only, nonstandard));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let json = snapshot.to_json().unwrap();
        let reloaded = CensysSnapshot::from_json(&json).unwrap();
        assert_eq!(reloaded.observations, snapshot.observations);
        assert_eq!(reloaded.address_count(), snapshot.address_count());
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let internet = internet();
        let a = CensysSnapshot::collect(&internet, CensysConfig::default());
        let b = CensysSnapshot::collect(&internet, CensysConfig::default());
        assert_eq!(a.observations, b.observations);
    }
}
