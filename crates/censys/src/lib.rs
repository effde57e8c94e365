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
//! All of those behaviours are reproduced by [`CensysSnapshot::collect`],
//! which crawls straight into columnar stores: a session is parsed in
//! place and its payload encoded once, into the arena it stays in.

use alias_netsim::{Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::{DataSource, ObservationStore, PayloadRef, ServiceObservation, ShardColumns};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Application-layer sessions the crawl attempted: one per listed address
/// and protocol, whatever it answered — the crawl's `scan.grab_sessions`.
static SESSIONS: LazyCounter = LazyCounter::new(
    "censys.sessions",
    DeterminismClass::Deterministic,
    "sessions",
    "censys",
);

/// Configuration of a snapshot collection.
#[derive(Debug, Clone)]
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

/// A collected snapshot: the rows on the protocols' default ports — the
/// view the paper uses ("we only consider hosts that are running SSH and
/// BGP on the default ports") — and the rows on non-standard ports, each a
/// store in crawl order.
#[derive(Debug, Clone)]
pub struct CensysSnapshot {
    /// The configuration the snapshot was collected with.
    pub config: CensysConfig,
    default_port: ObservationStore,
    nonstandard: ObservationStore,
}

impl CensysSnapshot {
    /// Crawl the simulated Internet the way the Censys fleet would.
    pub fn collect(internet: &Internet, config: CensysConfig) -> Self {
        let _span = alias_obs::span("censys/collect");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: config.snapshot_time,
        };
        let nonstandard_fraction = internet
            .config()
            .visibility
            .censys_nonstandard_port_fraction;
        let mut default_port = ShardColumns::new();
        let mut nonstandard = ShardColumns::new();
        let mut session = Vec::new();
        let mut sessions = 0u64;

        for device in internet.devices() {
            if !device.censys_covered {
                continue;
            }
            let per_protocol = [
                (ServiceProtocol::Ssh, device.ssh_responding_addrs()),
                (ServiceProtocol::Bgp, device.bgp_responding_addrs()),
            ];
            for (protocol, addr) in per_protocol
                .into_iter()
                .flat_map(|(protocol, addrs)| addrs.into_iter().map(move |addr| (protocol, addr)))
            {
                if addr.is_ipv6() && !config.include_ipv6 {
                    continue;
                }
                let Some((device_id, iface)) = internet.lookup(addr) else {
                    continue;
                };
                let port = protocol.default_port();
                sessions += 1;
                if !internet.service_session_into(device_id, iface, port, &ctx, &mut session) {
                    continue;
                }
                let Some(payload) = PayloadRef::parse(protocol, &session) else {
                    continue;
                };
                let asn = Some(internet.asn_at(device_id, iface).0);
                let mut list = |listed: u16| {
                    let rows = if listed == port {
                        &mut default_port
                    } else {
                        &mut nonstandard
                    };
                    let (source, time) = (DataSource::Censys, config.snapshot_time);
                    rows.push(addr, listed, source, time, asn, payload);
                };
                // A fraction of SSH hosts also appear on a non-standard port.
                if protocol == ServiceProtocol::Ssh
                    && !config.extra_ssh_ports.is_empty()
                    && rng.gen_bool(nonstandard_fraction)
                {
                    list(config.extra_ssh_ports[rng.gen_range(0..config.extra_ssh_ports.len())]);
                }
                list(port);
            }
        }
        SESSIONS.add(sessions);
        CensysSnapshot {
            config,
            default_port: default_port.into(),
            nonstandard: nonstandard.into(),
        }
    }

    /// The default-port rows.
    pub fn default_port(&self) -> &ObservationStore {
        &self.default_port
    }

    /// The rows on non-standard ports (excluded from the analysis but
    /// reported in the dataset overview).
    pub fn nonstandard(&self) -> &ObservationStore {
        &self.nonstandard
    }

    /// The default-port rows exported as owned observations: the one way
    /// out of the snapshot's columns, for callers that want rows.
    pub fn default_port_observations(&self) -> Vec<ServiceObservation> {
        self.default_port.to_observations()
    }

    /// Consume the snapshot into its default-port store and the number of
    /// non-standard-port rows left behind — for a caller that keeps only
    /// those two, nothing is copied.
    pub fn into_default_port(self) -> (ObservationStore, usize) {
        (self.default_port, self.nonstandard.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_netsim::{InternetBuilder, InternetConfig};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(606)).build()
    }

    /// Every listed row of a snapshot, default-port rows first.
    fn rows(snapshot: &CensysSnapshot) -> Vec<ServiceObservation> {
        let mut rows = snapshot.default_port_observations();
        rows.extend(snapshot.nonstandard().to_observations());
        rows
    }

    #[test]
    fn snapshot_marks_every_record_as_censys() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let rows = rows(&snapshot);
        assert!(!rows.is_empty());
        for obs in &rows {
            assert_eq!(obs.source, DataSource::Censys);
            assert!(!obs.is_ipv6(), "IPv6 must be excluded by default");
        }
    }

    #[test]
    fn coverage_skips_uncovered_devices() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        for obs in &rows(&snapshot) {
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
        let invisible_but_seen = rows(&snapshot).iter().any(|obs| {
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
        let nonstandard = snapshot.nonstandard();
        assert!(!nonstandard.is_empty());
        assert_eq!(nonstandard.validate(), Ok(()));
        for port in nonstandard.ports() {
            assert!(snapshot.config.extra_ssh_ports.contains(port));
        }
        // Every host listed on an extra port is listed on port 22 as well.
        for &addr in nonstandard.interner().addrs() {
            assert!(snapshot.default_port().addr_id(addr).is_some(), "{addr}");
        }
        let default_only = snapshot.default_port().clone();
        assert_eq!(default_only.validate(), Ok(()));
        assert!(default_only
            .select(None, None)
            .iter()
            .all(|o| o.is_default_port()));
        assert_eq!(
            snapshot.default_port_observations(),
            default_only.to_observations()
        );
        // The consuming split is the same two, moved instead of copied.
        let nonstandard = nonstandard.len();
        assert_eq!(snapshot.into_default_port(), (default_only, nonstandard));
    }

    #[test]
    fn an_extra_port_that_is_the_default_port_lands_with_the_default_port_rows() {
        let internet = internet();
        let config = CensysConfig {
            extra_ssh_ports: vec![22],
            ..CensysConfig::default()
        };
        let plain = CensysSnapshot::collect(&internet, CensysConfig::default());
        let doubled = CensysSnapshot::collect(&internet, config);
        assert!(doubled.nonstandard().is_empty());
        // The same hosts drew an extra row; here it sits beside the base row.
        assert_eq!(
            doubled.default_port().len(),
            plain.default_port().len() + plain.nonstandard().len()
        );
        assert!(doubled
            .default_port()
            .ports()
            .iter()
            .all(|&p| p == 22 || p == 179));
    }

    #[test]
    fn the_crawl_counts_its_sessions_and_opens_its_span() {
        let internet = internet();
        let sessions = || {
            let snapshot = alias_obs::registry().snapshot();
            let counter = snapshot
                .counters
                .iter()
                .find(|c| c.name == "censys.sessions");
            counter.map_or(0, |c| c.value)
        };
        let before = sessions();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        // Every row but the extra-port ones is an attempted session that
        // answered; silent BGP speakers are attempts without a row.
        let attempted = sessions() - before;
        assert!(attempted >= snapshot.default_port().len() as u64);
        let opened = alias_obs::registry().snapshot().spans;
        assert!(opened.iter().any(|s| s.path.ends_with("censys/collect")));
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let internet = internet();
        let a = CensysSnapshot::collect(&internet, CensysConfig::default());
        let b = CensysSnapshot::collect(&internet, CensysConfig::default());
        assert_eq!(a.default_port(), b.default_port());
        assert_eq!(a.nonstandard(), b.nonstandard());
    }
}
