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
//! which crawls straight into columnar stores through their scan door,
//! [`ShardColumns::push_session`]: a session is parsed in place and its
//! payload encoded once, into the arena it stays in, and a banner and
//! KEXINIT that repeat, cookie aside, are parsed once per store.

use alias_netsim::{Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_scan::{DataSource, ObservationStore, ServiceObservation, ShardColumns};
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

/// Non-standard ports a fraction of SSH hosts are additionally listed on.
pub const EXTRA_SSH_PORTS: [u16; 4] = [2222, 2022, 830, 8022];

/// Fraction of SSH sessions also listed on one of [`EXTRA_SSH_PORTS`].
const NONSTANDARD_PORT_FRACTION: f64 = 0.2;
const _: () = assert!(NONSTANDARD_PORT_FRACTION >= 0.0 && NONSTANDARD_PORT_FRACTION <= 1.0);

/// Configuration of a snapshot collection.
#[derive(Debug, Clone)]
pub struct CensysConfig {
    /// The snapshot date (simulated); the paper's snapshot predates the
    /// active scan by three weeks.
    pub snapshot_time: SimTime,
    /// Seed for the extra-port sampling.
    pub seed: u64,
}

impl Default for CensysConfig {
    fn default() -> Self {
        CensysConfig {
            snapshot_time: SimTime::ZERO,
            seed: 0xce9515,
        }
    }
}

/// A collected snapshot: the rows on the protocols' default ports — the
/// view the paper uses ("we only consider hosts that are running SSH and
/// BGP on the default ports") — and the rows on non-standard ports, each a
/// store in crawl order.
#[derive(Debug, Clone)]
pub struct CensysSnapshot {
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
        let mut default_port = ShardColumns::new();
        let mut nonstandard = ShardColumns::new();
        let mut session = Vec::new();
        let mut sessions = 0u64;

        for device in internet.devices() {
            if !device.censys_covered() {
                continue;
            }
            for protocol in [ServiceProtocol::Ssh, ServiceProtocol::Bgp] {
                let port = protocol.default_port();
                for (iface, interface) in device.interfaces().iter().enumerate() {
                    // The paper excludes Censys's negligible IPv6 data.
                    if !device.responds_on(protocol, iface) || interface.addr.is_ipv6() {
                        continue;
                    }
                    sessions += 1;
                    if !internet.service_session_into(device.id(), iface, port, &ctx, &mut session)
                    {
                        continue;
                    }
                    let (addr, asn) = (interface.addr, Some(interface.asn.0));
                    let (source, time) = (DataSource::Censys, config.snapshot_time);
                    if !default_port.push_session(addr, port, source, time, asn, protocol, &session)
                    {
                        continue;
                    }
                    // A fraction of SSH hosts also appear on a non-standard
                    // port.
                    if protocol == ServiceProtocol::Ssh && rng.gen_bool(NONSTANDARD_PORT_FRACTION) {
                        let listed = EXTRA_SSH_PORTS[rng.gen_range(0..EXTRA_SSH_PORTS.len())];
                        nonstandard
                            .push_session(addr, listed, source, time, asn, protocol, &session);
                    }
                }
            }
        }
        SESSIONS.add(sessions);
        CensysSnapshot {
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
            assert!(!obs.is_ipv6(), "IPv6 is excluded");
        }
    }

    #[test]
    fn coverage_skips_uncovered_devices() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        for obs in &rows(&snapshot) {
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
            assert!(internet.device(device_id).censys_covered());
        }
        // Some devices exist that Censys does not cover at all.
        assert!(internet.devices().any(|d| !d.censys_covered()));
    }

    #[test]
    fn censys_sees_hosts_the_single_vp_misses() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let invisible_but_seen = rows(&snapshot).iter().any(|obs| {
            let (device_id, _) = internet.lookup(obs.addr).unwrap();
            !internet.device(device_id).visible_to_single_vp()
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
            assert!(EXTRA_SSH_PORTS.contains(port));
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
    fn the_crawl_counts_its_sessions_and_opens_its_span() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        // The registry is this test thread's, so it holds this crawl only.
        let recorded = alias_obs::registry().snapshot();
        let sessions = recorded
            .counters
            .iter()
            .find(|c| c.name == "censys.sessions");
        let sessions = sessions.expect("the crawl counts its sessions");
        // Every row but the extra-port ones is an attempted session that
        // answered; silent BGP speakers are attempts without a row.
        assert!(sessions.value >= snapshot.default_port().len() as u64);
        let opened: Vec<&str> = recorded.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(opened, ["censys/collect"]);
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
