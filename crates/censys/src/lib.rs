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
//!   ports that the paper excludes — the crawl counts those listings for
//!   Table 1 and keeps none of them;
//! * its coverage of the simulated population is itself imperfect;
//! * it is a **snapshot from an earlier date**, so churn separates it from
//!   the active measurements;
//! * its IPv6 coverage is negligible, which is why the paper excludes
//!   Censys IPv6 data.
//!
//! All of those behaviours are reproduced by [`CensysSnapshot::collect`],
//! which crawls straight into one columnar store through its scan door,
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
const EXTRA_SSH_PORTS: [u16; 4] = [2222, 2022, 830, 8022];

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
/// BGP on the default ports") — as a store in crawl order, and how many
/// listings on non-standard ports the crawl counted beside them.
#[derive(Debug, Clone)]
pub struct CensysSnapshot {
    default_port: ObservationStore,
    nonstandard: usize,
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
        let mut nonstandard = 0;
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
                    if !internet.service_session_into(device.route(iface), port, &ctx, &mut session)
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
                    // port.  Only the count is kept, but the port is still
                    // drawn: both draws per listing keep the RNG stream, and
                    // so Table 1's count, what it was when the listings were
                    // stored.
                    if protocol == ServiceProtocol::Ssh && rng.gen_bool(NONSTANDARD_PORT_FRACTION) {
                        rng.gen_range(0..EXTRA_SSH_PORTS.len());
                        nonstandard += 1;
                    }
                }
            }
        }
        SESSIONS.add(sessions);
        CensysSnapshot {
            default_port: default_port.into(),
            nonstandard,
        }
    }

    /// The default-port rows exported as owned observations: the one way
    /// out of the snapshot's columns, for callers that want rows.
    pub fn default_port_observations(&self) -> Vec<ServiceObservation> {
        self.default_port.to_observations()
    }

    /// Consume the snapshot into its default-port store and the number of
    /// non-standard-port listings (excluded from the analysis but reported
    /// in the dataset overview).
    pub fn into_default_port(self) -> (ObservationStore, usize) {
        (self.default_port, self.nonstandard)
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
        let rows = snapshot.default_port_observations();
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
        for obs in &snapshot.default_port_observations() {
            let device_id = internet.ground_truth().device_of(obs.addr).unwrap();
            assert!(internet.device(device_id).censys_covered());
        }
        // Some devices exist that Censys does not cover at all.
        assert!(internet.devices().any(|d| !d.censys_covered()));
    }

    #[test]
    fn censys_sees_hosts_the_single_vp_misses() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let rows = snapshot.default_port_observations();
        let invisible_but_seen = rows.iter().any(|obs| {
            let device_id = internet.ground_truth().device_of(obs.addr).unwrap();
            !internet.device(device_id).visible_to_single_vp()
        });
        assert!(
            invisible_but_seen,
            "distributed scanning must see rate-limited hosts"
        );
    }

    #[test]
    fn nonstandard_listings_are_counted_beside_the_default_port_rows() {
        let internet = internet();
        let snapshot = CensysSnapshot::collect(&internet, CensysConfig::default());
        let rows = snapshot.default_port_observations();
        assert!(rows.iter().all(|o| o.port == o.protocol().default_port()));
        // Each extra listing is an SSH host also listed on port 22.
        let ssh = rows.iter().filter(|o| o.protocol() == ServiceProtocol::Ssh);
        let ssh = ssh.count();
        let (store, nonstandard) = snapshot.into_default_port();
        assert!(
            nonstandard > 0 && nonstandard < ssh,
            "{nonstandard} of {ssh}"
        );
        assert_eq!(store.validate(), Ok(()));
        assert_eq!(store.to_observations(), rows);
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
        // Every row is an attempted session that answered; silent BGP
        // speakers are attempts without a row.
        let rows = snapshot.default_port_observations().len();
        assert!(sessions.value >= rows as u64);
        let opened: Vec<&str> = recorded.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(opened, ["censys/collect"]);
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let internet = internet();
        let a = CensysSnapshot::collect(&internet, CensysConfig::default());
        let b = CensysSnapshot::collect(&internet, CensysConfig::default());
        assert_eq!(a.into_default_port(), b.into_default_port());
    }
}
