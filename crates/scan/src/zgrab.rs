//! ZGrab2-style application-layer scanning.
//!
//! Phase two of the paper's methodology: for every address that answered the
//! SYN scan, complete the TCP handshake and record the protocol exchange —
//! for SSH the banner, `SSH_MSG_KEXINIT` and the host key from the
//! key-exchange reply; for BGP the unsolicited OPEN (and the NOTIFICATION
//! that usually follows).  The captured bytes are parsed in place with
//! `alias-wire` and the borrowed result encoded straight into the arena of
//! a per-shard [`ShardColumns`]: no owned observation is built.

use crate::rate::ProbeSchedule;
use alias_netsim::{Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_store::{DataSource, PayloadRef, ShardColumns};
use std::net::IpAddr;

/// Application-layer sessions attempted: one per grab target, whatever it
/// answered.  Accumulated at the serial assembly point.
static GRAB_SESSIONS: LazyCounter = LazyCounter::new(
    "scan.grab_sessions",
    DeterminismClass::Deterministic,
    "sessions",
    "scan",
);

// The owned-row payload parser lives next to the record types in
// `alias-store`; re-exported here because its callers (the row-door tests)
// import it from this module.
pub use alias_store::parse_payload;

/// Configuration of the application-layer scanner.
#[derive(Debug, Clone)]
pub struct ZgrabConfig {
    /// Connection attempts per second.
    pub rate_pps: f64,
    /// Data source label stamped on produced records.
    pub source: DataSource,
}

impl Default for ZgrabConfig {
    fn default() -> Self {
        ZgrabConfig {
            rate_pps: 20_000.0,
            source: DataSource::Active,
        }
    }
}

/// The application-layer scanner.
#[derive(Debug, Clone)]
pub struct ZgrabScanner {
    config: ZgrabConfig,
}

impl ZgrabScanner {
    /// Create a scanner with the given configuration.
    pub fn new(config: ZgrabConfig) -> Self {
        ZgrabScanner { config }
    }

    /// The probe loop of one shard: one paced session attempt per target,
    /// drawing send times from `schedule`, capturing session bytes into the
    /// reusable `scratch` buffer, and pushing results into `columns` (the
    /// address is interned shard-locally as it is observed).  A session is
    /// parsed whole before anything is pushed, so one that any step rejects
    /// leaves the shard exactly as it was.
    ///
    /// Each target is resolved against the IP index exactly once; the probe
    /// dispatch and the ASN attribution reuse the resolved interface.
    #[allow(clippy::too_many_arguments)]
    fn grab_slice(
        &self,
        internet: &Internet,
        targets: &[IpAddr],
        port: u16,
        protocol: ServiceProtocol,
        vantage: VantageKind,
        schedule: &mut ProbeSchedule,
        scratch: &mut Vec<u8>,
        columns: &mut ShardColumns,
    ) {
        for &addr in targets {
            let now = schedule.next_send_time();
            let Some((device_id, iface_idx)) = internet.lookup(addr) else {
                continue;
            };
            let ctx = ProbeContext { vantage, time: now };
            if !internet.service_session_into(device_id, iface_idx, port, &ctx, scratch) {
                continue;
            }
            let Some(payload) = PayloadRef::parse(protocol, scratch) else {
                continue;
            };
            columns.push(
                addr,
                port,
                self.config.source,
                now,
                Some(internet.asn_at(device_id, iface_idx).0),
                payload,
            );
        }
    }

    /// Grab banners from `targets` on `port`, interpreting responses as
    /// `protocol`, with `threads` shard workers over disjoint slices of the
    /// target list; returns the per-shard column chunks in shard order (the
    /// form the campaign store absorbs).  Unresponsive targets and
    /// unparsable responses are silently skipped, exactly as a large-scale
    /// scan tolerates them.
    ///
    /// Byte-identical for any thread count: each shard starts from the
    /// token-bucket state a one-shard scan would have reached at the
    /// shard's first target (fast-forwarded on the calling thread), so
    /// every observation carries the same timestamp — which matters because
    /// session payloads fold the probe time into their bytes (SSH KEXINIT
    /// cookies, SNMP engine time).
    #[allow(clippy::too_many_arguments)]
    pub fn grab(
        &self,
        internet: &Internet,
        targets: &[IpAddr],
        port: u16,
        protocol: ServiceProtocol,
        vantage: VantageKind,
        start: SimTime,
        threads: usize,
    ) -> Vec<ShardColumns> {
        GRAB_SESSIONS.add(targets.len() as u64);
        let ranges = alias_exec::split_even(targets.len() as u64, alias_exec::shards_for(threads));
        // Fast-forward the schedule through the shard boundaries so each
        // worker resumes the pacing exactly where a single loop would be.
        // The skip is batched per send time, so dealing out all boundaries
        // costs one serial pass over the schedule's *groups*, not its probes.
        let mut boundary = ProbeSchedule::new(self.config.rate_pps, 32.0, start);
        let starts: Vec<ProbeSchedule> = ranges
            .iter()
            .map(|range| {
                let state = boundary.clone();
                boundary.skip(range.end - range.start);
                state
            })
            .collect();
        let scratch_pool = alias_exec::ScratchPool::<Vec<u8>>::new();
        let scratch_pool = &scratch_pool;
        alias_exec::shard_map(ranges.len(), threads, |shard| {
            let range = &ranges[shard];
            let mut schedule = starts[shard].clone();
            let mut columns = ShardColumns::with_capacity((range.end - range.start) as usize);
            let mut scratch = scratch_pool.take();
            self.grab_slice(
                internet,
                &targets[range.start as usize..range.end as usize],
                port,
                protocol,
                vantage,
                &mut schedule,
                &mut scratch,
                &mut columns,
            );
            scratch_pool.put(scratch);
            columns
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_of;
    use crate::zmap::{ZmapConfig, ZmapScanner};
    use alias_netsim::{InternetBuilder, InternetConfig};
    use alias_store::{ObservationStore, ServicePayload};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(123)).build()
    }

    fn targets_on(internet: &Internet, port: u16) -> Vec<IpAddr> {
        ZmapScanner::new(ZmapConfig {
            ports: vec![port],
            ..Default::default()
        })
        .scan_ipv4(internet, VantageKind::Distributed, SimTime::ZERO, 1)
        .on_port(port)
        .to_vec()
    }

    /// Grab `targets` on `port` from a distributed vantage at time zero.
    fn grab(
        scanner: &ZgrabScanner,
        internet: &Internet,
        targets: &[IpAddr],
        port: u16,
        protocol: ServiceProtocol,
        threads: usize,
    ) -> ObservationStore {
        store_of(scanner.grab(
            internet,
            targets,
            port,
            protocol,
            VantageKind::Distributed,
            SimTime::ZERO,
            threads,
        ))
    }

    #[test]
    fn ssh_grab_yields_complete_observations() {
        let internet = internet();
        let targets = targets_on(&internet, 22);
        assert!(!targets.is_empty());
        let scanner = ZgrabScanner::new(ZgrabConfig::default());
        let observations =
            grab(&scanner, &internet, &targets, 22, ServiceProtocol::Ssh, 1).to_observations();
        assert_eq!(observations.len(), targets.len());
        for obs in &observations {
            assert_eq!(obs.protocol(), ServiceProtocol::Ssh);
            assert!(obs.asn.is_some());
            match &obs.payload {
                ServicePayload::Ssh(ssh) => assert!(ssh.is_complete()),
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn bgp_grab_skips_silent_speakers() {
        let internet = internet();
        let targets = targets_on(&internet, 179);
        assert!(!targets.is_empty());
        let scanner = ZgrabScanner::new(ZgrabConfig::default());
        let observations =
            grab(&scanner, &internet, &targets, 179, ServiceProtocol::Bgp, 1).to_observations();
        // Some speakers send an OPEN, the silent ones are dropped.
        assert!(!observations.is_empty());
        assert!(observations.len() < targets.len());
        for obs in &observations {
            match &obs.payload {
                ServicePayload::Bgp {
                    open,
                    notification_seen,
                } => {
                    assert_eq!(open.version, 4);
                    assert!(*notification_seen);
                }
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_grab_is_byte_identical_to_serial() {
        // Timestamps feed into the SSH KEXINIT cookie bytes, so equality of
        // whole stores proves the shard fast-forward reproduces the
        // one-shard pacing schedule exactly.
        let internet = internet();
        let targets = targets_on(&internet, 22);
        assert!(targets.len() > 8, "need enough targets to shard");
        let scanner = ZgrabScanner::new(ZgrabConfig::default());
        let serial = grab(&scanner, &internet, &targets, 22, ServiceProtocol::Ssh, 1);
        assert_eq!(serial.len(), targets.len());
        for threads in [2usize, 7] {
            let sharded = grab(
                &scanner,
                &internet,
                &targets,
                22,
                ServiceProtocol::Ssh,
                threads,
            );
            assert_eq!(sharded, serial, "threads={threads}");
        }
    }

    #[test]
    fn unresponsive_targets_are_skipped() {
        let internet = internet();
        let scanner = ZgrabScanner::new(ZgrabConfig::default());
        let bogus: Vec<IpAddr> = vec!["203.0.113.99".parse().unwrap()];
        let observations = grab(&scanner, &internet, &bogus, 22, ServiceProtocol::Ssh, 1);
        assert!(observations.is_empty());
    }

    #[test]
    fn parse_payload_rejects_garbage() {
        assert!(parse_payload(ServiceProtocol::Ssh, b"not ssh at all").is_none());
        assert!(parse_payload(ServiceProtocol::Bgp, &[0xff; 10]).is_none());
        assert!(parse_payload(ServiceProtocol::Bgp, &[]).is_none());
        assert!(parse_payload(ServiceProtocol::Snmpv3, &[]).is_none());
    }

    #[test]
    fn censys_source_is_stamped_on_records() {
        let internet = internet();
        let targets = targets_on(&internet, 22);
        let scanner = ZgrabScanner::new(ZgrabConfig {
            source: DataSource::Censys,
            rate_pps: 50_000.0,
        });
        let observations = grab(
            &scanner,
            &internet,
            &targets[..1],
            22,
            ServiceProtocol::Ssh,
            1,
        );
        assert_eq!(observations.sources(), &[DataSource::Censys]);
    }
}
