//! ZGrab2-style application-layer scanning.
//!
//! Phase two of the paper's methodology: for every address that answered the
//! SYN scan, complete the TCP handshake and record the protocol exchange —
//! for SSH the banner, `SSH_MSG_KEXINIT` and the host key from the
//! key-exchange reply; for BGP the unsolicited OPEN (and the NOTIFICATION
//! that usually follows).  The captured bytes go through the scan door,
//! [`ShardColumns::push_session`]: parsed in place with `alias-wire` and
//! encoded straight into the arena of a per-shard [`ShardColumns`], no owned
//! observation built.  A shard parses the banner and KEXINIT of each of its
//! servers' profiles once; a later session repeating them, cookie aside, is
//! written from that parse.

use crate::rate::Pace;
use alias_netsim::{Internet, ProbeContext, ServiceProtocol, SimTime, VantageKind};
use alias_obs::{DeterminismClass, LazyCounter};
use alias_store::{DataSource, ShardColumns};
use std::net::IpAddr;

/// Application-layer sessions attempted: one per grab target, whatever it
/// answered.  Accumulated at the serial assembly point.
static GRAB_SESSIONS: LazyCounter = LazyCounter::new(
    "scan.grab_sessions",
    DeterminismClass::Deterministic,
    "sessions",
    "scan",
);

/// Connection attempts per second.
const RATE_PPS: u64 = 50_000;

/// A grab's pace: a 32-probe bucket, so 33 sessions a millisecond.
const PACE: Pace = Pace::new(RATE_PPS, 32);

/// The probe loop of one shard: one paced session attempt per target, the
/// first of them the grab's probe `first` from `start` (which fixes every
/// send time in the shard), capturing session bytes into one buffer reused
/// across the shard, and pushing them through `columns`' scan door (the
/// address is interned shard-locally as it is observed).  A session that
/// does not parse leaves the shard exactly as it was.
///
/// Each target is resolved against the IP index exactly once; the probe
/// dispatch and the ASN attribution reuse the route.
fn grab_slice(
    internet: &Internet,
    targets: &[IpAddr],
    port: u16,
    protocol: ServiceProtocol,
    vantage: VantageKind,
    (start, first): (SimTime, u64),
    columns: &mut ShardColumns,
) {
    let mut session = Vec::new();
    for (k, &addr) in (first..).zip(targets) {
        let now = PACE.send_time(start, k);
        let Some(route) = internet.route(addr) else {
            continue;
        };
        let ctx = ProbeContext { vantage, time: now };
        if !internet.service_session_into(route, port, &ctx, &mut session) {
            continue;
        }
        let asn = Some(internet.asn_at(route).0);
        columns.push_session(addr, port, DataSource::Active, now, asn, protocol, &session);
    }
}

/// Grab banners from `targets` on `port`, interpreting responses as
/// `protocol`, with `threads` shard workers over disjoint slices of the
/// target list; returns the per-shard column chunks in shard order (the
/// form the campaign store absorbs).  Unresponsive targets and unparsable
/// responses are silently skipped, exactly as a large-scale scan tolerates
/// them.
///
/// Byte-identical for any thread count: a target's send time is a function
/// of its place in `targets`, so every observation carries the timestamp a
/// one-shard scan gives it — which matters because session payloads fold
/// the probe time into their bytes (SSH KEXINIT cookies, SNMP engine
/// time).
pub fn grab(
    internet: &Internet,
    targets: &[IpAddr],
    port: u16,
    protocol: ServiceProtocol,
    vantage: VantageKind,
    start: SimTime,
    threads: usize,
) -> Vec<ShardColumns> {
    GRAB_SESSIONS.add(targets.len() as u64);
    let ranges = crate::exec::split_even(targets.len() as u64, crate::exec::shards_for(threads));
    crate::exec::shard_map(ranges.len(), threads, |shard| {
        let range = &ranges[shard];
        let mut columns = ShardColumns::with_capacity((range.end - range.start) as usize);
        grab_slice(
            internet,
            &targets[range.start as usize..range.end as usize],
            port,
            protocol,
            vantage,
            (start, range.start),
            &mut columns,
        );
        columns
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_of;
    use alias_netsim::{InternetBuilder, InternetConfig};
    use alias_store::{ObservationStore, PayloadRef, ServicePayload};

    fn internet() -> Internet {
        InternetBuilder::new(InternetConfig::tiny(123)).build()
    }

    fn targets_on(internet: &Internet, port: u16) -> Vec<IpAddr> {
        crate::zmap::scan_ipv4(internet, VantageKind::Distributed, SimTime::ZERO, 0x5eed, 1)
            .on_port(port)
            .to_vec()
    }

    /// Grab `targets` on `port` from a distributed vantage at time zero.
    fn grab_store(
        internet: &Internet,
        targets: &[IpAddr],
        port: u16,
        protocol: ServiceProtocol,
        threads: usize,
    ) -> ObservationStore {
        store_of(grab(
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
        let observations =
            grab_store(&internet, &targets, 22, ServiceProtocol::Ssh, 1).to_observations();
        assert_eq!(observations.len(), targets.len());
        for obs in &observations {
            assert_eq!(obs.protocol(), ServiceProtocol::Ssh);
            assert!(obs.asn.is_some());
            match &obs.payload {
                ServicePayload::Ssh(ssh) => {
                    assert!(ssh.kex_init.is_some() && ssh.host_key.is_some())
                }
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn bgp_grab_skips_silent_speakers() {
        let internet = internet();
        let targets = targets_on(&internet, 179);
        assert!(!targets.is_empty());
        let observations =
            grab_store(&internet, &targets, 179, ServiceProtocol::Bgp, 1).to_observations();
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
        // whole stores proves every shard dates its sessions as one shard
        // does.
        let internet = internet();
        let targets = targets_on(&internet, 22);
        assert!(targets.len() > 8, "need enough targets to shard");
        let serial = grab_store(&internet, &targets, 22, ServiceProtocol::Ssh, 1);
        assert_eq!(serial.len(), targets.len());
        for threads in [2usize, 7] {
            let sharded = grab_store(&internet, &targets, 22, ServiceProtocol::Ssh, threads);
            assert_eq!(sharded, serial, "threads={threads}");
        }
    }

    #[test]
    fn unresponsive_targets_are_skipped() {
        let internet = internet();
        let bogus: Vec<IpAddr> = vec!["203.0.113.99".parse().unwrap()];
        let observations = grab_store(&internet, &bogus, 22, ServiceProtocol::Ssh, 1);
        assert!(observations.is_empty());
    }

    #[test]
    fn a_server_with_an_empty_host_key_is_grabbed_without_one() {
        use alias_wire::ssh::{HostKey, HostKeyAlgorithm};
        let profile = &alias_netsim::profiles::ssh_profiles()[0];
        let empty = HostKey::new(HostKeyAlgorithm::Ed25519, Vec::new());
        let session = alias_netsim::services::ssh_session_bytes(profile, None, empty.as_ref(), 7);
        let Some(PayloadRef::Ssh(ssh)) = PayloadRef::parse(ServiceProtocol::Ssh, &session) else {
            panic!("banner and KEXINIT parse");
        };
        let parts = ssh.parts();
        assert_eq!(parts.banner.to_owned(), profile.banner);
        assert!(parts.kex_init.is_some());
        assert!(parts.host_key.is_none());
    }
}
