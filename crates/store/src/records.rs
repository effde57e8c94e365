//! Observation records produced by the scanners.
//!
//! A [`ServiceObservation`] is the unit of measurement data consumed by the
//! identifier-extraction code in `alias-core`: one responsive
//! (address, port, protocol) with the parsed application-layer material and
//! provenance metadata (data source, timestamp, AS annotation).
//!
//! The row type lives here, next to the columnar
//! [`ObservationStore`](crate::ObservationStore) that stores campaigns
//! field-by-field; `alias-scan` re-exports the types at its root.

use alias_netsim::{ServiceProtocol, SimTime};
use alias_wire::bgp::{BgpMessage, OpenMessage};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::hostkey::KexReply;
use alias_wire::ssh::{Banner, KexInit, SshObservation, SshPacket};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Where a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataSource {
    /// The toolkit's own single-VP active measurements.
    Active,
    /// The Censys-like distributed snapshot.
    Censys,
}

impl DataSource {
    /// Short label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DataSource::Active => "active",
            DataSource::Censys => "censys",
        }
    }
}

/// Parsed application-layer material of one observation.
//
// `Ssh` dwarfs the other variants, but it is also by far the most common
// one in a campaign, so boxing it would add an allocation to the hot path
// without shrinking the typical observation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServicePayload {
    /// An SSH banner exchange (banner, KEXINIT, host key where obtained).
    Ssh(SshObservation),
    /// A BGP exchange: the OPEN message and whether a Cease notification
    /// followed.
    Bgp {
        /// The OPEN message, if the speaker sent one.
        open: OpenMessage,
        /// Whether a NOTIFICATION (connection rejected) followed the OPEN.
        notification_seen: bool,
    },
    /// An SNMPv3 engine-discovery report.
    Snmpv3 {
        /// The authoritative engine ID.
        engine_id: EngineId,
        /// Engine boots counter.
        engine_boots: i64,
        /// Engine time in seconds.
        engine_time: i64,
    },
    /// One lossy round of an ICMP rate-limiting probe: a burst of
    /// `sent` echo requests at `rate_pps` of which `lost` went
    /// unanswered.  Unlike the other variants this is not captured
    /// application-layer material but a loss *count*.
    RateLimit {
        /// Escalation round index (0-based).
        round: u8,
        /// Probing rate of the round in packets per second.
        rate_pps: u32,
        /// Echo requests sent in the round.
        sent: u16,
        /// Requests that went unanswered.
        lost: u16,
    },
}

impl ServicePayload {
    /// The protocol this payload belongs to.
    pub fn protocol(&self) -> ServiceProtocol {
        match self {
            ServicePayload::Ssh(_) => ServiceProtocol::Ssh,
            ServicePayload::Bgp { .. } => ServiceProtocol::Bgp,
            ServicePayload::Snmpv3 { .. } => ServiceProtocol::Snmpv3,
            ServicePayload::RateLimit { .. } => ServiceProtocol::IcmpRateLimit,
        }
    }
}

/// Parse a captured server→client byte stream into a payload.
///
/// Returns `None` when the server sent nothing useful (e.g. the silent BGP
/// majority) or the bytes do not parse as the expected protocol.  SNMPv3
/// replies are not a TCP byte stream and are handled by the SNMP scanner.
pub fn parse_payload(protocol: ServiceProtocol, bytes: &[u8]) -> Option<ServicePayload> {
    match protocol {
        ServiceProtocol::Ssh => parse_ssh(bytes).map(ServicePayload::Ssh),
        ServiceProtocol::Bgp => parse_bgp(bytes),
        ServiceProtocol::Snmpv3 | ServiceProtocol::IcmpRateLimit => None,
    }
}

fn parse_ssh(bytes: &[u8]) -> Option<SshObservation> {
    let (banner, consumed) = Banner::parse(bytes).ok()?;
    let mut kex_init = None;
    let mut host_key = None;
    for payload in SshPacket::payloads(&bytes[consumed..]) {
        if kex_init.is_none() {
            if let Ok(kex) = KexInit::parse_payload(payload) {
                kex_init = Some(kex);
                continue;
            }
        }
        if host_key.is_none() {
            if let Ok(reply) = KexReply::parse_payload(payload) {
                host_key = Some(reply.host_key);
            }
        }
    }
    Some(SshObservation {
        banner,
        kex_init,
        host_key,
    })
}

fn parse_bgp(bytes: &[u8]) -> Option<ServicePayload> {
    let messages = BgpMessage::parse_stream(bytes);
    let mut open = None;
    let mut notification_seen = false;
    for message in messages {
        match message {
            BgpMessage::Open(o) if open.is_none() => open = Some(o),
            BgpMessage::Notification(_) => notification_seen = true,
            _ => {}
        }
    }
    open.map(|open| ServicePayload::Bgp {
        open,
        notification_seen,
    })
}

/// One responsive (address, port) with parsed payload and provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceObservation {
    /// The probed address.
    pub addr: IpAddr,
    /// The TCP/UDP port probed.
    pub port: u16,
    /// Data source.
    pub source: DataSource,
    /// When the observation was made (simulated time).
    pub timestamp: SimTime,
    /// The origin AS of the address, as a routing-table lookup would report.
    pub asn: Option<u32>,
    /// Parsed payload.
    pub payload: ServicePayload,
}

impl ServiceObservation {
    /// The protocol of the observation.
    pub fn protocol(&self) -> ServiceProtocol {
        self.payload.protocol()
    }

    /// Whether the observation is on the protocol's default port (the paper
    /// restricts Censys data to default ports).
    pub fn is_default_port(&self) -> bool {
        self.port == self.protocol().default_port()
    }

    /// Whether the observed address is IPv6.
    pub fn is_ipv6(&self) -> bool {
        self.addr.is_ipv6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_wire::snmp::Snmpv3Message;
    use alias_wire::ssh::{HostKey, HostKeyAlgorithm};
    use std::net::Ipv4Addr;

    fn ssh_observation(port: u16) -> ServiceObservation {
        ServiceObservation {
            addr: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
            port,
            source: DataSource::Active,
            timestamp: SimTime::from_secs(10),
            asn: Some(14_061),
            payload: ServicePayload::Ssh(SshObservation {
                banner: Banner::new("OpenSSH_8.9p1", None).unwrap(),
                kex_init: Some(KexInit::typical_openssh()),
                host_key: Some(HostKey::new(HostKeyAlgorithm::Ed25519, vec![1; 32])),
            }),
        }
    }

    #[test]
    fn protocol_and_port_helpers() {
        let on_default = ssh_observation(22);
        assert_eq!(on_default.protocol(), ServiceProtocol::Ssh);
        assert!(on_default.is_default_port());
        assert!(!on_default.is_ipv6());
        let off_default = ssh_observation(2222);
        assert!(!off_default.is_default_port());
    }

    #[test]
    fn data_source_labels() {
        assert_eq!(DataSource::Active.name(), "active");
        assert_eq!(DataSource::Censys.name(), "censys");
        assert!(DataSource::Active < DataSource::Censys);
    }

    #[test]
    fn payload_protocols() {
        let snmp = ServicePayload::Snmpv3 {
            engine_id: EngineId::from_enterprise_mac(9, [0; 6]),
            engine_boots: 1,
            engine_time: 2,
        };
        assert_eq!(snmp.protocol(), ServiceProtocol::Snmpv3);
    }

    #[test]
    fn parse_payload_rejects_garbage() {
        assert!(parse_payload(ServiceProtocol::Ssh, b"not ssh at all").is_none());
        assert!(parse_payload(ServiceProtocol::Bgp, &[0xff; 10]).is_none());
        assert!(parse_payload(ServiceProtocol::Bgp, &[]).is_none());
        assert!(parse_payload(ServiceProtocol::Snmpv3, &[]).is_none());
    }

    /// Feed `bytes` to every decoder that reads bytes this program did not
    /// write.  Any outcome is fine; a panic fails the calling test.
    fn decode_under_every_protocol(bytes: &[u8]) {
        let _ = parse_payload(ServiceProtocol::Ssh, bytes);
        let _ = parse_payload(ServiceProtocol::Bgp, bytes);
        let _ = Snmpv3Message::parse(bytes);
    }

    #[test]
    fn decoders_never_panic_on_truncated_or_mutated_sessions() {
        use alias_netsim::{InternetBuilder, InternetConfig, ProbeContext, VantageKind};

        // Real captures: a few sessions per protocol off a tiny Internet.
        let internet = InternetBuilder::new(InternetConfig::tiny(31)).build();
        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: SimTime::from_secs(5),
        };
        let mut sessions: Vec<Vec<u8>> = Vec::new();
        for protocol in [ServiceProtocol::Ssh, ServiceProtocol::Bgp] {
            let captured: Vec<Vec<u8>> = internet
                .devices()
                .iter()
                .filter_map(|device| {
                    let addrs = match protocol {
                        ServiceProtocol::Ssh => device.ssh_responding_addrs(),
                        _ => device.bgp_responding_addrs(),
                    };
                    let (id, iface) = internet.lookup(*addrs.first()?)?;
                    let port = protocol.default_port();
                    let mut session = Vec::new();
                    (internet.service_session_into(id, iface, port, &ctx, &mut session)
                        && parse_payload(protocol, &session).is_some())
                    .then_some(session)
                })
                .take(3)
                .collect();
            assert_eq!(captured.len(), 3, "{protocol:?} sessions");
            sessions.extend(captured);
        }
        let request = Snmpv3Message::DiscoveryRequest { msg_id: 0x0101 }.to_bytes();
        let reports: Vec<Vec<u8>> = internet
            .devices()
            .iter()
            .filter_map(|device| {
                let addr = *device.snmp_responding_addrs().first()?;
                let (id, iface) = internet.lookup(addr)?;
                internet.snmp_probe_at(id, iface, &request, &ctx)
            })
            .take(3)
            .collect();
        assert_eq!(reports.len(), 3, "SNMPv3 reports");
        for report in &reports {
            assert!(matches!(
                Snmpv3Message::parse(report),
                Ok(Snmpv3Message::Report { .. })
            ));
        }
        sessions.extend(reports);

        // xorshift64: seeded, so a failure replays.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for original in &sessions {
            for cut in 0..=original.len() {
                decode_under_every_protocol(&original[..cut]);
            }
            for _ in 0..600 {
                let mut mutated = original.clone();
                for _ in 0..1 + next() % 4 {
                    let at = (next() % mutated.len() as u64) as usize;
                    mutated[at] = next() as u8;
                }
                // Every fourth input is also cut short after the damage.
                if next() % 4 == 0 {
                    mutated.truncate((next() % mutated.len() as u64) as usize);
                }
                decode_under_every_protocol(&mutated);
            }
        }
    }
}
