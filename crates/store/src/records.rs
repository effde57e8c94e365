//! Observation records produced by the scanners.
//!
//! A [`ServiceObservation`] is the unit of measurement data consumed by the
//! identifier-extraction code in `alias-core`: one responsive
//! (address, port, protocol) with the parsed application-layer material and
//! provenance metadata (data source, timestamp, AS annotation).
//!
//! The row type lives here, next to the columnar
//! [`ObservationStore`](crate::ObservationStore) that stores campaigns
//! field-by-field; `alias-scan` re-exports everything so existing consumers
//! keep their import paths.

use alias_netsim::{ServiceProtocol, SimTime};
use alias_wire::bgp::{BgpMessage, CeaseSubcode, NotificationMessage, OpenMessage};
use alias_wire::snmp::{EngineId, Snmpv3Message, UsmSecurityParameters};
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
    /// application-layer material but a loss *count* — there is no
    /// standard wire capture for "the replies that did not arrive", so
    /// the record uses a compact fixed-width encoding of its own (see
    /// [`Self::to_wire_bytes`]).
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

    /// Encode the payload to the wire bytes a scanner would have captured,
    /// appended to `out`.  [`Self::from_wire_bytes`] parses them back with
    /// the same parsers the scanners use, so the round trip is exact; this
    /// is the byte form the
    /// [`EncodedObservations`](crate::EncodedObservations) payload arena
    /// stores.
    pub fn to_wire_bytes(&self, out: &mut Vec<u8>) {
        match self {
            ServicePayload::Ssh(ssh) => {
                ssh.banner.emit(out);
                if let Some(kex) = &ssh.kex_init {
                    kex.emit_packet(&kex.cookie, out);
                }
                if let Some(key) = &ssh.host_key {
                    // parse_ssh only keeps the host key of the reply, so the
                    // ephemeral key and signature can stay empty.
                    KexReply::emit_packet_from(key, &[], &[], out);
                }
            }
            ServicePayload::Bgp {
                open,
                notification_seen,
            } => {
                out.extend_from_slice(&open.to_bytes());
                if *notification_seen {
                    out.extend_from_slice(
                        &NotificationMessage::cease(CeaseSubcode::ConnectionRejected).to_bytes(),
                    );
                }
            }
            ServicePayload::Snmpv3 {
                engine_id,
                engine_boots,
                engine_time,
            } => {
                // Any Report carrying the three identifying fields decodes
                // back to the same payload; message id and user name are not
                // part of the record.
                let report = Snmpv3Message::Report {
                    msg_id: 0,
                    usm: UsmSecurityParameters {
                        engine_id: engine_id.clone(),
                        engine_boots: *engine_boots,
                        engine_time: *engine_time,
                        user_name: Vec::new(),
                    },
                    unknown_engine_ids: 0,
                };
                out.extend_from_slice(&report.to_bytes());
            }
            ServicePayload::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            } => {
                // Fixed 11-byte layout: magic, version, round, then the
                // counters big-endian.  0xF7 cannot begin an SSH banner,
                // a BGP marker or a BER SEQUENCE, so the magic doubles as
                // cross-protocol rejection.
                out.push(RATE_LIMIT_MAGIC);
                out.push(RATE_LIMIT_VERSION);
                out.push(*round);
                out.extend_from_slice(&rate_pps.to_be_bytes());
                out.extend_from_slice(&sent.to_be_bytes());
                out.extend_from_slice(&lost.to_be_bytes());
            }
        }
    }

    /// Parse wire bytes produced by [`Self::to_wire_bytes`] (or captured
    /// from a live session) back into a payload.  Returns `None` when the
    /// bytes do not parse as `protocol` — the exact behaviour of the
    /// scanners on a garbled session.
    pub fn from_wire_bytes(protocol: ServiceProtocol, bytes: &[u8]) -> Option<Self> {
        match protocol {
            ServiceProtocol::Ssh | ServiceProtocol::Bgp => parse_payload(protocol, bytes),
            ServiceProtocol::Snmpv3 => match Snmpv3Message::parse(bytes) {
                Ok(Snmpv3Message::Report { usm, .. }) => Some(ServicePayload::Snmpv3 {
                    engine_id: usm.engine_id,
                    engine_boots: usm.engine_boots,
                    engine_time: usm.engine_time,
                }),
                _ => None,
            },
            ServiceProtocol::IcmpRateLimit => {
                if bytes.len() != RATE_LIMIT_WIRE_LEN
                    || bytes[0] != RATE_LIMIT_MAGIC
                    || bytes[1] != RATE_LIMIT_VERSION
                {
                    return None;
                }
                let rate_pps = u32::from_be_bytes(bytes[3..7].try_into().ok()?);
                let sent = u16::from_be_bytes(bytes[7..9].try_into().ok()?);
                let lost = u16::from_be_bytes(bytes[9..11].try_into().ok()?);
                if lost > sent {
                    return None;
                }
                Some(ServicePayload::RateLimit {
                    round: bytes[2],
                    rate_pps,
                    sent,
                    lost,
                })
            }
        }
    }
}

/// First byte of the [`ServicePayload::RateLimit`] wire encoding.
const RATE_LIMIT_MAGIC: u8 = 0xF7;
/// Encoding version of the [`ServicePayload::RateLimit`] wire layout.
const RATE_LIMIT_VERSION: u8 = 1;
/// Total length of the fixed-width [`ServicePayload::RateLimit`] encoding.
const RATE_LIMIT_WIRE_LEN: usize = 11;

/// Parse a captured server→client byte stream into a payload.
///
/// Returns `None` when the server sent nothing useful (e.g. the silent BGP
/// majority) or the bytes do not parse as the expected protocol.  SNMPv3
/// replies are not a TCP byte stream and are handled by the SNMP scanner
/// (and by [`ServicePayload::from_wire_bytes`]).
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

/// A push-based consumer of observations.
///
/// The streaming counterpart to collecting observations into a `Vec` first:
/// producers (`CampaignData::stream_into`, custom replayers) feed records
/// one at a time, so a consumer that only needs a single pass — an
/// identifier grouper, a counter, a filter, a
/// [`ColumnarSink`](crate::ColumnarSink) — never forces the producer to
/// materialise intermediate `Vec<&ServiceObservation>` slices on the hot
/// path.
pub trait ObservationSink {
    /// Consume one observation.
    fn accept(&mut self, observation: &ServiceObservation);

    /// Consume every observation of an iterator, in order.
    fn accept_all<'a, I>(&mut self, observations: I)
    where
        I: IntoIterator<Item = &'a ServiceObservation>,
        Self: Sized,
    {
        for observation in observations {
            self.accept(observation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn wire_bytes_round_trip_every_payload_kind() {
        let payloads = [
            ssh_observation(22).payload,
            ServicePayload::Ssh(SshObservation {
                banner: Banner::new("dropbear_2020.81", Some("comment")).unwrap(),
                kex_init: None,
                host_key: None,
            }),
            ServicePayload::Bgp {
                open: OpenMessage {
                    version: 4,
                    my_as: 64_500,
                    hold_time: 90,
                    bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                    optional_parameters: vec![],
                },
                notification_seen: true,
            },
            ServicePayload::Bgp {
                open: OpenMessage {
                    version: 4,
                    my_as: 23_456,
                    hold_time: 180,
                    bgp_identifier: Ipv4Addr::new(192, 0, 2, 99),
                    optional_parameters: vec![],
                },
                notification_seen: false,
            },
            ServicePayload::Snmpv3 {
                engine_id: EngineId::from_enterprise_mac(9, [1, 2, 3, 4, 5, 6]),
                engine_boots: 17,
                engine_time: 86_400,
            },
            ServicePayload::RateLimit {
                round: 3,
                rate_pps: 2_048,
                sent: 24,
                lost: 7,
            },
            ServicePayload::RateLimit {
                round: 0,
                rate_pps: 256,
                sent: 24,
                lost: 24,
            },
        ];
        for payload in payloads {
            let mut bytes = Vec::new();
            payload.to_wire_bytes(&mut bytes);
            assert!(!bytes.is_empty());
            let decoded = ServicePayload::from_wire_bytes(payload.protocol(), &bytes)
                .expect("wire bytes parse back");
            assert_eq!(decoded, payload);
        }
    }

    #[test]
    fn from_wire_bytes_rejects_cross_protocol_bytes() {
        let mut ssh_bytes = Vec::new();
        ssh_observation(22).payload.to_wire_bytes(&mut ssh_bytes);
        assert!(ServicePayload::from_wire_bytes(ServiceProtocol::Bgp, &ssh_bytes).is_none());
        assert!(ServicePayload::from_wire_bytes(ServiceProtocol::Snmpv3, &ssh_bytes).is_none());
        assert!(
            ServicePayload::from_wire_bytes(ServiceProtocol::IcmpRateLimit, &ssh_bytes).is_none()
        );

        let mut rate_bytes = Vec::new();
        ServicePayload::RateLimit {
            round: 1,
            rate_pps: 512,
            sent: 24,
            lost: 2,
        }
        .to_wire_bytes(&mut rate_bytes);
        assert_eq!(rate_bytes.len(), 11);
        assert!(ServicePayload::from_wire_bytes(ServiceProtocol::Ssh, &rate_bytes).is_none());
        assert!(ServicePayload::from_wire_bytes(ServiceProtocol::Bgp, &rate_bytes).is_none());
        assert!(ServicePayload::from_wire_bytes(ServiceProtocol::Snmpv3, &rate_bytes).is_none());
    }

    #[test]
    fn rate_limit_wire_bytes_reject_malformed_input() {
        let mut bytes = Vec::new();
        ServicePayload::RateLimit {
            round: 2,
            rate_pps: 1_024,
            sent: 24,
            lost: 9,
        }
        .to_wire_bytes(&mut bytes);

        // Truncated, extended, bad magic, bad version: all rejected.
        let decode = |b: &[u8]| ServicePayload::from_wire_bytes(ServiceProtocol::IcmpRateLimit, b);
        assert!(decode(&bytes[..10]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).is_none());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = 0x42;
        assert!(decode(&bad_magic).is_none());
        let mut bad_version = bytes.clone();
        bad_version[1] = 9;
        assert!(decode(&bad_version).is_none());

        // lost > sent is impossible for a real burst and is rejected.
        let mut impossible = bytes.clone();
        impossible[7..9].copy_from_slice(&5u16.to_be_bytes());
        impossible[9..11].copy_from_slice(&6u16.to_be_bytes());
        assert!(decode(&impossible).is_none());
    }
}
