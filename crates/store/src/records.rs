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

use crate::payload::{BgpOpenRef, BgpParams, PayloadRef};
use alias_netsim::{ServiceProtocol, SimTime};
use alias_wire::bgp::OpenMessage;
use alias_wire::snmp::EngineId;
use alias_wire::ssh::SshObservation;
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

/// Parsed application-layer material of one observation, owned: the row
/// type at the store's two doors.  Inside a store a payload is a record of
/// bytes, read as a [`PayloadRef`].
//
// `Ssh` dwarfs the other variants, but it is also by far the most common
// one among the rows that pass through the doors, so boxing it would add
// an allocation per row without shrinking the typical one.
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

    /// The payload with every variable-length part borrowed.
    pub fn as_ref(&self) -> PayloadRef<'_> {
        match *self {
            ServicePayload::Ssh(ref ssh) => PayloadRef::Ssh(ssh.as_ref().into()),
            ServicePayload::Bgp {
                ref open,
                notification_seen,
            } => PayloadRef::Bgp {
                open: BgpOpenRef {
                    version: open.version,
                    my_as: open.my_as,
                    hold_time: open.hold_time,
                    bgp_identifier: open.bgp_identifier,
                    params: BgpParams::List(&open.optional_parameters),
                },
                notification_seen,
            },
            ServicePayload::Snmpv3 {
                ref engine_id,
                engine_boots,
                engine_time,
            } => PayloadRef::Snmpv3 {
                engine_id: engine_id.as_bytes(),
                engine_boots,
                engine_time,
            },
            ServicePayload::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            } => PayloadRef::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            },
        }
    }
}

/// Parse a captured server→client byte stream into a payload: what
/// [`PayloadRef::parse`] reads in place, owned.
///
/// Returns `None` when the server sent nothing useful (e.g. the silent BGP
/// majority) or the bytes do not parse as the expected protocol.  SNMPv3
/// replies are not a TCP byte stream and are handled by the SNMP scanner.
pub fn parse_payload(protocol: ServiceProtocol, bytes: &[u8]) -> Option<ServicePayload> {
    PayloadRef::parse(protocol, bytes).map(|payload| payload.to_owned())
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
    use crate::ShardColumns;
    use alias_wire::snmp::Snmpv3Message;
    use alias_wire::ssh::{Banner, HostKey, HostKeyAlgorithm, KexInit};
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
        assert_eq!(snmp.as_ref().protocol(), ServiceProtocol::Snmpv3);
    }

    #[test]
    fn parse_payload_rejects_garbage() {
        assert!(parse_payload(ServiceProtocol::Ssh, b"not ssh at all").is_none());
        assert!(parse_payload(ServiceProtocol::Bgp, &[0xff; 10]).is_none());
        assert!(parse_payload(ServiceProtocol::Bgp, &[]).is_none());
        assert!(parse_payload(ServiceProtocol::Snmpv3, &[]).is_none());
    }

    /// A captured session and the protocol it parses as.
    type Session = (ServiceProtocol, Vec<u8>);

    /// Real captures off a tiny Internet: three SSH and three BGP sessions
    /// that parse, and three SNMPv3 Reports.
    fn real_sessions() -> (Vec<Session>, Vec<Vec<u8>>) {
        use alias_netsim::{InternetBuilder, InternetConfig, ProbeContext, VantageKind};

        let internet = InternetBuilder::new(InternetConfig::tiny(31)).build();
        let ctx = ProbeContext {
            vantage: VantageKind::Distributed,
            time: SimTime::from_secs(5),
        };
        let mut sessions = Vec::new();
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
            sessions.extend(captured.into_iter().map(|session| (protocol, session)));
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
        (sessions, reports)
    }

    /// Every prefix of `original`, then `mutations` damaged copies of it
    /// (one to four bytes overwritten, every fourth also cut short), drawn
    /// from `next` — seeded, so a failure replays.
    fn prefixes_and_mutations(
        original: &[u8],
        mutations: usize,
        next: &mut impl FnMut() -> u64,
        mut check: impl FnMut(&[u8]),
    ) {
        for cut in 0..=original.len() {
            check(&original[..cut]);
        }
        let mut mutated = Vec::new();
        for _ in 0..mutations {
            mutated.clear();
            mutated.extend_from_slice(original);
            for _ in 0..1 + next() % 4 {
                let at = (next() % mutated.len() as u64) as usize;
                mutated[at] = next() as u8;
            }
            if next().is_multiple_of(4) {
                mutated.truncate((next() % mutated.len() as u64) as usize);
            }
            check(&mutated);
        }
    }

    fn xorshift64(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn decoders_never_panic_on_truncated_or_mutated_sessions() {
        let (sessions, reports) = real_sessions();
        let inputs = sessions.into_iter().map(|(_, session)| session);
        let mut next = xorshift64(0x9e37_79b9_7f4a_7c15);
        // The scan door: parse in place, push what parsed.  Any outcome is
        // fine; a panic fails the test, and so does a rejected input that
        // leaves a trace in the shard.
        let mut shard = ShardColumns::new();
        for original in inputs.chain(reports) {
            prefixes_and_mutations(&original, 600, &mut next, |bytes| {
                let _ = Snmpv3Message::parse(bytes);
                for protocol in [ServiceProtocol::Ssh, ServiceProtocol::Bgp] {
                    let before = (shard.len(), shard.payload_bytes());
                    let accepted = PayloadRef::parse(protocol, bytes).map(|payload| {
                        shard.push(
                            Ipv4Addr::new(192, 0, 2, 1).into(),
                            protocol.default_port(),
                            DataSource::Active,
                            SimTime::ZERO,
                            None,
                            payload,
                        )
                    });
                    if accepted.is_some() {
                        assert_eq!(shard.len(), before.0 + 1);
                        assert!(shard.payload_bytes() > before.1);
                    } else {
                        assert_eq!((shard.len(), shard.payload_bytes()), before);
                    }
                }
            });
        }
        assert!(shard.len() > 1_000, "only {} inputs parsed", shard.len());
        let mut store = crate::ObservationStore::new();
        store.absorb_shard(shard);
        assert_eq!(store.validate(), Ok(()));
    }

    #[test]
    fn borrowed_parsers_accept_and_yield_what_the_owned_parsers_did() {
        use alias_wire::bgp::BgpMessage;
        use alias_wire::ssh::hostkey::KexReply;
        use alias_wire::ssh::SshPacket;

        let (sessions, _) = real_sessions();
        let mut next = xorshift64(0x2545_f491_4f6c_dd1d);
        let mut inputs = 0usize;
        let mut accepted = 0usize;
        for (protocol, original) in &sessions {
            // 6 sessions x 17,000 mutations, plus every prefix.
            prefixes_and_mutations(original, 17_000, &mut next, |bytes| {
                inputs += 1;
                // The session, through the two doors' one parser.
                let owned = parent_parsers::parse_payload(*protocol, bytes);
                assert_eq!(parse_payload(*protocol, bytes), owned, "{bytes:02x?}");
                accepted += usize::from(owned.is_some());
                // And message by message, where a session-level parse would
                // swallow a difference in what was rejected.
                if *protocol == ServiceProtocol::Ssh {
                    if let Ok((banner, consumed)) = parent_parsers::banner(bytes) {
                        assert_eq!(Banner::parse(bytes), Ok((banner, consumed)));
                        for payload in SshPacket::payloads(&bytes[consumed..]) {
                            assert_eq!(
                                KexInit::parse_borrowed(payload).ok().map(|k| k.to_owned()),
                                parent_parsers::kex_init(payload).ok()
                            );
                            assert_eq!(
                                KexReply::parse_borrowed(payload).ok().map(|r| r.to_owned()),
                                parent_parsers::kex_reply(payload).ok()
                            );
                        }
                    } else {
                        assert!(Banner::parse_borrowed(bytes).is_err());
                    }
                } else {
                    assert_eq!(
                        BgpMessage::parse_borrowed(bytes)
                            .ok()
                            .map(|(message, consumed)| (message.to_owned(), consumed)),
                        parent_parsers::bgp_message(bytes).ok()
                    );
                }
            });
        }
        assert!(inputs >= 100_000, "{inputs} inputs");
        assert!(
            accepted > 1_000 && accepted < inputs,
            "{accepted} of {inputs}"
        );
    }

    /// The session parsers as they were while `alias-wire` parsed straight
    /// into owned values, unchanged but for going through its public
    /// constructors: the oracle the borrowed parsers are tested against.
    mod parent_parsers {
        use super::{ServicePayload, ServiceProtocol};
        use alias_wire::bgp::{
            BgpMessage, Capability, MessageHeader, MessageType, NotificationMessage, OpenMessage,
            OptionalParameter, BGP_HEADER_LEN,
        };
        use alias_wire::ssh::banner::MAX_BANNER_LEN;
        use alias_wire::ssh::hostkey::KexReply;
        use alias_wire::ssh::{
            Banner, HostKey, HostKeyAlgorithm, KexInit, NameList, SshObservation, SshPacket,
            SSH_MSG_KEXINIT, SSH_MSG_KEX_ECDH_REPLY,
        };
        use alias_wire::{Result, WireError};
        use std::net::Ipv4Addr;

        fn check_len(buf: &[u8], needed: usize) -> Result<()> {
            if buf.len() < needed {
                Err(WireError::Truncated {
                    needed,
                    available: buf.len(),
                })
            } else {
                Ok(())
            }
        }

        pub fn banner(buf: &[u8]) -> Result<(Banner, usize)> {
            let mut offset = 0;
            while offset < buf.len() {
                let rest = &buf[offset..];
                let line_end =
                    rest.iter()
                        .position(|&b| b == b'\n')
                        .ok_or(WireError::Truncated {
                            needed: offset + rest.len() + 1,
                            available: buf.len(),
                        })?;
                let mut line = &rest[..line_end];
                if line.ends_with(b"\r") {
                    line = &line[..line.len() - 1];
                }
                let consumed = offset + line_end + 1;
                if line.starts_with(b"SSH-") {
                    let text = std::str::from_utf8(line)
                        .map_err(|_| WireError::BadEncoding { field: "banner" })?;
                    if text.len() + 2 > MAX_BANNER_LEN {
                        return Err(WireError::BadLength { field: "banner" });
                    }
                    let rest = &text[4..];
                    let dash = rest
                        .find('-')
                        .ok_or(WireError::BadValue { field: "banner" })?;
                    let proto_version = rest[..dash].to_owned();
                    let after = &rest[dash + 1..];
                    let (software, comments) = match after.find(' ') {
                        Some(sp) => (after[..sp].to_owned(), Some(after[sp + 1..].to_owned())),
                        None => (after.to_owned(), None),
                    };
                    if software.is_empty() {
                        return Err(WireError::BadValue {
                            field: "banner.software",
                        });
                    }
                    return Ok((
                        Banner {
                            proto_version,
                            software,
                            comments,
                        },
                        consumed,
                    ));
                }
                offset = consumed;
            }
            Err(WireError::Truncated {
                needed: buf.len() + 1,
                available: buf.len(),
            })
        }

        fn name_list(buf: &[u8]) -> Result<(NameList, usize)> {
            check_len(buf, 4)?;
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            check_len(buf, 4 + len)?;
            let text = std::str::from_utf8(&buf[4..4 + len])
                .map_err(|_| WireError::BadEncoding { field: "name-list" })?;
            if !text.is_ascii() {
                return Err(WireError::BadEncoding { field: "name-list" });
            }
            if text.starts_with(',') || text.ends_with(',') || text.contains(",,") {
                return Err(WireError::BadValue { field: "name-list" });
            }
            // `"".split(',')` yields one empty name; an empty list has none.
            let names = text.split(',').filter(|name| !name.is_empty());
            Ok((NameList::new(names), 4 + len))
        }

        pub fn kex_init(payload: &[u8]) -> Result<KexInit> {
            check_len(payload, 1 + 16)?;
            if payload[0] != SSH_MSG_KEXINIT {
                return Err(WireError::UnknownType {
                    tag: payload[0] as u16,
                });
            }
            let mut cookie = [0u8; 16];
            cookie.copy_from_slice(&payload[1..17]);
            let mut offset = 17;
            let mut next_list = || -> Result<NameList> {
                let (list, consumed) = name_list(&payload[offset..])?;
                offset += consumed;
                Ok(list)
            };
            Ok(KexInit {
                cookie,
                kex_algorithms: next_list()?,
                server_host_key_algorithms: next_list()?,
                encryption_client_to_server: next_list()?,
                encryption_server_to_client: next_list()?,
                mac_client_to_server: next_list()?,
                mac_server_to_client: next_list()?,
                compression_client_to_server: next_list()?,
                compression_server_to_client: next_list()?,
                languages_client_to_server: next_list()?,
                languages_server_to_client: next_list()?,
                first_kex_packet_follows: {
                    check_len(payload, offset + 1 + 4)?;
                    payload[offset] != 0
                },
            })
        }

        fn read_string(buf: &[u8]) -> Result<(&[u8], usize)> {
            check_len(buf, 4)?;
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            check_len(buf, 4 + len)?;
            Ok((&buf[4..4 + len], 4 + len))
        }

        fn host_key(blob: &[u8]) -> Result<HostKey> {
            let (name, consumed) = read_string(blob)?;
            let name = std::str::from_utf8(name).map_err(|_| WireError::BadEncoding {
                field: "hostkey.algorithm",
            })?;
            let algorithm = HostKeyAlgorithm::from_name(name)?;
            let (material, consumed2) = read_string(&blob[consumed..])?;
            if consumed + consumed2 != blob.len() {
                return Err(WireError::BadLength {
                    field: "hostkey.blob",
                });
            }
            if material.is_empty() {
                return Err(WireError::BadValue {
                    field: "hostkey.material",
                });
            }
            Ok(HostKey {
                algorithm,
                key_material: material.to_vec(),
            })
        }

        pub fn kex_reply(payload: &[u8]) -> Result<KexReply> {
            if payload.is_empty() {
                return Err(WireError::Truncated {
                    needed: 1,
                    available: 0,
                });
            }
            if payload[0] != SSH_MSG_KEX_ECDH_REPLY {
                return Err(WireError::UnknownType {
                    tag: payload[0] as u16,
                });
            }
            let mut offset = 1;
            let (blob, consumed) = read_string(&payload[offset..])?;
            let host_key = host_key(blob)?;
            offset += consumed;
            let (ephemeral, consumed) = read_string(&payload[offset..])?;
            offset += consumed;
            let (signature, _) = read_string(&payload[offset..])?;
            Ok(KexReply {
                host_key,
                ephemeral_public: ephemeral.to_vec(),
                signature: signature.to_vec(),
            })
        }

        fn ssh(bytes: &[u8]) -> Option<SshObservation> {
            let (banner, consumed) = banner(bytes).ok()?;
            let mut kex_init = None;
            let mut host_key = None;
            for payload in SshPacket::payloads(&bytes[consumed..]) {
                if kex_init.is_none() {
                    if let Ok(kex) = self::kex_init(payload) {
                        kex_init = Some(kex);
                        continue;
                    }
                }
                if host_key.is_none() {
                    if let Ok(reply) = kex_reply(payload) {
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

        fn capability(buf: &[u8]) -> Result<(Capability, usize)> {
            check_len(buf, 2)?;
            let code = buf[0];
            let len = buf[1] as usize;
            check_len(buf, 2 + len)?;
            let value = &buf[2..2 + len];
            let bad_length = |field| Err(WireError::BadLength { field });
            let cap = match code {
                1 if len != 4 => return bad_length("capability.multiprotocol"),
                1 => Capability::Multiprotocol {
                    afi: u16::from_be_bytes([value[0], value[1]]),
                    safi: value[3],
                },
                2 if len != 0 => return bad_length("capability.route_refresh"),
                2 => Capability::RouteRefresh,
                65 if len != 4 => return bad_length("capability.four_octet_as"),
                65 => Capability::FourOctetAs {
                    asn: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
                },
                128 if len != 0 => return bad_length("capability.route_refresh_cisco"),
                128 => Capability::RouteRefreshCisco,
                other => Capability::Other {
                    code: other,
                    value: value.to_vec(),
                },
            };
            Ok((cap, 2 + len))
        }

        fn optional_parameters(mut buf: &[u8]) -> Result<Vec<OptionalParameter>> {
            let mut params = Vec::new();
            while !buf.is_empty() {
                check_len(buf, 2)?;
                let param_type = buf[0];
                let len = buf[1] as usize;
                check_len(buf, 2 + len)?;
                let value = &buf[2..2 + len];
                if param_type == 2 {
                    let mut inner = value;
                    while !inner.is_empty() {
                        let (cap, consumed) = capability(inner)?;
                        params.push(OptionalParameter::Capability(cap));
                        inner = &inner[consumed..];
                    }
                } else {
                    params.push(OptionalParameter::Other {
                        param_type,
                        value: value.to_vec(),
                    });
                }
                buf = &buf[2 + len..];
            }
            Ok(params)
        }

        fn open(body: &[u8]) -> Result<OpenMessage> {
            check_len(body, 10)?;
            let version = body[0];
            if version != 4 {
                return Err(WireError::BadValue {
                    field: "open.version",
                });
            }
            let my_as = u16::from_be_bytes([body[1], body[2]]);
            let hold_time = u16::from_be_bytes([body[3], body[4]]);
            if hold_time == 1 || hold_time == 2 {
                return Err(WireError::BadValue {
                    field: "open.hold_time",
                });
            }
            let bgp_identifier = Ipv4Addr::new(body[5], body[6], body[7], body[8]);
            let opt_len = body[9] as usize;
            if 10 + opt_len != body.len() {
                return Err(WireError::BadLength {
                    field: "open.opt_parm_len",
                });
            }
            Ok(OpenMessage {
                version,
                my_as,
                hold_time,
                bgp_identifier,
                optional_parameters: optional_parameters(&body[10..])?,
            })
        }

        pub fn bgp_message(buf: &[u8]) -> Result<(BgpMessage, usize)> {
            let header = MessageHeader::parse(buf)?;
            let total = header.length as usize;
            check_len(buf, total)?;
            let body = &buf[BGP_HEADER_LEN..total];
            let msg = match header.message_type {
                MessageType::Open => BgpMessage::Open(open(body)?),
                MessageType::Notification => {
                    check_len(body, 2)?;
                    BgpMessage::Notification(NotificationMessage {
                        error_code: body[0],
                        error_subcode: body[1],
                        data: body[2..].to_vec(),
                    })
                }
                MessageType::Keepalive => {
                    if !body.is_empty() {
                        return Err(WireError::BadLength {
                            field: "keepalive.body",
                        });
                    }
                    BgpMessage::Keepalive
                }
                MessageType::Update => {
                    return Err(WireError::UnknownType {
                        tag: MessageType::Update.code() as u16,
                    })
                }
            };
            Ok((msg, total))
        }

        fn bgp(bytes: &[u8]) -> Option<ServicePayload> {
            let mut messages = Vec::new();
            let mut offset = 0;
            while offset < bytes.len() {
                match bgp_message(&bytes[offset..]) {
                    Ok((msg, consumed)) => {
                        messages.push(msg);
                        offset += consumed;
                    }
                    Err(_) => break,
                }
            }
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

        pub fn parse_payload(protocol: ServiceProtocol, bytes: &[u8]) -> Option<ServicePayload> {
            match protocol {
                ServiceProtocol::Ssh => ssh(bytes).map(ServicePayload::Ssh),
                ServiceProtocol::Bgp => bgp(bytes),
                ServiceProtocol::Snmpv3 | ServiceProtocol::IcmpRateLimit => None,
            }
        }
    }
}
