//! SNMPv3 engine discovery messages (RFC 3412, RFC 3414).
//!
//! The prior protocol-centric alias-resolution technique (Albakour et al.,
//! IMC 2021) sends an unauthenticated SNMPv3 GET with an empty engine ID;
//! the agent answers with a *Report* PDU whose USM security parameters carry
//! the agent's **msgAuthoritativeEngineID** together with the engine boots
//! and engine time counters.  The engine ID is device-wide and therefore
//! groups aliases exactly like the SSH/BGP identifiers introduced by the
//! paper.  This module implements just those two messages on top of the
//! [`crate::ber`] codec.

use crate::ber::{self, Tlv, TAG_GET_REQUEST_PDU, TAG_REPORT_PDU, TAG_SEQUENCE};
use crate::{Result, WireError};
use serde::{Deserialize, Serialize};

/// SNMP version number for SNMPv3 as carried on the wire.
pub const SNMP_VERSION_3: i64 = 3;
/// The USM security model number.
pub const SECURITY_MODEL_USM: i64 = 3;
/// OID of `usmStatsUnknownEngineIDs.0`, reported during engine discovery.
pub const USM_STATS_UNKNOWN_ENGINE_IDS: [u32; 11] = [1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0];

/// An SNMPv3 engine identifier (5–32 octets per RFC 3411).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EngineId(pub Vec<u8>);

impl EngineId {
    /// Build an engine ID, enforcing the RFC 3411 length bounds (the empty
    /// engine ID used for discovery requests is also allowed).
    pub fn new(bytes: Vec<u8>) -> Result<Self> {
        if bytes.is_empty() || (5..=32).contains(&bytes.len()) {
            Ok(EngineId(bytes))
        } else {
            Err(WireError::BadValue {
                field: "snmp.engine_id",
            })
        }
    }

    /// The conventional enterprise-format engine ID: enterprise number with
    /// the high bit set, format octet 3 (MAC), followed by six octets.
    pub fn from_enterprise_mac(enterprise: u32, mac: [u8; 6]) -> Self {
        let mut bytes = Vec::with_capacity(11);
        bytes.extend_from_slice(&(enterprise | 0x8000_0000).to_be_bytes());
        bytes.push(3);
        bytes.extend_from_slice(&mac);
        EngineId(bytes)
    }

    /// Whether this is the empty (discovery) engine ID.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw engine-ID octets.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Lowercase-hex rendering, used in identifiers and reports.
    pub fn to_hex(&self) -> String {
        crate::hex::hex_string(&self.0)
    }
}

/// The USM security parameters carried as a nested OCTET STRING.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsmSecurityParameters {
    /// The authoritative engine ID (empty in discovery requests).
    pub engine_id: EngineId,
    /// Number of times the engine rebooted.
    pub engine_boots: i64,
    /// Seconds since the last reboot.
    pub engine_time: i64,
    /// Security user name (empty for discovery).
    pub user_name: Vec<u8>,
}

impl UsmSecurityParameters {
    fn from_tlv(element: Tlv<'_>) -> Result<Self> {
        let (seq, _) = Tlv::decode(element.as_octet_string()?)?;
        let [engine_id, engine_boots, engine_time, user_name, _, _] =
            at_least(seq, "usm.parameters")?;
        Ok(UsmSecurityParameters {
            engine_id: EngineId::new(engine_id.as_octet_string()?.to_vec())?,
            engine_boots: engine_boots.as_integer()?,
            engine_time: engine_time.as_integer()?,
            user_name: user_name.as_octet_string()?.to_vec(),
        })
    }
}

/// The first `N` children of `parent`, or `BadLength` naming `field` when it
/// holds fewer (after the whole content run has been validated).
fn at_least<'a, const N: usize>(parent: Tlv<'a>, field: &'static str) -> Result<[Tlv<'a>; N]> {
    let (children, count) = parent.children::<N>()?;
    if count < N {
        return Err(WireError::BadLength { field });
    }
    Ok(children)
}

/// The SNMPv3 messages the toolkit exchanges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Snmpv3Message {
    /// The unauthenticated discovery GET sent by the scanner.
    DiscoveryRequest {
        /// Message ID chosen by the scanner.
        msg_id: i64,
    },
    /// The Report the agent answers with, revealing its engine.
    Report {
        /// Message ID echoed from the request.
        msg_id: i64,
        /// The agent's USM parameters, including the engine ID.
        usm: UsmSecurityParameters,
        /// Value of `usmStatsUnknownEngineIDs`.
        unknown_engine_ids: i64,
    },
}

impl Snmpv3Message {
    /// Maximum message size we advertise.
    const MAX_SIZE: i64 = 65_507;
    /// msgFlags: reportable, no auth, no priv.
    const FLAGS_REPORTABLE: u8 = 0x04;
    /// msgFlags for the report: no auth, no priv, not reportable.
    const FLAGS_NONE: u8 = 0x00;

    /// The message ID.
    pub fn msg_id(&self) -> i64 {
        match self {
            Snmpv3Message::DiscoveryRequest { msg_id } => *msg_id,
            Snmpv3Message::Report { msg_id, .. } => *msg_id,
        }
    }

    /// Build the Report answering a discovery request.
    pub fn report_for(request_msg_id: i64, usm: UsmSecurityParameters, counter: i64) -> Self {
        Snmpv3Message::Report {
            msg_id: request_msg_id,
            usm,
            unknown_engine_ids: counter,
        }
    }

    /// Encode the message to its BER byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// [`Self::to_bytes`], appending to a caller-owned buffer so a scan loop
    /// encodes every datagram of a sweep in one allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Snmpv3Message::DiscoveryRequest { msg_id } => {
                encode_message(out, *msg_id, &[], 0, 0, &[], None)
            }
            Snmpv3Message::Report {
                msg_id,
                usm,
                unknown_engine_ids,
            } => encode_message(
                out,
                *msg_id,
                &usm.engine_id.0,
                usm.engine_boots,
                usm.engine_time,
                &usm.user_name,
                Some(*unknown_engine_ids),
            ),
        }
    }

    /// Append the Report an agent with `engine_id` answers a discovery
    /// request with — the bytes of [`Self::report_for`] with an empty user
    /// name, without building the owned message (which would copy the
    /// engine ID).
    pub fn encode_report_into(
        out: &mut Vec<u8>,
        request_msg_id: i64,
        engine_id: &EngineId,
        engine_boots: i64,
        engine_time: i64,
        counter: i64,
    ) {
        encode_message(
            out,
            request_msg_id,
            &engine_id.0,
            engine_boots,
            engine_time,
            &[],
            Some(counter),
        );
    }

    /// Parse an SNMPv3 message, reading `buf` in place: the only allocation
    /// is the engine ID (and user name, when present) of the value returned.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let (root, _) = Tlv::decode(buf)?;
        let [version, header, usm, scoped] = at_least(root, "snmpv3.message")?;
        if version.as_integer()? != SNMP_VERSION_3 {
            return Err(WireError::BadValue {
                field: "snmpv3.version",
            });
        }
        let [msg_id, _, _, _] = at_least(header, "snmpv3.header")?;
        let msg_id = msg_id.as_integer()?;
        let usm = UsmSecurityParameters::from_tlv(usm)?;
        let [_, _, pdu] = at_least(scoped, "snmpv3.scoped_pdu")?;
        match pdu.tag {
            TAG_GET_REQUEST_PDU => Ok(Snmpv3Message::DiscoveryRequest { msg_id }),
            TAG_REPORT_PDU => {
                // The counter is read leniently: a Report whose varbind
                // list is missing or malformed still reveals its engine.
                let (fields, count) = pdu.children::<4>()?;
                let mut counter = 0;
                if count >= 4 {
                    if let Ok(([first], 1..)) = fields[3].children::<1>() {
                        if let Ok(([_, value], 2)) = first.children::<2>() {
                            counter = value.as_integer().unwrap_or(0);
                        }
                    }
                }
                Ok(Snmpv3Message::Report {
                    msg_id,
                    usm,
                    unknown_engine_ids: counter,
                })
            }
            other => Err(WireError::UnknownType { tag: other as u16 }),
        }
    }
}

/// Append one SNMPv3 message: a Report binding `usmStatsUnknownEngineIDs.0`
/// to `report_counter`, or — without one — the reportable discovery GET with
/// its empty varbind list.  Everything else the two messages share; the
/// engine named in the USM parameters is also the scoped PDU's context
/// engine (empty on a request).
fn encode_message(
    out: &mut Vec<u8>,
    msg_id: i64,
    engine_id: &[u8],
    engine_boots: i64,
    engine_time: i64,
    user_name: &[u8],
    report_counter: Option<i64>,
) {
    let (flags, pdu_tag) = match report_counter {
        Some(_) => (Snmpv3Message::FLAGS_NONE, TAG_REPORT_PDU),
        None => (Snmpv3Message::FLAGS_REPORTABLE, TAG_GET_REQUEST_PDU),
    };
    ber::write_constructed(out, TAG_SEQUENCE, |out| {
        ber::write_integer(out, SNMP_VERSION_3);
        ber::write_constructed(out, TAG_SEQUENCE, |out| {
            ber::write_integer(out, msg_id);
            ber::write_integer(out, Snmpv3Message::MAX_SIZE);
            ber::write_octet_string(out, &[flags]);
            ber::write_integer(out, SECURITY_MODEL_USM);
        });
        // The USM parameters travel as a SEQUENCE inside an OCTET STRING.
        ber::write_constructed(out, ber::TAG_OCTET_STRING, |out| {
            ber::write_constructed(out, TAG_SEQUENCE, |out| {
                ber::write_octet_string(out, engine_id);
                ber::write_integer(out, engine_boots);
                ber::write_integer(out, engine_time);
                ber::write_octet_string(out, user_name);
                ber::write_octet_string(out, &[]); // authentication parameters
                ber::write_octet_string(out, &[]); // privacy parameters
            });
        });
        ber::write_constructed(out, TAG_SEQUENCE, |out| {
            ber::write_octet_string(out, engine_id); // contextEngineID
            ber::write_octet_string(out, &[]); // contextName
            ber::write_constructed(out, pdu_tag, |out| {
                ber::write_integer(out, msg_id); // request-id
                ber::write_integer(out, 0); // error-status
                ber::write_integer(out, 0); // error-index
                ber::write_constructed(out, TAG_SEQUENCE, |out| {
                    if let Some(counter) = report_counter {
                        ber::write_constructed(out, TAG_SEQUENCE, |out| {
                            ber::write_oid(out, &USM_STATS_UNKNOWN_ENGINE_IDS);
                            ber::write_tagged_integer(out, ber::TAG_COUNTER32, counter);
                        });
                    }
                });
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_usm() -> UsmSecurityParameters {
        UsmSecurityParameters {
            engine_id: EngineId::from_enterprise_mac(9, [0, 0x1b, 0x54, 0xaa, 0xbb, 0xcc]),
            engine_boots: 17,
            engine_time: 123_456,
            user_name: Vec::new(),
        }
    }

    #[test]
    fn engine_id_length_bounds() {
        assert!(EngineId::new(vec![]).is_ok());
        assert!(EngineId::new(vec![1, 2, 3, 4]).is_err());
        assert!(EngineId::new(vec![0; 5]).is_ok());
        assert!(EngineId::new(vec![0; 32]).is_ok());
        assert!(EngineId::new(vec![0; 33]).is_err());
    }

    #[test]
    fn enterprise_mac_engine_id_layout() {
        let id = EngineId::from_enterprise_mac(9, [1, 2, 3, 4, 5, 6]);
        assert_eq!(id.0.len(), 11);
        assert_eq!(id.0[0], 0x80); // enterprise high bit
        assert_eq!(id.0[3], 9);
        assert_eq!(id.0[4], 3); // MAC format
        assert_eq!(id.to_hex(), "800000090301020304050 6".replace(' ', ""));
    }

    #[test]
    fn discovery_request_roundtrip() {
        let msg = Snmpv3Message::DiscoveryRequest { msg_id: 0x1337 };
        let parsed = Snmpv3Message::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
        assert_eq!(parsed.msg_id(), 0x1337);
    }

    #[test]
    fn report_roundtrip_preserves_engine() {
        let msg = Snmpv3Message::report_for(42, sample_usm(), 7);
        let parsed = Snmpv3Message::parse(&msg.to_bytes()).unwrap();
        match parsed {
            Snmpv3Message::Report {
                msg_id,
                usm,
                unknown_engine_ids,
            } => {
                assert_eq!(msg_id, 42);
                assert_eq!(usm, sample_usm());
                assert_eq!(unknown_engine_ids, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_v3_messages_are_rejected() {
        // An SNMPv2c-looking message: version 1.
        let mut bytes = Vec::new();
        ber::write_constructed(&mut bytes, TAG_SEQUENCE, |out| {
            ber::write_integer(out, 1);
            ber::write_octet_string(out, b"public");
            out.extend_from_slice(&[ber::TAG_NULL, 0, ber::TAG_NULL, 0]);
        });
        assert_eq!(
            Snmpv3Message::parse(&bytes),
            Err(WireError::BadValue {
                field: "snmpv3.version"
            })
        );
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(Snmpv3Message::parse(&[0xff, 0x00, 0x01]).is_err());
        assert!(Snmpv3Message::parse(&[]).is_err());
    }

    /// This module's encoder and parser as they were on the tree codec
    /// ([`crate::ber::tree`]), unchanged: the oracle of the differential tests.
    mod tree_codec {
        use super::super::*;
        use crate::ber::tree::Element;

        fn usm_to_element(usm: &UsmSecurityParameters) -> Element {
            Element::octet_string(
                &Element::sequence(&[
                    Element::octet_string(&usm.engine_id.0),
                    Element::integer(usm.engine_boots),
                    Element::integer(usm.engine_time),
                    Element::octet_string(&usm.user_name),
                    Element::octet_string(&[]), // authentication parameters
                    Element::octet_string(&[]), // privacy parameters
                ])
                .encode(),
            )
        }

        fn usm_from_element(element: &Element) -> Result<UsmSecurityParameters> {
            let raw = element.as_octet_string()?;
            let (seq, _) = Element::decode(raw)?;
            let children = seq.children()?;
            if children.len() < 6 {
                return Err(WireError::BadLength {
                    field: "usm.parameters",
                });
            }
            Ok(UsmSecurityParameters {
                engine_id: EngineId::new(children[0].as_octet_string()?.to_vec())?,
                engine_boots: children[1].as_integer()?,
                engine_time: children[2].as_integer()?,
                user_name: children[3].as_octet_string()?.to_vec(),
            })
        }

        /// Encode the message to its BER byte representation.
        pub fn to_bytes(message: &Snmpv3Message) -> Vec<u8> {
            match message {
                Snmpv3Message::DiscoveryRequest { msg_id } => {
                    let header = Element::sequence(&[
                        Element::integer(*msg_id),
                        Element::integer(Snmpv3Message::MAX_SIZE),
                        Element::octet_string(&[Snmpv3Message::FLAGS_REPORTABLE]),
                        Element::integer(SECURITY_MODEL_USM),
                    ]);
                    // Discovery parameters: everything empty/zero.
                    let usm = usm_to_element(&UsmSecurityParameters {
                        engine_id: EngineId(Vec::new()),
                        engine_boots: 0,
                        engine_time: 0,
                        user_name: Vec::new(),
                    });
                    let pdu = Element::constructed(
                        TAG_GET_REQUEST_PDU,
                        &[
                            Element::integer(*msg_id), // request-id
                            Element::integer(0),       // error-status
                            Element::integer(0),       // error-index
                            Element::sequence(&[]),    // empty varbind list
                        ],
                    );
                    let scoped_pdu = Element::sequence(&[
                        Element::octet_string(&[]), // contextEngineID
                        Element::octet_string(&[]), // contextName
                        pdu,
                    ]);
                    Element::sequence(&[Element::integer(SNMP_VERSION_3), header, usm, scoped_pdu])
                        .encode()
                }
                Snmpv3Message::Report {
                    msg_id,
                    usm,
                    unknown_engine_ids,
                } => {
                    let header = Element::sequence(&[
                        Element::integer(*msg_id),
                        Element::integer(Snmpv3Message::MAX_SIZE),
                        Element::octet_string(&[Snmpv3Message::FLAGS_NONE]),
                        Element::integer(SECURITY_MODEL_USM),
                    ]);
                    let varbind = Element::sequence(&[
                        Element::oid(&USM_STATS_UNKNOWN_ENGINE_IDS),
                        Element::new(
                            ber::TAG_COUNTER32,
                            Element::integer(*unknown_engine_ids).content,
                        ),
                    ]);
                    let pdu = Element::constructed(
                        TAG_REPORT_PDU,
                        &[
                            Element::integer(*msg_id),
                            Element::integer(0),
                            Element::integer(0),
                            Element::sequence(&[varbind]),
                        ],
                    );
                    let scoped_pdu = Element::sequence(&[
                        Element::octet_string(&usm.engine_id.0),
                        Element::octet_string(&[]),
                        pdu,
                    ]);
                    Element::sequence(&[
                        Element::integer(SNMP_VERSION_3),
                        header,
                        usm_to_element(usm),
                        scoped_pdu,
                    ])
                    .encode()
                }
            }
        }

        /// Parse an SNMPv3 message.
        pub fn parse(buf: &[u8]) -> Result<Snmpv3Message> {
            let (root, _) = Element::decode(buf)?;
            let children = root.children()?;
            if children.len() < 4 {
                return Err(WireError::BadLength {
                    field: "snmpv3.message",
                });
            }
            let version = children[0].as_integer()?;
            if version != SNMP_VERSION_3 {
                return Err(WireError::BadValue {
                    field: "snmpv3.version",
                });
            }
            let header = children[1].children()?;
            if header.len() < 4 {
                return Err(WireError::BadLength {
                    field: "snmpv3.header",
                });
            }
            let msg_id = header[0].as_integer()?;
            let usm = usm_from_element(&children[2])?;
            let scoped = children[3].children()?;
            if scoped.len() < 3 {
                return Err(WireError::BadLength {
                    field: "snmpv3.scoped_pdu",
                });
            }
            match scoped[2].tag {
                TAG_GET_REQUEST_PDU => Ok(Snmpv3Message::DiscoveryRequest { msg_id }),
                TAG_REPORT_PDU => {
                    let pdu = scoped[2].children()?;
                    let mut counter = 0;
                    if pdu.len() >= 4 {
                        if let Ok(varbinds) = pdu[3].children() {
                            if let Some(first) = varbinds.first() {
                                if let Ok(vb) = first.children() {
                                    if vb.len() == 2 {
                                        counter = vb[1].as_integer().unwrap_or(0);
                                    }
                                }
                            }
                        }
                    }
                    Ok(Snmpv3Message::Report {
                        msg_id,
                        usm,
                        unknown_engine_ids: counter,
                    })
                }
                other => Err(WireError::UnknownType { tag: other as u16 }),
            }
        }
    }

    /// SplitMix64: the differential tests' seeded byte source.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }

        /// Seeded bytes of a length picked from `lens`.
        fn bytes_of(&mut self, lens: &[usize]) -> Vec<u8> {
            let len = lens[self.below(lens.len())];
            self.bytes(len)
        }

        /// A seeded integer of a seeded encoded width.
        fn integer(&mut self) -> i64 {
            (self.next() as i64) >> (8 * self.below(8))
        }
    }

    /// Message ids of every encoded width the issue names: 1, 2, 3 and 8
    /// content octets, and negatives.
    const MSG_IDS: [i64; 9] = [
        5,
        0x0101,
        0x01_2345,
        0x0123_4567_89ab_cdef,
        i64::MAX,
        -1,
        -70_000,
        i64::MIN,
        0,
    ];

    /// Requests and Reports covering every encoded shape: the message-id
    /// widths above, 5-/11-/32-byte (and empty) engine IDs, empty and
    /// non-empty user names, outer lengths on both sides of the long-form
    /// boundary, then seeded fills of the same fields up to 400 messages.
    fn corpus() -> Vec<Snmpv3Message> {
        let mut rng = SplitMix(0x5eed_cafe);
        let mut messages = Vec::new();
        for msg_id in MSG_IDS {
            messages.push(Snmpv3Message::DiscoveryRequest { msg_id });
        }
        let user_names: [&[u8]; 3] = [b"", b"scanner", &[0xaa; 40]];
        for (i, engine_len) in [0usize, 5, 11, 32].into_iter().enumerate() {
            for (j, user_name) in user_names.into_iter().enumerate() {
                let usm = UsmSecurityParameters {
                    engine_id: EngineId(rng.bytes(engine_len)),
                    engine_boots: [0, 17, 70_000, -3][i],
                    engine_time: [0, 123_456, i64::MAX][j],
                    user_name: user_name.to_vec(),
                };
                let counter = [0, 1, 0xffff_ffff][j];
                messages.push(Snmpv3Message::report_for(MSG_IDS[i + j], usm, counter));
            }
        }
        while messages.len() < 400 {
            let msg_id = rng.integer();
            messages.push(if rng.below(4) == 0 {
                Snmpv3Message::DiscoveryRequest { msg_id }
            } else {
                let usm = UsmSecurityParameters {
                    engine_id: EngineId(rng.bytes_of(&[0, 5, 11, 12, 32])),
                    engine_boots: rng.integer(),
                    engine_time: rng.integer(),
                    user_name: rng.bytes_of(&[0, 0, 3, 90]),
                };
                Snmpv3Message::report_for(msg_id, usm, (rng.next() >> 32) as i64)
            });
        }
        messages
    }

    /// Both parsers on `buf`: the whole `Result`, error variant and fields
    /// included, must agree.
    #[track_caller]
    fn assert_parsers_agree(buf: &[u8]) {
        assert_eq!(
            Snmpv3Message::parse(buf),
            tree_codec::parse(buf),
            "{buf:02x?}"
        );
    }

    #[test]
    fn the_encoder_is_byte_identical_to_the_tree_codec() {
        let corpus = corpus();
        let mut long_form = 0;
        // One buffer for the whole corpus, as a scan loop would hold it.
        let mut out = Vec::new();
        for message in &corpus {
            let expected = tree_codec::to_bytes(message);
            out.clear();
            message.encode_into(&mut out);
            assert_eq!(out, expected, "{message:?}");
            assert_eq!(message.to_bytes(), expected);
            long_form += usize::from(expected[1] >= 0x80);
            if let Snmpv3Message::Report {
                msg_id,
                usm,
                unknown_engine_ids,
            } = message
            {
                if usm.user_name.is_empty() {
                    out.clear();
                    Snmpv3Message::encode_report_into(
                        &mut out,
                        *msg_id,
                        &usm.engine_id,
                        usm.engine_boots,
                        usm.engine_time,
                        *unknown_engine_ids,
                    );
                    assert_eq!(out, expected, "{message:?}");
                }
            }
        }
        assert!(
            long_form > 20 && long_form < corpus.len() - 20,
            "{long_form} of {} messages take a long-form outer length",
            corpus.len()
        );
    }

    #[test]
    fn the_parser_agrees_with_the_tree_codec_on_every_prefix() {
        for message in corpus() {
            let bytes = message.to_bytes();
            assert_eq!(Snmpv3Message::parse(&bytes), Ok(message));
            for end in 0..=bytes.len() {
                assert_parsers_agree(&bytes[..end]);
            }
            // Trailing bytes after the root element are ignored by both.
            let mut padded = bytes.clone();
            padded.extend_from_slice(&[0x30, 0x84, 0xff]);
            assert_parsers_agree(&padded);
        }
    }

    #[test]
    fn the_parser_agrees_with_the_tree_codec_on_hostile_lengths() {
        let hostile: [&[u8]; 8] = [
            &[0x84, 0xff, 0xff, 0xff, 0xff],
            &[0x84, 0x7f, 0xff, 0xff, 0xff],
            &[0x80],
            &[0x85, 0x00, 0x00, 0x00, 0x00, 0x01],
            &[0x81],
            &[0x81, 0x00],
            &[0x82, 0xff, 0xff],
            &[0xff],
        ];
        for length in hostile {
            // As the root's own length, bare and followed by content.
            let mut root = vec![0x30];
            root.extend_from_slice(length);
            assert_parsers_agree(&root);
            root.extend_from_slice(&[0x02, 0x01, 0x03]);
            assert_parsers_agree(&root);
        }
        // Spliced over every octet of well-formed messages: every length field
        // at every nesting depth is hit, as is every tag and content octet.
        for message in corpus().iter().take(40) {
            let bytes = message.to_bytes();
            for at in 0..bytes.len() {
                for length in hostile {
                    let mut spliced = bytes[..at].to_vec();
                    spliced.extend_from_slice(length);
                    spliced.extend_from_slice(&bytes[at + 1..]);
                    assert_parsers_agree(&spliced);
                }
            }
        }
    }

    #[test]
    fn the_parser_agrees_with_the_tree_codec_on_120_000_seeded_mutations() {
        let encoded: Vec<Vec<u8>> = corpus().iter().map(Snmpv3Message::to_bytes).collect();
        let mut rng = SplitMix(20_230_418);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for _ in 0..120_000 {
            let mut bytes = encoded[rng.below(encoded.len())].clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                match rng.below(6) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes[at] = rng.next() as u8,
                    // Length-shaped values: short/long form boundary and the
                    // long-form markers.
                    2 => bytes[at] = [0x00, 0x7f, 0x80, 0x81, 0x82, 0x84, 0x85, 0xff][rng.below(8)],
                    3 => bytes.insert(at, rng.next() as u8),
                    4 => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            assert_parsers_agree(&bytes);
            match Snmpv3Message::parse(&bytes) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        // The mutations exercise both outcomes, not one of them 120,000 times.
        assert!(accepted > 5_000, "{accepted} mutated messages still parse");
        assert!(rejected > 5_000, "{rejected} mutated messages are rejected");
    }
}
