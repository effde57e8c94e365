//! Payloads as bytes: the borrowed form everyone reads and writes, and the
//! byte arena a store keeps them in.
//!
//! A [`PayloadRef`] is a payload whose variable-length parts are slices of
//! somebody else's bytes.  Three things produce one — a session buffer
//! parsed in place ([`PayloadRef::parse`]), an owned row
//! ([`ServicePayload::as_ref`]) and a stored record decoded in place — and
//! three consume it: the arena encoder below, the identifier keys of
//! `alias-core`, and [`PayloadRef::to_owned`] on the way back to rows.
//!
//! A [`PayloadArena`] holds one self-describing record per row, back to
//! back in a few shared chunks, each a `Vec<u8>` with its rows' end offsets
//! beside it.  A record is written once, by the scan or crawl that observed
//! the payload; from then on whole chunks change hands — moved when a shard
//! is spliced on, shared when a store is cloned or united with another —
//! and a chunk is freed when the last arena holding it goes.  The encoding
//! is the store's own and injective — equal payloads have equal records and
//! different payloads different ones — so comparing two arenas record by
//! record compares the payloads they hold, however either is chunked.
//! Multi-byte integers are little-endian.
//!
//! | Protocol | Record |
//! |---|---|
//! | SSH | flags `u8` (1 comments, 2 KEXINIT, 4 host key, 8 `first_kex_packet_follows`), key algorithm `u8`, cookie `[u8; 16]`, the end offsets of the 14 fields below as `u32`s, then the fields, what identifies the host first and as the identifier reads it: key material; `SSH-` protocol version `-` software (` ` comments, if present) — the banner line; the key-exchange, host-key and server-to-client cipher / MAC / compression lists, `;` between them if there is a KEXINIT — the capability fingerprint; the other five lists in wire order.  The literals are in no field.  An absent part is zeros / empty fields. |
//! | BGP | `notification_seen` `u8`, version `u8`, My AS `u16`, hold time `u16`, BGP Identifier `[u8; 4]`, then the parameters to the record's end, each a kind byte and its fields: 0 multiprotocol (AFI `u16`, SAFI `u8`), 1 route refresh, 2 four-octet AS (`u32`), 3 Cisco route refresh, 4 other capability (code `u8`, length `u32`, value), 5 other parameter (type `u8`, length `u32`, value). |
//! | SNMPv3 | engine boots `i64`, engine time `i64`, then the engine ID to the record's end. |
//! | ICMP rate limit | round `u8`, rate `u32`, sent `u16`, lost `u16`. |

use crate::records::ServicePayload;
use alias_netsim::ServiceProtocol;
use alias_wire::bgp::{BgpMessage, BgpMessageRef, CapabilityRef, OpenMessage, OpenRef};
use alias_wire::bgp::{OptionalParameter, ParamRef, WireParams};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::hostkey::KexReply;
use alias_wire::ssh::{
    Banner, BannerRef, HostKeyAlgorithm, HostKeyRef, KexInit, KexInitRef, NameListRef,
    SshObservationRef, SshPacket,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Parsed application-layer material of one observation, its
/// variable-length parts borrowed: the one form payloads are read and
/// written in.  The row type is [`ServicePayload`].
//
// Never stored, only passed: the SSH variant's size is a few slices on the
// stack, and boxing it would put an allocation back on every read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum PayloadRef<'a> {
    /// An SSH banner exchange (banner, KEXINIT, host key where obtained).
    Ssh(SshRef<'a>),
    /// A BGP exchange: the OPEN message and whether a Cease notification
    /// followed.
    Bgp {
        /// The OPEN message.
        open: BgpOpenRef<'a>,
        /// Whether a NOTIFICATION (connection rejected) followed the OPEN.
        notification_seen: bool,
    },
    /// An SNMPv3 engine-discovery report.
    Snmpv3 {
        /// The authoritative engine ID's octets.
        engine_id: &'a [u8],
        /// Engine boots counter.
        engine_boots: i64,
        /// Engine time in seconds.
        engine_time: i64,
    },
    /// One lossy round of an ICMP rate-limiting probe (see
    /// [`ServicePayload::RateLimit`]).
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

/// A BGP OPEN message with its optional parameters borrowed, wherever they
/// are kept.
#[derive(Debug, Clone, Copy)]
pub struct BgpOpenRef<'a> {
    /// Protocol version.
    pub version: u8,
    /// The two-octet `My Autonomous System` field.
    pub my_as: u16,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// The BGP Identifier.
    pub bgp_identifier: Ipv4Addr,
    /// Optional parameters, typically capability advertisements.
    pub params: BgpParams<'a>,
}

impl BgpOpenRef<'_> {
    /// The speaker's AS number ([`OpenMessage::effective_asn`]).
    pub fn effective_asn(&self) -> u32 {
        self.params
            .iter()
            .find_map(|param| match param {
                ParamRef::Capability(CapabilityRef::FourOctetAs { asn }) => Some(asn),
                _ => None,
            })
            .unwrap_or(u32::from(self.my_as))
    }

    /// Copy the message into an owned [`OpenMessage`].
    pub fn to_owned(&self) -> OpenMessage {
        OpenMessage {
            version: self.version,
            my_as: self.my_as,
            hold_time: self.hold_time,
            bgp_identifier: self.bgp_identifier,
            optional_parameters: self.params.iter().map(|param| param.to_owned()).collect(),
        }
    }
}

impl<'a> From<OpenRef<'a>> for BgpOpenRef<'a> {
    fn from(open: OpenRef<'a>) -> Self {
        BgpOpenRef {
            version: open.version,
            my_as: open.my_as,
            hold_time: open.hold_time,
            bgp_identifier: open.bgp_identifier,
            params: BgpParams::Wire(open.optional_parameters),
        }
    }
}

/// The optional parameters of an OPEN message, in whichever of the three
/// places a payload's bytes can live; [`Self::iter`] reads them all alike.
#[derive(Debug, Clone, Copy)]
pub enum BgpParams<'a> {
    /// Checked and still on the wire ([`OpenMessage::parse_borrowed`]).
    Wire(WireParams<'a>),
    /// An owned message's list.
    List(&'a [OptionalParameter]),
    /// The parameter run of a stored record.
    Record(RecordParams<'a>),
}

impl<'a> BgpParams<'a> {
    /// The parameters, in order.
    pub fn iter(&self) -> impl Iterator<Item = ParamRef<'a>> {
        let (wire, list, record) = match *self {
            BgpParams::Wire(wire) => (Some(wire.iter()), None, None),
            BgpParams::List(list) => (None, Some(list.iter().map(|p| p.as_ref())), None),
            BgpParams::Record(record) => (None, None, Some(record.iter())),
        };
        (wire.into_iter().flatten())
            .chain(list.into_iter().flatten())
            .chain(record.into_iter().flatten())
    }
}

/// The parameter run of a stored BGP record: only the store's own decoder
/// makes one.
#[derive(Debug, Clone, Copy)]
pub struct RecordParams<'a>(&'a [u8]);

const PARAM_MULTIPROTOCOL: u8 = 0;
const PARAM_ROUTE_REFRESH: u8 = 1;
const PARAM_FOUR_OCTET_AS: u8 = 2;
const PARAM_ROUTE_REFRESH_CISCO: u8 = 3;
const PARAM_OTHER_CAPABILITY: u8 = 4;
const PARAM_OTHER: u8 = 5;

impl<'a> RecordParams<'a> {
    fn iter(&self) -> impl Iterator<Item = ParamRef<'a>> {
        let mut rest = self.0;
        std::iter::from_fn(move || next_record_param(&mut rest))
    }
}

/// Read one parameter off the front of a record's parameter run; `None` at
/// its end, or where it stops decoding — a run the encoder did not write,
/// which `validate` reports because it does not encode back to itself.
fn next_record_param<'a>(rest: &mut &'a [u8]) -> Option<ParamRef<'a>> {
    let (&kind, body) = rest.split_first()?;
    let (param, used) = match kind {
        PARAM_MULTIPROTOCOL => {
            let &[a, b, safi] = body.first_chunk()?;
            let afi = u16::from_le_bytes([a, b]);
            (
                ParamRef::Capability(CapabilityRef::Multiprotocol { afi, safi }),
                3,
            )
        }
        PARAM_ROUTE_REFRESH => (ParamRef::Capability(CapabilityRef::RouteRefresh), 0),
        PARAM_FOUR_OCTET_AS => {
            let asn = u32::from_le_bytes(*body.first_chunk()?);
            (ParamRef::Capability(CapabilityRef::FourOctetAs { asn }), 4)
        }
        PARAM_ROUTE_REFRESH_CISCO => (ParamRef::Capability(CapabilityRef::RouteRefreshCisco), 0),
        PARAM_OTHER_CAPABILITY | PARAM_OTHER => {
            let (&code, body) = body.split_first()?;
            let len = u32::from_le_bytes(*body.first_chunk()?) as usize;
            let value = body.get(4..4 + len)?;
            let param = if kind == PARAM_OTHER {
                ParamRef::Other {
                    param_type: code,
                    value,
                }
            } else {
                ParamRef::Capability(CapabilityRef::Other { code, value })
            };
            (param, 5 + len)
        }
        _ => return None,
    };
    *rest = &body[used..];
    Some(param)
}

fn encode_param(param: ParamRef<'_>, out: &mut Vec<u8>) {
    match param {
        ParamRef::Capability(CapabilityRef::Multiprotocol { afi, safi }) => {
            out.push(PARAM_MULTIPROTOCOL);
            out.extend_from_slice(&afi.to_le_bytes());
            out.push(safi);
        }
        ParamRef::Capability(CapabilityRef::RouteRefresh) => out.push(PARAM_ROUTE_REFRESH),
        ParamRef::Capability(CapabilityRef::FourOctetAs { asn }) => {
            out.push(PARAM_FOUR_OCTET_AS);
            out.extend_from_slice(&asn.to_le_bytes());
        }
        ParamRef::Capability(CapabilityRef::RouteRefreshCisco) => {
            out.push(PARAM_ROUTE_REFRESH_CISCO)
        }
        ParamRef::Capability(CapabilityRef::Other { code, value }) => {
            out.extend_from_slice(&[PARAM_OTHER_CAPABILITY, code]);
            out.extend_from_slice(&field_len(value).to_le_bytes());
            out.extend_from_slice(value);
        }
        ParamRef::Other { param_type, value } => {
            out.extend_from_slice(&[PARAM_OTHER, param_type]);
            out.extend_from_slice(&field_len(value).to_le_bytes());
            out.extend_from_slice(value);
        }
    }
}

/// A field's length as the `u32` records frame it with.  Nothing a parser
/// returns comes near (an SSH packet is at most 35,000 bytes, a BGP message
/// 4,096); a hand-built row past it is refused loudly, not truncated.
fn field_len(field: &[u8]) -> u32 {
    u32::try_from(field.len()).expect("a payload field is shorter than 4 GiB")
}

const SSH_COMMENTS: u8 = 1;
const SSH_KEX_INIT: u8 = 2;
const SSH_HOST_KEY: u8 = 4;
const SSH_FIRST_KEX_PACKET_FOLLOWS: u8 = 8;
/// Variable-length fields of an SSH record, in the order it keeps them:
/// what identifies the host first, as the identifier reads it.
const SSH_FIELDS: usize = 14;
/// The key material.
const FIELD_KEY: usize = 0;
/// Protocol version, software, comments: with their literals, the banner
/// line.
const FIELD_BANNER: usize = 1;
/// The five server capability lists: with their `;`s, the capability
/// fingerprint.  The other five lists follow.
const FIELD_CAPABILITIES: usize = 4;
/// Where each name-list, in wire order, is kept.
const FIELD_OF_LIST: [usize; 10] = [4, 5, 9, 6, 10, 7, 11, 8, 12, 13];
/// Where the end-offset table starts: after flags, key algorithm, cookie.
const SSH_TABLE_AT: usize = 2 + 16;
const SSH_HEADER_LEN: usize = SSH_TABLE_AT + 4 * SSH_FIELDS;
/// `HostKeyAlgorithm as u8` back to the algorithm.
const KEY_ALGORITHMS: [HostKeyAlgorithm; 4] = [
    HostKeyAlgorithm::Ed25519,
    HostKeyAlgorithm::Rsa,
    HostKeyAlgorithm::EcdsaP256,
    HostKeyAlgorithm::Dsa,
];

/// The literal bytes a record under `flags` keeps in front of field `index`:
/// the ones that make the banner's fields the banner line and the server
/// capability lists the fingerprint, so that either is one run of the
/// record.  No comments, no space; no KEXINIT, no `;`s.
#[inline]
fn literal_before(index: usize, flags: u8) -> &'static [u8] {
    match index {
        1 => b"SSH-",
        2 => b"-",
        3 if flags & SSH_COMMENTS != 0 => b" ",
        5..=8 if flags & SSH_KEX_INIT != 0 => b";",
        _ => b"",
    }
}

fn encode_ssh(ssh: SshObservationRef<'_>, out: &mut Vec<u8>) {
    let SshObservationRef {
        banner,
        kex_init,
        host_key,
    } = ssh;
    let mut flags = 0;
    let mut fields: [&[u8]; SSH_FIELDS] = [&[]; SSH_FIELDS];
    let mut algorithm = 0;
    if let Some(key) = host_key {
        flags |= SSH_HOST_KEY;
        algorithm = key.algorithm as u8;
        fields[FIELD_KEY] = key.key_material;
    }
    fields[FIELD_BANNER] = banner.proto_version.as_bytes();
    fields[FIELD_BANNER + 1] = banner.software.as_bytes();
    if let Some(comments) = banner.comments {
        flags |= SSH_COMMENTS;
        fields[FIELD_BANNER + 2] = comments.as_bytes();
    }
    let mut cookie = [0; 16];
    if let Some(kex) = kex_init {
        flags |= SSH_KEX_INIT;
        if kex.first_kex_packet_follows {
            flags |= SSH_FIRST_KEX_PACKET_FOLLOWS;
        }
        cookie = kex.cookie;
        for (list, field) in kex.name_lists.into_iter().zip(FIELD_OF_LIST) {
            fields[field] = list.as_bytes();
        }
    }
    let mut header = [0; SSH_HEADER_LEN];
    header[0] = flags;
    header[1] = algorithm;
    header[2..SSH_TABLE_AT].copy_from_slice(&cookie);
    let mut end = 0u32;
    for (index, entry) in header[SSH_TABLE_AT..].chunks_exact_mut(4).enumerate() {
        end = end
            .checked_add(field_len(fields[index]) + literal_before(index, flags).len() as u32)
            .expect("an SSH payload is shorter than 4 GiB");
        entry.copy_from_slice(&end.to_le_bytes());
    }
    out.reserve(SSH_HEADER_LEN + end as usize);
    out.extend_from_slice(&header);
    for (index, field) in fields.into_iter().enumerate() {
        out.extend_from_slice(literal_before(index, flags));
        out.extend_from_slice(field);
    }
}

/// An SSH observation, in whichever of the two shapes its bytes have: the
/// parts by slice (read off a session, or lent by an owned observation), or
/// a stored record, which keeps what the identifier reads — key material,
/// banner line, capability fingerprint — each as one run of bytes.
///
/// # Panics
/// The accessors panic on a record the store's encoder did not write,
/// which [`ObservationStore::validate`](crate::ObservationStore::validate)
/// reports.
//
// Like `PayloadRef`, passed and never stored; `Parts` is a dozen slices.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum SshRef<'a> {
    /// Every part as a slice of somebody's bytes.
    Parts(SshObservationRef<'a>),
    /// A record in a store's arena.
    Record(SshRecord<'a>),
}

impl<'a> From<SshObservationRef<'a>> for SshRef<'a> {
    fn from(parts: SshObservationRef<'a>) -> Self {
        SshRef::Parts(parts)
    }
}

impl<'a> SshRef<'a> {
    /// The server host key, if obtained.
    #[inline]
    pub fn host_key(&self) -> Option<HostKeyRef<'a>> {
        match self {
            SshRef::Parts(parts) => parts.host_key,
            SshRef::Record(record) => record.host_key().expect(OWN_RECORD),
        }
    }

    /// Append the banner line ([`BannerRef::emit_line`]) to `out`.
    #[inline]
    pub fn emit_banner_line(&self, out: &mut Vec<u8>) {
        match self {
            SshRef::Parts(parts) => parts.banner.emit_line(out),
            SshRef::Record(record) => out.extend_from_slice(
                record
                    .run(FIELD_BANNER, FIELD_CAPABILITIES)
                    .expect(OWN_RECORD),
            ),
        }
    }

    /// Append the capability fingerprint of the server's KEXINIT
    /// ([`KexInitRef::emit_capability_fingerprint`]) to `out`: nothing, if
    /// the exchange did not get that far.
    #[inline]
    pub fn emit_capability_fingerprint(&self, out: &mut Vec<u8>) {
        match self {
            SshRef::Parts(parts) => {
                if let Some(kex) = parts.kex_init {
                    kex.emit_capability_fingerprint(out);
                }
            }
            SshRef::Record(record) => out.extend_from_slice(
                record
                    .run(FIELD_CAPABILITIES, FIELD_CAPABILITIES + 5)
                    .expect(OWN_RECORD),
            ),
        }
    }

    /// Every part, by slice.
    pub fn parts(&self) -> SshObservationRef<'a> {
        match self {
            SshRef::Parts(parts) => *parts,
            SshRef::Record(record) => record.parts().expect(OWN_RECORD),
        }
    }
}

const OWN_RECORD: &str = "the arena holds only records its own encoder wrote";

/// An SSH record read in place: the fixed header and the field bytes.
#[derive(Debug, Clone, Copy)]
pub struct SshRecord<'a> {
    header: &'a [u8; SSH_HEADER_LEN],
    data: &'a [u8],
}

impl<'a> SshRecord<'a> {
    #[inline]
    fn has(&self, flag: u8) -> bool {
        self.header[0] & flag != 0
    }

    /// Where field `index - 1` ends in `data` (0 for `index` 0).
    #[inline]
    fn end_before(&self, index: usize) -> usize {
        let Some(before) = index.checked_sub(1) else {
            return 0;
        };
        let at = SSH_TABLE_AT + 4 * before;
        let end = self.header[at..at + 4].first_chunk().expect("four bytes");
        u32::from_le_bytes(*end) as usize
    }

    /// Fields `from..to` and the literals among them, as one run; `None`
    /// if the table does not fit the data.
    #[inline]
    fn run(&self, from: usize, to: usize) -> Option<&'a [u8]> {
        self.data.get(self.end_before(from)..self.end_before(to))
    }

    /// Field `index`; `None` if the table does not fit the data.
    #[inline]
    fn field(&self, index: usize) -> Option<&'a [u8]> {
        let literal = literal_before(index, self.header[0]).len();
        self.run(index, index + 1)?.get(literal..)
    }

    /// `Some(None)` without a host key; `None` if it does not decode.
    #[inline]
    fn host_key(&self) -> Option<Option<HostKeyRef<'a>>> {
        if !self.has(SSH_HOST_KEY) {
            return Some(None);
        }
        Some(Some(HostKeyRef {
            algorithm: *KEY_ALGORITHMS.get(usize::from(self.header[1]))?,
            key_material: self.field(FIELD_KEY)?,
        }))
    }

    /// Field `index` as the text it was encoded from; `None` if it is not.
    fn text(&self, index: usize) -> Option<&'a str> {
        std::str::from_utf8(self.field(index)?).ok()
    }

    /// Every part; `None` unless the table covers the data exactly, the
    /// banner's fields are text and the lists name-lists.
    fn parts(&self) -> Option<SshObservationRef<'a>> {
        if self.end_before(SSH_FIELDS) != self.data.len() {
            return None;
        }
        let kex_init = if self.has(SSH_KEX_INIT) {
            let mut name_lists = [NameListRef::default(); 10];
            for (list, field) in name_lists.iter_mut().zip(FIELD_OF_LIST) {
                *list = NameListRef::new(self.text(field)?).ok()?;
            }
            Some(KexInitRef {
                cookie: *self.header[2..].first_chunk().expect("the header holds it"),
                name_lists,
                first_kex_packet_follows: self.has(SSH_FIRST_KEX_PACKET_FOLLOWS),
            })
        } else {
            None
        };
        Some(SshObservationRef {
            banner: BannerRef {
                proto_version: self.text(FIELD_BANNER)?,
                software: self.text(FIELD_BANNER + 1)?,
                comments: match self.has(SSH_COMMENTS) {
                    true => Some(self.text(FIELD_BANNER + 2)?),
                    false => None,
                },
            },
            kex_init,
            host_key: self.host_key()?,
        })
    }
}

impl<'a> PayloadRef<'a> {
    /// The protocol this payload belongs to.
    pub fn protocol(&self) -> ServiceProtocol {
        match self {
            PayloadRef::Ssh(_) => ServiceProtocol::Ssh,
            PayloadRef::Bgp { .. } => ServiceProtocol::Bgp,
            PayloadRef::Snmpv3 { .. } => ServiceProtocol::Snmpv3,
            PayloadRef::RateLimit { .. } => ServiceProtocol::IcmpRateLimit,
        }
    }

    /// Parse a captured server→client byte stream in place.
    ///
    /// Returns `None` when the server sent nothing useful (e.g. the silent
    /// BGP majority) or the bytes do not parse as the expected protocol.
    /// SNMPv3 replies are not a TCP byte stream and are handled by the SNMP
    /// scanner.
    pub fn parse(protocol: ServiceProtocol, bytes: &'a [u8]) -> Option<Self> {
        match protocol {
            ServiceProtocol::Ssh => parse_ssh(bytes).map(|ssh| PayloadRef::Ssh(ssh.into())),
            ServiceProtocol::Bgp => parse_bgp(bytes),
            ServiceProtocol::Snmpv3 | ServiceProtocol::IcmpRateLimit => None,
        }
    }

    /// Copy the payload into an owned [`ServicePayload`].
    pub fn to_owned(&self) -> ServicePayload {
        match *self {
            PayloadRef::Ssh(ssh) => ServicePayload::Ssh(ssh.parts().to_owned()),
            PayloadRef::Bgp {
                open,
                notification_seen,
            } => ServicePayload::Bgp {
                open: open.to_owned(),
                notification_seen,
            },
            PayloadRef::Snmpv3 {
                engine_id,
                engine_boots,
                engine_time,
            } => ServicePayload::Snmpv3 {
                engine_id: EngineId(engine_id.to_vec()),
                engine_boots,
                engine_time,
            },
            PayloadRef::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            } => ServicePayload::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            },
        }
    }

    /// Append the payload's record to `out`: the one encoder.
    fn encode(self, out: &mut Vec<u8>) {
        match self {
            PayloadRef::Ssh(ssh) => encode_ssh(ssh.parts(), out),
            PayloadRef::Bgp {
                open,
                notification_seen,
            } => {
                out.extend_from_slice(&[u8::from(notification_seen), open.version]);
                out.extend_from_slice(&open.my_as.to_le_bytes());
                out.extend_from_slice(&open.hold_time.to_le_bytes());
                out.extend_from_slice(&open.bgp_identifier.octets());
                for param in open.params.iter() {
                    encode_param(param, out);
                }
            }
            PayloadRef::Snmpv3 {
                engine_id,
                engine_boots,
                engine_time,
            } => {
                out.extend_from_slice(&engine_boots.to_le_bytes());
                out.extend_from_slice(&engine_time.to_le_bytes());
                out.extend_from_slice(engine_id);
            }
            PayloadRef::RateLimit {
                round,
                rate_pps,
                sent,
                lost,
            } => {
                out.push(round);
                out.extend_from_slice(&rate_pps.to_le_bytes());
                out.extend_from_slice(&sent.to_le_bytes());
                out.extend_from_slice(&lost.to_le_bytes());
            }
        }
    }

    /// Read `record` in place as a payload of `protocol`: the one reader.
    /// `None` if it is not a record [`Self::encode`] writes for one.
    #[inline]
    fn decode(protocol: ServiceProtocol, record: &'a [u8]) -> Option<Self> {
        Some(match protocol {
            ServiceProtocol::Ssh => {
                let (header, data) = record.split_first_chunk()?;
                PayloadRef::Ssh(SshRef::Record(SshRecord { header, data }))
            }
            ServiceProtocol::Bgp => {
                let (&[seen, version, as0, as1, hold0, hold1, a, b, c, d], params) =
                    record.split_first_chunk()?;
                if seen > 1 {
                    return None;
                }
                PayloadRef::Bgp {
                    open: BgpOpenRef {
                        version,
                        my_as: u16::from_le_bytes([as0, as1]),
                        hold_time: u16::from_le_bytes([hold0, hold1]),
                        bgp_identifier: Ipv4Addr::new(a, b, c, d),
                        params: BgpParams::Record(RecordParams(params)),
                    },
                    notification_seen: seen == 1,
                }
            }
            ServiceProtocol::Snmpv3 => {
                let (boots, rest) = record.split_first_chunk()?;
                let (time, engine_id) = rest.split_first_chunk()?;
                PayloadRef::Snmpv3 {
                    engine_id,
                    engine_boots: i64::from_le_bytes(*boots),
                    engine_time: i64::from_le_bytes(*time),
                }
            }
            ServiceProtocol::IcmpRateLimit => {
                let &[round, r0, r1, r2, r3, s0, s1, l0, l1] = <&[u8; 9]>::try_from(record).ok()?;
                PayloadRef::RateLimit {
                    round,
                    rate_pps: u32::from_le_bytes([r0, r1, r2, r3]),
                    sent: u16::from_le_bytes([s0, s1]),
                    lost: u16::from_le_bytes([l0, l1]),
                }
            }
        })
    }
}

fn parse_ssh(bytes: &[u8]) -> Option<SshObservationRef<'_>> {
    let (banner, consumed) = Banner::parse_borrowed(bytes).ok()?;
    let mut kex_init = None;
    let mut host_key = None;
    for payload in SshPacket::payloads(&bytes[consumed..]) {
        if kex_init.is_none() {
            if let Ok(kex) = KexInit::parse_borrowed(payload) {
                kex_init = Some(kex);
                continue;
            }
        }
        if host_key.is_none() {
            if let Ok(reply) = KexReply::parse_borrowed(payload) {
                host_key = Some(reply.host_key);
            }
        }
    }
    Some(SshObservationRef {
        banner,
        kex_init,
        host_key,
    })
}

fn parse_bgp(bytes: &[u8]) -> Option<PayloadRef<'_>> {
    let mut open = None;
    let mut notification_seen = false;
    for message in BgpMessage::messages(bytes) {
        match message {
            BgpMessageRef::Open(o) if open.is_none() => open = Some(o),
            BgpMessageRef::Notification(_) => notification_seen = true,
            _ => {}
        }
    }
    open.map(|open| PayloadRef::Bgp {
        open: open.into(),
        notification_seen,
    })
}

/// One run of records, back to back in one buffer, with where each ends
/// (offsets into this chunk's buffer; `usize`: the `huge` preset's payloads
/// pass 4 GiB).  Written by exactly one arena, while no other holds it.
#[derive(Debug, Clone, Default)]
struct Chunk {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Chunk {
    #[inline]
    fn record(&self, row: usize) -> &[u8] {
        let start = row.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.bytes[start..self.ends[row]]
    }

    fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.ends.len()).map(|row| self.record(row))
    }
}

/// The payload column of a store: an append-only list of [`Chunk`]s, each
/// listed with the row it starts at.  A payload's bytes are written once,
/// by the scan or crawl that pushed it; after that chunks only change
/// hands — a spliced shard's chunk is moved in, a cloned or united store's
/// chunks are shared — so two arenas holding the same rows may be chunked
/// differently: equality reads record by record.
///
/// Only the last chunk may hold no rows (one opened for rows to come).
#[derive(Debug, Clone, Default)]
pub(crate) struct PayloadArena {
    chunks: Vec<(usize, Arc<Chunk>)>,
}

impl PartialEq for PayloadArena {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.records().eq(other.records())
    }
}

impl Eq for PayloadArena {}

impl PayloadArena {
    /// An empty arena with room for `rows` end offsets.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let chunk = Chunk {
            bytes: Vec::new(),
            ends: Vec::with_capacity(rows),
        };
        PayloadArena {
            chunks: vec![(0, Arc::new(chunk))],
        }
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        (self.chunks.last()).map_or(0, |(start, chunk)| start + chunk.ends.len())
    }

    /// Total record bytes.
    pub(crate) fn byte_len(&self) -> usize {
        self.chunks.iter().map(|(_, chunk)| chunk.bytes.len()).sum()
    }

    /// Append one payload's record: to the last chunk while no other arena
    /// shares it, to a new one otherwise.
    pub(crate) fn push(&mut self, payload: PayloadRef<'_>) {
        if let Some(chunk) = self.chunks.last_mut().and_then(|(_, c)| Arc::get_mut(c)) {
            payload.encode(&mut chunk.bytes);
            chunk.ends.push(chunk.bytes.len());
            return;
        }
        self.chunks.push((self.len(), Arc::default()));
        self.push(payload)
    }

    /// Append every record of `other` by sharing its chunks.
    pub(crate) fn extend_from(&mut self, other: &PayloadArena) {
        self.splice(other.chunks.iter().map(|(_, chunk)| Arc::clone(chunk)));
    }

    /// Append every record of `other` by taking its chunks.
    pub(crate) fn append(&mut self, other: PayloadArena) {
        self.splice(other.chunks.into_iter().map(|(_, chunk)| chunk));
    }

    fn splice(&mut self, chunks: impl Iterator<Item = Arc<Chunk>>) {
        if (self.chunks.last()).is_some_and(|(_, open)| open.ends.is_empty()) {
            self.chunks.pop();
        }
        let mut start = self.len();
        for chunk in chunks.filter(|chunk| !chunk.ends.is_empty()) {
            let rows = chunk.ends.len();
            self.chunks.push((start, chunk));
            start += rows;
        }
    }

    /// Every record, in row order.
    fn records(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().flat_map(|(_, chunk)| chunk.records())
    }

    #[inline]
    fn record(&self, row: usize) -> &[u8] {
        let after = self.chunks.partition_point(|&(start, _)| start <= row);
        let (start, chunk) = &self.chunks[after.checked_sub(1).expect("a row of the arena")];
        chunk.record(row - start)
    }

    /// Row `row`'s payload, decoded in place under its protocol tag.
    #[inline]
    pub(crate) fn get(&self, row: usize, protocol: ServiceProtocol) -> PayloadRef<'_> {
        PayloadRef::decode(protocol, self.record(row))
            .expect("the arena holds only records its own encoder wrote")
    }

    /// Check the arena against the protocol column: the chunk table lists
    /// each chunk at the row the ones before it end on, none but the last
    /// empty; every chunk's end offsets non-decreasing and the last one its
    /// buffer's length; and every record the exact bytes its own decoded
    /// payload encodes to.
    pub(crate) fn validate(&self, protocols: &[ServiceProtocol]) -> Result<(), String> {
        let mut first_row = 0;
        for (at, (start, chunk)) in self.chunks.iter().enumerate() {
            let rows = chunk.ends.len();
            if *start != first_row || (rows == 0 && at + 1 != self.chunks.len()) {
                return Err(format!(
                    "payload chunk table drift at chunk {at}: {rows} rows listed from row \
                     {start}, after {first_row} rows"
                ));
            }
            let len = chunk.bytes.len();
            let mut from = 0;
            for (row, &end) in chunk.ends.iter().enumerate() {
                if end < from || end > len {
                    return Err(format!(
                        "payload offset drift at row {}: record {from}..{end} of {len} chunk bytes",
                        first_row + row
                    ));
                }
                from = end;
            }
            if from != len {
                return Err(format!(
                    "payload offset drift: the last record of chunk {at} ends at {from} of \
                     {len} chunk bytes"
                ));
            }
            first_row += rows;
        }
        let mut again = Vec::new();
        for (row, (record, &tag)) in self.records().zip(protocols).enumerate() {
            again.clear();
            let sound = match PayloadRef::decode(tag, record) {
                Some(PayloadRef::Ssh(SshRef::Record(ssh))) => ssh.parts().is_some_and(|parts| {
                    encode_ssh(parts, &mut again);
                    again == record
                }),
                Some(payload) => {
                    payload.encode(&mut again);
                    again == record
                }
                None => false,
            };
            if !sound {
                return Err(format!(
                    "tag/payload drift at row {row}: not a {tag:?} record"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alias_wire::bgp::Capability;
    use alias_wire::ssh::{HostKey, NameList, SshObservation};

    fn record_of(payload: &ServicePayload) -> Vec<u8> {
        let mut out = Vec::new();
        payload.as_ref().encode(&mut out);
        out
    }

    fn ssh(software: &str, comments: Option<&str>, kex_init: Option<KexInit>) -> ServicePayload {
        ServicePayload::Ssh(SshObservation {
            banner: Banner {
                proto_version: "2.0".to_owned(),
                software: software.to_owned(),
                comments: comments.map(str::to_owned),
            },
            kex_init,
            host_key: Some(HostKey::new(HostKeyAlgorithm::Rsa, vec![7; 3])),
        })
    }

    fn bgp(optional_parameters: Vec<OptionalParameter>) -> ServicePayload {
        ServicePayload::Bgp {
            open: OpenMessage {
                version: 4,
                my_as: 23_456,
                hold_time: 90,
                bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                optional_parameters,
            },
            notification_seen: true,
        }
    }

    #[test]
    fn key_algorithm_bytes_map_back() {
        for algorithm in KEY_ALGORITHMS {
            assert_eq!(KEY_ALGORITHMS[algorithm as usize], algorithm);
        }
    }

    #[test]
    fn payloads_that_render_alike_keep_distinct_records() {
        let other = |code, value: &[u8]| {
            OptionalParameter::Capability(Capability::Other {
                code,
                value: value.to_vec(),
            })
        };
        let mut no_lists = KexInit::typical_openssh();
        no_lists.kex_algorithms = NameList::default();
        let payloads = [
            // One banner line, two field splits; absent and empty comments.
            ssh("a b", None, None),
            ssh("a", Some("b"), None),
            ssh("a", Some(""), None),
            ssh("a", None, None),
            // No KEXINIT against one of empty lists and a zero cookie.
            ssh("a", None, Some(KexInit::typical_openssh())),
            ssh("a", None, Some(no_lists)),
            // A capability, an unmodelled one and an opaque parameter that
            // are the same bytes on the wire.
            bgp(vec![OptionalParameter::Capability(
                Capability::RouteRefresh,
            )]),
            bgp(vec![other(2, &[])]),
            bgp(vec![OptionalParameter::Other {
                param_type: 2,
                value: vec![],
            }]),
            bgp(vec![other(1, &[0, 2])]),
            bgp(vec![other(1, &[]), other(2, &[])]),
            bgp(vec![]),
        ];
        let records: Vec<Vec<u8>> = payloads.iter().map(record_of).collect();
        for (i, a) in records.iter().enumerate() {
            let protocol = payloads[i].protocol();
            let decoded = PayloadRef::decode(protocol, a).expect("its own record");
            assert_eq!(decoded.to_owned(), payloads[i]);
            for (j, b) in records.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "payloads {i} and {j}");
            }
        }
    }

    #[test]
    fn the_three_homes_of_bgp_parameters_read_and_encode_alike() {
        // On the wire: two capabilities packed into one parameter, then an
        // opaque parameter — three entries once flattened.
        let block = [2, 8, 65, 4, 0, 6, 14, 182, 2, 0, 9, 2, 0xde, 0xad];
        let wire = WireParams::parse(&block).unwrap();
        let owned: Vec<OptionalParameter> = wire.to_owned();
        assert_eq!(owned.len(), 3);
        let open = |params| PayloadRef::Bgp {
            open: BgpOpenRef {
                version: 4,
                my_as: 23_456,
                hold_time: 90,
                bgp_identifier: Ipv4Addr::new(10, 0, 0, 1),
                params,
            },
            notification_seen: false,
        };
        let mut from_wire = Vec::new();
        open(BgpParams::Wire(wire)).encode(&mut from_wire);
        let mut from_list = Vec::new();
        open(BgpParams::List(&owned)).encode(&mut from_list);
        assert_eq!(from_wire, from_list);
        let stored = PayloadRef::decode(ServiceProtocol::Bgp, &from_wire).unwrap();
        let PayloadRef::Bgp { open: stored, .. } = stored else {
            panic!("a BGP record");
        };
        assert!(matches!(stored.params, BgpParams::Record(_)));
        assert_eq!(stored.to_owned().optional_parameters, owned);
        assert_eq!(stored.effective_asn(), 396_982);
        let mut from_record = Vec::new();
        open(stored.params).encode(&mut from_record);
        assert_eq!(from_record, from_wire);
    }

    /// Chunk `at` of `arena`, to break: copied first if another arena
    /// shares it.
    fn chunk_mut(arena: &mut PayloadArena, at: usize) -> &mut Chunk {
        Arc::make_mut(&mut arena.chunks[at].1)
    }

    #[test]
    fn validate_reports_offset_drift_and_records_no_encoder_writes() {
        let rows = [
            ssh("a", Some("b"), Some(KexInit::typical_openssh())),
            bgp(vec![OptionalParameter::Capability(
                Capability::RouteRefresh,
            )]),
        ];
        let tags = [ServiceProtocol::Ssh, ServiceProtocol::Bgp];
        let mut arena = PayloadArena::default();
        for row in &rows {
            arena.push(row.as_ref());
        }
        assert_eq!(arena.validate(&tags), Ok(()));
        assert_eq!(arena.get(1, tags[1]).to_owned(), rows[1]);
        let drift = |arena: &PayloadArena| arena.validate(&tags).unwrap_err();

        // Offsets: past the buffer, decreasing, and short of its end.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).ends[1] += 1;
        assert!(drift(&broken).contains("payload offset drift at row 1"));
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).ends[1] = 3;
        assert!(drift(&broken).contains("payload offset drift at row 1"));
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes.push(0);
        assert!(drift(&broken).contains("the last record of chunk 0 ends at"));

        // A cookie with no KEXINIT flag: decodes, but no payload encodes to it.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[0] &= !SSH_KEX_INIT;
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        // A key algorithm that is none.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[1] = 9;
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        // Text that is not UTF-8: would encode back, but never to a row.
        // (Past the header, the three key bytes and `SSH-`: the version.)
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[SSH_HEADER_LEN + 3 + 4] = 0xff;
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        // A literal that is not the banner line's.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[SSH_HEADER_LEN + 3] = b's';
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        // A parameter kind that is none, and a record under the wrong tag.
        let mut broken = arena.clone();
        *chunk_mut(&mut broken, 0).bytes.last_mut().unwrap() = 6;
        assert!(drift(&broken).contains("tag/payload drift at row 1"));
        let swapped = [ServiceProtocol::Ssh, ServiceProtocol::IcmpRateLimit];
        assert!(arena
            .validate(&swapped)
            .unwrap_err()
            .contains("tag/payload drift at row 1"));
        // None of which touched the arena the broken ones were cloned from.
        assert_eq!(arena.validate(&tags), Ok(()));

        // The chunk table: the same two rows as a chunk each, then the
        // second listed a row late, a row early, and an empty chunk that is
        // not the last.
        let mut chunked = PayloadArena::default();
        for row in &rows {
            let mut shard = PayloadArena::with_capacity(1);
            shard.push(row.as_ref());
            chunked.append(shard);
        }
        assert_eq!(chunked.chunks.len(), 2);
        assert_eq!(chunked.validate(&tags), Ok(()));
        assert_eq!(chunked, arena);
        for listed in [2, 0] {
            let mut broken = chunked.clone();
            broken.chunks[1].0 = listed;
            assert!(drift(&broken).contains("payload chunk table drift at chunk 1"));
        }
        let mut broken = chunked.clone();
        broken.chunks.insert(1, (1, Arc::default()));
        assert!(drift(&broken).contains("payload chunk table drift at chunk 1"));
        // An offset past its own chunk is drift even where the arena's
        // bytes go on.
        let mut broken = chunked.clone();
        chunk_mut(&mut broken, 0).ends[0] += 1;
        assert!(drift(&broken).contains("payload offset drift at row 0"));
    }

    #[test]
    fn chunking_is_not_part_of_an_arenas_value() {
        let rows = [
            ssh("a", Some("b"), Some(KexInit::typical_openssh())),
            bgp(vec![]),
            ssh("c", None, None),
            bgp(vec![OptionalParameter::Capability(
                Capability::RouteRefresh,
            )]),
            ssh("d", Some(""), None),
        ];
        let tags: Vec<ServiceProtocol> = rows.iter().map(ServicePayload::protocol).collect();
        let pushed = |rows: &[ServicePayload]| {
            let mut arena = PayloadArena::default();
            for row in rows {
                arena.push(row.as_ref());
            }
            arena
        };
        // One chunk.
        let whole = pushed(&rows);
        assert_eq!(whole.chunks.len(), 1);
        // A chunk per shard, an empty shard among them, the first one taken
        // into an arena opened with room and nothing in it.
        let mut sharded = PayloadArena::with_capacity(8);
        for shard in [&rows[..2], &rows[2..2], &rows[2..3], &rows[3..]] {
            sharded.append(pushed(shard));
        }
        assert_eq!(sharded.chunks.len(), 3);
        // A shared chunk, then rows pushed behind it.
        let first = pushed(&rows[..3]);
        let mut grown = first.clone();
        for row in &rows[3..] {
            grown.push(row.as_ref());
        }
        assert_eq!(grown.chunks.len(), 2);
        // Pushing into the clone left the original as it was...
        assert_eq!((first.len(), first.chunks.len()), (3, 1));
        assert_eq!(first, pushed(&rows[..3]));
        // ...and with the clone gone, the original writes on in place.
        assert_eq!(grown, whole);
        drop(grown);
        let mut first = first;
        first.push(rows[3].as_ref());
        assert_eq!(first.chunks.len(), 1);
        let mut grown = first.clone();
        grown.push(rows[4].as_ref());
        assert_eq!(grown.chunks.len(), 2);

        for arena in [&sharded, &grown] {
            assert_eq!(arena.validate(&tags), Ok(()));
            assert_eq!(arena, &whole);
            assert_eq!(arena.byte_len(), whole.byte_len());
            for (row, payload) in rows.iter().enumerate() {
                assert_eq!(&arena.get(row, tags[row]).to_owned(), payload);
            }
        }
        // A record less and a different record both differ.
        assert_ne!(pushed(&rows[..4]), whole);
        let mut other = rows.clone();
        other[4] = ssh("e", Some(""), None);
        assert_ne!(pushed(&other), whole);
    }
}
