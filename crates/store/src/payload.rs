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
//! is the store's own and injective — within a chunk, equal payloads have
//! equal records and different payloads different ones — so comparing two
//! arenas record by record, an SSH record's profile index through the entry
//! it names, compares the payloads they hold, however either is chunked.
//! Multi-byte integers are little-endian.
//!
//! | Protocol | Record |
//! |---|---|
//! | SSH | flags `u8` (1 host key, 2 `first_kex_packet_follows`), key algorithm `u8`, cookie `[u8; 16]`, the index of the record's profile in its chunk's dictionary `u32`, then the key material to the record's end.  An absent part is zeros / empty. |
//! | BGP | `notification_seen` `u8`, version `u8`, My AS `u16`, hold time `u16`, BGP Identifier `[u8; 4]`, then the parameters to the record's end, each a kind byte and its fields: 0 multiprotocol (AFI `u16`, SAFI `u8`), 1 route refresh, 2 four-octet AS (`u32`), 3 Cisco route refresh, 4 other capability (code `u8`, length `u32`, value), 5 other parameter (type `u8`, length `u32`, value). |
//! | SNMPv3 | engine boots `i64`, engine time `i64`, then the engine ID to the record's end. |
//! | ICMP rate limit | round `u8`, rate `u32`, sent `u16`, lost `u16`. |
//!
//! **The chunk dictionary.**  What an SSH server's software and
//! configuration decide — the banner and the ten KEXINIT name-lists — is
//! the same on every address of a device and on most devices of a vendor
//! (a paper-scale store has a handful of them among 100,000 SSH rows), so a
//! chunk keeps each such *profile* once, in an [`SshProfiles`] dictionary
//! beside its records, and an SSH record keeps its index.  An entry is:
//! flags `u8` (1 comments, 2 KEXINIT), the end offsets of its 13 fields as
//! `u32`s, then the fields as the identifier reads them — `SSH-` protocol
//! version `-` software (` ` comments, if present): the banner line; the
//! key-exchange, host-key and server-to-client cipher / MAC / compression
//! lists, `;` between them if there is a KEXINIT: the capability
//! fingerprint; the other five lists in wire order.  The literals are in no
//! field.  The dictionary is per chunk because chunks are written once and
//! then only moved or shared: joining two stores never rewrites a record.
//! A pushed SSH payload finds its entry without being encoded, by comparing
//! its flags, end offsets and field bytes with each entry in turn.  A chunk
//! holds at most `PROFILES_PER_CHUNK` (32) profiles: a payload whose profile
//! would be the 33rd goes to a new chunk, so the walk is bounded whatever
//! the banners are ([`SshProfiles`]).
//! A session pushed through the scan door whose banner and KEXINIT bytes,
//! cookie aside, repeat ones its writer parsed does not look its entry up
//! at all (`SessionMemo`).

use crate::records::ServicePayload;
use alias_netsim::ServiceProtocol;
use alias_wire::bgp::{messages, BgpMessageRef, CapabilityRef, OpenMessage, OpenRef};
use alias_wire::bgp::{OptionalParameter, ParamRef, WireParams};
use alias_wire::snmp::EngineId;
use alias_wire::ssh::hostkey::parse_kex_reply;
use alias_wire::ssh::{
    packet_payloads, parse_packet, Banner, BannerRef, HostKeyAlgorithm, HostKeyRef, KexInit,
    KexInitRef, NameListRef, SshObservationRef,
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
    /// The two-octet `My Autonomous System` field
    /// ([`AS_TRANS`](alias_wire::bgp::AS_TRANS) when the speaker's ASN
    /// needs four octets; [`OpenMessage::effective_asn`]).
    pub my_as: u16,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// The BGP Identifier.
    pub bgp_identifier: Ipv4Addr,
    /// Optional parameters, typically capability advertisements.
    pub params: BgpParams<'a>,
}

impl BgpOpenRef<'_> {
    /// Copy the message into an owned [`OpenMessage`].
    pub(crate) fn to_owned(self) -> OpenMessage {
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

const SSH_HOST_KEY: u8 = 1;
const SSH_FIRST_KEX_PACKET_FOLLOWS: u8 = 2;
/// Where an SSH record keeps its profile index: after flags, key algorithm,
/// cookie.
const SSH_PROFILE_AT: usize = 2 + 16;
/// An SSH record's fixed part; the key material follows.
const SSH_HEADER_LEN: usize = SSH_PROFILE_AT + 4;
/// `HostKeyAlgorithm as u8` back to the algorithm.
const KEY_ALGORITHMS: [HostKeyAlgorithm; 4] = [
    HostKeyAlgorithm::Ed25519,
    HostKeyAlgorithm::Rsa,
    HostKeyAlgorithm::EcdsaP256,
    HostKeyAlgorithm::Dsa,
];

const PROFILE_COMMENTS: u8 = 1;
const PROFILE_KEX_INIT: u8 = 2;
/// Variable-length fields of a profile entry, in the order it keeps them:
/// as the identifier reads them.
const PROFILE_FIELDS: usize = 13;
/// Protocol version, software, comments: with their literals, the banner
/// line.
const FIELD_BANNER: usize = 0;
/// The five server capability lists: with their `;`s, the capability
/// fingerprint.  The other five lists follow.
const FIELD_CAPABILITIES: usize = 3;
/// Where each name-list, in wire order, is kept.
const FIELD_OF_LIST: [usize; 10] = [3, 4, 8, 5, 9, 6, 10, 7, 11, 12];
/// A profile entry's fixed part: flags, then the end-offset table.
const PROFILE_HEADER_LEN: usize = 1 + 4 * PROFILE_FIELDS;

/// The literal bytes a profile under `flags` keeps in front of field
/// `index`: the ones that make the banner's fields the banner line and the
/// server capability lists the fingerprint, so that either is one run of
/// the entry.  No comments, no space; no KEXINIT, no `;`s.
#[inline]
fn literal_before(index: usize, flags: u8) -> &'static [u8] {
    match index {
        0 => b"SSH-",
        1 => b"-",
        2 if flags & PROFILE_COMMENTS != 0 => b" ",
        4..=7 if flags & PROFILE_KEX_INIT != 0 => b";",
        _ => b"",
    }
}

/// The entry of `banner` and a KEXINIT's `name_lists` (in wire order)
/// before it is written: its fixed part — flags, then each field's end
/// offset, from the slices' lengths — and its fields, by slice.
fn profile_layout<'a>(
    banner: BannerRef<'a>,
    name_lists: Option<[NameListRef<'a>; 10]>,
) -> ([u8; PROFILE_HEADER_LEN], [&'a [u8]; PROFILE_FIELDS]) {
    let mut flags = 0;
    let mut fields: [&[u8]; PROFILE_FIELDS] = [&[]; PROFILE_FIELDS];
    fields[FIELD_BANNER] = banner.proto_version.as_bytes();
    fields[FIELD_BANNER + 1] = banner.software.as_bytes();
    if let Some(comments) = banner.comments {
        flags |= PROFILE_COMMENTS;
        fields[FIELD_BANNER + 2] = comments.as_bytes();
    }
    if let Some(name_lists) = name_lists {
        flags |= PROFILE_KEX_INIT;
        for (list, field) in name_lists.into_iter().zip(FIELD_OF_LIST) {
            fields[field] = list.as_bytes();
        }
    }
    let mut header = [0; PROFILE_HEADER_LEN];
    header[0] = flags;
    let mut end = 0u32;
    for (index, entry) in header[1..].chunks_exact_mut(4).enumerate() {
        end = end
            .checked_add(field_len(fields[index]) + literal_before(index, flags).len() as u32)
            .expect("an SSH profile is shorter than 4 GiB");
        entry.copy_from_slice(&end.to_le_bytes());
    }
    (header, fields)
}

/// Append the entry laid out as `header` and `fields` to `out`.
fn write_profile(
    header: &[u8; PROFILE_HEADER_LEN],
    fields: &[&[u8]; PROFILE_FIELDS],
    out: &mut Vec<u8>,
) {
    // The last end offset is the entry's length past its fixed part.
    let data_len = u32::from_le_bytes(*header.last_chunk().expect("four bytes"));
    out.reserve(PROFILE_HEADER_LEN + data_len as usize);
    out.extend_from_slice(header);
    for (index, field) in fields.iter().enumerate() {
        out.extend_from_slice(literal_before(index, header[0]));
        out.extend_from_slice(field);
    }
}

/// Append the profile entry of `banner` and a KEXINIT's `name_lists` (in
/// wire order) to `out`.
fn encode_profile(
    banner: BannerRef<'_>,
    name_lists: Option<[NameListRef<'_>; 10]>,
    out: &mut Vec<u8>,
) {
    let (header, fields) = profile_layout(banner, name_lists);
    write_profile(&header, &fields, out);
}

/// Whether `entry`, an entry [`write_profile`] wrote, is the one it writes
/// for `header` and `fields`: the flags and the end-offset table first,
/// then the field bytes.  Equal tables under equal flags put equal
/// literals in equal places, so only the fields' own bytes are left to
/// compare.
fn is_entry_of(
    entry: &[u8],
    header: &[u8; PROFILE_HEADER_LEN],
    fields: &[&[u8]; PROFILE_FIELDS],
) -> bool {
    let Some((entry_header, data)) = entry.split_first_chunk() else {
        return false;
    };
    if entry_header != header {
        return false;
    }
    let mut at = 0;
    fields.iter().enumerate().all(|(index, field)| {
        at += literal_before(index, header[0]).len();
        let same = data.get(at..at + field.len()) == Some(*field);
        at += field.len();
        same
    })
}

/// Append the record of `ssh`, whose profile is entry `profile` of its
/// chunk's dictionary, to `out`.
fn encode_ssh_record(ssh: SshObservationRef<'_>, profile: u32, out: &mut Vec<u8>) {
    let kex = ssh
        .kex_init
        .map(|kex| (kex.cookie, kex.first_kex_packet_follows));
    write_ssh_record(ssh.host_key, kex, profile, out);
}

/// Append the record of an SSH observation with `host_key`, a KEXINIT's
/// cookie and `first_kex_packet_follows` flag if there is one, and profile
/// entry `profile` to `out`.
fn write_ssh_record(
    host_key: Option<HostKeyRef<'_>>,
    kex: Option<([u8; 16], bool)>,
    profile: u32,
    out: &mut Vec<u8>,
) {
    let mut header = [0; SSH_HEADER_LEN];
    let mut key_material: &[u8] = &[];
    if let Some(key) = host_key {
        header[0] |= SSH_HOST_KEY;
        header[1] = key.algorithm as u8;
        key_material = key.key_material;
    }
    if let Some((cookie, first_kex_packet_follows)) = kex {
        if first_kex_packet_follows {
            header[0] |= SSH_FIRST_KEX_PACKET_FOLLOWS;
        }
        header[2..SSH_PROFILE_AT].copy_from_slice(&cookie);
    }
    header[SSH_PROFILE_AT..].copy_from_slice(&profile.to_le_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(key_material);
}

/// Profiles a chunk's dictionary holds at most: a payload whose profile
/// would be one more goes to a new chunk.  A paper-scale chunk holds at
/// most 9.
const PROFILES_PER_CHUNK: usize = 32;

/// The SSH profiles of one chunk's records — banner and KEXINIT name-lists,
/// laid out as the module's table says — each kept once, in the order the
/// chunk's rows first showed them; a record names its profile by index.
///
/// A session at the scan door whose banner and KEXINIT repeat, cookie
/// aside, one its shard parsed reuses that parse's index and never comes
/// here (`SessionMemo`); the row door and the memo's misses do.  A lookup
/// walks the entries and compares each with the candidate's fields in
/// place — flags and end offsets first, then the field bytes — with
/// nothing encoded or hashed.  Banners and name-lists are
/// attacker-supplied: every hit is a full compare, so crafted KEXINITs
/// cannot merge two profiles, and a dictionary holds at most
/// `PROFILES_PER_CHUNK` (32) entries, so they cannot make the lookup
/// quadratic either: the arena opens a new chunk for a profile that finds
/// the dictionary full.
#[derive(Debug, Clone, Default)]
pub struct SshProfiles {
    /// The entries, back to back.
    bytes: Vec<u8>,
    /// Where each entry ends in `bytes`.
    ends: Vec<usize>,
}

impl SshProfiles {
    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the dictionary holds no profile.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The bytes of entry `index`; `None` if there is none, or the offsets
    /// do not fit the bytes.
    fn entry(&self, index: usize) -> Option<&[u8]> {
        let start = match index.checked_sub(1) {
            Some(before) => *self.ends.get(before)?,
            None => 0,
        };
        self.bytes.get(start..*self.ends.get(index)?)
    }

    /// Entry `index` read in place; `None` if there is none or it is
    /// shorter than a profile's fixed part.
    fn profile(&self, index: usize) -> Option<Profile<'_>> {
        let (header, data) = self.entry(index)?.split_first_chunk()?;
        Some(Profile { header, data })
    }

    /// The index of the profile of `banner` and `name_lists`, added if new;
    /// `None` if it is new and the dictionary full.
    fn intern(
        &mut self,
        banner: BannerRef<'_>,
        name_lists: Option<[NameListRef<'_>; 10]>,
    ) -> Option<u32> {
        let (header, fields) = profile_layout(banner, name_lists);
        let mut start = 0;
        for (index, &end) in self.ends.iter().enumerate() {
            if is_entry_of(&self.bytes[start..end], &header, &fields) {
                return Some(index as u32);
            }
            start = end;
        }
        if self.ends.len() == PROFILES_PER_CHUNK {
            return None;
        }
        write_profile(&header, &fields, &mut self.bytes);
        self.ends.push(self.bytes.len());
        Some(self.ends.len() as u32 - 1)
    }

    /// Check every entry: at most `PROFILES_PER_CHUNK` of them, offsets in
    /// order and closing on the last byte, each the exact bytes its own
    /// decoded profile encodes to, none a repeat of another.
    fn validate(&self) -> Result<(), String> {
        if self.ends.len() > PROFILES_PER_CHUNK {
            return Err(format!(
                "{} entries, past the bound of {PROFILES_PER_CHUNK}",
                self.ends.len()
            ));
        }
        let len = self.bytes.len();
        let mut from = 0;
        let mut again = Vec::new();
        for (index, &end) in self.ends.iter().enumerate() {
            if end < from || end > len {
                return Err(format!(
                    "entry {index} at {from}..{end} of {len} dictionary bytes"
                ));
            }
            let entry = &self.bytes[from..end];
            again.clear();
            let parts = self.profile(index).and_then(|profile| profile.parts());
            if !parts.is_some_and(|(banner, name_lists)| {
                encode_profile(banner, name_lists, &mut again);
                again == entry
            }) {
                return Err(format!("entry {index} is not a profile"));
            }
            if (0..index).any(|before| self.entry(before) == Some(entry)) {
                return Err(format!("entry {index} repeats an earlier one"));
            }
            from = end;
        }
        if from != len {
            return Err(format!(
                "the last entry ends at {from} of {len} dictionary bytes"
            ));
        }
        Ok(())
    }
}

/// A profile entry read in place: the fixed part and the field bytes.
#[derive(Debug, Clone, Copy)]
struct Profile<'a> {
    header: &'a [u8; PROFILE_HEADER_LEN],
    data: &'a [u8],
}

impl<'a> Profile<'a> {
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
        let at = 1 + 4 * before;
        let end = self.header[at..at + 4].first_chunk().expect("four bytes");
        u32::from_le_bytes(*end) as usize
    }

    /// Fields `from..to` and the literals among them, as one run; `None`
    /// if the table does not fit the data.
    #[inline]
    fn run(&self, from: usize, to: usize) -> Option<&'a [u8]> {
        self.data.get(self.end_before(from)..self.end_before(to))
    }

    /// Field `index` as the text it was encoded from; `None` if it is not,
    /// or it does not start with its literal.
    fn text(&self, index: usize) -> Option<&'a str> {
        let literal = literal_before(index, self.header[0]);
        let field = self.run(index, index + 1)?.strip_prefix(literal)?;
        std::str::from_utf8(field).ok()
    }

    /// The banner and, with a KEXINIT, its name-lists; `None` unless the
    /// table covers the data exactly, the banner's fields are text and the
    /// lists name-lists.
    fn parts(&self) -> Option<(BannerRef<'a>, Option<[NameListRef<'a>; 10]>)> {
        if self.end_before(PROFILE_FIELDS) != self.data.len() {
            return None;
        }
        let name_lists = if self.has(PROFILE_KEX_INIT) {
            let mut name_lists = [NameListRef::default(); 10];
            for (list, field) in name_lists.iter_mut().zip(FIELD_OF_LIST) {
                *list = NameListRef::new(self.text(field)?).ok()?;
            }
            Some(name_lists)
        } else {
            None
        };
        let banner = BannerRef {
            proto_version: self.text(FIELD_BANNER)?,
            software: self.text(FIELD_BANNER + 1)?,
            comments: match self.has(PROFILE_COMMENTS) {
                true => Some(self.text(FIELD_BANNER + 2)?),
                false => None,
            },
        };
        Some((banner, name_lists))
    }
}

/// An SSH observation, in whichever of the two shapes its bytes have: the
/// parts by slice (read off a session, or lent by an owned observation), or
/// a stored record, whose profile entry keeps what the identifier reads
/// besides the key — banner line, capability fingerprint — each as one run
/// of bytes.
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
            SshRef::Record(record) => {
                out.extend_from_slice(record.profile_run(FIELD_BANNER, FIELD_CAPABILITIES))
            }
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
            SshRef::Record(record) => out
                .extend_from_slice(record.profile_run(FIELD_CAPABILITIES, FIELD_CAPABILITIES + 5)),
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

/// The profile index an SSH record's fixed part holds.
#[inline]
fn profile_index(header: &[u8; SSH_HEADER_LEN]) -> usize {
    let index = header[SSH_PROFILE_AT..].first_chunk().expect("four bytes");
    u32::from_le_bytes(*index) as usize
}

/// An SSH record read in place: the fixed part, the key material, and the
/// dictionary its profile index points into.
#[derive(Clone, Copy)]
pub struct SshRecord<'a> {
    header: &'a [u8; SSH_HEADER_LEN],
    key_material: &'a [u8],
    profiles: &'a SshProfiles,
}

impl std::fmt::Debug for SshRecord<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SshRecord")
            .field("header", self.header)
            .field("key_material", &self.key_material)
            .field("profile", &self.profiles.profile(self.profile_index()))
            .finish()
    }
}

impl<'a> SshRecord<'a> {
    #[inline]
    fn has(&self, flag: u8) -> bool {
        self.header[0] & flag != 0
    }

    #[inline]
    fn profile_index(&self) -> usize {
        profile_index(self.header)
    }

    /// Where the record's profile lives: its chunk's dictionary and the
    /// entry's index there.  Two records with equal pairs have equal
    /// profiles (a dictionary holds each profile once, so within one
    /// dictionary the converse holds too): what lets a keyed pass read a
    /// profile once per chunk, not once per row.
    #[inline]
    pub fn profile(&self) -> (&'a SshProfiles, usize) {
        (self.profiles, self.profile_index())
    }

    /// Profile fields `from..to` and the literals among them, as one run.
    #[inline]
    fn profile_run(&self, from: usize, to: usize) -> &'a [u8] {
        (self.profiles.profile(self.profile_index()))
            .and_then(|profile| profile.run(from, to))
            .expect(OWN_RECORD)
    }

    /// `Some(None)` without a host key; `None` if it does not decode.
    #[inline]
    fn host_key(&self) -> Option<Option<HostKeyRef<'a>>> {
        if !self.has(SSH_HOST_KEY) {
            return Some(None);
        }
        Some(Some(HostKeyRef {
            algorithm: *KEY_ALGORITHMS.get(usize::from(self.header[1]))?,
            key_material: self.key_material,
        }))
    }

    /// Every part; `None` unless the profile index names an entry that
    /// decodes and the key algorithm is one.
    fn parts(&self) -> Option<SshObservationRef<'a>> {
        let (banner, name_lists) = self.profiles.profile(self.profile_index())?.parts()?;
        let kex_init = name_lists.map(|name_lists| KexInitRef {
            cookie: *self.header[2..].first_chunk().expect("the header holds it"),
            name_lists,
            first_kex_packet_follows: self.has(SSH_FIRST_KEX_PACKET_FOLLOWS),
        });
        Some(SshObservationRef {
            banner,
            kex_init,
            host_key: self.host_key()?,
        })
    }
}

impl<'a> PayloadRef<'a> {
    /// The protocol this payload belongs to.
    pub(crate) fn protocol(&self) -> ServiceProtocol {
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
            ServiceProtocol::Ssh => parse_ssh(bytes).map(|(ssh, _)| PayloadRef::Ssh(ssh.into())),
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

    /// Append the payload's record to `out`, an SSH payload's naming entry
    /// `profile` of the dictionary beside `out` (other payloads ignore it):
    /// the one encoder.
    fn encode(self, profile: u32, out: &mut Vec<u8>) {
        match self {
            PayloadRef::Ssh(ssh) => encode_ssh_record(ssh.parts(), profile, out),
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

    /// Read `record`, which `profiles` sits beside, in place as a payload
    /// of `protocol`: the one reader.  `None` if it is not a record
    /// [`Self::encode`] writes for one (an SSH record's profile is read
    /// when asked for).
    #[inline]
    fn decode(
        protocol: ServiceProtocol,
        record: &'a [u8],
        profiles: &'a SshProfiles,
    ) -> Option<Self> {
        Some(match protocol {
            ServiceProtocol::Ssh => {
                let (header, key_material) = record.split_first_chunk()?;
                PayloadRef::Ssh(SshRef::Record(SshRecord {
                    header,
                    key_material,
                    profiles,
                }))
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

/// Parse an SSH session in place; with it, when the session's first binary
/// packet is the KEXINIT, where its cookie starts and where that packet
/// ends: the session's wire prefix, which [`SessionMemo`] keeps.
fn parse_ssh(bytes: &[u8]) -> Option<(SshObservationRef<'_>, Option<(usize, usize)>)> {
    let (banner, consumed) = Banner::parse_borrowed(bytes).ok()?;
    let mut kex_init = None;
    let mut host_key = None;
    let mut prefix = None;
    let mut rest = &bytes[consumed..];
    while let Ok((payload, used)) = parse_packet(rest) {
        let start = bytes.len() - rest.len();
        rest = &rest[used..];
        if kex_init.is_none() {
            if let Ok(kex) = KexInit::parse_borrowed(payload) {
                kex_init = Some(kex);
                // Packet length, padding length and message number first.
                prefix = (start == consumed).then_some((start + 4 + 1 + 1, start + used));
                continue;
            }
        }
        if host_key.is_none() {
            if let Ok(key) = parse_kex_reply(payload) {
                host_key = Some(key);
            }
        }
    }
    let ssh = SshObservationRef {
        banner,
        kex_init,
        host_key,
    };
    Some((ssh, prefix))
}

/// Bytes a [`SessionMemo`] keeps its prefixes in: room for 32 of 1 KiB (a
/// paper-scale prefix is under 700 bytes).
const MEMO_BYTES: usize = PROFILES_PER_CHUNK << 10;

/// The wire prefixes of at most `PROFILES_PER_CHUNK` (32) SSH sessions a
/// writer parsed in full, with what each decided: its profile's index in
/// the chunk being written and `first_kex_packet_follows`.  Parsing is a
/// function of the bytes and the cookie is carried, not read, so a session
/// repeating a prefix, cookie aside, is byte-equal to one that passed every
/// check.  Writer state only, in no chunk or store.
#[derive(Clone, Default)]
pub(crate) struct SessionMemo {
    /// The chunk the indices are of: the writer's chunk count then.
    chunk: usize,
    /// The prefixes, back to back: allocated at the first, never grown.
    prefixes: Vec<u8>,
    /// Per prefix: its end in `prefixes`, its cookie's offset in it, its
    /// profile index and `first_kex_packet_follows`.
    entries: [(usize, usize, u32, bool); PROFILES_PER_CHUNK],
    len: usize,
    /// Sessions parsed in full because no prefix matched.
    pub(crate) misses: u64,
}

/// Prints none of the memo's state: it is not part of the rows.
impl std::fmt::Debug for SessionMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionMemo").finish_non_exhaustive()
    }
}

impl SessionMemo {
    /// The entry whose prefix `session` starts with, cookie aside, its end
    /// given as the prefix's length.
    fn find(&self, session: &[u8]) -> Option<(usize, usize, u32, bool)> {
        let mut start = 0;
        let mut entries = self.entries[..self.len].iter();
        entries.find_map(|&(end, cookie_at, profile, follows)| {
            let prefix = &self.prefixes[std::mem::replace(&mut start, end)..end];
            let (head, cookie_end) = (session.get(..prefix.len())?, cookie_at + 16);
            (head[..cookie_at] == prefix[..cookie_at] && head[cookie_end..] == prefix[cookie_end..])
                .then_some((prefix.len(), cookie_at, profile, follows))
        })
    }

    /// Keep `prefix` and what it decided, if there is room.
    fn remember(&mut self, prefix: &[u8], cookie_at: usize, profile: u32, follows: bool) {
        if self.len < PROFILES_PER_CHUNK && self.prefixes.len() + prefix.len() <= MEMO_BYTES {
            self.prefixes
                .reserve_exact(MEMO_BYTES - self.prefixes.len());
            self.prefixes.extend_from_slice(prefix);
            self.entries[self.len] = (self.prefixes.len(), cookie_at, profile, follows);
            self.len += 1;
        }
    }

    /// Empty the memo if the writer's chunk count is no longer `chunk`.
    fn bind(&mut self, chunk: usize) {
        if self.chunk != chunk {
            (self.chunk, self.len) = (chunk, 0);
            self.prefixes.clear();
        }
    }
}

fn parse_bgp(bytes: &[u8]) -> Option<PayloadRef<'_>> {
    let mut open = None;
    let mut notification_seen = false;
    for message in messages(bytes) {
        match message {
            BgpMessageRef::Open(o) if open.is_none() => open = Some(o),
            BgpMessageRef::Notification => notification_seen = true,
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
/// pass 4 GiB), and the SSH profiles its SSH records point into.  Written
/// by exactly one arena, while no other holds it.
#[derive(Debug, Clone, Default)]
struct Chunk {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    profiles: SshProfiles,
}

impl Chunk {
    #[inline]
    fn record(&self, row: usize) -> &[u8] {
        let start = row.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.bytes[start..self.ends[row]]
    }
}

/// Whether record `a` (beside dictionary `a_profiles`) and record `b`
/// (beside `b_profiles`), both of protocol `tag`, hold one payload: byte for
/// byte, except that two SSH records' profile indices are compared through
/// the entries they name.
fn same_record(
    tag: ServiceProtocol,
    (a, a_profiles): (&[u8], &SshProfiles),
    (b, b_profiles): (&[u8], &SshProfiles),
) -> bool {
    if tag != ServiceProtocol::Ssh {
        return a == b;
    }
    match (a.split_first_chunk(), b.split_first_chunk()) {
        (Some((a_header, a_key)), Some((b_header, b_key))) => {
            a_header[..SSH_PROFILE_AT] == b_header[..SSH_PROFILE_AT]
                && a_key == b_key
                && a_profiles.entry(profile_index(a_header))
                    == b_profiles.entry(profile_index(b_header))
        }
        _ => a == b,
    }
}

/// The payload column of a store: an append-only list of [`Chunk`]s, each
/// listed with the row it starts at.  A payload's bytes are written once,
/// by the scan or crawl that pushed it; after that chunks only change
/// hands — a spliced shard's chunk is moved in, a cloned or united store's
/// chunks are shared — so two arenas holding the same rows may be chunked
/// differently: equality ([`Self::same_payloads`]) reads record by record.
///
/// Only the last chunk may hold no rows (one opened for rows to come).
#[derive(Debug, Clone, Default)]
pub(crate) struct PayloadArena {
    chunks: Vec<(usize, Arc<Chunk>)>,
}

impl PayloadArena {
    /// An empty arena with room for `rows` end offsets.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let chunk = Chunk {
            ends: Vec::with_capacity(rows),
            ..Chunk::default()
        };
        PayloadArena {
            chunks: vec![(0, Arc::new(chunk))],
        }
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        (self.chunks.last()).map_or(0, |(start, chunk)| start + chunk.ends.len())
    }

    /// Total record bytes, without the profile dictionaries: a record's
    /// length is a function of its payload alone, a dictionary's of how the
    /// rows were chunked.
    pub(crate) fn byte_len(&self) -> usize {
        self.chunks.iter().map(|(_, chunk)| chunk.bytes.len()).sum()
    }

    /// Append one payload's record: to the last chunk while no other arena
    /// shares it and, for SSH, its dictionary holds or has room for the
    /// profile; to a new one otherwise.
    pub(crate) fn push(&mut self, payload: PayloadRef<'_>) {
        let (_, chunk, profile) = match payload {
            PayloadRef::Ssh(ssh) => self.intern(ssh.parts()),
            _ => {
                let (count, chunk) = self.open_chunk();
                (count, chunk, 0)
            }
        };
        payload.encode(profile, &mut chunk.bytes);
        chunk.ends.push(chunk.bytes.len());
    }

    /// The chunk an SSH record of `ssh` goes to, with the number of chunks
    /// and the index of its profile in that chunk's dictionary: the open
    /// chunk ([`Self::open_chunk`]), or a new one if its dictionary is full
    /// without the profile.
    fn intern(&mut self, ssh: SshObservationRef<'_>) -> (usize, &mut Chunk, u32) {
        let name_lists = ssh.kex_init.map(|kex| kex.name_lists);
        let (_, chunk) = self.open_chunk();
        let tried = chunk.profiles.intern(ssh.banner, name_lists);
        if tried.is_none() {
            self.chunks.push((self.len(), Arc::default()));
        }
        let (count, chunk) = self.open_chunk();
        let profile = tried.or_else(|| chunk.profiles.intern(ssh.banner, name_lists));
        (count, chunk, profile.expect("an empty dictionary has room"))
    }

    /// The chunk records go to — the last while no other arena shares it, a
    /// new one otherwise — with the number of chunks, which names it.
    fn open_chunk(&mut self) -> (usize, &mut Chunk) {
        // No chunk is ever downgraded, so a sole strong count is sole access.
        if (self.chunks.last()).is_none_or(|(_, chunk)| Arc::strong_count(chunk) > 1) {
            self.chunks.push((self.len(), Arc::default()));
        }
        let count = self.chunks.len();
        let (_, chunk) = self.chunks.last_mut().expect("a chunk is open");
        (
            count,
            Arc::get_mut(chunk).expect("no other arena shares the chunk"),
        )
    }

    /// Parse `session` as a `protocol` session and append its record, the
    /// one [`PayloadRef::parse`] and [`Self::push`] give; whether it
    /// parsed.  An SSH session that repeats a prefix of `memo` is written
    /// from it; any other is parsed in full and its prefix memoised, the
    /// memo bound first to the chunk the record went to.
    pub(crate) fn push_session(
        &mut self,
        memo: &mut SessionMemo,
        protocol: ServiceProtocol,
        session: &[u8],
    ) -> bool {
        if protocol != ServiceProtocol::Ssh {
            let payload = PayloadRef::parse(protocol, session);
            payload.inspect(|&payload| self.push(payload));
            return payload.is_some();
        }
        let (count, chunk) = self.open_chunk();
        memo.bind(count);
        if let Some((end, cookie_at, profile, follows)) = memo.find(session) {
            // What `parse_ssh` reads after the KEXINIT: the first reply's key.
            let replies = packet_payloads(&session[end..]).map(parse_kex_reply);
            let host_key = replies.flatten().next();
            let cookie = *session[cookie_at..].first_chunk().expect("in the prefix");
            write_ssh_record(host_key, Some((cookie, follows)), profile, &mut chunk.bytes);
            chunk.ends.push(chunk.bytes.len());
            return true;
        }
        memo.misses += 1;
        let Some((ssh, prefix)) = parse_ssh(session) else {
            return false;
        };
        let (count, chunk, profile) = self.intern(ssh);
        encode_ssh_record(ssh, profile, &mut chunk.bytes);
        chunk.ends.push(chunk.bytes.len());
        // The memo's indices are of the chunk the record went to: a new one
        // if the open chunk's dictionary was full.
        memo.bind(count);
        if let (Some((cookie_at, end)), Some(kex)) = (prefix, ssh.kex_init) {
            let follows = kex.first_kex_packet_follows;
            memo.remember(&session[..end], cookie_at, profile, follows);
        }
        true
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

    /// Every record in row order, with the dictionary beside it.
    fn records(&self) -> impl Iterator<Item = (&[u8], &SshProfiles)> {
        self.chunks.iter().flat_map(|(_, chunk)| {
            (0..chunk.ends.len()).map(|row| (chunk.record(row), &chunk.profiles))
        })
    }

    /// Whether `self` and `other` hold the same payloads, row `i` of either
    /// being of protocol `protocols[i]`: record by record, however either is
    /// chunked.
    pub(crate) fn same_payloads(
        &self,
        other: &PayloadArena,
        protocols: &[ServiceProtocol],
    ) -> bool {
        self.len() == other.len()
            && (self.records().zip(other.records()).zip(protocols))
                .all(|((a, b), &tag)| same_record(tag, a, b))
    }

    /// Row `row`'s payload, decoded in place under its protocol tag.
    #[inline]
    pub(crate) fn get(&self, row: usize, protocol: ServiceProtocol) -> PayloadRef<'_> {
        let after = self.chunks.partition_point(|&(start, _)| start <= row);
        let (start, chunk) = &self.chunks[after.checked_sub(1).expect("a row of the arena")];
        PayloadRef::decode(protocol, chunk.record(row - start), &chunk.profiles).expect(OWN_RECORD)
    }

    /// Check the arena against the protocol column: the chunk table lists
    /// each chunk at the row the ones before it end on, none but the last
    /// empty; every chunk's end offsets non-decreasing and the last one its
    /// buffer's length; every chunk's profile dictionary sound and within
    /// its bound ([`SshProfiles`]'s own check); and every record the exact
    /// bytes its own decoded payload encodes to, an SSH record's profile
    /// index naming an entry of its chunk's dictionary.
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
            (chunk.profiles.validate())
                .map_err(|drift| format!("ssh profile drift in chunk {at}: {drift}"))?;
            first_row += rows;
        }
        let mut again = Vec::new();
        for (row, ((record, profiles), &tag)) in self.records().zip(protocols).enumerate() {
            again.clear();
            let sound = match PayloadRef::decode(tag, record, profiles) {
                Some(PayloadRef::Ssh(SshRef::Record(ssh))) => ssh.parts().is_some_and(|parts| {
                    encode_ssh_record(parts, ssh.profile_index() as u32, &mut again);
                    again == record
                }),
                Some(payload) => {
                    payload.encode(0, &mut again);
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

    fn pushed(rows: &[ServicePayload]) -> PayloadArena {
        let mut arena = PayloadArena::default();
        for row in rows {
            arena.push(row.as_ref());
        }
        arena
    }

    fn tags(rows: &[ServicePayload]) -> Vec<ServiceProtocol> {
        rows.iter().map(ServicePayload::protocol).collect()
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
        // One chunk, so one dictionary: each SSH payload its own profile.
        let arena = pushed(&payloads);
        let chunk = &arena.chunks[0].1;
        assert_eq!(chunk.profiles.len(), 6);
        for (i, payload) in payloads.iter().enumerate() {
            let a = chunk.record(i);
            let decoded = PayloadRef::decode(payload.protocol(), a, &chunk.profiles);
            assert_eq!(&decoded.expect("its own record").to_owned(), payload);
            for j in i + 1..payloads.len() {
                assert_ne!(a, chunk.record(j), "payloads {i} and {j}");
            }
        }
    }

    #[test]
    fn the_three_homes_of_bgp_parameters_read_and_encode_alike() {
        // On the wire: two capabilities packed into one parameter, then an
        // opaque parameter — three entries once flattened.
        let block = [2, 8, 65, 4, 0, 6, 14, 182, 2, 0, 9, 2, 0xde, 0xad];
        let wire = WireParams::parse(&block).unwrap();
        let owned: Vec<OptionalParameter> = wire.iter().map(|p| p.to_owned()).collect();
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
        let profiles = SshProfiles::default();
        let mut from_wire = Vec::new();
        open(BgpParams::Wire(wire)).encode(0, &mut from_wire);
        let mut from_list = Vec::new();
        open(BgpParams::List(&owned)).encode(0, &mut from_list);
        assert_eq!(from_wire, from_list);
        let stored = PayloadRef::decode(ServiceProtocol::Bgp, &from_wire, &profiles).unwrap();
        let PayloadRef::Bgp { open: stored, .. } = stored else {
            panic!("a BGP record");
        };
        assert!(matches!(stored.params, BgpParams::Record(_)));
        assert_eq!(stored.to_owned().optional_parameters, owned);
        assert_eq!(stored.to_owned().effective_asn(), 396_982);
        let mut from_record = Vec::new();
        open(stored.params).encode(0, &mut from_record);
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
        let tags = tags(&rows);
        let arena = pushed(&rows);
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

        // A host key's material with no host-key flag: decodes, but no
        // payload encodes to it.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[0] &= !SSH_HOST_KEY;
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        // A key algorithm that is none.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[1] = 9;
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        // A profile index past the dictionary.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[SSH_PROFILE_AT] = 1;
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
        assert!(chunked.same_payloads(&arena, &tags));
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
    fn validate_reports_profile_dictionaries_push_never_writes() {
        let rows = [
            ssh("a", Some("b"), Some(KexInit::typical_openssh())),
            ssh("c", None, None),
            ssh("a", Some("b"), Some(KexInit::typical_openssh())),
        ];
        let tags = tags(&rows);
        let arena = pushed(&rows);
        assert_eq!(arena.chunks[0].1.profiles.len(), 2);
        assert_eq!(arena.validate(&tags), Ok(()));
        let drift = |arena: &PayloadArena| arena.validate(&tags).unwrap_err();
        fn profiles(arena: &mut PayloadArena) -> &mut SshProfiles {
            &mut chunk_mut(arena, 0).profiles
        }
        let first_len = arena.chunks[0].1.profiles.entry(0).unwrap().len();

        // A duplicate entry: the second row's profile rewritten as the
        // first's.  Every row still decodes to a payload, but push never
        // keeps a profile twice.
        let mut broken = arena.clone();
        let dictionary = profiles(&mut broken);
        let first = dictionary.entry(0).unwrap().to_vec();
        dictionary.bytes.truncate(first_len);
        dictionary.bytes.extend_from_slice(&first);
        dictionary.ends[1] = 2 * first_len;
        assert!(drift(&broken).contains("ssh profile drift in chunk 0: entry 1 repeats"));

        // Truncated entries: short of their table, short of their fields,
        // and cut off behind the last offset.
        for keep in [3, first_len - 1] {
            let mut broken = arena.clone();
            let dictionary = profiles(&mut broken);
            dictionary.bytes.drain(keep..first_len);
            dictionary.ends[0] = keep;
            dictionary.ends[1] -= first_len - keep;
            assert!(
                drift(&broken).contains("entry 0 is not a profile"),
                "{keep}"
            );
        }
        let mut broken = arena.clone();
        profiles(&mut broken).bytes.pop();
        assert!(drift(&broken).contains("entry 1 at"));
        let mut broken = arena.clone();
        profiles(&mut broken).bytes.push(b'x');
        assert!(drift(&broken).contains("the last entry ends at"));

        // Text that is not UTF-8, and a literal that is not the banner
        // line's.
        let mut broken = arena.clone();
        profiles(&mut broken).bytes[PROFILE_HEADER_LEN + 4] = 0xff;
        assert!(drift(&broken).contains("entry 0 is not a profile"));
        let mut broken = arena.clone();
        profiles(&mut broken).bytes[PROFILE_HEADER_LEN] = b's';
        assert!(drift(&broken).contains("entry 0 is not a profile"));

        // An out-of-range index, and one that names the wrong profile: the
        // second is a different payload, not drift — and a different store.
        let mut broken = arena.clone();
        chunk_mut(&mut broken, 0).bytes[SSH_PROFILE_AT] = 2;
        assert!(drift(&broken).contains("tag/payload drift at row 0"));
        let mut other = arena.clone();
        chunk_mut(&mut other, 0).bytes[SSH_PROFILE_AT] = 1;
        assert_eq!(other.validate(&tags), Ok(()));
        assert!(!other.same_payloads(&arena, &tags));
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
            ssh("c", None, None),
            ssh("a", Some("b"), Some(KexInit::typical_openssh())),
        ];
        let tags = tags(&rows);
        // One chunk.
        let whole = pushed(&rows);
        assert_eq!(whole.chunks.len(), 1);
        // A chunk per shard, an empty shard among them, the first one taken
        // into an arena opened with room and nothing in it.  The profiles of
        // rows 2 and 5 and of rows 0 and 6 land in other chunks, under other
        // indices.
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
        assert!(first.same_payloads(&pushed(&rows[..3]), &tags));
        // ...and with the clone gone, the original writes on in place.
        assert!(grown.same_payloads(&whole, &tags));
        drop(grown);
        let mut first = first;
        first.push(rows[3].as_ref());
        assert_eq!(first.chunks.len(), 1);
        let mut grown = first.clone();
        for row in &rows[4..] {
            grown.push(row.as_ref());
        }
        assert_eq!(grown.chunks.len(), 2);

        for arena in [&sharded, &grown] {
            assert_eq!(arena.validate(&tags), Ok(()));
            assert!(arena.same_payloads(&whole, &tags));
            assert_eq!(arena.byte_len(), whole.byte_len());
            for (row, payload) in rows.iter().enumerate() {
                assert_eq!(&arena.get(row, tags[row]).to_owned(), payload);
            }
        }
        // A record less and a different record both differ.
        assert!(!pushed(&rows[..6]).same_payloads(&whole, &tags));
        let mut other = rows.clone();
        other[4] = ssh("e", Some(""), None);
        assert!(!pushed(&other).same_payloads(&whole, &tags));
    }

    /// Row `n` of a shard whose every row has a profile of its own: a
    /// banner and a KEXINIT no other row has, some lists drawn from `draws`.
    fn own_profile(n: usize, draws: [u8; 4]) -> ServicePayload {
        let name = |draw: u8| format!("alg-{}@{n}", draw % 5);
        ServicePayload::Ssh(SshObservation {
            banner: Banner {
                proto_version: "2.0".to_owned(),
                software: format!("server_{n}"),
                comments: (!draws[0].is_multiple_of(3)).then(|| format!("build {}", draws[1])),
            },
            kex_init: Some(KexInit {
                cookie: [draws[2]; 16],
                kex_algorithms: NameList::new([name(draws[0]), name(draws[1])]),
                encryption_server_to_client: NameList::new([name(draws[2])]),
                first_kex_packet_follows: draws[3].is_multiple_of(2),
                ..KexInit::typical_openssh()
            }),
            host_key: (!draws[3].is_multiple_of(4))
                .then(|| HostKey::new(HostKeyAlgorithm::Ed25519, vec![draws[1]; 32])),
        })
    }

    /// An SSH payload lent as parts, its profile the 13 `fields` (the
    /// comments and the ten lists always present), its key `key`.
    fn lent<'a>(fields: &'a [String; PROFILE_FIELDS], key: &'a [u8]) -> PayloadRef<'a> {
        let name_lists = FIELD_OF_LIST.map(|field| NameListRef::new(&fields[field]).unwrap());
        PayloadRef::Ssh(SshRef::Parts(SshObservationRef {
            banner: BannerRef {
                proto_version: &fields[FIELD_BANNER],
                software: &fields[FIELD_BANNER + 1],
                comments: Some(&fields[FIELD_BANNER + 2]),
            },
            kex_init: Some(KexInitRef {
                cookie: [key[0]; 16],
                name_lists,
                first_kex_packet_follows: false,
            }),
            host_key: Some(HostKeyRef {
                algorithm: HostKeyAlgorithm::Ed25519,
                key_material: key,
            }),
        }))
    }

    /// The dictionary entry of `payload`, an SSH payload.
    fn entry_of(payload: PayloadRef<'_>) -> Vec<u8> {
        let PayloadRef::Ssh(ssh) = payload else {
            unreachable!("an SSH payload")
        };
        let parts = ssh.parts();
        let mut entry = Vec::new();
        encode_profile(
            parts.banner,
            parts.kex_init.map(|kex| kex.name_lists),
            &mut entry,
        );
        entry
    }

    /// Check what an arena promises of its dictionaries, whoever wrote it:
    /// every row reads back as `rows` has it and `validate` passes; every
    /// chunk's dictionary holds at most `PROFILES_PER_CHUNK` entries, in the
    /// order the chunk's SSH records first name them, each named.
    fn assert_bounded_and_first_seen(arena: &PayloadArena, rows: &[ServicePayload]) {
        let tags = tags(rows);
        assert_eq!(arena.validate(&tags), Ok(()));
        for (row, payload) in rows.iter().enumerate() {
            assert_eq!(&arena.get(row, tags[row]).to_owned(), payload);
        }
        for (start, chunk) in &arena.chunks {
            assert!(chunk.profiles.len() <= PROFILES_PER_CHUNK);
            let mut named = 0;
            for row in (0..chunk.ends.len()).filter(|row| tags[start + row] == ServiceProtocol::Ssh)
            {
                let (header, _) = chunk.record(row).split_first_chunk().unwrap();
                let index = profile_index(header);
                assert!(
                    index <= named,
                    "row {} names entry {index} of {named}",
                    start + row
                );
                named += usize::from(index == named);
            }
            assert_eq!(named, chunk.profiles.len());
        }
    }

    /// Push `profiles[order[i]]` as row `i` into one arena, and check that
    /// every row goes to the chunk, and names the entry, where a first-seen
    /// map of the profiles' entry bytes puts it — one map per chunk, a new
    /// chunk for a profile that finds the map full — and
    /// [`assert_bounded_and_first_seen`].
    fn pushes_like_a_first_seen_map(profiles: &[[String; PROFILE_FIELDS]], order: &[usize]) {
        let keys: Vec<[u8; 4]> = (0..order.len()).map(|n| (n as u32).to_le_bytes()).collect();
        let rows: Vec<PayloadRef<'_>> = (order.iter().zip(&keys))
            .map(|(&profile, key)| lent(&profiles[profile], key))
            .collect();
        let mut arena = PayloadArena::default();
        let mut first_seen: std::collections::HashMap<Vec<u8>, usize> = Default::default();
        let mut chunks = 1;
        for row in &rows {
            arena.push(*row);
            let entry = entry_of(*row);
            if !first_seen.contains_key(&entry) && first_seen.len() == PROFILES_PER_CHUNK {
                first_seen.clear();
                chunks += 1;
            }
            let next = first_seen.len();
            let expected = *first_seen.entry(entry).or_insert(next);
            assert_eq!(arena.chunks.len(), chunks);
            let chunk = &arena.chunks[chunks - 1].1;
            let record = chunk.record(chunk.ends.len() - 1);
            let (header, _) = record.split_first_chunk().unwrap();
            assert_eq!(profile_index(header), expected);
        }
        assert_eq!(arena.chunks[chunks - 1].1.profiles.len(), first_seen.len());
        let rows: Vec<ServicePayload> = rows.iter().map(PayloadRef::to_owned).collect();
        assert_bounded_and_first_seen(&arena, &rows);
    }

    /// 13 fields of four digits each, profile `n`'s own in the software.
    fn digits(n: usize) -> [String; PROFILE_FIELDS] {
        std::array::from_fn(|field| match field {
            1 => format!("{n:04}"),
            _ => "0000".to_owned(),
        })
    }

    #[test]
    fn profiles_past_a_chunks_bound_open_chunks_with_first_seen_indices() {
        // 70 profiles, each new one after a repeat of an older one — by then
        // perhaps in an older chunk — then all repeated twice in
        // interleaved orders: three chunks' worth of dictionaries, and more.
        let profiles: Vec<[String; PROFILE_FIELDS]> = (0..70).map(digits).collect();
        let mut order: Vec<usize> = Vec::new();
        for n in 0..profiles.len() {
            order.extend([n, n / 2]);
        }
        order.extend((0..profiles.len()).rev());
        order.extend((0..profiles.len()).map(|n| (n * 7) % profiles.len()));
        pushes_like_a_first_seen_map(&profiles, &order);
    }

    #[test]
    fn validate_reports_a_dictionary_past_its_bound() {
        let profiles: Vec<[String; PROFILE_FIELDS]> =
            (0..=PROFILES_PER_CHUNK).map(digits).collect();
        let key = [7];
        let mut arena = PayloadArena::default();
        for fields in &profiles[..PROFILES_PER_CHUNK] {
            arena.push(lent(fields, &key));
        }
        let tags = vec![ServiceProtocol::Ssh; PROFILES_PER_CHUNK];
        assert_eq!(arena.chunks.len(), 1);
        assert_eq!(arena.validate(&tags), Ok(()));
        // A 33rd entry, sound in itself, in the full dictionary.
        let mut broken = arena.clone();
        let dictionary = &mut chunk_mut(&mut broken, 0).profiles;
        let extra = entry_of(lent(&profiles[PROFILES_PER_CHUNK], &key));
        dictionary.bytes.extend_from_slice(&extra);
        dictionary.ends.push(dictionary.bytes.len());
        assert_eq!(
            broken.validate(&tags),
            Err("ssh profile drift in chunk 0: 33 entries, past the bound of 32".to_owned())
        );
        // Pushed, the same profile opens a chunk of its own.
        arena.push(lent(&profiles[PROFILES_PER_CHUNK], &key));
        assert_eq!(arena.chunks.len(), 2);
        assert_eq!(arena.validate(&[ServiceProtocol::Ssh; 33]), Ok(()));
    }

    proptest::proptest! {
        #[test]
        fn profiles_that_differ_in_one_byte_of_equal_fields_are_told_apart(
            edits in proptest::collection::vec((0..PROFILE_FIELDS, 0..4usize, 0..26u8), 60..100),
            repeats in proptest::collection::vec(proptest::prelude::any::<u32>(), 100),
        ) {
            // Every profile has the same field lengths, so the same end
            // offsets: only their bytes tell them apart, each from the base
            // one in one letter where the base has a digit.
            let edits: std::collections::BTreeSet<_> = edits.into_iter().collect();
            proptest::prop_assume!(edits.len() >= 40);
            let profiles: Vec<[String; PROFILE_FIELDS]> = edits
                .iter()
                .map(|&(field, at, letter)| {
                    let mut fields = digits(0);
                    let mut bytes = fields[field].clone().into_bytes();
                    bytes[at] = b'a' + letter;
                    fields[field] = String::from_utf8(bytes).unwrap();
                    fields
                })
                .collect();
            let mut order: Vec<usize> = (0..profiles.len()).collect();
            order.extend(repeats.iter().map(|&repeat| repeat as usize % profiles.len()));
            pushes_like_a_first_seen_map(&profiles, &order);
        }

        #[test]
        fn a_shard_of_a_thousand_profiles_gives_back_every_row(
            draws in proptest::collection::vec(proptest::prelude::any::<[u8; 4]>(), 1_000..1_100),
        ) {
            // Every row's profile is new to the dictionary, and every row
            // after the first thousand repeats one of the first thousand's.
            // Each repeat's profile is in an older chunk than the open one,
            // so every row adds an entry to its chunk's dictionary, and each
            // chunk but the last holds 32 rows.
            let mut rows: Vec<ServicePayload> =
                draws.iter().enumerate().map(|(n, &d)| own_profile(n, d)).collect();
            rows.extend((0..100).map(|n| own_profile(n * 7, draws[n * 7])));
            let arena = pushed(&rows);
            assert_bounded_and_first_seen(&arena, &rows);
            proptest::prop_assert_eq!(arena.chunks.len(), rows.len().div_ceil(PROFILES_PER_CHUNK));
        }
    }

    /// Every SSH and BGP session a tiny Internet's interfaces answer, at
    /// two probe times (so two cookies per address), captured once.
    fn tiny_sessions() -> &'static [(ServiceProtocol, Vec<u8>)] {
        use alias_netsim::{InternetBuilder, InternetConfig, ProbeContext, SimTime, VantageKind};
        static SESSIONS: std::sync::OnceLock<Vec<(ServiceProtocol, Vec<u8>)>> =
            std::sync::OnceLock::new();
        SESSIONS.get_or_init(|| {
            let internet = InternetBuilder::new(InternetConfig::tiny(14)).build();
            let mut sessions = Vec::new();
            for secs in [5, 6] {
                let ctx = ProbeContext {
                    vantage: VantageKind::Distributed,
                    time: SimTime::from_secs(secs),
                };
                for device in internet.devices() {
                    for protocol in [ServiceProtocol::Ssh, ServiceProtocol::Bgp] {
                        for addr in device.answering(protocol) {
                            let route = internet.route(addr).unwrap();
                            let port = protocol.default_port();
                            let mut session = Vec::new();
                            if internet.service_session_into(route, port, &ctx, &mut session) {
                                sessions.push((protocol, session));
                            }
                        }
                    }
                }
            }
            sessions
        })
    }

    /// Push `sessions` into `door` through [`PayloadArena::push_session`]
    /// with `memo`, and into `reference` as [`PayloadRef::parse`] and
    /// [`PayloadArena::push`]: each must be accepted by both or neither.
    fn push_both<'a>(
        sessions: impl IntoIterator<Item = (ServiceProtocol, &'a [u8])>,
        door: &mut PayloadArena,
        memo: &mut SessionMemo,
        reference: &mut PayloadArena,
    ) {
        for (protocol, session) in sessions {
            let parsed = PayloadRef::parse(protocol, session);
            parsed.inspect(|&payload| reference.push(payload));
            let pushed = door.push_session(memo, protocol, session);
            assert_eq!(pushed, parsed.is_some(), "{protocol:?} {session:02x?}");
        }
    }

    /// The two arenas are one layout: chunk for chunk, the same first row,
    /// record bytes, end offsets and dictionary, entry for entry in order.
    fn assert_laid_out_alike(a: &PayloadArena, b: &PayloadArena) {
        assert_eq!(a.chunks.len(), b.chunks.len());
        for ((a_start, a), (b_start, b)) in a.chunks.iter().zip(&b.chunks) {
            assert_eq!(a_start, b_start);
            assert_eq!((&a.bytes, &a.ends), (&b.bytes, &b.ends));
            assert_eq!(a.profiles.bytes, b.profiles.bytes);
            assert_eq!(a.profiles.ends, b.profiles.ends);
        }
    }

    /// Sessions of the profiles `profiles` yields, in that order: banner
    /// software `n` and the OpenSSH KEXINIT, a key and cookie per session.
    fn sessions_of_profiles(profiles: impl IntoIterator<Item = usize>) -> Vec<Vec<u8>> {
        use alias_netsim::profiles::SshProfile;
        use alias_netsim::services::ssh_session_bytes;
        let profiles = profiles.into_iter().enumerate().map(|(at, n)| {
            let profile = SshProfile {
                name: "numbered",
                banner: Banner::new(&format!("numbered_{n}"), None).unwrap(),
                kexinit: KexInit::typical_openssh(),
                weight: 1,
            };
            let key = HostKey::new(HostKeyAlgorithm::Ed25519, vec![at as u8; 32]);
            ssh_session_bytes(&profile, None, key.as_ref(), at as u64)
        });
        profiles.collect()
    }

    #[test]
    fn the_session_door_writes_every_tiny_session_as_parse_and_push_do() {
        let sessions = tiny_sessions();
        let (mut door, mut reference) = (PayloadArena::default(), PayloadArena::default());
        let mut memo = SessionMemo::default();
        let borrowed = sessions
            .iter()
            .map(|(protocol, bytes)| (*protocol, &bytes[..]));
        push_both(borrowed, &mut door, &mut memo, &mut reference);
        assert_laid_out_alike(&door, &reference);
        let tags: Vec<ServiceProtocol> = (sessions.iter())
            .filter(|(protocol, bytes)| PayloadRef::parse(*protocol, bytes).is_some())
            .map(|&(protocol, _)| protocol)
            .collect();
        assert_eq!(door.validate(&tags), Ok(()));
        // One full parse per distinct banner + KEXINIT, cookie aside.
        let mut prefixes = std::collections::HashSet::new();
        let ssh = sessions
            .iter()
            .filter(|(protocol, _)| *protocol == ServiceProtocol::Ssh);
        for (_, bytes) in ssh.clone() {
            let (_, prefix) = parse_ssh(bytes).unwrap();
            let (cookie_at, end) = prefix.expect("a simulated server sends its KEXINIT first");
            let mut masked = bytes[..end].to_vec();
            masked[cookie_at..cookie_at + 16].fill(0);
            prefixes.insert(masked);
        }
        assert!(ssh.count() > 20 * prefixes.len());
        assert_eq!(memo.misses, prefixes.len() as u64);
    }

    #[test]
    fn a_full_parse_that_opens_a_chunk_memoises_into_that_chunk() {
        // 80 profiles, each new one twice running and then one met earlier,
        // perhaps in an older chunk: dictionaries fill and chunks open in
        // the middle of the pass, at a full parse.
        let order: Vec<usize> = (0..80).flat_map(|n| [n, n, n / 2]).collect();
        let sessions = sessions_of_profiles(order);
        let (mut door, mut reference) = (PayloadArena::default(), PayloadArena::default());
        let mut memo = SessionMemo::default();
        let borrowed = sessions
            .iter()
            .map(|bytes| (ServiceProtocol::Ssh, &bytes[..]));
        push_both(borrowed, &mut door, &mut memo, &mut reference);
        // No record names an entry of another chunk than its own.
        assert_laid_out_alike(&door, &reference);
        assert!(door.chunks.len() >= 3);
        let tags = vec![ServiceProtocol::Ssh; door.len()];
        assert_eq!(door.validate(&tags), Ok(()));
        // A session is parsed in full exactly when its profile is new to
        // the chunk it goes to: the profile that opened a chunk is
        // memoised there, and its repeat is not parsed again.
        let entries: usize = door
            .chunks
            .iter()
            .map(|(_, chunk)| chunk.profiles.len())
            .sum();
        assert_eq!(memo.misses, entries as u64);
    }

    #[test]
    fn prefixes_past_the_memos_bound_are_parsed_every_time() {
        // 20 profiles, each sent with `first_kex_packet_follows` clear and
        // then set: 40 prefixes, one chunk of 20 entries.  The first 32
        // prefixes are memoised, the other 8 never are.
        let order = (0..3).flat_map(|_| (0..20).flat_map(|n| [n, n]));
        let sessions: Vec<Vec<u8>> = (sessions_of_profiles(order).into_iter().enumerate())
            .map(|(at, s)| {
                if at % 2 == 1 {
                    mutated(&s, &s, 3, 0)
                } else {
                    s
                }
            })
            .collect();
        let (mut door, mut reference) = (PayloadArena::default(), PayloadArena::default());
        let mut memo = SessionMemo::default();
        let borrowed = sessions
            .iter()
            .map(|bytes| (ServiceProtocol::Ssh, &bytes[..]));
        push_both(borrowed, &mut door, &mut memo, &mut reference);
        assert_laid_out_alike(&door, &reference);
        assert_eq!(door.chunks.len(), 1);
        assert_eq!(door.chunks[0].1.profiles.len(), 20);
        assert_eq!(memo.len, PROFILES_PER_CHUNK);
        assert_eq!(memo.misses, 40 + 2 * 8);
        let tags = vec![ServiceProtocol::Ssh; door.len()];
        assert_eq!(door.validate(&tags), Ok(()));
    }

    #[test]
    fn a_prefix_longer_than_the_memos_buffer_is_parsed_every_time() {
        let mut long = KexInit::typical_openssh();
        long.languages_server_to_client = NameList::new(["x".repeat(MEMO_BYTES)]);
        let profile = alias_netsim::profiles::SshProfile {
            name: "long",
            banner: Banner::new("long", None).unwrap(),
            kexinit: long,
            weight: 1,
        };
        let key = HostKey::new(HostKeyAlgorithm::Ed25519, vec![1; 32]);
        let session = alias_netsim::services::ssh_session_bytes(&profile, None, key.as_ref(), 9);
        let (mut door, mut reference) = (PayloadArena::default(), PayloadArena::default());
        let mut memo = SessionMemo::default();
        let twice = [(ServiceProtocol::Ssh, &session[..]); 2];
        push_both(twice, &mut door, &mut memo, &mut reference);
        assert_laid_out_alike(&door, &reference);
        assert_eq!((memo.len, memo.misses), (0, 2));
    }

    #[test]
    fn the_memo_does_not_carry_across_a_new_chunk() {
        // Profiles 0..4 go into the first chunk.  A clone then shares it,
        // so the next rows open a second chunk, whose dictionary starts
        // with the profiles in the order the second batch meets them.
        let batches = [
            sessions_of_profiles([0, 1, 2, 3, 0, 1]),
            sessions_of_profiles([3, 2, 4, 3, 2]),
        ];
        let (mut door, mut reference) = (PayloadArena::default(), PayloadArena::default());
        let mut memo = SessionMemo::default();
        for (at, batch) in batches.iter().enumerate() {
            let shared = (door.clone(), reference.clone());
            let sessions = batch.iter().map(|bytes| (ServiceProtocol::Ssh, &bytes[..]));
            push_both(sessions, &mut door, &mut memo, &mut reference);
            assert_eq!(door.chunks.len(), at + 1);
            drop(shared);
        }
        assert_laid_out_alike(&door, &reference);
        assert_eq!(memo.misses, 4 + 3);
        let tags = vec![ServiceProtocol::Ssh; door.len()];
        assert_eq!(door.validate(&tags), Ok(()));
    }

    /// `session`, a simulated server's banner, KEXINIT packet and reply
    /// packet, damaged the way `kind` says with `draw` choosing where.
    fn mutated(session: &[u8], other: &[u8], kind: u8, draw: u64) -> Vec<u8> {
        let mut out = session.to_vec();
        let banner_end = out.iter().position(|&b| b == b'\n').unwrap() + 1;
        let packet_length = u32::from_be_bytes(*out[banner_end..].first_chunk().unwrap());
        let packet_end = banner_end + 4 + packet_length as usize;
        let payload_end = packet_end - usize::from(out[banner_end + 4]);
        let cookie_at = banner_end + 6;
        let pick = |range: std::ops::Range<usize>| range.start + (draw as usize) % range.len();
        match kind {
            // A line before the banner.
            1 => {
                out.splice(0..0, *b"hello, scanner\r\n");
            }
            // The banner ended by LF alone.
            2 => {
                out.remove(banner_end - 2);
            }
            // `first_kex_packet_follows` flipped.
            3 => out[payload_end - 5] ^= 1,
            // The cookie alone changed.
            4 => out[pick(cookie_at..cookie_at + 16)] ^= (draw >> 32) as u8 | 1,
            // The KEXINIT cut short, or one of its bytes garbled.
            5 => out.truncate(pick(banner_end + 1..packet_end)),
            6 => out[pick(banner_end..packet_end)] = (draw >> 32) as u8,
            // The first name-list's first name made empty or not ASCII.
            7 => out[cookie_at + 16 + 4] = [b',', 0x80][(draw >> 32) as usize & 1],
            // No key-exchange reply, or a second one after it.
            8 => out.truncate(packet_end),
            9 => {
                let other_banner_end = other.iter().position(|&b| b == b'\n').unwrap() + 1;
                let other_len =
                    u32::from_be_bytes(*other[other_banner_end..].first_chunk().unwrap());
                out.extend_from_slice(&other[other_banner_end + 4 + other_len as usize..]);
            }
            // The key-exchange reply sent before the KEXINIT.
            10 => {
                let reply = out.split_off(packet_end);
                out.splice(banner_end..banner_end, reply);
            }
            _ => {}
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn the_session_door_writes_mutated_sessions_as_parse_and_push_do(
            draws in proptest::collection::vec(
                (proptest::prelude::any::<u16>(), 0..13u8, proptest::prelude::any::<u64>()),
                20..120,
            ),
        ) {
            let real = tiny_sessions();
            let of = |protocol| real.iter().filter(move |(p, _)| *p == protocol).map(|(_, s)| s);
            let ssh: Vec<&Vec<u8>> = of(ServiceProtocol::Ssh).collect();
            let bgp: Vec<&Vec<u8>> = of(ServiceProtocol::Bgp).filter(|s| !s.is_empty()).collect();
            let sessions: Vec<(ServiceProtocol, Vec<u8>)> = draws
                .iter()
                .map(|&(at, kind, draw)| {
                    let session = ssh[usize::from(at) % ssh.len()];
                    let other = ssh[(usize::from(at) + 1) % ssh.len()];
                    match kind {
                        // A BGP speaker's bytes at the SSH door, and SSH
                        // bytes at the BGP door.
                        11 => (ServiceProtocol::Ssh, bgp[usize::from(at) % bgp.len()].clone()),
                        12 => (ServiceProtocol::Bgp, session.clone()),
                        _ => (ServiceProtocol::Ssh, mutated(session, other, kind, draw)),
                    }
                })
                .collect();
            let (mut door, mut reference) = (PayloadArena::default(), PayloadArena::default());
            let mut memo = SessionMemo::default();
            let borrowed = sessions.iter().map(|(protocol, bytes)| (*protocol, &bytes[..]));
            push_both(borrowed, &mut door, &mut memo, &mut reference);
            assert_laid_out_alike(&door, &reference);
        }
    }
}
